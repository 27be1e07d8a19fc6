//! Regression suite for the poison cell: a WAL failure inside a
//! relation's lock scope is never acknowledged and never a panic.  The
//! first failure's reason is captured in the store's poison cell and
//! surfaced as a typed [`Error::ShardPoisoned`] — on the failing
//! call, on every later op touching that relation, on store-wide
//! operations, and at shutdown — while relations whose logs did not
//! fail keep serving, whatever the configuration: failure isolation is
//! per relation by construction.

use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, Predicate, Universe, Value};
use ids_store::{DurableConfig, Error, Schema, Store, StoreConfig, SyncPolicy};

fn v(n: u64) -> Value {
    Value::int(n)
}

/// Two relations with disjoint enforcement: CT gets poisoned, CS must
/// keep serving.
fn setup() -> (DatabaseSchema, FdSet) {
    let u = Universe::from_names(["C", "T", "S"]).unwrap();
    let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS")]).unwrap();
    let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
    (schema, fds)
}

fn unique_root(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-poison-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn durable_with_fault(
    root: &std::path::Path,
    schema: &DatabaseSchema,
    fds: &FdSet,
    fail_appends_after: Option<u64>,
) -> Store {
    Store::open_at(
        root,
        Schema::canonical(schema, fds),
        DurableConfig {
            sync: SyncPolicy::Always,
            fail_appends_after,
            ..DurableConfig::default()
        },
    )
    .unwrap()
}

/// The reason every test asserts on: the injected I/O error's rendering
/// must survive verbatim from the failing `WalWriter` append to the
/// caller-visible typed error.
const INJECTED: &str = "injected append failure";

#[test]
fn injected_append_failure_surfaces_reason_on_the_failing_call() {
    let root = unique_root("failing-call");
    let (schema, fds) = setup();
    let store = durable_with_fault(&root, &schema, &fds, Some(2));
    let ct = schema.scheme_by_name("CT").unwrap();
    store.insert(ct, vec![v(1), v(10)]).unwrap();
    store.insert(ct, vec![v(2), v(20)]).unwrap();
    // The third logged append fails: the op must NOT be acknowledged,
    // and the reason must be readable immediately — not after some
    // later call, and never as an opaque disconnect.
    let err = store.insert(ct, vec![v(3), v(30)]).unwrap_err();
    let Error::ShardPoisoned { reason } = &err else {
        panic!("expected ShardPoisoned, got {err}");
    };
    assert!(reason.contains(INJECTED), "reason lost: {reason}");
    // The rendered error carries the reason too.
    assert!(err.to_string().contains(INJECTED), "display lost: {err}");
    assert_eq!(store.metrics().poisoned.as_deref(), Some(reason.as_str()));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_later_op_and_the_shutdown_report_the_preserved_reason() {
    let root = unique_root("later-ops");
    let (schema, fds) = setup();
    let store = durable_with_fault(&root, &schema, &fds, Some(0));
    let ct = schema.scheme_by_name("CT").unwrap();
    // CT's first logged op poisons CT.
    assert!(matches!(
        store.insert(ct, vec![v(1), v(10)]),
        Err(Error::ShardPoisoned { .. })
    ));
    // Everything that touches CT afterwards — writes, reads in any
    // shape — and every store-wide operation — the snapshot, the
    // checkpoint — reports the same preserved reason.
    // An era's guard must end before the store-wide operations take theirs.
    let gathered = (store.era().unwrap())
        .gather(ct, &Predicate::new(), &mut Vec::new())
        .unwrap_err();
    let counted = (store.era().unwrap())
        .count(ct, &Predicate::new())
        .unwrap_err();
    for err in [
        store.insert(ct, vec![v(2), v(20)]).unwrap_err(),
        store.remove(ct, vec![v(1), v(10)]).unwrap_err(),
        store.query(ct, &Predicate::new()).unwrap_err(),
        gathered,
        counted,
        store.snapshot().unwrap_err(),
        store.checkpoint().unwrap_err(),
    ] {
        let Error::ShardPoisoned { reason } = &err else {
            panic!("expected ShardPoisoned, got {err}");
        };
        assert!(reason.contains(INJECTED), "reason lost: {reason}");
    }
    // Shutdown refuses to present a final state the callers never saw
    // acknowledged — same typed error, same reason.
    let err = store.shutdown().unwrap_err();
    assert!(
        matches!(&err, Error::ShardPoisoned { reason } if reason.contains(INJECTED)),
        "shutdown lost the reason: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn healthy_shards_keep_serving_after_one_poisons() {
    let root = unique_root("degradation");
    let (schema, fds) = setup();
    // The fault budget is per-writer, so CS's log still has appends
    // left after CT's poisons it.
    let store = durable_with_fault(&root, &schema, &fds, Some(2));
    let ct = schema.scheme_by_name("CT").unwrap();
    let cs = schema.scheme_by_name("CS").unwrap();
    store.insert(ct, vec![v(1), v(10)]).unwrap();
    store.insert(ct, vec![v(2), v(20)]).unwrap();
    assert!(matches!(
        store.insert(ct, vec![v(3), v(30)]),
        Err(Error::ShardPoisoned { .. })
    ));
    // Theorem 3's graceful degradation: relations share no enforcement
    // state — and no thread, queue or log — so the healthy relation
    // neither notices nor suffers.
    store.insert(cs, vec![v(1), v(50)]).unwrap();
    assert_eq!(store.query(cs, &Predicate::new()).unwrap().len(), 1);
    let counted = store.era().unwrap().count(cs, &Predicate::new()).unwrap();
    assert_eq!(counted, 1);
    // But anything touching the poisoned relation — including the
    // store-wide snapshot — reports the preserved reason.
    assert!(matches!(
        store.query(ct, &Predicate::new()),
        Err(Error::ShardPoisoned { .. })
    ));
    assert!(matches!(store.snapshot(), Err(Error::ShardPoisoned { .. })));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn organic_rotate_failure_poisons_the_checkpoint() {
    let root = unique_root("rotate");
    let (schema, fds) = setup();
    let store = durable_with_fault(&root, &schema, &fds, None);
    let ct = schema.scheme_by_name("CT").unwrap();
    store.insert(ct, vec![v(1), v(10)]).unwrap();
    store.checkpoint().unwrap();
    // Pull the directory out from under the store: the next rotation
    // cannot create its fresh segment files.  No fault injection here —
    // this is a real I/O failure through the real code path.
    std::fs::remove_dir_all(&root).unwrap();
    let err = store.checkpoint().unwrap_err();
    let Error::ShardPoisoned { reason } = &err else {
        panic!("expected ShardPoisoned, got {err}");
    };
    assert!(
        !reason.is_empty(),
        "rotate failure must preserve its reason"
    );
    assert!(store.metrics().poisoned.is_some());
    // The store stays poisoned for later callers.
    assert!(matches!(
        store.insert(ct, vec![v(2), v(20)]),
        Err(Error::ShardPoisoned { .. })
    ));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_stats_poll_discovers_the_poison_without_mutating() {
    let root = unique_root("stats-poll");
    let (schema, fds) = setup();
    let store = durable_with_fault(&root, &schema, &fds, Some(0));
    let ct = schema.scheme_by_name("CT").unwrap();
    assert!(store.metrics().poisoned.is_none());
    assert!(matches!(
        store.insert(ct, vec![v(1), v(10)]),
        Err(Error::ShardPoisoned { .. })
    ));
    // The failure must be discoverable without issuing a failing op.
    // The metrics snapshot is pure read-side: no slot is locked, yet it
    // carries the preserved reason...
    let snap = store.metrics();
    let reason = snap
        .poisoned
        .as_deref()
        .expect("poison surfaced in the snapshot");
    assert!(reason.contains(INJECTED), "reason lost: {reason}");
    // ...the event ring holds the first failure as a structured event
    // with the failing shard's index...
    assert!(
        snap.events.iter().any(|r| matches!(
            &r.event,
            ids_obs::Event::ShardPoisoned { shard: 0, reason } if reason.contains(INJECTED)
        )),
        "no ShardPoisoned event in {:?}",
        snap.events
    );
    // ...and the operator-facing text rendering shows it up front.
    assert!(snap.render().contains(INJECTED));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn in_memory_stores_never_poison() {
    // The poison path is durability-only: an in-memory store has no WAL
    // to fail, and a full workload leaves the cell untouched.
    let (schema, fds) = setup();
    let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
    let ct = schema.scheme_by_name("CT").unwrap();
    store.insert(ct, vec![v(1), v(10)]).unwrap();
    assert_eq!(store.metrics().poisoned, None);
    store.shutdown().unwrap();
}

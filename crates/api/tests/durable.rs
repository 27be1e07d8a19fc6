//! Durability behavior of the typed front-end: `open_at` / `recover`
//! round trips, checkpoint semantics, and — most importantly — the
//! *error paths*: a log written under a different schema or FD set must
//! be a typed mismatch, never a silent misreplay.

use ids_api::{Alter, Database, EngineKind, Error, Schema};
use ids_chase::{satisfies, ChaseConfig};
use ids_relational::Value;
use ids_store::{DurableConfig, Store, StoreConfig, SyncPolicy};
use ids_wal::WalError;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-api-durable-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn example2() -> Schema {
    Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course hour -> room")
        .build()
        .unwrap()
}

/// Rows, pool names, and declared column order all survive a crashless
/// reopen — including `recover`, which learns the schema from the
/// manifest alone.
#[test]
fn open_at_then_recover_round_trips_the_string_level() {
    let root = tmp_dir("roundtrip");
    {
        let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
        assert!(db.is_durable());
        db.insert("CT", ["CS402", "Jones"]).unwrap();
        db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
        assert!(db.insert("CT", ["CS402", "Smith"]).unwrap().is_rejected());
        assert!(db.remove("CHR", ["CS402", "9am", "R128"]).unwrap());
        db.insert("CHR", ["CS402", "9am", "R200"]).unwrap();
    }
    // Recover with no schema in hand: manifest + layouts rebuild it.
    let db = Database::recover(&root).unwrap();
    assert_eq!(
        db.schema().columns("CHR").unwrap(),
        ["course", "hour", "room"]
    );
    assert_eq!(
        db.rows("CT").unwrap(),
        vec![vec!["CS402".to_string(), "Jones".to_string()]]
    );
    assert_eq!(
        db.rows("CHR").unwrap(),
        vec![vec![
            "CS402".to_string(),
            "9am".to_string(),
            "R200".to_string()
        ]]
    );
    // The recovered cut is globally satisfying under the full chase —
    // per-relation replay plus LSAT = WSAT.
    let snap = db.snapshot().unwrap();
    let schema = db.schema();
    assert!(satisfies(
        schema.definition(),
        schema.fds(),
        &snap,
        &ChaseConfig::default()
    )
    .unwrap()
    .is_satisfying());
    let _ = std::fs::remove_dir_all(&root);
}

/// A log written under a *different* schema or FD set is a typed
/// mismatch error from both `open_at` and the pool log, not a replay.
#[test]
fn recovering_under_a_different_schema_or_fds_is_a_typed_mismatch() {
    let root = tmp_dir("mismatch");
    {
        let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
        db.insert("CT", ["CS402", "Jones"]).unwrap();
    }
    // Same relations, one FD dropped.
    let fewer_fds = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .build()
        .unwrap();
    let err = match Database::open_at(&root, fewer_fds, DurableConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("expected mismatch refusal"),
    };
    assert!(
        matches!(
            err,
            ids_api::Error::Wal(WalError::SchemaMismatch { detail: "FD set" })
        ),
        "got {err}"
    );
    // Different relation shape.
    let other_schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CH", ["course", "hour"])
        .fd("course -> teacher")
        .build()
        .unwrap();
    let err = match Database::open_at(&root, other_schema, DurableConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("expected mismatch refusal"),
    };
    assert!(
        matches!(
            err,
            ids_api::Error::Wal(WalError::SchemaMismatch { detail: "schema" })
        ),
        "got {err}"
    );
    // The matching schema still opens fine afterwards — refusal mutated
    // nothing.
    let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
    assert_eq!(db.count("CT").unwrap(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// Double `checkpoint()` and recover-after-clean-shutdown are no-ops:
/// the observable state (rows, rendered strings, acceptance behavior)
/// is unchanged by either.
#[test]
fn double_checkpoint_and_clean_shutdown_recovery_are_noops() {
    let root = tmp_dir("noop");
    {
        let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
        db.insert("CT", ["CS402", "Jones"]).unwrap();
        db.checkpoint().unwrap();
        db.checkpoint().unwrap(); // nothing new: same snapshot again
        db.insert("CS", ["CS402", "Ann"]).unwrap();
        db.checkpoint().unwrap();
        db.checkpoint().unwrap();
    }
    for _ in 0..2 {
        // Recover twice in a row: clean shutdown each time, identical
        // state each time.
        let db = Database::recover(&root).unwrap();
        assert_eq!(
            db.rows("CT").unwrap(),
            vec![vec!["CS402".to_string(), "Jones".to_string()]]
        );
        assert_eq!(db.count("CS").unwrap(), 1);
        // Enforcement state recovered too: the FD still fires.
        assert!(db.insert("CT", ["CS402", "Smith"]).unwrap().is_rejected());
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Every file under `root` with its length, sorted by path.
fn file_sizes(root: &std::path::Path) -> Vec<(std::path::PathBuf, u64)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            found.extend(file_sizes(&path));
        } else {
            found.push((path.clone(), std::fs::metadata(&path).unwrap().len()));
        }
    }
    found.sort();
    found
}

/// A refused row writes no byte: arity is checked before the first name
/// is interned — reachable by any wire client through
/// `SharedDatabase::insert` — and the names of the accepted row went
/// into its relation's segment, the only file that grew.
#[test]
fn refused_rows_append_nothing_to_the_relation_log() {
    let root = tmp_dir("refused-row");
    let shared = Database::open_at(&root, example2(), DurableConfig::default())
        .unwrap()
        .into_shared()
        .unwrap();
    let empty = file_sizes(&root);
    shared.insert("CT", ["CS402", "Jones"]).unwrap();
    let before = file_sizes(&root);
    let segment = root.join("wal").join("r00000-g0000000001.log");
    let grown: Vec<_> = (before.iter())
        .filter(|entry| !empty.contains(entry))
        .map(|(path, _)| path.clone())
        .collect();
    assert_eq!(
        grown,
        std::slice::from_ref(&segment),
        "only CT's segment grew"
    );
    let bytes = std::fs::read(&segment).unwrap();
    assert!(
        bytes.windows(5).any(|w| w == b"CS402") && bytes.windows(5).any(|w| w == b"Jones"),
        "the accepted row's names are in its relation's segment"
    );
    for row in [&["too-short"][..], &["too", "long", "row"][..]] {
        assert!(matches!(
            shared.insert("CT", row),
            Err(ids_api::Error::Relational(
                ids_relational::RelationalError::ArityMismatch { expected: 2, .. }
            ))
        ));
    }
    assert_eq!(file_sizes(&root), before);
    drop(shared);
    let _ = std::fs::remove_dir_all(&root);
}

/// `checkpoint()` on an in-memory database is a typed error, and a
/// durable database's store handle reports itself durable.
#[test]
fn durability_misuse_is_typed() {
    let db = Database::open(example2(), ids_api::EngineKind::Local).unwrap();
    assert!(!db.is_durable());
    assert!(matches!(db.checkpoint(), Err(ids_api::Error::NotDurable)));
    db.insert("CT", ["a", "b"]).unwrap();

    let root = tmp_dir("store-handle");
    let db = Database::open_at(
        &root,
        example2(),
        DurableConfig {
            sync: SyncPolicy::Always,
            ..DurableConfig::default()
        },
    )
    .unwrap();
    assert!(db.is_durable() && db.store().is_durable());
    drop(db);
    let _ = std::fs::remove_dir_all(&root);
}

/// A store refusal is one [`Error`] variant with one rendering, whether
/// the store surfaced it or the `Database` over it did: `NotDurable`
/// from `checkpoint` and `alter` in memory, `ShardPoisoned` after a log
/// failure, `BackfillViolation` from an `AddFd` the rows violate.  The
/// durable cases run the two layers in turn at one path, because a
/// poison reason names the failing segment.
#[test]
fn a_store_refusal_reads_the_same_through_the_store_and_the_database() {
    fn same(from_store: Error, from_db: Error) -> Error {
        assert_eq!(
            std::mem::discriminant(&from_store),
            std::mem::discriminant(&from_db),
            "{from_store} vs {from_db}"
        );
        assert_eq!(from_store.to_string(), from_db.to_string());
        from_store
    }
    // One relation, no dependency yet: two teachers for one course
    // violate the FD the alter adds.
    let ct = || {
        Schema::builder()
            .relation("CT", ["course", "teacher"])
            .build()
            .unwrap()
    };
    let add_fd = Alter::AddFd {
        spec: "course -> teacher".into(),
    };
    let rows = [["CS402", "Jones"], ["CS402", "Smith"]];

    let store = Store::open(ct(), StoreConfig::default()).unwrap();
    let db = Database::open(ct(), EngineKind::Local).unwrap();
    let err = same(
        store.checkpoint().unwrap_err(),
        db.checkpoint().unwrap_err(),
    );
    assert!(matches!(err, Error::NotDurable), "got {err}");
    let err = same(
        store.alter(&add_fd).unwrap_err(),
        db.alter(&add_fd).unwrap_err(),
    );
    assert!(matches!(err, Error::NotDurable), "got {err}");

    let root = tmp_dir("one-refusal");
    let failing = || DurableConfig {
        fail_appends_after: Some(0),
        ..DurableConfig::default()
    };
    let from_store = {
        let store = Store::open_at(&root, ct(), failing()).unwrap();
        let id = store.schema().scheme_id("CT").unwrap();
        store
            .insert(id, vec![Value::int(0), Value::int(1)])
            .unwrap_err()
    };
    std::fs::remove_dir_all(&root).unwrap();
    let from_db = {
        let db = Database::open_at(&root, ct(), failing()).unwrap();
        db.insert("CT", rows[0]).unwrap_err()
    };
    std::fs::remove_dir_all(&root).unwrap();
    let err = same(from_store, from_db);
    assert!(matches!(err, Error::ShardPoisoned { .. }), "got {err}");

    let from_store = {
        let store = Store::open_at(&root, ct(), DurableConfig::default()).unwrap();
        let id = store.schema().scheme_id("CT").unwrap();
        for n in [1, 2] {
            store
                .insert(id, vec![Value::int(0), Value::int(n)])
                .unwrap();
        }
        store.alter(&add_fd).unwrap_err()
    };
    std::fs::remove_dir_all(&root).unwrap();
    let from_db = {
        let db = Database::open_at(&root, ct(), DurableConfig::default()).unwrap();
        for row in rows {
            db.insert("CT", row).unwrap();
        }
        db.alter(&add_fd).unwrap_err()
    };
    let _ = std::fs::remove_dir_all(&root);
    let err = same(from_store, from_db);
    assert!(matches!(err, Error::BackfillViolation { .. }), "got {err}");
}

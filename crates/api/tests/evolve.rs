//! Online schema evolution through the typed front-end: accepted
//! transitions keep serving old data under the new schema, refused
//! transitions carry typed witnesses and mutate *nothing*, and every
//! accepted generation survives crash recovery — including a torn
//! append in a post-transition segment.
//!
//! The differential proptest at the bottom is the correctness anchor:
//! through a random interleaving of alters and write traffic, every
//! per-op outcome must agree with the rows the live database serves,
//! and `recover(log(S)) = S` must hold at every era boundary and at
//! the end — schema, rows and enforcement.

use ids_api::{Alter, Database, EngineKind, Error, Schema};
use ids_relational::{DatabaseState, Value};
use ids_store::{DurableConfig, StoreConfig, SyncPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::{Duration, Instant};

use proptest::prelude::*;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-api-evolve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Example 2 of the paper: the independent course-scheduling schema.
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

fn add_sr() -> Alter {
    Alter::AddRelation {
        name: "SR".into(),
        columns: vec!["student".into(), "room".into()],
    }
}

/// An accepted `AddRelation` + `AddFd` pair on a live durable database:
/// generations advance, old rows keep serving, the new relation and the
/// new dependency are immediately live — and the whole history replays
/// under the right per-era schema after an unclean drop.
#[test]
fn accepted_alters_serve_immediately_and_survive_recovery() {
    let root = tmp_dir("accepted");
    let (g1, g2);
    {
        let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
        db.insert("CT", ["CS402", "Jones"]).unwrap();
        db.insert("CS", ["CS402", "Ann"]).unwrap();
        db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();

        g1 = db.alter(&add_sr()).unwrap();
        // The new relation serves immediately, old rows untouched.
        assert_eq!(db.schema().columns("SR").unwrap(), ["student", "room"]);
        db.insert("SR", ["Ann", "R128"]).unwrap();
        assert_eq!(db.count("CT").unwrap(), 1);

        // A second transition: `student` becomes a key of SR.  The
        // backfill sees only the one existing row, so it passes.
        g2 = db
            .alter(&Alter::AddFd {
                spec: "student -> room".into(),
            })
            .unwrap();
        assert!(g2 > g1);
        // The added FD fires on the very next write.
        assert!(db.insert("SR", ["Ann", "R999"]).unwrap().is_rejected());
        db.insert("SR", ["Bob", "R200"]).unwrap();
    }
    // Unclean drop (no checkpoint): recovery must replay generation 1
    // records under the 3-relation schema and later ones under the
    // 4-relation schema, then serve the *latest* era.
    let db = Database::recover(&root).unwrap();
    let schema = db.schema();
    let names: Vec<&str> = schema.relation_names().collect();
    assert_eq!(names, ["CT", "CS", "CHR", "SR"]);
    assert_eq!(
        db.rows("CT").unwrap(),
        vec![vec!["CS402".to_string(), "Jones".to_string()]]
    );
    let mut sr = db.rows("SR").unwrap();
    sr.sort();
    assert_eq!(
        sr,
        vec![
            vec!["Ann".to_string(), "R128".to_string()],
            vec!["Bob".to_string(), "R200".to_string()],
        ]
    );
    // Recovered enforcement is the *evolved* FD set, not the base one.
    assert!(db.insert("SR", ["Bob", "R300"]).unwrap().is_rejected());
    assert!(db.insert("CT", ["CS402", "Smith"]).unwrap().is_rejected());
    let _ = std::fs::remove_dir_all(&root);
}

/// A transition whose target schema is *dependent* is refused with the
/// LSAT∖WSAT witness, and the running database is untouched: same
/// schema, same rows, same acceptance behavior, and a later valid
/// alter still goes through.
#[test]
fn dependent_target_is_refused_with_witness_and_serving_continues() {
    let root = tmp_dir("dependent");
    let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();

    // "student hour -> room" is embedded in no relation: the chase
    // finds a locally-satisfying, globally-unsatisfying state.
    let err = db
        .alter(&Alter::AddFd {
            spec: "student hour -> room".into(),
        })
        .unwrap_err();
    match &err {
        Error::NotIndependent { witness, .. } => {
            assert!(!witness.state.is_empty(), "witness carries a state");
        }
        other => panic!("expected NotIndependent, got {other}"),
    }
    assert!(err.witness().is_some());

    // Nothing moved: schema, rows, and enforcement are all pre-alter.
    assert_eq!(db.schema().relation_names().count(), 3);
    assert_eq!(db.schema().fds().iter().count(), 2);
    assert_eq!(db.count("CT").unwrap(), 1);
    assert!(db.insert("CT", ["CS402", "Smith"]).unwrap().is_rejected());

    // Dropping CS would leave `student` covered by no relation: a
    // typed evolve refusal, not a panic and not a partial drop.
    let err = db
        .alter(&Alter::DropRelation { name: "CS".into() })
        .unwrap_err();
    assert!(matches!(err, Error::Evolve(_)), "got {err}");
    assert_eq!(db.schema().relation_names().count(), 3);

    // After AddRelation SR covers `student` elsewhere, the same drop
    // is accepted — the refusal left the database fully usable.
    db.alter(&add_sr()).unwrap();
    db.alter(&Alter::DropRelation { name: "CS".into() })
        .unwrap();
    let schema = db.schema();
    let names: Vec<&str> = schema.relation_names().collect();
    assert_eq!(names, ["CT", "CHR", "SR"]);
    let _ = std::fs::remove_dir_all(&root);
}

/// `add_fd` against data that violates the new dependency is refused
/// with the violating pair as witness tuples; after the offending row
/// is removed, the same alter succeeds and the FD starts firing.
#[test]
fn violating_backfill_is_refused_with_witness_tuples() {
    let root = tmp_dir("backfill");
    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .build()
        .unwrap();
    let db = Database::open_at(&root, schema, DurableConfig::default()).unwrap();
    // No FD yet: two teachers for one course are both accepted.
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CT", ["CS402", "Smith"]).unwrap();

    let op = Alter::AddFd {
        spec: "course -> teacher".into(),
    };
    let err = db.alter(&op).unwrap_err();
    match &err {
        Error::BackfillViolation { witness, .. } => {
            assert_eq!(witness.len(), 2, "the violating pair is the witness");
        }
        other => panic!("expected BackfillViolation, got {other}"),
    }
    // Refusal mutated nothing: both rows still served, no FD enforced.
    assert_eq!(db.count("CT").unwrap(), 2);
    db.insert("CT", ["CS101", "Reed"]).unwrap();

    // Remove the conflict and retry: accepted, and enforced at once.
    assert!(db.remove("CT", ["CS402", "Smith"]).unwrap());
    db.alter(&op).unwrap();
    assert!(db.insert("CT", ["CS402", "Smith"]).unwrap().is_rejected());
    let _ = std::fs::remove_dir_all(&root);
}

/// The relation's membership table is its key index, so an alter that
/// drops and re-adds the key FD re-files it: after the drop two rows may
/// share `a`, the refused re-add leaves both served, and once accepted
/// the key probe refuses a conflict and answers the point read.
#[test]
fn dropping_and_re_adding_a_key_fd_rekeys_the_relation() {
    let root = tmp_dir("rekey");
    let schema = Schema::builder()
        .relation("R", ["a", "b"])
        .fd("a -> b")
        .build()
        .unwrap();
    let db = Database::open_at(&root, schema, DurableConfig::default()).unwrap();
    let fd = || "a -> b".to_string();
    db.alter(&Alter::DropFd { spec: fd() }).unwrap();
    assert!(db.insert("R", ["x", "1"]).unwrap().is_accepted());
    assert!(db.insert("R", ["x", "2"]).unwrap().is_accepted());

    let err = db.alter(&Alter::AddFd { spec: fd() }).unwrap_err();
    match &err {
        Error::BackfillViolation { witness, .. } => {
            assert_eq!(witness.len(), 2, "the violating pair is the witness");
        }
        other => panic!("expected BackfillViolation, got {other}"),
    }
    let both = vec![
        vec!["x".to_string(), "1".into()],
        vec!["x".into(), "2".into()],
    ];
    let mut rows = db.rows("R").unwrap();
    rows.sort();
    assert_eq!(rows, both);

    assert!(db.remove("R", ["x", "2"]).unwrap());
    db.alter(&Alter::AddFd { spec: fd() }).unwrap();
    assert!(db.insert("R", ["x", "3"]).unwrap().is_rejected());
    let read = db.query("R").filter("a", ids_api::eq("x")).run().unwrap();
    assert_eq!(read.into_string_rows(), vec![both[0].clone()]);
    let _ = std::fs::remove_dir_all(&root);
}

/// A refused backfill that would have keyed the relation by `a` leaves it
/// filed under its old key, every column, and the serving cover still
/// refuses its own conflicts.
#[test]
fn a_refused_backfill_leaves_the_relation_keyed_and_enforced() {
    let root = tmp_dir("refused-rekey");
    let schema = Schema::builder()
        .relation("R", ["a", "b", "c"])
        .fd("b -> c")
        .build()
        .unwrap();
    let db = Database::open_at(&root, schema, DurableConfig::default()).unwrap();
    let id = db.schema().scheme_id("R").unwrap();
    db.insert("R", ["x", "1", "1"]).unwrap();
    db.insert("R", ["x", "2", "2"]).unwrap();
    let key = |db: &Database| db.snapshot().unwrap().relation(id).key().to_vec();
    assert_eq!(key(&db), [0, 1, 2]);

    // `a -> b` would make `a` the key; the two `x` rows refuse it.
    let err = db
        .alter(&Alter::AddFd {
            spec: "a -> b".into(),
        })
        .unwrap_err();
    assert!(matches!(err, Error::BackfillViolation { .. }), "got {err}");
    assert_eq!(key(&db), [0, 1, 2]);
    assert!(db.insert("R", ["y", "1", "9"]).unwrap().is_rejected());
    assert!(db.insert("R", ["x", "1", "1"]).unwrap().is_duplicate());
    let read = (db.query("R"))
        .filter("a", ids_api::eq("x"))
        .filter("b", ids_api::eq("2"))
        .filter("c", ids_api::eq("2"))
        .run()
        .unwrap();
    assert_eq!(read.len(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// A refused `AddFd` costs no more than an accepted one, however many
/// rows share the new key.  The backfill checks the new cover before it
/// files the relation under the new key: filed first, the rows sharing
/// `a` would form one probe run of the membership table, and the refusal
/// below would take O(rows²) probes — minutes — holding the relation.
#[test]
fn a_refused_key_backfill_costs_no_more_than_an_accepted_one() {
    const ROWS: u64 = 100_000;
    // `AddFd a -> b` on `R(a, b)` holding `(a_of(i), i)` for each i < ROWS.
    let time_add_fd = |name: &str, a_of: fn(u64) -> u64| {
        let root = tmp_dir(name);
        let schema = Schema::builder().relation("R", ["a", "b"]).build().unwrap();
        let id = schema.scheme_id("R").unwrap();
        let mut state = DatabaseState::empty(schema.definition());
        for i in 0..ROWS {
            state
                .insert(id, vec![Value::int(a_of(i)), Value::int(i)])
                .unwrap();
        }
        let config = DurableConfig {
            store: StoreConfig {
                initial_state: Some(state),
                ..Default::default()
            },
            sync: SyncPolicy::Never,
            ..Default::default()
        };
        let db = Database::open_at(&root, schema, config).unwrap();
        let started = Instant::now();
        let outcome = db.alter(&Alter::AddFd {
            spec: "a -> b".into(),
        });
        let elapsed = started.elapsed();
        assert_eq!(db.count("R").unwrap(), ROWS as usize);
        drop(db);
        let _ = std::fs::remove_dir_all(&root);
        (outcome, elapsed)
    };
    let (accepted, accept_time) = time_add_fd("backfill-accepted", |i| i);
    accepted.unwrap();
    let (refused, refuse_time) = time_add_fd("backfill-refused", |_| 0);
    assert!(
        matches!(refused, Err(Error::BackfillViolation { .. })),
        "got {refused:?}"
    );
    assert!(
        refuse_time <= accept_time * 4 + Duration::from_millis(50),
        "refused in {refuse_time:?}, accepted in {accept_time:?}"
    );
}

/// Every refused alter is counted where the alter runs, in the store:
/// a dependent target, an unknown relation and an FD spec that does not
/// parse each raise `evolve.rejected` by exactly one and record exactly
/// one `AlterRejected` event, like a refused backfill — and an accepted
/// alter raises neither.
#[test]
fn every_refused_alter_is_counted_once() {
    let root = tmp_dir("refusals-counted");
    let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
    let tallies = |db: &Database| {
        let snap = db.metrics();
        let events = (snap.events.iter())
            .filter(|r| matches!(r.event, ids_obs::Event::AlterRejected { .. }))
            .count();
        (snap.counter("evolve.rejected").unwrap_or(0), events)
    };
    assert_eq!(tallies(&db), (0, 0));
    let err = db
        .alter(&Alter::AddFd {
            spec: "student hour -> room".into(),
        })
        .unwrap_err();
    assert!(matches!(err, Error::NotIndependent { .. }), "got {err}");
    assert_eq!(tallies(&db), (1, 1), "a dependent target is one refusal");
    let err = db
        .alter(&Alter::DropRelation {
            name: "NOPE".into(),
        })
        .unwrap_err();
    assert!(matches!(err, Error::UnknownRelation(_)), "got {err}");
    assert_eq!(tallies(&db), (2, 2));
    let err = db
        .alter(&Alter::AddFd {
            spec: "course teacher".into(),
        })
        .unwrap_err();
    assert!(matches!(err, Error::FdParse { .. }), "got {err}");
    assert_eq!(tallies(&db), (3, 3));
    db.alter(&add_sr()).unwrap();
    assert_eq!(tallies(&db), (3, 3), "an accepted alter is no refusal");
    let _ = std::fs::remove_dir_all(&root);
}

/// Alters serialize in the store: two threads each cycle their own
/// relation through add → insert → drop, fifty times, on one durable
/// database, then add it once more.  Each alter derives its target
/// from the schema the one before it left, so every alter is accepted,
/// the schema ends with exactly both relations beside the base one, and
/// the directory recovers to the live state.
#[test]
fn concurrent_alters_serialize_in_the_store() {
    const CYCLES: usize = 50;
    let root = tmp_dir("concurrent-alters");
    let schema = Schema::builder()
        .relation("BASE", ["a", "b", "c", "d"])
        .build()
        .unwrap();
    let db = Database::open_at(&root, schema, DurableConfig::default()).unwrap();
    // A dropped relation must leave its columns covered: BASE covers
    // both threads' columns.
    let churn = |name: &str, columns: [&str; 2]| -> Result<(), String> {
        let add = Alter::AddRelation {
            name: name.into(),
            columns: columns.map(String::from).to_vec(),
        };
        let drop = Alter::DropRelation { name: name.into() };
        for i in 0..=CYCLES {
            db.alter(&add)
                .map_err(|e| format!("{name}: add {i}: {e}"))?;
            let row = [format!("{name}{i}"), format!("v{i}")];
            match db.insert(name, row) {
                Ok(outcome) if outcome.is_accepted() => {}
                other => return Err(format!("{name}: insert {i}: {other:?}")),
            }
            if i < CYCLES {
                db.alter(&drop)
                    .map_err(|e| format!("{name}: drop {i}: {e}"))?;
            }
        }
        Ok(())
    };
    let (one, two) = std::thread::scope(|s| {
        let one = s.spawn(|| churn("T1", ["a", "b"]));
        let two = s.spawn(|| churn("T2", ["c", "d"]));
        (one.join().unwrap(), two.join().unwrap())
    });
    one.unwrap();
    two.unwrap();

    let mut names: Vec<String> = db.schema().relation_names().map(String::from).collect();
    names.sort();
    assert_eq!(names, ["BASE", "T1", "T2"]);
    let last = |name: &str| vec![vec![format!("{name}{CYCLES}"), format!("v{CYCLES}")]];
    assert_eq!(db.rows("T1").unwrap(), last("T1"));
    assert_eq!(db.rows("T2").unwrap(), last("T2"));
    let alters = 2 * (2 * CYCLES as u64 + 1);
    assert_eq!(db.metrics().counter("evolve.alters"), Some(alters));
    assert_recovers_to(&root, &db, "after the concurrent alters");
    let _ = std::fs::remove_dir_all(&root);
}

/// Alter requires a log to append the generation to: an in-memory
/// database, opened through either selector variant, gets `NotDurable`
/// — typed, the schema unchanged, and the database keeps working.
#[test]
fn alter_on_an_in_memory_database_is_typed() {
    for kind in [
        EngineKind::Local,
        EngineKind::Sharded(StoreConfig::default()),
    ] {
        let db = Database::open(example2(), kind).unwrap();
        let err = db.alter(&add_sr()).unwrap_err();
        assert!(matches!(err, Error::NotDurable), "got {err}");
        assert!(db.schema().scheme_id("SR").is_err());
        db.insert("CT", ["a", "b"]).unwrap();
    }
}

/// Crash injection across the manifest-generation boundary: a torn
/// append in a *post-transition* segment is truncated to the intact
/// prefix, while every acknowledged record of both eras survives.
#[test]
fn torn_tail_after_a_transition_recovers_the_acknowledged_prefix() {
    let root = tmp_dir("torn");
    let sr_gen;
    {
        let db = Database::open_at(
            &root,
            example2(),
            DurableConfig {
                sync: SyncPolicy::Always,
                ..DurableConfig::default()
            },
        )
        .unwrap();
        db.insert("CT", ["CS402", "Jones"]).unwrap();
        db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
        sr_gen = db.alter(&add_sr()).unwrap();
        db.insert("SR", ["Ann", "R128"]).unwrap();
        db.insert("SR", ["Bob", "R200"]).unwrap();
        // Unclean drop.
    }
    // Tear the tail of SR's generation-g segment: the last record's
    // CRC frame no longer closes, as if the process died mid-write.
    let seg = root
        .join("wal")
        .join(format!("r{:05}-g{:010}.log", 3, sr_gen));
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let db = Database::recover(&root).unwrap();
    // The transition itself (manifest) and everything before the torn
    // record are intact; the torn record is gone, not corrupted.
    assert_eq!(db.schema().columns("SR").unwrap(), ["student", "room"]);
    assert_eq!(
        db.rows("SR").unwrap(),
        vec![vec!["Ann".to_string(), "R128".to_string()]]
    );
    assert_eq!(db.count("CT").unwrap(), 1);
    assert_eq!(db.count("CHR").unwrap(), 1);
    // The database is live again: re-append what was torn.
    db.insert("SR", ["Bob", "R200"]).unwrap();
    assert_eq!(db.count("SR").unwrap(), 2);
    let _ = std::fs::remove_dir_all(&root);
}

/// A switch that fails *after* the durability point must not return
/// with the old schema still serving: `MANIFEST-g2` is already durable,
/// so recovery will load the new schema, and a store that kept
/// acknowledging writes under the old one would be a silent fork.  The
/// failure poisons the store instead — the failing alter and every
/// later operation report the I/O reason — and recovery lands on the
/// new schema with every acknowledged row.
#[test]
fn a_switch_failing_after_the_durability_point_poisons_instead_of_forking() {
    let root = tmp_dir("post-durability");
    let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    let next_gen = db.store().generation().unwrap() + 1;
    // SR becomes scheme 3; squat on its first segment's name with a
    // directory so the added relation's log writer cannot be created.
    let squatter = root
        .join("wal")
        .join(ids_wal::segment_file_name(3, next_gen));
    std::fs::create_dir(&squatter).unwrap();

    let is_poisoned = |e: Error| match e {
        Error::ShardPoisoned { reason } => {
            assert!(reason.contains("r00003-g"), "not the I/O reason: {reason}");
        }
        other => panic!("expected ShardPoisoned, got {other}"),
    };
    is_poisoned(db.alter(&add_sr()).unwrap_err());
    // No relation keeps serving the schema recovery will not load.
    is_poisoned(db.insert("CT", ["CS101", "Reed"]).unwrap_err());
    is_poisoned(db.insert("CS", ["CS402", "Ann"]).unwrap_err());
    is_poisoned(db.remove("CT", ["CS402", "Jones"]).unwrap_err());
    is_poisoned(db.count("CHR").unwrap_err());
    is_poisoned(db.checkpoint().unwrap_err());
    drop(db);

    // The manifest was durable, so the transition *is* in effect after
    // recovery — with the acknowledged row and nothing else.
    std::fs::remove_dir(&squatter).unwrap();
    let db = Database::recover(&root).unwrap();
    assert_eq!(db.schema().columns("SR").unwrap(), ["student", "room"]);
    assert_eq!(
        db.rows("CT").unwrap(),
        vec![vec!["CS402".to_string(), "Jones".to_string()]]
    );
    assert_eq!(db.count("CS").unwrap(), 0);
    db.insert("SR", ["Ann", "R128"]).unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// The manifest write is the durability point, and it can fail with the
/// manifest already in place: its last step, the directory fsync, runs
/// after the rename.  Here the target generation's manifest is on disk
/// before the alter writes it — the state such a failure leaves — so the
/// write is refused while recovery would load the manifest.  The alter
/// must poison the store rather than keep serving the old schema, and
/// recovery lands on the new schema with every acknowledged row.
#[test]
fn a_manifest_write_failing_with_the_manifest_in_place_poisons_instead_of_forking() {
    let root = tmp_dir("manifest-in-place");
    let db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    let next_gen = db.store().generation().unwrap() + 1;
    // The same alter's manifest, written by a twin database.
    let twin_root = tmp_dir("manifest-in-place-twin");
    let twin = Database::open_at(&twin_root, example2(), DurableConfig::default()).unwrap();
    let twin_gen = twin.alter(&add_sr()).unwrap();
    drop(twin);
    std::fs::copy(
        twin_root.join(ids_wal::generation_manifest_name(twin_gen)),
        root.join(ids_wal::generation_manifest_name(next_gen)),
    )
    .unwrap();

    let is_poisoned = |e: Error| match e {
        Error::ShardPoisoned { reason } => {
            assert!(
                reason.contains("would not extend"),
                "not the manifest reason: {reason}"
            );
        }
        other => panic!("expected ShardPoisoned, got {other}"),
    };
    is_poisoned(db.alter(&add_sr()).unwrap_err());
    is_poisoned(db.insert("CT", ["CS101", "Reed"]).unwrap_err());
    is_poisoned(db.count("CHR").unwrap_err());
    is_poisoned(db.alter(&add_sr()).unwrap_err());
    drop(db);

    let db = Database::recover(&root).unwrap();
    assert_eq!(db.schema().columns("SR").unwrap(), ["student", "room"]);
    assert_eq!(
        db.rows("CT").unwrap(),
        vec![vec!["CS402".to_string(), "Jones".to_string()]]
    );
    db.insert("SR", ["Ann", "R128"]).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&twin_root);
}

/// Transitions on other relations never cost a relation its writes: a
/// writer streams inserts into HOT while this thread cycles drop-relation
/// of PRE (declared *before* HOT, so the drop moves HOT and WARM down a
/// position), add-FD (with a real backfill over the preloaded WARM),
/// drop-FD, add-relation, drop-relation and the re-add of PRE, and a
/// reader counts HOT throughout.  Every HOT insert lands in HOT, every
/// count answers and never goes down, WARM keeps its rows, the schema
/// ends with the relations it started with, and the metrics count the
/// same transitions the loop made.
#[test]
fn hot_writes_land_while_alters_churn_other_relations() {
    const HOT: u64 = 1_000;
    const WARM: u64 = 200;
    let root = tmp_dir("churn");
    let schema = Schema::builder()
        .relation("PRE", ["wkey", "wval"])
        .relation("HOT", ["key", "val"])
        .relation("WARM", ["wkey", "wval"])
        .fd("key -> val")
        .build()
        .unwrap();
    let db = Database::open_at(&root, schema, DurableConfig::default()).unwrap();
    for k in 0..WARM {
        db.insert("WARM", [format!("w{k}"), format!("x{k}")])
            .unwrap();
    }
    let mut warm_before = db.rows("WARM").unwrap();
    warm_before.sort();
    // The churn cycle.  Every step is accepted: PRE is gone while the FD
    // is declared (two relations over `wkey wval` would make it
    // dependent), the FD is embedded in WARM (whose distinct keys satisfy
    // it), and TMP and PRE reuse WARM's columns, since a dropped relation
    // must leave every attribute covered elsewhere.
    let wcols = || vec!["wkey".to_string(), "wval".to_string()];
    let cycle = |n: u64| match n % 6 {
        0 => Alter::DropRelation { name: "PRE".into() },
        1 => Alter::AddFd {
            spec: "wkey -> wval".into(),
        },
        2 => Alter::DropFd {
            spec: "wkey -> wval".into(),
        },
        3 => Alter::AddRelation {
            name: "TMP".into(),
            columns: wcols(),
        },
        4 => Alter::DropRelation { name: "TMP".into() },
        _ => Alter::AddRelation {
            name: "PRE".into(),
            columns: wcols(),
        },
    };

    // The writer and the reader report a miss instead of panicking, so
    // the alter loop below still sees `done` and the test fails, not
    // hangs.
    let done = AtomicBool::new(false);
    let (alters, written, counted) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let written = (0..HOT).try_for_each(|k| {
                match db.insert("HOT", [format!("k{k}"), format!("v{k}")]) {
                    Ok(outcome) if outcome.is_accepted() => Ok(()),
                    other => Err(format!("HOT insert {k}: {other:?}")),
                }
            });
            done.store(true, SeqCst);
            written
        });
        // HOT's count only grows, whatever position HOT holds in the
        // schema a count runs under.
        let reader = s.spawn(|| {
            let mut last = 0;
            while !done.load(SeqCst) {
                match db.count("HOT") {
                    Ok(n) if n >= last => last = n,
                    other => return Err(format!("count(HOT) after {last}: {other:?}")),
                }
            }
            Ok(())
        });
        // At least one whole cycle, then whole cycles until the writer
        // finishes, so the schema ends where it started.
        let mut alters = 0u64;
        while !(alters >= 6 && alters.is_multiple_of(6) && done.load(SeqCst)) {
            db.alter(&cycle(alters)).unwrap();
            alters += 1;
        }
        (alters, writer.join().unwrap(), reader.join().unwrap())
    });
    written.unwrap();
    counted.unwrap();

    assert_eq!(db.count("HOT").unwrap() as u64, HOT);
    let mut warm_after = db.rows("WARM").unwrap();
    warm_after.sort();
    assert_eq!(warm_after, warm_before);
    assert_eq!(db.schema().relation_names().count(), 3);
    let snap = db.metrics();
    assert_eq!(snap.counter("evolve.alters"), Some(alters));
    let backfills = snap
        .events
        .iter()
        .filter(|r| matches!(r.event, ids_obs::Event::BackfillCompleted { .. }))
        .count();
    assert!(backfills >= 1, "every add-FD backfills WARM");
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Differential proptest: alters interleaved with write traffic.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(&'static str, Vec<String>),
    Remove(&'static str, Vec<String>),
    Alter(Alter),
}

/// The fixed alter pool the generator draws from: additions, drops,
/// FDs that are sometimes refused (dependent target, uncovered
/// universe, duplicate relation) depending on the schedule prefix.
fn alter_pool(i: usize) -> Alter {
    match i % 6 {
        0 => add_sr(),
        1 => Alter::DropRelation { name: "SR".into() },
        2 => Alter::AddFd {
            spec: "course -> student".into(),
        },
        3 => Alter::DropFd {
            spec: "course -> student".into(),
        },
        4 => Alter::AddFd {
            spec: "student hour -> room".into(),
        },
        _ => Alter::DropRelation { name: "CS".into() },
    }
}

/// One op's observable outcome, as a comparable label.  Errors are
/// labeled by *kind*, not message, so the comparison is about typed
/// behavior.
fn apply(db: &mut Database, op: &Op) -> String {
    match op {
        Op::Insert(rel, row) => match db.insert(rel, row) {
            Ok(o) => format!("insert:{o:?}"),
            Err(e) => format!("insert-err:{}", err_kind(&e)),
        },
        Op::Remove(rel, row) => match db.remove(rel, row) {
            Ok(b) => format!("remove:{b}"),
            Err(e) => format!("remove-err:{}", err_kind(&e)),
        },
        Op::Alter(a) => match db.alter(a) {
            Ok(g) => format!("altered:g{g}"),
            Err(e) => format!("alter-err:{}", err_kind(&e)),
        },
    }
}

fn err_kind(e: &Error) -> &'static str {
    match e {
        Error::NotIndependent { .. } => "not-independent",
        Error::BackfillViolation { .. } => "backfill",
        Error::InvalidBaseState { .. }
        | Error::Disconnected
        | Error::ShardPoisoned { .. }
        | Error::NotDurable
        | Error::Replay { .. } => "store",
        Error::Evolve(_) => "evolve",
        Error::UnknownRelation(_) => "unknown-relation",
        Error::Relational(_) => "relational",
        _ => "other",
    }
}

/// The observable state: each served relation's rows, as a set.
type Rendered = BTreeMap<String, BTreeSet<Vec<String>>>;

fn rendered(db: &Database) -> Rendered {
    let names: Vec<String> = db.schema().relation_names().map(String::from).collect();
    names
        .into_iter()
        .map(|name| {
            let rows = db.rows(&name).unwrap().into_iter().collect();
            (name, rows)
        })
        .collect()
}

/// Recursive directory copy — the image a crash would leave behind.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// `recover(log(S)) = S`, checked without stopping `S`: what a crash at
/// this instant would leave behind — a copy of the directory the live
/// database is writing — recovers to the same relations with the same
/// rows.  (A copy, because recovery opens fresh segments.)
fn assert_recovers_to(root: &std::path::Path, live: &Database, at: &str) {
    let copy = root.with_extension("crashed");
    let _ = std::fs::remove_dir_all(&copy);
    copy_dir(root, &copy);
    let recovered = Database::recover(&copy).unwrap();
    assert_eq!(
        rendered(&recovered),
        rendered(live),
        "recovery diverges {at}"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&copy);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A random schedule of alters + writes on one durable database:
    /// every per-op outcome is the one the live rows dictate (an insert
    /// is a duplicate iff its row was served, accepted or rejected rows
    /// do or do not appear, a remove reports presence, a refused alter
    /// changes nothing), and the directory recovers to the live state
    /// after every accepted alter — i.e. across each era boundary — and
    /// after a final unclean drop.
    #[test]
    fn altered_traffic_recovers_to_the_live_state(
        picks in proptest::collection::vec((0usize..10, 0usize..4, 0usize..3, 0usize..3), 10..40),
        seed in 0u64..1_000_000,
    ) {
        let relations = ["CT", "CS", "CHR", "SR"];
        let schedule: Vec<Op> = picks
            .iter()
            .enumerate()
            .map(|(n, &(kind, rel, a, b))| {
                let name = relations[rel];
                let width = match name {
                    "CHR" => 3,
                    _ => 2,
                };
                let row: Vec<String> =
                    (0..width).map(|c| format!("v{}", (a + b * c + c) % 4)).collect();
                match kind {
                    0..=5 => Op::Insert(name, row),
                    6..=7 => Op::Remove(name, row),
                    _ => Op::Alter(alter_pool(n.wrapping_add(seed as usize))),
                }
            })
            .collect();

        let root = tmp_dir(&format!("diff-{seed}"));
        let mut db = Database::open_at(&root, example2(), DurableConfig::default()).unwrap();
        for (n, op) in schedule.iter().enumerate() {
            let before = rendered(&db);
            let got = apply(&mut db, op);
            let after = rendered(&db);
            let (held, holds) = match op {
                Op::Insert(rel, row) | Op::Remove(rel, row) => (
                    before.get(*rel).is_some_and(|rows| rows.contains(row)),
                    after.get(*rel).is_some_and(|rows| rows.contains(row)),
                ),
                Op::Alter(_) => (false, false),
            };
            let changed = before != after;
            let consistent = match got.as_str() {
                "insert:Accepted" => !held && holds,
                "insert:Duplicate" => held && !changed,
                "remove:true" => held && !holds,
                "remove:false" => !held && !changed,
                "insert-err:unknown-relation" | "remove-err:unknown-relation" => {
                    let (Op::Insert(rel, _) | Op::Remove(rel, _)) = op else { unreachable!() };
                    !before.contains_key(*rel) && !changed
                }
                // An FD refusal, or a refused alter: nothing moved.
                other if other.starts_with("insert:Rejected") => !held && !changed,
                other if other.starts_with("alter-err:") => !changed,
                other if other.starts_with("altered:g") => {
                    // Rows of surviving relations are untouched; an
                    // added relation starts empty.
                    assert_recovers_to(&root, &db, &format!("after op {n} ({op:?})"));
                    after.iter().all(|(name, rows)| match before.get(name) {
                        Some(old) => old == rows,
                        None => rows.is_empty(),
                    })
                }
                other => panic!("op {n} ({op:?}): unexpected outcome {other}"),
            };
            prop_assert!(consistent, "op {} ({:?}) answered {} against {:?}", n, op, got, before);
        }

        // Crash (unclean drop) and recover: per-era replay lands on the
        // live state, and keeps enforcing what the live database did.
        let live = rendered(&db);
        let schema_fds = db.schema().fds().iter().count();
        drop(db);
        let db = Database::recover(&root).unwrap();
        prop_assert_eq!(rendered(&db), live);
        prop_assert_eq!(db.schema().fds().iter().count(), schema_fds);
        let _ = std::fs::remove_dir_all(&root);
    }
}

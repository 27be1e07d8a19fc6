//! Durability behavior of the typed front-end: `open_at` / `recover`
//! round trips, checkpoint semantics, and — most importantly — the
//! *error paths*: a log written under a different schema or FD set must
//! be a typed mismatch, never a silent misreplay.

use ids_api::{Database, Schema};
use ids_chase::{satisfies, ChaseConfig};
use ids_store::{DurableConfig, StoreError, SyncPolicy};
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

/// A refused row leaves the durable name log untouched: arity is checked
/// before the first name is interned (and fsync'd) — reachable by any
/// wire client through `SharedDatabase::insert`.
#[test]
fn refused_rows_append_nothing_to_the_name_log() {
    let root = tmp_dir("refused-row");
    let shared = Database::open_at(&root, example2(), DurableConfig::default())
        .unwrap()
        .into_shared()
        .unwrap();
    shared.insert("CT", ["CS402", "Jones"]).unwrap();
    let log = shared.store().pool_log_path().unwrap();
    let before = std::fs::metadata(&log).unwrap().len();
    assert!(before > 0, "the accepted row's names were logged");
    for row in [&["too-short"][..], &["too", "long", "row"][..]] {
        assert!(matches!(
            shared.insert("CT", row),
            Err(ids_api::Error::Relational(
                ids_relational::RelationalError::ArityMismatch { expected: 2, .. }
            ))
        ));
    }
    assert_eq!(std::fs::metadata(&log).unwrap().len(), before);
    drop(shared);
    let _ = std::fs::remove_dir_all(&root);
}

/// `checkpoint()` on an in-memory database is a typed error, and a
/// durable database's store handle reports itself durable.
#[test]
fn durability_misuse_is_typed() {
    let db = Database::open(example2(), ids_api::EngineKind::Local).unwrap();
    assert!(!db.is_durable());
    assert!(matches!(
        db.checkpoint(),
        Err(ids_api::Error::Store(StoreError::NotDurable))
    ));
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

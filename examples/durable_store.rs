//! Durable registrar: a database that survives its process.
//!
//! The paper's Theorem 3 makes every accepted op a *local* decision of
//! one relation's cover — so the write-ahead log is per-relation, with
//! no ordering between logs, and recovery replays each relation
//! independently through the same probe/commit path the live store
//! runs.  This example opens a durable database, writes, checkpoints,
//! "crashes" (drops the handle), recovers from the directory alone, and
//! shows the string-level surface coming back intact.
//!
//! Run with: `cargo run --example durable_store`

use independent_schemas::prelude::*;
use independent_schemas::store::{DurableConfig, SyncPolicy};

fn main() -> Result<(), ApiError> {
    let root = std::env::temp_dir().join(format!("ids-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Session 1: create, write, checkpoint, write more, "crash".
    {
        let schema = Schema::builder()
            .relation("CT", ["course", "teacher"])
            .relation("CS", ["course", "student"])
            .relation("CHR", ["course", "hour", "room"])
            .fd("course -> teacher")
            .fd("course hour -> room")
            .build()?;
        let db = Database::open_at(
            &root,
            schema,
            DurableConfig {
                sync: SyncPolicy::Always, // ack ⇒ on disk
                ..DurableConfig::default()
            },
        )?;
        db.insert("CT", ["CS402", "Jones"])?;
        db.insert("CS", ["CS402", "Ann"])?;
        db.insert("CHR", ["CS402", "9am", "R128"])?;
        assert!(db.insert("CT", ["CS402", "Smith"])?.is_rejected());
        println!("session 1: wrote 3 rows (and had one insert rejected by course → teacher)");

        db.checkpoint()?;
        println!("session 1: checkpointed (snapshot written, logs truncated)");

        db.insert("CS", ["CS402", "Bob"])?;
        db.remove("CHR", ["CS402", "9am", "R128"])?;
        db.insert("CHR", ["CS402", "9am", "R200"])?;
        println!("session 1: 3 more ops after the checkpoint, then… crash (no shutdown)");
        // Dropping the handle without ceremony: everything acknowledged
        // was already fsync'd under SyncPolicy::Always.
    }

    // Session 2: recover from the directory alone — schema, declared
    // column order and interned strings all come back from the manifest,
    // snapshot, per-relation log tails and name log.
    let db = Database::recover(&root)?;
    println!("\nsession 2: recovered from {}", root.display());
    for relation in ["CT", "CS", "CHR"] {
        println!("  {relation}: {:?}", db.rows(relation)?);
    }
    assert_eq!(db.count("CS")?, 2);
    assert_eq!(
        db.rows("CHR")?,
        vec![vec![
            "CS402".to_string(),
            "9am".to_string(),
            "R200".to_string()
        ]]
    );

    // The recovered state is not just bytes back from disk: each
    // relation was replayed through its enforcement cover, and
    // independence (LSAT = WSAT) makes the per-relation replays add up
    // to a globally satisfying state.
    let snap = db.snapshot()?;
    let ok = satisfies(
        db.schema().definition(),
        db.schema().fds(),
        &snap,
        &ChaseConfig::default(),
    )
    .unwrap()
    .is_satisfying();
    println!("\nrecovered state globally satisfying under the full chase: {ok}");
    assert!(ok);

    drop(db);
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

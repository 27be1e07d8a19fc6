//! Read replication, end to end on loopback: a durable primary behind a
//! `Server`, two wire-stream followers, a mid-stream checkpoint, and
//! convergence asserted after every phase.
//!
//! Theorem 3 is what makes log shipping almost free here: an
//! independent schema keeps one append-only log *per relation* with no
//! cross-log ordering, so a follower replaying each relation's prefix
//! independently always holds a locally-satisfying — and therefore
//! globally satisfying (`LSAT = WSAT`) — state, even while its
//! relations sit at different points of the primary's history.
//!
//! Run with: `cargo run --release --example replica_tour`

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use independent_schemas::prelude::*;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-replica-tour-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create seed dir");
    for entry in std::fs::read_dir(from).expect("read primary dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy file");
        }
    }
}

fn assert_converged(primary: &Database, follower: &Replica, who: &str) {
    for relation in ["CT", "CS"] {
        let mut want = primary.rows(relation).expect("primary rows");
        let mut got = follower.database().rows(relation).expect("replica rows");
        want.sort();
        got.sort();
        assert_eq!(want, got, "{who} diverged on {relation}");
    }
}

fn main() -> Result<(), ApiError> {
    // Example 2's first two relations, durable at a temp directory.
    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .fd("course -> teacher")
        .build()
        .expect("independent");
    let root = tmp_dir("primary");
    let db = Database::open_at(&root, schema, DurableConfig::default()).expect("open durable");
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();

    // A base backup: followers seed from a copy of the durable
    // directory, then stream everything after it over TCP.
    let seed = tmp_dir("seed");
    copy_dir(&root, &seed);

    let shared = Arc::new(db.into_shared()?);
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    println!("primary listening on {addr}");

    let mut alpha = Replica::connect(&seed, addr).expect("follower alpha");
    let mut beta = Replica::connect(&seed, addr).expect("follower beta");
    println!("two followers subscribed from the same seed\n");

    // -- Phase 1: live writes stream to both followers ---------------
    shared.insert("CT", ["CS101", "Smith"]).unwrap();
    shared.insert("CS", ["CS101", "Quinn"]).unwrap();
    assert!(alpha.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert!(beta.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_converged(&shared, &alpha, "alpha");
    assert_converged(&shared, &beta, "beta");
    println!("phase 1: both followers converged on the live stream");

    // -- Phase 2: a mid-stream checkpoint rotates every log ----------
    // The primary folds its logs into a snapshot and starts fresh
    // segment generations.  The followers consumed the old generation,
    // so sequence contiguity carries them across the rotation.
    shared.checkpoint().expect("checkpoint");
    shared.insert("CT", ["CS301", "Lee"]).unwrap();
    shared.insert("CS", ["CS301", "Avery"]).unwrap();
    assert!(alpha.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert!(beta.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_converged(&shared, &alpha, "alpha");
    assert_converged(&shared, &beta, "beta");
    println!("phase 2: both followers survived the checkpoint rotation");

    // -- Phase 3: the read surface, writes refused -------------------
    let rows = alpha
        .database()
        .query("CT")
        .filter("course", eq("CS301"))
        .run()
        .expect("replica query");
    assert_eq!(rows.into_string_rows(), vec![vec!["CS301", "Lee"]]);
    let join = beta.database().join(["CT", "CS"]).expect("replica join");
    println!("phase 3: replica join CT ⋈ CS has {} rows", join.len());

    // Lag is zero everywhere once caught up, and every follower's
    // metrics obey shipped == applied + pending.
    for (who, follower) in [("alpha", &alpha), ("beta", &beta)] {
        for (i, lag) in follower.lag().iter().enumerate() {
            assert_eq!(lag.seq_delta, 0, "{who} lagging on relation {i}");
        }
        let snap = follower.metrics();
        for i in 0..2 {
            let shipped = snap.counter(&format!("replica.r{i}.shipped")).unwrap_or(0);
            let applied = snap.counter(&format!("replica.r{i}.applied")).unwrap_or(0);
            let pending = snap.gauge(&format!("replica.r{i}.pending")).unwrap_or(0);
            assert_eq!(shipped, applied + pending as u64, "{who} conservation");
        }
        println!("{who}: lag 0 on every relation, shipped == applied");
    }

    server.shutdown();
    println!("\nprimary down; followers still serve their last state:");
    println!(
        "  alpha CT rows: {:?}",
        alpha.database().rows("CT").unwrap().len()
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&seed);
    Ok(())
}

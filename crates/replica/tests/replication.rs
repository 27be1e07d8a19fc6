//! End-to-end replication: file-tail and wire-stream followers of a
//! real durable primary — convergence, checkpoint rotations, lag
//! accounting, and the typed behind/diverged refusals.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ids_api::{Database, Schema};
use ids_replica::{Replica, ReplicaError};
use ids_server::Server;
use ids_store::DurableConfig;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-replica-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn schema() -> Schema {
    Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .fd("course -> teacher")
        .build()
        .unwrap()
}

fn primary(root: &Path) -> Database {
    Database::open_at(root, schema(), DurableConfig::default()).unwrap()
}

/// Recursive directory copy — the "base backup" a wire follower seeds
/// from.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn sorted(mut rows: Vec<Vec<String>>) -> Vec<Vec<String>> {
    rows.sort();
    rows
}

/// Both sides render the same string-level rows for every relation.
fn assert_converged(primary: &Database, replica: &Replica) {
    for relation in ["CT", "CS"] {
        assert_eq!(
            sorted(primary.rows(relation).unwrap()),
            sorted(replica.database().rows(relation).unwrap()),
            "relation {relation} diverged"
        );
    }
}

/// A follower's relations are filed under their keys — `course` for
/// `CT` under `course -> teacher`, every column for `CS` — both as the
/// bootstrap recovers them from a checkpoint and as it tails later
/// writes, so its point reads probe the key rather than pass over every
/// row.
#[test]
fn file_follower_relations_are_filed_under_their_keys() {
    let root = tmp_dir("keys");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();
    db.checkpoint().unwrap();
    let mut replica = Replica::open(&root).unwrap();
    let keys = |replica: &Replica| {
        let state = replica.database().snapshot().unwrap();
        let schema = replica.schema();
        ["CT", "CS"].map(|name| {
            let id = schema.scheme_id(name).unwrap();
            (state.relation(id).len(), state.relation(id).key().to_vec())
        })
    };
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_eq!(keys(&replica), [(1, vec![0]), (1, vec![0, 1])]);
    db.insert("CT", ["CS101", "Reed"]).unwrap();
    db.insert("CS", ["CS101", "Ann"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_eq!(keys(&replica), [(2, vec![0]), (2, vec![0, 1])]);
    drop(db);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn file_follower_bootstraps_and_tails_a_live_primary() {
    let root = tmp_dir("file-tail");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();

    // Bootstrap picks up everything durable so far.
    let mut replica = Replica::open(&root).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_converged(&db, &replica);

    // The read surface answers queries and joins, not just dumps.
    let rows = replica
        .database()
        .query("CT")
        .filter("course", ids_api::eq("CS402"))
        .run()
        .unwrap();
    assert_eq!(rows.into_string_rows(), vec![vec!["CS402", "Jones"]]);
    let join = replica.database().join(["CT", "CS"]).unwrap();
    assert_eq!(join.into_string_rows().len(), 1);

    // Tail live appends — including a remove — and re-converge.
    db.insert("CT", ["CS101", "Smith"]).unwrap();
    db.remove("CS", ["CS402", "Riley"]).unwrap();
    db.insert("CS", ["CS101", "Quinn"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_converged(&db, &replica);

    // Lag is zero on every relation once caught up, and the metrics
    // obey the conservation law shipped == applied + pending.
    for (i, lag) in replica.lag().iter().enumerate() {
        assert_eq!(lag.seq_delta, 0, "relation {i} still lagging");
    }
    let snap = replica.metrics();
    for i in 0..2 {
        let shipped = snap.counter(&format!("replica.r{i}.shipped")).unwrap_or(0);
        let applied = snap.counter(&format!("replica.r{i}.applied")).unwrap_or(0);
        let pending = snap.gauge(&format!("replica.r{i}.pending")).unwrap_or(0);
        assert_eq!(
            shipped,
            applied + pending as u64,
            "conservation violated on relation {i}"
        );
    }
    assert!(
        snap.events
            .iter()
            .any(|r| matches!(r.event, ids_obs::Event::ReplicaCaughtUp { .. })),
        "caught-up transition must be recorded"
    );
}

#[test]
fn file_follower_survives_a_checkpoint_rotation() {
    let root = tmp_dir("file-ckpt");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();

    let mut replica = Replica::open(&root).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    // A checkpoint rotates every relation's log onto a fresh
    // generation and prunes the covered one.  The follower consumed
    // the old generation, so contiguity lets it advance.
    db.checkpoint().unwrap();
    db.insert("CT", ["CS101", "Smith"]).unwrap();
    db.insert("CS", ["CS101", "Quinn"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_converged(&db, &replica);
    // The cursor moved to the post-checkpoint generation.
    assert!(replica.cursors()[0].gen >= 1);
}

/// A checkpoint prunes the only records that named a removed row's
/// string, but its snapshot carries the whole pool: a primary that
/// reopens keeps the id a follower tailing through the restart already
/// holds, instead of reissuing the name under a new one.
#[test]
fn file_follower_keeps_a_removed_name_across_a_primary_reopen() {
    let root = tmp_dir("file-reopen");
    let wait = Duration::from_secs(5);
    let mut replica = {
        let db = primary(&root);
        db.insert("CT", ["k", "gone"]).unwrap();
        let mut replica = Replica::open(&root).unwrap();
        assert!(replica.wait_caught_up(wait).unwrap());
        assert!(db.remove("CT", ["k", "gone"]).unwrap());
        assert!(replica.wait_caught_up(wait).unwrap());
        db.checkpoint().unwrap();
        assert!(replica.wait_caught_up(wait).unwrap());
        replica
    };
    let db = primary(&root);
    db.insert("CT", ["k2", "gone"]).unwrap();
    assert!(replica.wait_caught_up(wait).unwrap());
    assert_converged(&db, &replica);
    assert_eq!(
        replica.database().lookup("gone"),
        db.lookup("gone"),
        "the name kept its id"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A follower lends `&Database`, whose writes take `&self`: each is
/// refused typed, and — the part that matters — **before** it interns.
/// One stray name in the follower's pool would shift every later
/// streamed name onto a different value: rows that render differently
/// from the primary's, with no error anywhere.
#[test]
fn a_follower_refuses_writes_before_interning_and_still_converges() {
    use ids_api::Error::ReplicaReadOnly;
    use ids_store::StoreOp;

    let root = tmp_dir("read-only");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    let mut replica = Replica::open(&root).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    let follower = replica.database();
    let ct = follower.schema().scheme_id("CT").unwrap();
    let stored = vec![
        follower.lookup("CS402").unwrap(),
        follower.lookup("Jones").unwrap(),
    ];
    let fresh = ["never-seen-course", "never-seen-teacher"];
    assert!(matches!(follower.insert("CT", fresh), Err(ReplicaReadOnly)));
    assert!(matches!(follower.remove("CT", fresh), Err(ReplicaReadOnly)));
    assert!(matches!(
        follower.remove("CT", ["CS402", "Jones"]),
        Err(ReplicaReadOnly)
    ));
    assert!(matches!(
        follower.insert_raw(ct, stored.clone()),
        Err(ReplicaReadOnly)
    ));
    let batch = vec![StoreOp::Remove {
        scheme: ct,
        tuple: stored,
    }];
    assert!(matches!(follower.apply_batch(batch), Err(ReplicaReadOnly)));
    for name in fresh {
        assert_eq!(
            follower.lookup(name),
            None,
            "a refused write interned {name}"
        );
    }

    // Two names the primary has never seen either: they must land on the
    // follower under the primary's values, or the rows below differ.
    db.insert("CT", ["CS101", "Smith"]).unwrap();
    db.insert("CS", ["CS101", "Quinn"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_converged(&db, &replica);
    for name in ["CS402", "Jones", "CS101", "Smith", "Quinn"] {
        assert_eq!(replica.database().lookup(name), db.lookup(name), "{name}");
    }
}

#[test]
fn file_follower_pruned_past_its_cursor_is_typed_behind() {
    let root = tmp_dir("file-behind");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();

    let mut replica = Replica::open(&root).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    // Records the follower has NOT consumed get folded into a
    // snapshot, and their segments pruned: the follower is behind.
    db.insert("CT", ["CS101", "Smith"]).unwrap();
    db.checkpoint().unwrap();
    db.insert("CT", ["CS301", "Lee"]).unwrap();
    let err = loop {
        match replica.poll() {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    assert!(matches!(err, ReplicaError::Behind), "got {err}");

    // Re-bootstrapping from the snapshot recovers the full state —
    // still a per-relation prefix of the primary's history.
    let mut fresh = Replica::open(&root).unwrap();
    assert!(fresh.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert_converged(&db, &fresh);
}

#[test]
fn wire_follower_converges_over_loopback() {
    let root = tmp_dir("wire-primary");
    let seed = tmp_dir("wire-seed");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();

    // The base backup: copy the durable directory as of now.
    copy_dir(&root, &seed);

    // More writes after the seed was taken — these must arrive over
    // the wire, not from the seed.
    db.insert("CT", ["CS101", "Smith"]).unwrap();
    db.remove("CS", ["CS402", "Riley"]).unwrap();

    let shared = Arc::new(db.into_shared().unwrap());
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").unwrap();

    let mut replica = Replica::connect(&seed, server.local_addr()).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    // Writes while subscribed stream through too.
    shared.insert("CS", ["CS301", "Avery"]).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());

    for relation in ["CT", "CS"] {
        assert_eq!(
            sorted(shared.rows(relation).unwrap()),
            sorted(replica.database().rows(relation).unwrap()),
            "relation {relation} diverged over the wire"
        );
    }
    // New names minted after the seed (Smith, Avery, ...) rendered
    // correctly, which means the streamed pool names kept the
    // primary's interning order.
    let snap = replica.metrics();
    for i in 0..2 {
        let shipped = snap.counter(&format!("replica.r{i}.shipped")).unwrap_or(0);
        let applied = snap.counter(&format!("replica.r{i}.applied")).unwrap_or(0);
        let pending = snap.gauge(&format!("replica.r{i}.pending")).unwrap_or(0);
        assert_eq!(shipped, applied + pending as u64);
    }
    server.shutdown();
}

#[test]
fn wire_follower_with_a_pruned_cursor_is_typed_behind() {
    let root = tmp_dir("wire-behind");
    let seed = tmp_dir("wire-behind-seed");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    copy_dir(&root, &seed);

    // Advance and checkpoint past the seed: its generation is pruned.
    db.insert("CT", ["CS101", "Smith"]).unwrap();
    db.checkpoint().unwrap();
    db.insert("CT", ["CS301", "Lee"]).unwrap();

    let shared = Arc::new(db.into_shared().unwrap());
    let server = Server::serve(shared, "127.0.0.1:0").unwrap();

    let mut replica = Replica::connect(&seed, server.local_addr()).unwrap();
    let err = loop {
        match replica.poll() {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    assert!(matches!(err, ReplicaError::Behind), "got {err}");
    server.shutdown();
}

#[test]
fn a_non_durable_server_refuses_subscriptions() {
    let db = Database::open(
        schema(),
        ids_api::EngineKind::Sharded(ids_store::StoreConfig::default()),
    )
    .unwrap();
    let shared = Arc::new(db.into_shared().unwrap());
    let server = Server::serve(shared, "127.0.0.1:0").unwrap();

    let client = ids_client::Client::connect(server.local_addr()).unwrap();
    let mut sub = client.subscribe(vec![(0, 0), (0, 0)]).unwrap();
    let err = sub.next_frames().unwrap_err();
    assert!(
        matches!(
            err,
            ids_client::ClientError::Server(ids_server::wire::WireError::NotDurable)
        ),
        "got {err:?}"
    );
    server.shutdown();
}

#[test]
fn two_wire_followers_stay_independent() {
    let root = tmp_dir("wire-two");
    let seed = tmp_dir("wire-two-seed");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    copy_dir(&root, &seed);

    let shared = Arc::new(db.into_shared().unwrap());
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").unwrap();

    let mut a = Replica::connect(&seed, server.local_addr()).unwrap();
    let mut b = Replica::connect(&seed, server.local_addr()).unwrap();
    shared.insert("CS", ["CS402", "Riley"]).unwrap();
    shared.insert("CT", ["CS101", "Smith"]).unwrap();
    assert!(a.wait_caught_up(Duration::from_secs(5)).unwrap());
    assert!(b.wait_caught_up(Duration::from_secs(5)).unwrap());
    for replica in [&a, &b] {
        assert_eq!(replica.database().count("CT").unwrap(), 2);
        assert_eq!(replica.database().count("CS").unwrap(), 1);
    }
    server.shutdown();
}

/// Every file under `root`, path → bytes.
fn file_bytes(root: &Path) -> std::collections::BTreeMap<std::path::PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

/// A follower's bootstrap is the store's own recovery minus the log
/// writers: against an idle primary it — and the polls after it —
/// create, remove and change no file, with and without a checkpoint
/// behind the directory.
#[test]
fn bootstrap_and_polls_leave_the_primary_directory_untouched() {
    let root = tmp_dir("untouched");
    let db = primary(&root);
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();
    for checkpointed in [false, true] {
        if checkpointed {
            db.checkpoint().unwrap();
            db.insert("CT", ["CS101", "Smith"]).unwrap();
        }
        let before = file_bytes(&root);
        let mut replica = Replica::open(&root).unwrap();
        for _ in 0..3 {
            replica.poll().unwrap();
        }
        assert!(replica.wait_caught_up(Duration::from_secs(5)).unwrap());
        assert_converged(&db, &replica);
        drop(replica);
        assert_eq!(file_bytes(&root), before, "checkpointed: {checkpointed}");
    }
}

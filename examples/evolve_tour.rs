//! Online schema evolution, end to end: a durable primary serving
//! traffic while its schema changes underneath — accepted transitions
//! stream to a wire follower, refused ones come back with the paper's
//! counterexample machinery as the error message.
//!
//! Every `ALTER` re-runs the Graham–Yannakakis independence test on
//! the *target* schema (incrementally — unchanged relations reuse
//! their certified runs).  A transition to a dependent schema is
//! refused with an `LSAT ∖ WSAT` witness; a new FD the existing data
//! violates is refused with the violating pair.  Either way the
//! current schema never stops serving.
//!
//! Run with: `cargo run --release --example evolve_tour`

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use independent_schemas::prelude::*;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-evolve-tour-{}-{name}", std::process::id()));
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

fn main() -> Result<(), ApiError> {
    // The paper's Example 2, durable at a temp directory.
    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course hour -> room")
        .build()
        .expect("independent");
    let root = tmp_dir("primary");
    let db = Database::open_at(&root, schema, DurableConfig::default()).expect("open durable");
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();
    db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
    println!("serving Example 2 at {}", root.display());

    // A wire follower, seeded from a base backup taken *before* any
    // transition: it will learn the new schemas over TCP.
    let seed = tmp_dir("seed");
    copy_dir(&root, &seed);
    let shared = Arc::new(db.into_shared()?);
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let mut follower = Replica::connect(&seed, server.local_addr()).expect("follower");
    assert!(follower.wait_caught_up(Duration::from_secs(5)).unwrap());
    println!("wire follower subscribed and caught up\n");

    // -- 1. A dependent target is refused with the paper's witness ----
    // "A student can't be in two rooms at once" is embedded in no
    // relation: the incremental analysis chases the target schema and
    // hands back a locally-satisfying, globally-unsatisfying state.
    let bad = Alter::AddFd {
        spec: "student hour -> room".into(),
    };
    match shared.alter(&bad) {
        Err(ApiError::NotIndependent { reason, witness }) => {
            println!("refused `{bad}`:\n  reason: {reason:?}");
            println!(
                "  witness: {:?}, {} tuples of LSAT \\ WSAT evidence\n",
                witness.kind,
                witness.state.total_tuples()
            );
        }
        other => panic!("expected a dependent-target refusal, got {other:?}"),
    }
    // The refusal changed nothing: traffic keeps flowing.
    shared.insert("CT", ["CS101", "Smith"]).unwrap();

    // -- 2. A violated backfill is refused with the violating pair ----
    shared.insert("CS", ["CS402", "Morgan"]).unwrap(); // second student
    let bad = Alter::AddFd {
        spec: "course -> student".into(),
    };
    match shared.alter(&bad) {
        Err(e) => println!("refused `{bad}`:\n  {e}\n"),
        Ok(_) => panic!("two students per course should refuse course -> student"),
    }

    // -- 3. An accepted transition, applied while serving -------------
    let add_sr = Alter::AddRelation {
        name: "SR".into(),
        columns: vec!["student".into(), "room".into()],
    };
    let generation = shared
        .alter(&add_sr)
        .expect("SR keeps the schema independent");
    println!("accepted `{add_sr}` -> generation {generation}");
    shared.insert("SR", ["Riley", "R128"]).unwrap();

    // A second transition: `student` becomes a key of SR.  The
    // backfill re-validates the existing rows — one row, no conflict.
    let generation = shared
        .alter(&Alter::AddFd {
            spec: "student -> room".into(),
        })
        .expect("embedded in SR: still independent");
    println!("accepted `add fd student -> room` -> generation {generation}");
    assert!(shared
        .insert("SR", ["Riley", "R999"])
        .unwrap()
        .is_rejected());

    // -- 4. The follower applied both transitions from the stream -----
    assert!(follower.wait_caught_up(Duration::from_secs(5)).unwrap());
    let follower_db = follower.database();
    assert_eq!(
        follower_db.schema().columns("SR").expect("SR streamed"),
        ["student", "room"]
    );
    for relation in ["CT", "CS", "CHR", "SR"] {
        let mut want = shared.rows(relation).unwrap();
        let mut got = follower_db.rows(relation).unwrap();
        want.sort();
        got.sort();
        assert_eq!(want, got, "follower diverged on {relation}");
    }
    println!("follower applied both transitions and converged");

    // -- 5. Everything is observable ----------------------------------
    let snap = shared.metrics();
    println!(
        "\nevolve.alters = {}, evolve.rejected = {}",
        snap.counter("evolve.alters").unwrap_or(0),
        snap.counter("evolve.rejected").unwrap_or(0)
    );
    for record in snap.events.iter() {
        if matches!(
            record.event,
            Event::SchemaAltered { .. }
                | Event::AlterRejected { .. }
                | Event::BackfillCompleted { .. }
        ) {
            println!("  event: {}", record.event);
        }
    }

    // -- 6. And durable: a cold recovery serves the evolved schema ----
    server.shutdown();
    drop(follower);
    let recovered = Database::recover(&root).expect("recover across generations");
    assert_eq!(recovered.schema().relation_names().count(), 4);
    assert_eq!(recovered.count("SR").unwrap(), 1);
    println!("\ncold recovery replayed every era: 4 relations, SR intact");

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&seed);
    Ok(())
}

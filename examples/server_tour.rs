//! The network front-end, end to end on loopback: a `Server` over a
//! shared database, clients speaking the CRC-framed wire protocol —
//! handshake and catalog, pipelined batches with out-of-order reply
//! matching, typed errors, and graceful overload shedding — and, on the
//! same database while the server keeps serving, a fleet of in-process
//! threads sharing one `&Database` with no socket at all.
//!
//! Theorem 3 is what makes the server almost boring: on an independent
//! schema each relation's shard maintains itself with zero cross-shard
//! coordination, so the network layer only has to keep sockets fed.
//! The interesting part is what happens at the edges — a burst past
//! the connection's `queue_depth` is answered with typed `Overloaded`
//! replies (shed, not buffered), and every failure crosses the wire as
//! data, not as a dropped connection.
//!
//! Run with: `cargo run --release --example server_tour`

use std::sync::Arc;
use std::time::Instant;

use independent_schemas::prelude::*;
use independent_schemas::workloads::traces::{interleaved_trace, TraceKind, TraceParams};

fn main() -> Result<(), ApiError> {
    // Example 2's schema: declared once, analysis in `build`.
    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course hour -> room")
        .build()
        .expect("Example 2 is independent");

    // The database is `&self` throughout; `into_shared` moves it under
    // the name `Server::serve` takes.
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default()))
        .expect("independent schema opens sharded");
    let shared = Arc::new(db.into_shared()?);
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    println!("server listening on {addr}\n");

    // -- Session 1: the typed surface ---------------------------------
    let mut client = Client::connect(addr).expect("connect");
    println!("handshake catalog:");
    for (name, columns) in client.catalog() {
        println!("  {name}({})", columns.join(", "));
    }

    client.insert("CT", ["CS402", "Jones"]).unwrap();
    client.insert("CS", ["CS402", "Riley"]).unwrap();
    client.insert("CS", ["CS402", "Morgan"]).unwrap();
    client.insert("CHR", ["CS402", "9am", "R12"]).unwrap();

    // FD violations are outcomes, rendered server-side.
    match client.insert("CT", ["CS402", "Smith"]).unwrap() {
        WireOutcome::Rejected { violated } => println!(
            "\ninsert CT(CS402, Smith) rejected: violates {}",
            violated.unwrap_or_else(|| "an FD".into())
        ),
        other => panic!("course → teacher must reject, got {other:?}"),
    }

    // Typed errors cross the wire as data; the session survives them.
    match client.insert("TD", ["x", "y"]) {
        Err(ClientError::Server(WireError::UnknownRelation(name))) => {
            println!("insert into {name:?} refused: unknown relation");
        }
        other => panic!("expected UnknownRelation, got {other:?}"),
    }

    let rows = client
        .query("CS", &[("course", "CS402")], Some(&["student"]))
        .unwrap();
    println!("\nstudents of CS402: {:?}", rows.rows);
    let mut counts = client.snapshot().unwrap();
    counts.sort();
    println!("snapshot barrier counts: {counts:?}");

    // -- Session 2: pipelining ----------------------------------------
    // `send` puts requests on the wire without waiting; `recv` matches
    // replies by id, in whatever order we ask for them.
    let mut ids = Vec::new();
    for i in 0..8 {
        let req = Request::Insert {
            relation: "CS".into(),
            values: vec![format!("CS50{i}"), "Riley".into()],
        };
        ids.push(client.send(req).unwrap());
    }
    let count_id = client
        .send(Request::Count {
            relation: "CS".into(),
        })
        .unwrap();
    let Reply::Count(n) = client.recv(count_id).unwrap() else {
        panic!("count reply")
    };
    for id in ids.into_iter().rev() {
        client.recv(id).unwrap();
    }
    println!("\npipelined 8 inserts + count; CS now has {n} rows");

    // -- Session 3: graceful overload ---------------------------------
    // `queue_depth: 1` and a burst of full scans: the session runs one
    // request of each backlog it finds waiting and sheds the rest as
    // typed replies — accepted work completes, the session stays usable.
    drop(client);
    server.shutdown();
    for i in 0..2000 {
        shared
            .insert("CS", [format!("CS9{i}"), format!("S{i}")])
            .unwrap();
    }
    let server = Server::serve_with(
        Arc::clone(&shared),
        "127.0.0.1:0",
        ServerConfig { queue_depth: 1 },
    )
    .expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");

    let burst = 100;
    let ids: Vec<u64> = (0..burst)
        .map(|_| {
            client
                .send(Request::Query {
                    relation: "CS".into(),
                    filters: vec![],
                    select: None,
                })
                .unwrap()
        })
        .collect();
    let (mut served, mut shed) = (0, 0);
    for id in ids {
        match client.recv(id).unwrap() {
            Reply::Rows { .. } => served += 1,
            Reply::Error(WireError::Overloaded) => shed += 1,
            other => panic!("unexpected reply under overload: {other:?}"),
        }
    }
    let rtt = client.ping().unwrap();
    println!("overload burst of {burst} scans against `queue_depth: 1`:");
    println!("  served {served}, shed {shed} (typed Overloaded replies), session alive");
    println!("  ping round-trip after the burst: {rtt:?}");

    // -- Session 4: the stats poll ------------------------------------
    // One request pulls the server's whole observability surface over
    // the wire: the database's per-shard counters merged with the
    // connection layer's.  Conservation is checkable from counters
    // alone: every query was either executed or shed.
    let snap = client.stats().unwrap();
    let executed = snap.counter("server.requests.query").unwrap_or(0);
    let shed_counter = snap.counter("server.shed").unwrap_or(0);
    println!("\nstats poll over the wire:");
    println!("  server.requests.query = {executed}, server.shed = {shed_counter}");
    println!(
        "  bytes in/out = {}/{}, open connections = {}",
        snap.counter("server.bytes_in").unwrap_or(0),
        snap.counter("server.bytes_out").unwrap_or(0),
        snap.gauge("server.connections").unwrap_or(0),
    );
    assert_eq!(executed, served as u64);
    assert_eq!(shed_counter, shed as u64);

    // -- Embedded: a client fleet on the same handle, no socket --------
    // Each relation is its own lock in the store, so every thread runs
    // its batches itself, inside the touched relations' locks — no store
    // threads, no cross-relation coordination — while the server above
    // keeps its sessions.
    let db: &Database = &shared;
    let clients = 6u64;
    let scripts: Vec<Vec<StoreOp>> = (0..clients)
        .map(|c| {
            let params = TraceParams {
                clients: 1,
                ops_per_client: 5_000,
                domain: 32,
                remove_percent: 15,
            };
            (interleaved_trace(db.schema().definition(), params, 0xC11E57 + c).into_iter())
                .map(|op| match op.kind {
                    TraceKind::Insert => StoreOp::Insert {
                        scheme: op.scheme,
                        tuple: op.tuple,
                    },
                    TraceKind::Remove => StoreOp::Remove {
                        scheme: op.scheme,
                        tuple: op.tuple,
                    },
                })
                .collect()
        })
        .collect();
    let total_ops: usize = scripts.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    let accepted: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (scripts.iter())
            .map(|script| {
                s.spawn(move || {
                    let mut accepted = 0;
                    for chunk in script.chunks(512) {
                        for outcome in db.apply_batch(chunk.to_vec()).unwrap() {
                            accepted += usize::from(matches!(
                                outcome,
                                OpOutcome::Insert(InsertOutcome::Accepted)
                            ));
                        }
                    }
                    accepted
                })
            })
            .collect();
        // Mid-flight: a barrier-free read consults only CHR's shard; the
        // snapshot, for contrast, locks every relation for one true cut.
        println!(
            "
mid-flight read(CHR): {} rows (no barrier, one shard consulted)",
            db.read("CHR").unwrap().len()
        );
        println!(
            "mid-flight snapshot: {} tuples (consistent cut across relations)",
            db.snapshot().unwrap().total_tuples()
        );
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = t0.elapsed();
    println!(
        "{total_ops} ops from {clients} embedded clients in {elapsed:?} \
         ({:.2} Mops/s), {accepted} inserts accepted",
        total_ops as f64 / elapsed.as_secs_f64() / 1e6,
    );
    // Every snapshot of an independent store is *globally* satisfying —
    // local Fi enforcement plus LSAT = WSAT.  Verify with the full chase.
    let schema = db.schema();
    let state = db.snapshot().unwrap();
    let verdict = satisfies(
        schema.definition(),
        schema.fds(),
        &state,
        &ChaseConfig::default(),
    );
    assert!(verdict.unwrap().is_satisfying());
    println!("full chase agrees: final state is globally satisfying ✓");

    server.shutdown();
    println!("\nserver shut down cleanly");
    Ok(())
}

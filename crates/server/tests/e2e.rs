//! End-to-end tests: real sockets, real threads — the blocking
//! `ids-client` driving a `Server` over loopback.
//!
//! The regression targets called out by this PR are here too: graceful
//! overload (typed `Overloaded` sheds while accepted work completes)
//! and the client-drops-mid-batch case that must never leave a server
//! thread wedged on a dead connection.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use ids_api::{Database, EngineKind, Schema, SharedDatabase};
use ids_client::{Client, ClientError, StreamEvent};
use ids_server::wire::{
    decode_reply, encode_request, AlterOp, FrameReader, Reply, Request, WireError, WireOutcome,
    WIRE_VERSION,
};
use ids_server::{Server, ServerConfig};
use ids_store::{DurableConfig, StoreConfig, SyncPolicy};

fn schema() -> Schema {
    Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .fd("course -> teacher")
        .build()
        .unwrap()
}

fn shared() -> Arc<SharedDatabase> {
    let db = Database::open(schema(), EngineKind::Sharded(StoreConfig::default())).unwrap();
    Arc::new(db.into_shared().unwrap())
}

fn serve(shared: Arc<SharedDatabase>) -> Server {
    Server::serve(shared, "127.0.0.1:0").unwrap()
}

#[test]
fn the_full_surface_roundtrips_over_loopback() {
    let server = serve(shared());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The handshake carried the catalog.
    let catalog = client.catalog().to_vec();
    assert_eq!(catalog.len(), 2);
    assert!(catalog
        .iter()
        .any(|(name, cols)| name == "CT" && cols == &["course", "teacher"]));

    client.ping().unwrap();

    // Writes: accepted, duplicate, FD-rejected (with the violated FD
    // rendered), and the arity of outcomes vs errors.
    assert_eq!(
        client.insert("CT", ["CS402", "Jones"]).unwrap(),
        WireOutcome::Accepted
    );
    assert_eq!(
        client.insert("CT", ["CS402", "Jones"]).unwrap(),
        WireOutcome::Duplicate
    );
    match client.insert("CT", ["CS402", "Smith"]).unwrap() {
        WireOutcome::Rejected { violated } => {
            let fd = violated.expect("the sharded engine knows which FD it enforced");
            assert!(fd.contains("course"), "rendered FD, got {fd}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    client.insert("CS", ["CS402", "Riley"]).unwrap();
    client.insert("CS", ["CS402", "Morgan"]).unwrap();

    // Reads: filtered + projected query, full rows, count, snapshot.
    let rows = client
        .query("CT", &[("course", "CS402")], Some(&["teacher"]))
        .unwrap();
    assert_eq!(rows.columns, vec!["teacher".to_string()]);
    assert_eq!(rows.rows, vec![vec!["Jones".to_string()]]);
    assert_eq!(client.rows("CS").unwrap().len(), 2);
    assert_eq!(client.count("CS").unwrap(), 2);
    let mut counts = client.snapshot().unwrap();
    counts.sort();
    assert_eq!(counts, vec![("CS".to_string(), 2), ("CT".to_string(), 1)]);

    // Remove, observed by a following read (same-connection ordering).
    assert!(client.remove("CS", ["CS402", "Riley"]).unwrap());
    assert!(!client.remove("CS", ["CS402", "Riley"]).unwrap());
    assert_eq!(client.count("CS").unwrap(), 1);

    server.shutdown();
}

#[test]
fn typed_errors_cross_the_wire() {
    let server = serve(shared());
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client.insert("TD", ["x", "y"]) {
        Err(ClientError::Server(WireError::UnknownRelation(name))) => assert_eq!(name, "TD"),
        other => panic!("expected UnknownRelation, got {other:?}"),
    }
    match client.insert("CT", ["CS402"]) {
        Err(ClientError::Server(WireError::ArityMismatch { expected, found })) => {
            assert_eq!((expected, found), (2, 1));
        }
        other => panic!("expected ArityMismatch, got {other:?}"),
    }
    match client.query("CT", &[("room", "R12")], None) {
        Err(ClientError::Server(WireError::UnknownColumn { relation, column })) => {
            assert_eq!((relation.as_str(), column.as_str()), ("CT", "room"));
        }
        other => panic!("expected UnknownColumn, got {other:?}"),
    }
    // Checkpoint without a WAL is a typed refusal, not a hangup.
    match client.checkpoint() {
        Err(ClientError::Server(WireError::NotDurable)) => {}
        other => panic!("expected NotDurable, got {other:?}"),
    }
    // The connection survived every error.
    client.ping().unwrap();

    server.shutdown();
}

#[test]
fn joins_cross_the_wire_with_typed_errors() {
    let server = serve(shared());
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.insert("CT", ["CS402", "Jones"]).unwrap();
    client.insert("CS", ["CS402", "Riley"]).unwrap();
    client.insert("CS", ["CS402", "Morgan"]).unwrap();
    client.insert("CS", ["CS101", "Riley"]).unwrap(); // no teacher: drops out

    // Columns follow the listed relation order, each relation's columns
    // in its declared order, duplicates elided.
    let joined = client.join(["CT", "CS"]).unwrap();
    assert_eq!(joined.columns, vec!["course", "teacher", "student"]);
    let mut rows = joined.rows;
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec!["CS402".to_string(), "Jones".into(), "Morgan".into()],
            vec!["CS402".to_string(), "Jones".into(), "Riley".into()],
        ]
    );

    // The self-join contract holds over the wire too: listing a
    // relation twice reads it once, so this is just CS.
    let twice = client.join(["CS", "CS"]).unwrap();
    assert_eq!(twice.columns, vec!["course", "student"]);
    assert_eq!(twice.rows.len(), 3);

    match client.join(Vec::<String>::new()) {
        Err(ClientError::Server(WireError::EmptyJoin)) => {}
        other => panic!("expected EmptyJoin, got {other:?}"),
    }
    match client.join(["CT", "TD"]) {
        Err(ClientError::Server(WireError::UnknownRelation(name))) => assert_eq!(name, "TD"),
        other => panic!("expected UnknownRelation, got {other:?}"),
    }
    // The connection survived every error.
    client.ping().unwrap();

    server.shutdown();
}

/// An in-memory database serves a mixed script over the wire, and the
/// operations that need a log are typed `NotDurable` — never `Internal`.
#[test]
fn in_memory_database_types_the_log_operations() {
    let relation = |r: &str| r.to_string();
    let row = |a: &str, b: &str| vec![a.to_string(), b.to_string()];
    let insert = |r: &str, a: &str, b: &str| Request::Insert {
        relation: relation(r),
        values: row(a, b),
    };
    let remove = |r: &str, a: &str, b: &str| Request::Remove {
        relation: relation(r),
        values: row(a, b),
    };
    let script = vec![
        insert("CT", "CS402", "Jones"),
        insert("CT", "CS402", "Jones"), // duplicate
        insert("CT", "CS402", "Smith"), // rejected: course -> teacher
        insert("CS", "CS402", "Riley"),
        insert("CS", "CS402", "Morgan"),
        insert("CS", "CS101", "Riley"),
        insert("TD", "x", "y"), // unknown relation
        remove("CS", "CS101", "Riley"),
        remove("CS", "CS101", "Riley"), // absent
        Request::Query {
            relation: relation("CS"),
            filters: vec![("course".into(), "CS402".into())],
            select: Some(vec!["student".into()]),
        },
        Request::Join {
            relations: vec![relation("CT"), relation("CS")],
        },
        Request::Count {
            relation: relation("CS"),
        },
        Request::Snapshot,
        Request::Checkpoint,
        Request::Alter {
            op: AlterOp::DropFd {
                spec: "course -> teacher".into(),
            },
        },
    ];
    let no_log = Reply::Error(WireError::NotDurable);

    let server = serve(shared());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let replies: Vec<Reply> = script
        .iter()
        .map(|req| {
            let id = client.send(req.clone()).unwrap();
            client.recv(id).unwrap()
        })
        .collect();
    assert_eq!(
        replies[replies.len() - 2..],
        [no_log.clone(), no_log.clone()]
    );
    assert!(client.stats().is_ok(), "Stats answers");
    let mut stream = client.subscribe(vec![(0, 0), (0, 0)]).unwrap();
    assert!(
        matches!(
            stream.next_frames(),
            Err(ClientError::Server(WireError::NotDurable))
        ),
        "Subscribe needs a log"
    );
    server.shutdown();
    // The script did what its comments say.
    assert_eq!(
        replies[..3],
        [
            Reply::Insert(WireOutcome::Accepted),
            Reply::Insert(WireOutcome::Duplicate),
            Reply::Insert(WireOutcome::Rejected {
                violated: Some("course -> teacher".into())
            }),
        ]
    );
    assert_eq!(replies[11], Reply::Count(2));
}

#[test]
fn pipelined_replies_match_by_id_in_any_order() {
    let server = serve(shared());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Put a batch on the wire before reading anything.
    let mut ids = Vec::new();
    for i in 0..32 {
        ids.push(
            client
                .send(Request::Insert {
                    relation: "CS".into(),
                    values: vec![format!("CS{i}"), "Riley".into()],
                })
                .unwrap(),
        );
    }
    let count_id = client
        .send(Request::Count {
            relation: "CS".into(),
        })
        .unwrap();

    // Consume the tail first: the stash matches replies by id.
    assert!(matches!(client.recv(count_id).unwrap(), Reply::Count(32)));
    for id in ids.into_iter().rev() {
        assert!(matches!(
            client.recv(id).unwrap(),
            Reply::Insert(WireOutcome::Accepted)
        ));
    }

    server.shutdown();
}

#[test]
fn overload_sheds_with_typed_replies_and_never_stalls() {
    let db = Database::open(schema(), EngineKind::Sharded(StoreConfig::default())).unwrap();
    let shared = Arc::new(db.into_shared().unwrap());
    // Enough rows that every full scan costs real worker time.
    for i in 0..4000 {
        shared
            .insert("CS", [format!("CS{i}"), format!("S{i}")])
            .unwrap();
    }
    let server = Server::serve_with(
        Arc::clone(&shared),
        "127.0.0.1:0",
        ServerConfig { queue_depth: 1 },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Pipeline far more full scans than a depth-1 queue can hold; the
    // reader decodes in microseconds what the worker serves in
    // milliseconds, so the queue must fill and shed.
    const BURST: usize = 200;
    let mut ids = Vec::new();
    for _ in 0..BURST {
        ids.push(
            client
                .send(Request::Query {
                    relation: "CS".into(),
                    filters: vec![],
                    select: None,
                })
                .unwrap(),
        );
    }

    // Every request gets exactly one reply: rows for the accepted,
    // typed Overloaded for the shed — nothing dropped, nothing stuck.
    let (mut served, mut shed) = (0usize, 0usize);
    for id in ids {
        match client.recv(id).unwrap() {
            Reply::Rows { rows, .. } => {
                assert_eq!(rows.len(), 4000);
                served += 1;
            }
            Reply::Error(WireError::Overloaded) => shed += 1,
            other => panic!("unexpected reply under overload: {other:?}"),
        }
    }
    assert_eq!(served + shed, BURST);
    assert!(served > 0, "a depth-1 queue still serves accepted work");
    assert!(
        shed > 0,
        "{BURST} pipelined scans against a depth-1 queue must shed"
    );

    // The connection and the server recovered fully.
    client.ping().unwrap();
    assert_eq!(client.count("CS").unwrap(), 4000);

    server.shutdown();
}

#[test]
fn metrics_conserve_the_overload_burst_and_count_every_byte() {
    let db = Database::open(schema(), EngineKind::Sharded(StoreConfig::default())).unwrap();
    let shared = Arc::new(db.into_shared().unwrap());
    for i in 0..2000 {
        shared
            .insert("CS", [format!("CS{i}"), format!("S{i}")])
            .unwrap();
    }
    let server = Server::serve_with(
        Arc::clone(&shared),
        "127.0.0.1:0",
        ServerConfig { queue_depth: 1 },
    )
    .unwrap();

    // Several sessions each pipeline a burst of full scans against a
    // depth-1 queue; the client tallies its own serves and sheds.
    const SESSIONS: usize = 3;
    const BURST: usize = 80;
    let (mut served, mut shed) = (0u64, 0u64);
    let mut sessions = Vec::new();
    for _ in 0..SESSIONS {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let ids: Vec<u64> = (0..BURST)
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
        for id in ids {
            match client.recv(id).unwrap() {
                Reply::Rows { .. } => served += 1,
                Reply::Error(WireError::Overloaded) => shed += 1,
                other => panic!("unexpected reply under overload: {other:?}"),
            }
        }
        sessions.push(client);
    }

    // Conservation, asserted from the *server's own counters* polled
    // over the wire: every query in the burst was either executed or
    // shed — the executed-query counter and the shed counter partition
    // the burst exactly, and both agree with the client-side tally.
    let mut stats_client = Client::connect(server.local_addr()).unwrap();
    let snap = stats_client.stats().unwrap();
    assert_eq!(snap.counter("server.requests.query"), Some(served));
    assert_eq!(snap.counter("server.shed"), Some(shed));
    assert_eq!(served + shed, (SESSIONS * BURST) as u64);
    assert!(shed > 0, "a depth-1 queue under this burst must shed");
    // The stats poll arrived on a live connection, so the byte counters
    // and the connection gauge are already visibly non-trivial.
    assert!(snap.counter("server.bytes_in").unwrap() > 0);
    assert!(snap.counter("server.bytes_out").unwrap() > 0);
    assert_eq!(
        snap.gauge("server.connections"),
        Some((SESSIONS + 1) as i64)
    );
    // The name pool's gauges ride along: 2000 rows of two fresh names.
    let name_bytes: usize = (0..2000).map(|i| format!("CS{i}S{i}").len()).sum();
    assert_eq!(
        (snap.gauge("api.names.count"), snap.gauge("api.names.bytes")),
        (Some(4000), Some(name_bytes as i64))
    );

    // Close the burst sessions and wait for their close events: every
    // session moved real bytes in both directions.
    drop(sessions);
    drop(stats_client);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let closes = loop {
        let closes: Vec<(u64, u64)> = server
            .metrics()
            .events
            .iter()
            .filter_map(|rec| match rec.event {
                ids_obs::Event::ConnectionClosed {
                    bytes_in,
                    bytes_out,
                    ..
                } => Some((bytes_in, bytes_out)),
                _ => None,
            })
            .collect();
        if closes.len() == SESSIONS + 1 {
            break closes;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connections did not close: saw {} of {} close events",
            closes.len(),
            SESSIONS + 1
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    for (bytes_in, bytes_out) in closes {
        assert!(bytes_in > 0, "a session that sent requests read no bytes?");
        assert!(bytes_out > 0, "a session that got replies wrote no bytes?");
    }
    assert_eq!(server.metrics().gauge("server.connections"), Some(0));

    server.shutdown();
}

#[test]
fn client_dropping_mid_batch_never_wedges_the_server() {
    let server = serve(shared());

    // Again and again: open a session, pipeline a batch, vanish
    // without reading a single reply.  The writer hits the dead
    // socket, shuts the connection down, and the whole per-connection
    // pipeline unwinds — nothing left blocked.
    for round in 0..20 {
        let mut client = Client::connect(server.local_addr()).unwrap();
        for i in 0..64 {
            client
                .send(Request::Insert {
                    relation: "CS".into(),
                    values: vec![format!("CS{round}-{i}"), "Riley".into()],
                })
                .unwrap();
        }
        drop(client);
    }

    // The server still accepts and serves new sessions…
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    assert!(client.count("CS").unwrap() > 0);
    drop(client);

    // …and shutdown joins every connection thread.  A wedged reader,
    // worker, or writer would hang this join forever (the test harness
    // timeout is the failure detector).
    server.shutdown();
}

#[test]
fn requests_before_hello_are_refused() {
    let server = serve(shared());
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut write = stream.try_clone().unwrap();
    let mut frames = FrameReader::new(stream);

    write.write_all(&encode_request(7, &Request::Ping)).unwrap();
    let payload = frames.next_payload().unwrap().unwrap();
    assert_eq!(
        decode_reply(&payload).unwrap(),
        (7, Reply::Error(WireError::HandshakeRequired))
    );
    // The server hangs up after the refusal.
    assert!(frames.next_payload().unwrap().is_none());

    server.shutdown();
}

#[test]
fn version_mismatch_is_a_typed_refusal() {
    let server = serve(shared());
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut write = stream.try_clone().unwrap();
    let mut frames = FrameReader::new(stream);

    write
        .write_all(&encode_request(0, &Request::Hello { version: 99 }))
        .unwrap();
    let payload = frames.next_payload().unwrap().unwrap();
    assert_eq!(
        decode_reply(&payload).unwrap(),
        (
            0,
            Reply::Error(WireError::UnsupportedVersion {
                server: WIRE_VERSION,
                client: 99
            })
        )
    );
    assert!(frames.next_payload().unwrap().is_none());

    server.shutdown();
}

#[test]
fn malformed_payloads_get_typed_replies_and_the_session_survives() {
    let server = serve(shared());
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut write = stream.try_clone().unwrap();
    let mut frames = FrameReader::new(stream);

    write
        .write_all(&encode_request(
            0,
            &Request::Hello {
                version: WIRE_VERSION,
            },
        ))
        .unwrap();
    let payload = frames.next_payload().unwrap().unwrap();
    assert!(matches!(
        decode_reply(&payload).unwrap(),
        (0, Reply::Hello { .. })
    ));

    // A checksum-valid frame whose payload is garbage: the stream is
    // still in sync, so the server answers Malformed and keeps going.
    let mut e = ids_relational::codec::Encoder::new();
    e.put_u64(5);
    e.put_u8(250); // no such request kind
    write
        .write_all(&ids_wal::format::frame(&e.into_bytes()))
        .unwrap();
    let payload = frames.next_payload().unwrap().unwrap();
    let (id, reply) = decode_reply(&payload).unwrap();
    assert_eq!(id, 5);
    assert!(matches!(reply, Reply::Error(WireError::Malformed(_))));

    // Still serving.
    write.write_all(&encode_request(6, &Request::Ping)).unwrap();
    let payload = frames.next_payload().unwrap().unwrap();
    assert_eq!(decode_reply(&payload).unwrap(), (6, Reply::Pong));

    server.shutdown();
}

/// A reply too large for one frame is refused by the server at write
/// time with a typed error, and a request too large by the client before
/// a byte is written — either way the session lives on.  (The peer's
/// `read_frame` takes an oversize frame for corruption, which used to
/// poison a healthy connection over a legal query.)
#[test]
fn a_message_too_large_for_a_frame_is_refused_not_fatal() {
    let schema = Schema::builder()
        .relation("KV", ["k", "v"])
        .fd("k -> v")
        .build()
        .unwrap();
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    let server = serve(Arc::new(db.into_shared().unwrap()));
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Nine 8 MiB values: each insert fits a frame, all rows together
    // (72 MiB) do not.
    for k in 0..9 {
        let value = k.to_string().repeat(8 << 20);
        assert_eq!(
            client.insert("KV", [k.to_string(), value]).unwrap(),
            WireOutcome::Accepted
        );
    }
    match client.rows("KV") {
        Err(ClientError::Server(WireError::Internal(msg))) => {
            assert!(msg.contains("exceeds the 64 MiB frame bound"), "got {msg}");
        }
        other => panic!(
            "expected a typed Internal refusal, got {:?}",
            other.map(|r| r.len())
        ),
    }
    // The stream is still in sync and the data still there.
    client.ping().unwrap();
    assert_eq!(client.count("KV").unwrap(), 9);
    assert_eq!(
        client.query("KV", &[("k", "3")], None).unwrap().rows.len(),
        1
    );

    // A request over the bound never reaches the wire.
    let oversize = "x".repeat((64 << 20) + 1);
    match client.insert("KV", ["big".to_string(), oversize]) {
        Err(ClientError::Protocol(msg)) => {
            assert!(msg.contains("exceeds the 64 MiB frame bound"), "got {msg}");
        }
        other => panic!("expected a client-side refusal, got {other:?}"),
    }
    client.ping().unwrap();
    assert_eq!(client.count("KV").unwrap(), 9);

    server.shutdown();
}

/// Every request kind lands in its own `server.requests.{kind}`
/// counter — refused-by-the-database and stream-refused ones included,
/// since the session ran them.
#[test]
fn every_request_kind_is_counted_under_its_own_name() {
    let server = serve(shared());
    // The handshake is hello #1.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let hello = client
        .send(Request::Hello {
            version: WIRE_VERSION,
        })
        .unwrap();
    assert!(matches!(client.recv(hello).unwrap(), Reply::Hello { .. }));

    for _ in 0..3 {
        client.ping().unwrap();
    }
    for i in 0..5 {
        client
            .insert("CS", ["CS402".to_string(), format!("S{i}")])
            .unwrap();
    }
    for i in 0..2 {
        assert!(client
            .remove("CS", ["CS402".to_string(), format!("S{i}")])
            .unwrap());
    }
    for _ in 0..4 {
        assert_eq!(client.rows("CS").unwrap().len(), 3);
    }
    for _ in 0..6 {
        assert_eq!(client.count("CS").unwrap(), 3);
    }
    for _ in 0..2 {
        client.snapshot().unwrap();
    }
    for _ in 0..7 {
        client.join(["CT", "CS"]).unwrap();
    }
    // Not durable: checkpoint, alter and subscribe are refused — typed —
    // after the session ran them.
    for _ in 0..3 {
        assert!(matches!(
            client.checkpoint(),
            Err(ClientError::Server(WireError::NotDurable))
        ));
    }
    for _ in 0..2 {
        let op = AlterOp::AddFd {
            spec: "course -> student".into(),
        };
        assert!(matches!(
            client.alter(op),
            Err(ClientError::Server(WireError::NotDurable))
        ));
    }
    let subscribe = client
        .send(Request::Subscribe {
            cursors: vec![(0, 0), (0, 0)],
            names: 0,
        })
        .unwrap();
    assert_eq!(
        client.recv(subscribe).unwrap(),
        Reply::Error(WireError::NotDurable)
    );
    client.stats().unwrap();

    // The second poll counts itself before it snapshots.
    let snap = client.stats().unwrap();
    for (kind, sent) in [
        ("hello", 2),
        ("ping", 3),
        ("insert", 5),
        ("remove", 2),
        ("query", 4),
        ("count", 6),
        ("snapshot", 2),
        ("checkpoint", 3),
        ("stats", 2),
        ("subscribe", 1),
        ("join", 7),
        ("alter", 2),
    ] {
        assert_eq!(
            snap.counter(&format!("server.requests.{kind}")),
            Some(sent),
            "server.requests.{kind}"
        );
    }
    assert_eq!(snap.counter("server.shed"), Some(0));
    assert_eq!(snap.counter("server.malformed"), Some(0));

    server.shutdown();
}

#[test]
fn shard_poison_reasons_cross_the_wire() {
    let root = std::env::temp_dir().join(format!("ids-server-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let db = Database::open_at(
        &root,
        schema(),
        DurableConfig {
            sync: SyncPolicy::Always,
            fail_appends_after: Some(1),
            ..DurableConfig::default()
        },
    )
    .unwrap();
    let server = serve(Arc::new(db.into_shared().unwrap()));
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.insert("CT", ["CS402", "Jones"]).unwrap();
    // The second logged append fails: the shard poisons itself, and
    // the preserved reason — not an opaque disconnect — reaches the
    // remote client as a typed error.
    match client.insert("CT", ["CS500", "Curie"]) {
        Err(ClientError::Server(WireError::ShardPoisoned { reason })) => {
            assert!(
                reason.contains("injected append failure"),
                "reason lost over the wire: {reason}"
            );
        }
        other => panic!("expected ShardPoisoned, got {other:?}"),
    }
    // Later requests on the same session report it too.
    match client.count("CT") {
        Err(ClientError::Server(WireError::ShardPoisoned { .. })) => {}
        other => panic!("expected ShardPoisoned on a later op, got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn durable_checkpoint_roundtrips() {
    let root = std::env::temp_dir().join(format!("ids-server-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    let server = serve(Arc::new(db.into_shared().unwrap()));
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.insert("CT", ["CS402", "Jones"]).unwrap();
    client.checkpoint().unwrap();
    assert_eq!(client.count("CT").unwrap(), 1);

    server.shutdown();

    // What the server checkpointed, a cold recovery can read.
    let recovered = Database::recover(&root).unwrap();
    assert_eq!(recovered.count("CT").unwrap(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// A `Snapshot` request answers from one schema era: racing add and
/// drop alters over the wire can neither panic the connection nor label
/// the cut with another era's relations.  Every reply names exactly the
/// relations of its cut, with their counts.
#[test]
fn snapshots_racing_alters_name_exactly_the_relations_of_their_cut() {
    let root = std::env::temp_dir().join(format!("ids-server-snap-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();
    let server = serve(Arc::new(db.into_shared().unwrap()));
    let addr = server.local_addr();
    let done = std::sync::atomic::AtomicBool::new(false);
    let snapshots = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            let mut seen = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                seen.push(
                    client
                        .snapshot()
                        .expect("the connection survives every race"),
                );
            }
            seen
        });
        // TMP reuses CS's columns: a dropped relation must leave every
        // attribute covered elsewhere.
        let mut client = Client::connect(addr).unwrap();
        let churned = (0..60).try_for_each(|_| {
            client.alter(AlterOp::AddRelation {
                name: "TMP".into(),
                columns: vec!["course".into(), "student".into()],
            })?;
            client.alter(AlterOp::DropRelation { name: "TMP".into() })?;
            Ok::<_, ClientError>(())
        });
        // Set before any unwrap, so a failed alter fails the test rather
        // than hanging it.
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        churned.unwrap();
        reader.join().unwrap()
    });
    let base = vec![("CT".to_string(), 1), ("CS".to_string(), 1)];
    let grown = [base.clone(), vec![("TMP".to_string(), 0)]].concat();
    assert!(!snapshots.is_empty());
    for counts in &snapshots {
        assert!(*counts == base || *counts == grown, "{counts:?}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn alters_cross_the_wire_with_witnessed_refusals() {
    let root = std::env::temp_dir().join(format!("ids-server-alter-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let example2 = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course hour -> room")
        .build()
        .unwrap();
    let db = Database::open_at(&root, example2, DurableConfig::default()).unwrap();
    let server = serve(Arc::new(db.into_shared().unwrap()));
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.insert("CT", ["CS402", "Jones"]).unwrap();
    client.insert("CS", ["CS402", "Riley"]).unwrap();
    client.insert("CS", ["CS402", "Morgan"]).unwrap();

    // Accepted alter: the reply carries the new generation and the
    // client's refreshed catalog carries the new relation, which is
    // immediately writable on the same connection.
    let gen = client
        .alter(AlterOp::AddRelation {
            name: "SR".into(),
            columns: vec!["student".into(), "room".into()],
        })
        .unwrap();
    assert!(gen >= 1);
    assert!(client
        .catalog()
        .iter()
        .any(|(name, cols)| name == "SR" && cols == &["student", "room"]));
    client.insert("SR", ["Riley", "R128"]).unwrap();

    // Dependent target schema: refused with the witness kind, and the
    // session keeps serving on the unchanged schema.
    match client.alter(AlterOp::AddFd {
        spec: "student hour -> room".into(),
    }) {
        Err(ClientError::Server(WireError::AlterRejected { reason, witness })) => {
            assert!(reason.contains("not independent"), "got {reason}");
            assert!(witness.is_some(), "independence refusal carries a witness");
        }
        other => panic!("expected AlterRejected, got {other:?}"),
    }

    // Backfill violation: the two students of CS402 violate the new
    // key, and the rendered violating pair crosses the wire.
    match client.alter(AlterOp::AddFd {
        spec: "course -> student".into(),
    }) {
        Err(ClientError::Server(WireError::AlterRejected { reason, witness })) => {
            assert!(reason.contains("violate"), "got {reason}");
            let w = witness.expect("backfill refusal carries the violating pair");
            assert!(w.contains("Riley") && w.contains("Morgan"), "got {w}");
        }
        other => panic!("expected AlterRejected, got {other:?}"),
    }
    assert_eq!(client.count("CS").unwrap(), 2);

    // The whole story is observable over the wire: evolve counters and
    // the three evolution event tags survive the stats codec.
    let snap = client.stats().unwrap();
    assert!(snap.counter("evolve.alters").unwrap_or(0) >= 1);
    assert!(snap.counter("evolve.rejected").unwrap_or(0) >= 1);
    assert!(snap
        .events
        .iter()
        .any(|r| matches!(r.event, ids_obs::Event::SchemaAltered { .. })));
    assert!(snap
        .events
        .iter()
        .any(|r| matches!(r.event, ids_obs::Event::AlterRejected { .. })));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Tasks of this process that carry the calling thread's name.  Linux
/// hands a new thread its creator's name until someone sets another,
/// and the server names none of its threads — so the accept loop and
/// every connection thread started under *this* test carry this test's
/// name, and the other tests running in this process are not counted.
#[cfg(target_os = "linux")]
fn threads_of_this_test() -> usize {
    let me = std::fs::read_to_string("/proc/thread-self/comm").unwrap();
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        // A task may exit between the listing and the read.
        .filter_map(|task| std::fs::read_to_string(task.unwrap().path().join("comm")).ok())
        .filter(|comm| *comm == me)
        .count()
}

/// Threads per connection: 1.
#[cfg(target_os = "linux")]
#[test]
fn a_connection_costs_one_thread() {
    let server = serve(shared());
    let baseline = threads_of_this_test();

    let mut clients: Vec<Client> = (0..8)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    for client in &mut clients {
        client.ping().unwrap();
    }
    assert_eq!(threads_of_this_test() - baseline, 8);

    // And the thread goes when the connection does.
    drop(clients);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.metrics().gauge("server.connections") != Some(0)
        || threads_of_this_test() != baseline
    {
        assert!(
            std::time::Instant::now() < deadline,
            "connection threads outlived their connections"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    server.shutdown();
}

#[test]
fn a_peer_that_does_not_read_cannot_make_the_server_buffer() {
    let shared = shared();
    for i in 0..20_000 {
        shared
            .insert(
                "CS",
                [format!("course-{i:012}"), format!("student-{i:012}")],
            )
            .unwrap();
    }
    let server = serve(Arc::clone(&shared));
    let scan = Request::Query {
        relation: "CS".into(),
        filters: vec![],
        select: None,
    };

    // Within the pipelining envelope (64 in flight) but reading nothing:
    // ~1 MB of reply per request has nowhere to go.
    const SCANS: u64 = 64;
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Request::Hello {
        version: WIRE_VERSION,
    };
    let mut burst = encode_request(0, &hello);
    for id in 1..=SCANS {
        burst.extend(encode_request(id, &scan));
    }
    stream.write_all(&burst).unwrap();

    // The session runs until its replies stop fitting in the socket
    // buffers, then blocks in `write` — it does not run ahead.
    let mut watcher = Client::connect(server.local_addr()).unwrap();
    let mut executed = || {
        let snap = watcher.stats().unwrap();
        snap.counter("server.requests.query").unwrap_or(0)
    };
    let (mut settled, mut since) = (executed(), std::time::Instant::now());
    while since.elapsed() < std::time::Duration::from_millis(500) {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = executed();
        if now != settled {
            (settled, since) = (now, std::time::Instant::now());
        }
    }
    assert!(
        settled < SCANS,
        "all {SCANS} scans ran while the peer read nothing: the replies are buffered somewhere"
    );

    // Once the peer reads, everything it asked for arrives, in order.
    let mut frames = FrameReader::new(stream);
    let payload = frames.next_payload().unwrap().unwrap();
    assert!(matches!(
        decode_reply(&payload).unwrap(),
        (0, Reply::Hello { .. })
    ));
    for id in 1..=SCANS {
        let payload = frames.next_payload().unwrap().unwrap();
        match decode_reply(&payload).unwrap() {
            (got, Reply::Rows { rows, .. }) => assert_eq!((got, rows.len()), (id, 20_000)),
            other => panic!("expected the rows of scan {id}, got {other:?}"),
        }
    }
    assert_eq!(executed(), SCANS);

    server.shutdown();
}

#[test]
fn a_barrier_ping_on_an_idle_stream_does_not_wait_out_a_sleep() {
    let root = std::env::temp_dir().join(format!("ids-server-idle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let one = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .fd("course -> teacher")
        .build()
        .unwrap();
    let db = Database::open_at(&root, one, DurableConfig::default()).unwrap();
    let server = serve(Arc::new(db.into_shared().unwrap()));

    let client = Client::connect(server.local_addr()).unwrap();
    let mut stream = client.subscribe(vec![(0, 0)]).unwrap();
    // The first heartbeat: nothing to ship, the stream is idle.
    while !stream.next_frames().unwrap().frames.is_empty() {}

    let start = std::time::Instant::now();
    for _ in 0..20 {
        let ping = stream.ping().unwrap();
        while stream.next_event().unwrap() != (StreamEvent::Pong { id: ping }) {}
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(100),
        "20 barrier pings on an idle stream took {elapsed:?}"
    );

    drop(stream);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_subscribe_with_the_wrong_cursor_count_is_the_callers_error() {
    let root = std::env::temp_dir().join(format!("ids-server-cursors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let db = Database::open_at(&root, schema(), DurableConfig::default()).unwrap();
    let server = serve(Arc::new(db.into_shared().unwrap()));

    let client = Client::connect(server.local_addr()).unwrap();
    let mut stream = client.subscribe(vec![(0, 0); 3]).unwrap();
    match stream.next_event() {
        Err(ClientError::Server(WireError::Internal(msg))) => assert_eq!(
            msg,
            "subscribe carries 3 cursors but the schema has 2 relations"
        ),
        other => panic!("expected a typed Internal refusal, got {other:?}"),
    }

    drop(stream);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A row written through `insert_raw` with a value that was never
/// interned comes back over the wire — from a query and from a join —
/// exactly as `Database::render` prints it: the streamed reply renders
/// the raw id in decimal, as the pool does.
#[test]
fn a_never_interned_raw_value_crosses_the_wire_as_render_prints_it() {
    let mut db = Database::open(schema(), EngineKind::Sharded(StoreConfig::default())).unwrap();
    let ct = db.schema().scheme_id("CT").unwrap();
    let course = db.intern("CS402").unwrap();
    let raw = ids_relational::Value(u64::MAX - 7);
    db.insert_raw(ct, vec![course, raw]).unwrap();
    db.insert("CS", ["CS402", "Riley"]).unwrap();
    let rendered = db.render(raw);
    assert_eq!(rendered, (u64::MAX - 7).to_string());
    let server = serve(Arc::new(db.into_shared().unwrap()));
    let mut client = Client::connect(server.local_addr()).unwrap();

    let rows = client.query("CT", &[("course", "CS402")], None).unwrap();
    assert_eq!(rows.rows, vec![vec!["CS402".to_string(), rendered.clone()]]);
    let joined = client.join(["CT", "CS"]).unwrap();
    assert_eq!(
        joined.rows,
        vec![vec!["CS402".to_string(), rendered, "Riley".to_string()]]
    );

    server.shutdown();
}

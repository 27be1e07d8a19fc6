//! Golden-file tests for the wire protocol: the byte layout of every
//! message kind is pinned by fixtures checked into the repository, so
//! an accidental change to the framing, the kind bytes, or the codec
//! fails loudly instead of silently breaking deployed peers.
//!
//! The fixtures live in `tests/fixtures/` and are written by the
//! `regenerate_fixtures` test below (ignored by default; run it
//! manually after an *intentional* protocol bump, together with a
//! `WIRE_VERSION` increment).

use std::path::{Path, PathBuf};
use std::time::Duration;

use ids_obs::{Event, EventRecord, HistogramSnapshot, MetricsSnapshot};
use ids_server::wire::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, AlterOp, FrameOutcome,
    Reply, Request, WireError, WireOutcome, POOL_STREAM, WIRE_VERSION,
};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// One of every request kind, ids distinct so the id encoding is
/// pinned too.
fn canonical_requests() -> Vec<(u64, Request)> {
    vec![
        (
            0,
            Request::Hello {
                version: WIRE_VERSION,
            },
        ),
        (1, Request::Ping),
        (
            2,
            Request::Insert {
                relation: "CT".into(),
                values: vec!["CS402".into(), "Jones".into()],
            },
        ),
        (
            3,
            Request::Remove {
                relation: "CT".into(),
                values: vec!["CS402".into(), "Jones".into()],
            },
        ),
        (
            4,
            Request::Query {
                relation: "CT".into(),
                filters: vec![("course".into(), "CS402".into())],
                select: Some(vec!["teacher".into()]),
            },
        ),
        (
            5,
            Request::Count {
                relation: "CS".into(),
            },
        ),
        (6, Request::Snapshot),
        (u64::MAX, Request::Checkpoint),
        // Appended for wire kind 8 (Stats): new message kinds extend
        // the fixture, so the pre-Stats bytes stay a strict prefix and
        // old peers remain byte-compatible.
        (7, Request::Stats),
        // Appended for wire kind 9 (Subscribe): same strict-prefix
        // discipline — the replication kinds extend the protocol
        // without touching any earlier byte.
        (
            8,
            Request::Subscribe {
                cursors: vec![(1, 42), (3, 0)],
                names: 17,
            },
        ),
        // Appended for wire kind 10 (Join): strict-prefix discipline as
        // above — every earlier fixture byte is untouched.
        (
            9,
            Request::Join {
                relations: vec!["CT".into(), "CHR".into()],
            },
        ),
        // Appended for wire kind 11 (Alter): one of each alter op,
        // after everything older — strict prefix, `WIRE_VERSION`
        // unchanged.
        (
            10,
            Request::Alter {
                op: AlterOp::AddRelation {
                    name: "SR".into(),
                    columns: vec!["student".into(), "room".into()],
                },
            },
        ),
        (
            11,
            Request::Alter {
                op: AlterOp::DropRelation { name: "CS".into() },
            },
        ),
        (
            12,
            Request::Alter {
                op: AlterOp::AddFd {
                    spec: "student -> room".into(),
                },
            },
        ),
        (
            13,
            Request::Alter {
                op: AlterOp::DropFd {
                    spec: "student -> room".into(),
                },
            },
        ),
    ]
}

/// A deterministic snapshot carrying one of each schema-evolution event
/// tag (appended tags 9, 10, and 11).
fn evolve_events_snapshot() -> MetricsSnapshot {
    let events = vec![
        Event::SchemaAltered {
            generation: 4,
            relations: 3,
        },
        Event::AlterRejected {
            reason: "target schema is not independent".into(),
        },
        Event::BackfillCompleted {
            relation: 2,
            tuples: 512,
            duration: Duration::from_micros(750),
        },
    ];
    MetricsSnapshot {
        counters: vec![("evolve.accepted".into(), 4)],
        gauges: vec![],
        histograms: vec![],
        events: events
            .into_iter()
            .enumerate()
            .map(|(i, event)| EventRecord {
                seq: i as u64,
                at: Duration::from_nanos(100 * i as u64),
                event,
            })
            .collect(),
        poisoned: None,
    }
}

/// A deterministic snapshot carrying one of each replication event tag
/// (appended tags 7 and 8).  Kept separate from [`canonical_snapshot`],
/// which is already pinned inside an existing fixture frame and must
/// not change.
fn replica_events_snapshot() -> MetricsSnapshot {
    let events = vec![
        Event::SegmentShipped {
            relation: 1,
            generation: 2,
            records: 16,
        },
        Event::ReplicaCaughtUp { records: 23 },
    ];
    MetricsSnapshot {
        counters: vec![("replica.r1.applied".into(), 16)],
        gauges: vec![("replica.lag".into(), 0)],
        histograms: vec![],
        events: events
            .into_iter()
            .enumerate()
            .map(|(i, event)| EventRecord {
                seq: i as u64,
                at: Duration::from_nanos(100 * i as u64),
                event,
            })
            .collect(),
        poisoned: None,
    }
}

/// A deterministic [`MetricsSnapshot`] exercising every field of the
/// stats codec: counters, a negative gauge, histogram buckets, one of
/// every event tag, and a preserved poison reason.
fn canonical_snapshot() -> MetricsSnapshot {
    let events = vec![
        Event::ShardPoisoned {
            shard: 2,
            reason: "disk gone".into(),
        },
        Event::CheckpointStarted { generation: 3 },
        Event::CheckpointCompleted {
            generation: 3,
            duration: Duration::from_micros(1500),
        },
        Event::OverloadShed { connection: 7 },
        Event::RecoveryReplayed {
            records: 128,
            duration: Duration::from_millis(2),
        },
        Event::ConnectionOpened { connection: 7 },
        Event::ConnectionClosed {
            connection: 7,
            bytes_in: 4096,
            bytes_out: 512,
        },
    ];
    MetricsSnapshot {
        counters: vec![
            ("store.shard0.accepted".into(), 41),
            ("wal.fsyncs".into(), 9),
        ],
        gauges: vec![("server.connections".into(), -1)],
        histograms: vec![(
            "store.shard0.apply_ns".into(),
            HistogramSnapshot {
                buckets: vec![0, 2, 5, 1],
                count: 8,
                sum_ns: 12_345,
            },
        )],
        events: events
            .into_iter()
            .enumerate()
            .map(|(i, event)| EventRecord {
                seq: i as u64,
                at: Duration::from_nanos(100 * i as u64),
                event,
            })
            .collect(),
        poisoned: Some("disk gone".into()),
    }
}

/// One of every reply kind, including one of every error variant.
fn canonical_replies() -> Vec<(u64, Reply)> {
    let errors = vec![
        WireError::UnknownRelation("TD".into()),
        WireError::UnknownColumn {
            relation: "CT".into(),
            column: "room".into(),
        },
        WireError::ArityMismatch {
            expected: 2,
            found: 3,
        },
        WireError::ShardPoisoned {
            reason: "injected append failure".into(),
        },
        WireError::Disconnected,
        WireError::Durability("io error".into()),
        WireError::NotDurable,
        WireError::Overloaded,
        WireError::Malformed("bad request kind 99".into()),
        WireError::UnsupportedVersion {
            server: 1,
            client: 2,
        },
        WireError::HandshakeRequired,
        WireError::Internal("oops".into()),
    ];
    let mut replies = vec![
        (
            0,
            Reply::Hello {
                version: WIRE_VERSION,
                relations: vec![
                    ("CT".into(), vec!["course".into(), "teacher".into()]),
                    ("CS".into(), vec!["course".into(), "student".into()]),
                ],
            },
        ),
        (1, Reply::Pong),
        (2, Reply::Insert(WireOutcome::Accepted)),
        (3, Reply::Insert(WireOutcome::Duplicate)),
        (
            4,
            Reply::Insert(WireOutcome::Rejected {
                violated: Some("C -> T".into()),
            }),
        ),
        (5, Reply::Insert(WireOutcome::Rejected { violated: None })),
        (6, Reply::Remove(true)),
        (
            7,
            Reply::Rows {
                columns: vec!["course".into(), "teacher".into()],
                rows: vec![vec!["CS402".into(), "Jones".into()]],
            },
        ),
        (8, Reply::Count(42)),
        (
            9,
            Reply::Snapshot {
                counts: vec![("CT".into(), 1), ("CS".into(), 0)],
            },
        ),
        (10, Reply::Checkpointed),
    ];
    for (i, err) in errors.into_iter().enumerate() {
        replies.push((11 + i as u64, Reply::Error(err)));
    }
    // Appended for wire kind 9 (Stats): empty and fully-populated
    // snapshots, after the original replies so those bytes stay a
    // strict prefix.
    replies.push((23, Reply::Stats(MetricsSnapshot::default())));
    replies.push((24, Reply::Stats(canonical_snapshot())));
    // Appended for wire kind 10 (Frames) and the replication event tags:
    // a record batch, a pool-stream batch, an empty heartbeat, and a
    // stats reply with the two appended event tags — all after the
    // original replies so those bytes stay a strict prefix.
    replies.push((
        25,
        Reply::Frames {
            relation: 0,
            gen: 2,
            tip: 42,
            frames: vec![vec![1, 2, 3], vec![]],
        },
    ));
    replies.push((
        26,
        Reply::Frames {
            relation: POOL_STREAM,
            gen: 0,
            tip: 3,
            frames: vec![b"\x05\x00\x00\x00Jones".to_vec()],
        },
    ));
    replies.push((
        27,
        Reply::Frames {
            relation: POOL_STREAM,
            gen: 0,
            tip: 17,
            frames: vec![],
        },
    ));
    replies.push((28, Reply::Stats(replica_events_snapshot())));
    // Appended for error tag 12 (EmptyJoin), the typed answer to a
    // Join with no relations — after everything older, strict prefix.
    replies.push((29, Reply::Error(WireError::EmptyJoin)));
    // Appended for the schema-evolution kinds: an accepted alter
    // (kind 11), a streamed generation manifest (kind 12), both shapes
    // of the AlterRejected error (tag 13), and a stats reply carrying
    // the three evolve event tags — all after everything older, so the
    // pre-evolution bytes stay a strict prefix.
    replies.push((30, Reply::Altered { generation: 4 }));
    replies.push((
        31,
        Reply::Manifest {
            generation: 4,
            payload: b"IDSM-manifest-bytes".to_vec(),
        },
    ));
    replies.push((
        32,
        Reply::Error(WireError::AlterRejected {
            reason: "target schema is not independent".into(),
            witness: Some("TableauConflict".into()),
        }),
    ));
    replies.push((
        33,
        Reply::Error(WireError::AlterRejected {
            reason: "dropping CT leaves the universe uncovered".into(),
            witness: None,
        }),
    ));
    replies.push((34, Reply::Stats(evolve_events_snapshot())));
    replies
}

fn build_request_bytes() -> Vec<u8> {
    canonical_requests()
        .iter()
        .flat_map(|(id, req)| encode_request(*id, req))
        .collect()
}

fn build_reply_bytes() -> Vec<u8> {
    canonical_replies()
        .iter()
        .flat_map(|(id, reply)| encode_reply(*id, reply))
        .collect()
}

#[test]
fn request_bytes_match_the_fixture() {
    let fixture = std::fs::read(fixture_dir().join("requests.bin"))
        .expect("fixture missing: run `cargo test -p ids-server regenerate_fixtures -- --ignored`");
    assert_eq!(
        build_request_bytes(),
        fixture,
        "request wire layout changed; if intentional, bump WIRE_VERSION and regenerate"
    );
}

#[test]
fn reply_bytes_match_the_fixture() {
    let fixture = std::fs::read(fixture_dir().join("replies.bin"))
        .expect("fixture missing: run `cargo test -p ids-server regenerate_fixtures -- --ignored`");
    assert_eq!(
        build_reply_bytes(),
        fixture,
        "reply wire layout changed; if intentional, bump WIRE_VERSION and regenerate"
    );
}

/// The fixtures must also *decode* back to the canonical messages —
/// this is what a deployed peer of the pinned version would do.
#[test]
fn fixtures_decode_to_the_canonical_messages() {
    let bytes = std::fs::read(fixture_dir().join("requests.bin")).unwrap();
    let mut rest: &[u8] = &bytes;
    for (id, req) in canonical_requests() {
        let FrameOutcome::Complete { payload, rest: r } = read_frame(rest) else {
            panic!("fixture stream truncated before request {id}");
        };
        assert_eq!(decode_request(payload).unwrap(), (id, req));
        rest = r;
    }
    assert!(rest.is_empty());

    let bytes = std::fs::read(fixture_dir().join("replies.bin")).unwrap();
    let mut rest: &[u8] = &bytes;
    for (id, reply) in canonical_replies() {
        let FrameOutcome::Complete { payload, rest: r } = read_frame(rest) else {
            panic!("fixture stream truncated before reply {id}");
        };
        assert_eq!(decode_reply(payload).unwrap(), (id, reply));
        rest = r;
    }
    assert!(rest.is_empty());
}

/// The payload inside one encoded frame.
fn payload_of(framed: &[u8]) -> Vec<u8> {
    let FrameOutcome::Complete { payload, rest } = read_frame(framed) else {
        panic!("an encoder must emit one complete frame");
    };
    assert!(rest.is_empty());
    payload.to_vec()
}

/// Walks one decoder's early exits over its canonical messages: every
/// strict prefix, one byte too many, and a kind byte one past the
/// table's last tag are all typed `Malformed` — never `Ok`, never a
/// panic — with id 0 while the id itself is unreadable and the
/// message's own id from there on.
fn sweep<T: std::fmt::Debug>(
    what: &str,
    payloads: &[(u64, Vec<u8>)],
    decode: impl Fn(&[u8]) -> Result<(u64, T), (u64, WireError)>,
) {
    let malformed = |bytes: &[u8], why: &str| match decode(bytes) {
        Err((id, WireError::Malformed(msg))) => (id, msg),
        other => panic!("{what} {why}: expected Malformed, got {other:?}"),
    };
    // The canonical lists hold every kind, so this is the table's last.
    let last_kind = payloads.iter().map(|(_, p)| p[8]).max().unwrap();
    for (id, payload) in payloads {
        for cut in 0..payload.len() {
            let (got, _) = malformed(&payload[..cut], &format!("{id} cut at {cut}"));
            assert_eq!(
                got,
                if cut < 8 { 0 } else { *id },
                "{what} {id} cut at {cut}"
            );
        }
        let mut longer = payload.clone();
        longer.push(0);
        let (got, msg) = malformed(&longer, &format!("{id} plus one byte"));
        assert_eq!(got, *id);
        assert_eq!(msg, format!("1 trailing bytes after {what}"));

        let mut unknown = payload.clone();
        unknown[8] = last_kind + 1;
        let (got, msg) = malformed(&unknown, &format!("{id} with an unknown kind"));
        assert_eq!(got, *id);
        assert_eq!(msg, format!("bad {what} kind {}", last_kind + 1));
    }
}

#[test]
fn truncated_extended_and_unknown_kind_payloads_are_malformed() {
    let requests: Vec<(u64, Vec<u8>)> = canonical_requests()
        .iter()
        .map(|(id, req)| (*id, payload_of(&encode_request(*id, req))))
        .collect();
    sweep("request", &requests, decode_request);
    let replies: Vec<(u64, Vec<u8>)> = canonical_replies()
        .iter()
        .map(|(id, reply)| (*id, payload_of(&encode_reply(*id, reply))))
        .collect();
    sweep("reply", &replies, decode_reply);
}

/// Writes the fixtures.  Ignored: run manually after an intentional
/// protocol change, and bump `WIRE_VERSION` in the same commit.
#[test]
#[ignore = "regenerates golden fixtures; run only on an intentional protocol bump"]
fn regenerate_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    // Append-only discipline: within one WIRE_VERSION, the existing
    // fixture must be a strict prefix of the regenerated bytes — new
    // kinds extend the stream, they never rewrite deployed layouts.
    for (file, bytes) in [
        ("requests.bin", build_request_bytes()),
        ("replies.bin", build_reply_bytes()),
    ] {
        if let Ok(old) = std::fs::read(dir.join(file)) {
            assert!(
                bytes.starts_with(&old) || bytes == old,
                "{file}: regenerated bytes do not extend the committed fixture; \
                 an existing wire layout changed — bump WIRE_VERSION or fix the codec"
            );
        }
        std::fs::write(dir.join(file), bytes).unwrap();
    }
}

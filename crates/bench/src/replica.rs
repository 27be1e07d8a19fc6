//! E13 kernel: read-replica scaling — N embedded wire-stream followers
//! serving a read-mostly shape against one durable primary under a
//! sustained write stream.
//!
//! The claim under measurement is the one log shipping exists for: on
//! an independent schema every relation keeps its own append-only log
//! with no cross-log ordering (Theorem 3), so a follower can replay
//! per-relation prefixes and serve reads *in the reading process* —
//! a point read becomes a function call instead of a wire round trip,
//! and it never contends with the primary's write path.  The baseline
//! row (`replicas = 0`) is the alternative deployment: every read goes
//! through the primary's front door over TCP.  The price of the local
//! read path is staleness, so the same run records replication lag
//! over time and asserts it is *recoverable*: once the write stream
//! stops, every follower reaches caught-up (the
//! [`ids_obs::Event::ReplicaCaughtUp`] transition) with zero lag.
//!
//! How much lag builds up while the readers run depends on thread
//! timing, so it is not reported; the structural claims (every point
//! read hits its row, shipped == applied + pending, lag drains to zero)
//! hold anywhere, and `experiments e13` asserts them at every size.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ids_api::{eq, Database, Schema};
use ids_client::Client;
use ids_replica::Replica;
use ids_server::wire::{Reply, Request};
use ids_server::Server;
use ids_store::DurableConfig;
use ids_workloads::shapes::{read_mostly, traffic, ShapeOp};

/// One row of the E13 scaling sweep.
pub struct ReplicaRow {
    /// Followers serving the reads (0 = everything reads the primary
    /// over the wire).
    pub replicas: usize,
    /// Reader threads (one per follower; one for the baseline).
    pub readers: usize,
    /// Point reads served across all readers.
    pub reads: usize,
    /// Wall-clock for the whole read phase (includes follower
    /// bootstrap, the conservative direction).
    pub elapsed: Duration,
    /// Aggregate point reads per second across all readers.
    pub reads_per_sec: f64,
    /// Largest lag remaining across followers after the write stream
    /// stopped and every follower drained.
    pub final_lag: u64,
    /// Whether every follower reached caught-up after the writes
    /// stopped.
    pub caught_up: bool,
    /// `ReplicaCaughtUp` events across all followers' event logs.
    pub caught_up_events: u64,
}

fn tmp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("ids-bench-e13-{}-{name}", std::process::id()));
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

/// Runs one configuration: a durable primary preloaded with `keys`
/// rows behind a loopback server, a paced writer streaming fresh keys
/// at the primary for the whole read phase, and `max(replicas, 1)`
/// reader threads each executing a deterministic [`read_mostly`]
/// stream of `ops_per_reader` operations.
///
/// With `replicas == 0` every operation is a wire round trip against
/// the primary.  With `replicas >= 1` each reader seeds its own
/// follower from a base backup, serves point reads from the follower's
/// local state (polling the subscription every 64 ops), and forwards
/// the shape's write trickle to the primary's front door — the
/// read-mostly deployment the followers exist for.
///
/// Structural invariants asserted inside the kernel: every point read
/// returns exactly its preloaded row (followers bootstrap the full key
/// domain from the seed, so staleness never loses a read), and every
/// follower's counters obey `shipped == applied + pending`.
fn read_scaling(replicas: usize, ops_per_reader: usize, keys: u64) -> ReplicaRow {
    let readers = replicas.max(1);
    let schema = Schema::builder()
        .relation("KV", ["key", "val"])
        .fd("key -> val")
        .build()
        .expect("single-relation schema is independent");
    let root = tmp_dir(&format!("primary-{replicas}"));
    let db = Database::open_at(&root, schema, DurableConfig::default()).expect("durable primary");
    for k in 0..keys {
        db.insert("KV", [format!("k{k}"), format!("v{k}")])
            .expect("preload");
    }
    let seed = tmp_dir(&format!("seed-{replicas}"));
    copy_dir(&root, &seed);

    let shared = Arc::new(db.into_shared().expect("durable engine shares"));
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // The sustained write stream: paced bursts of fresh keys, so the
    // followers always have records in flight but the 1-CPU host still
    // has cycles left to serve reads.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..32 {
                    shared
                        .insert("KV", [format!("w{n}"), format!("x{n}")])
                        .expect("streamed write");
                    n += 1;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let start = Instant::now();
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            let seed = seed.clone();
            std::thread::spawn(move || -> (usize, Option<Replica>) {
                let ops = traffic(read_mostly(ops_per_reader, keys), r as u64 + 1);
                if replicas == 0 {
                    // Baseline: the primary's front door serves
                    // everything, one round trip per operation.
                    let mut client = Client::connect(addr).expect("connect");
                    let mut reads = 0usize;
                    for op in ops {
                        match op {
                            ShapeOp::Read { key } => {
                                let id = client
                                    .send(Request::Query {
                                        relation: "KV".into(),
                                        filters: vec![("key".into(), format!("k{key}"))],
                                        select: None,
                                    })
                                    .expect("send read");
                                match client.recv(id).expect("recv read") {
                                    Reply::Rows { rows, .. } => {
                                        assert_eq!(rows.len(), 1, "point read must hit k{key}");
                                    }
                                    other => panic!("unexpected read reply: {other:?}"),
                                }
                                reads += 1;
                            }
                            ShapeOp::Write { key } => {
                                let id = client
                                    .send(Request::Insert {
                                        relation: "KV".into(),
                                        values: vec![format!("k{key}"), format!("v{key}")],
                                    })
                                    .expect("send write");
                                client.recv(id).expect("recv write");
                            }
                        }
                    }
                    (reads, None)
                } else {
                    // A follower embedded in the reading process:
                    // reads are local, the write trickle still goes to
                    // the primary.
                    let mut follower = Replica::connect(&seed, addr).expect("follower connects");
                    let mut forward = Client::connect(addr).expect("forwarding connect");
                    let mut reads = 0usize;
                    for (i, op) in ops.into_iter().enumerate() {
                        match op {
                            ShapeOp::Read { key } => {
                                let rows = follower
                                    .database()
                                    .query("KV")
                                    .filter("key", eq(format!("k{key}")))
                                    .run()
                                    .expect("follower point read");
                                assert_eq!(
                                    rows.into_string_rows().len(),
                                    1,
                                    "point read must hit k{key}"
                                );
                                reads += 1;
                            }
                            ShapeOp::Write { key } => {
                                let id = forward
                                    .send(Request::Insert {
                                        relation: "KV".into(),
                                        values: vec![format!("k{key}"), format!("v{key}")],
                                    })
                                    .expect("send forwarded write");
                                forward.recv(id).expect("recv forwarded write");
                            }
                        }
                        if i % 64 == 0 {
                            // Ingest what the stream has shipped; with
                            // the writer running this returns promptly.
                            follower.poll().expect("mid-stream poll");
                        }
                    }
                    (reads, Some(follower))
                }
            })
        })
        .collect();

    let mut reads = 0usize;
    let mut followers = Vec::new();
    for h in handles {
        let (served, follower) = h.join().expect("reader thread");
        reads += served;
        followers.extend(follower);
    }
    let elapsed = start.elapsed();

    // Writes stop; lag must now be *recoverable*: every follower
    // drains to caught-up with zero lag, and conservation holds.
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    let mut final_lag = 0u64;
    let mut caught_up = !followers.is_empty() || replicas == 0;
    let mut caught_up_events = 0u64;
    for follower in &mut followers {
        caught_up &= follower
            .wait_caught_up(Duration::from_secs(30))
            .expect("final catch-up");
        final_lag = final_lag.max(
            follower
                .lag()
                .iter()
                .map(|l| l.seq_delta)
                .max()
                .unwrap_or(0),
        );
        let snap = follower.metrics();
        caught_up_events += snap
            .events
            .iter()
            .filter(|r| matches!(r.event, ids_obs::Event::ReplicaCaughtUp { .. }))
            .count() as u64;
        let shipped = snap.counter("replica.r0.shipped").unwrap_or(0);
        let applied = snap.counter("replica.r0.applied").unwrap_or(0);
        let pending = snap.gauge("replica.r0.pending").unwrap_or(0);
        assert_eq!(
            shipped,
            applied + pending as u64,
            "follower conservation: shipped == applied + pending"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&seed);

    ReplicaRow {
        replicas,
        readers,
        reads,
        elapsed,
        reads_per_sec: reads as f64 / elapsed.as_secs_f64(),
        final_lag,
        caught_up,
        caught_up_events,
    }
}

/// The E13 sweep: the wire baseline, then growing follower counts
/// (smoke = tiny op counts, followers capped at 2).
pub fn sweep(smoke: bool) -> Vec<ReplicaRow> {
    let (ops, keys, configs): (usize, u64, &[usize]) = if smoke {
        (300, 64, &[0, 1, 2])
    } else {
        (2500, 512, &[0, 1, 2, 4])
    };
    configs
        .iter()
        .map(|&replicas| read_scaling(replicas, ops, keys))
        .collect()
}

//! E11 kernel: the TCP front-end under a many-client loopback fleet —
//! sustained pipelined throughput, and graceful degradation under
//! deliberate overload.
//!
//! Shared by the `experiments e11` section and the `--smoke` gate in
//! `tests/smoke.rs`, so the reported numbers come from one code path.
//!
//! Two claims are under measurement:
//!
//! 1. **The network layer adds plumbing, not coordination.**  On an
//!    independent schema the store's shards maintain their relations
//!    with zero cross-shard state (Theorem 3), so N clients hammering
//!    N different relations contend only on sockets and the name
//!    mutex — the wire protocol's pipelining keeps each connection's
//!    round-trip cost amortized across a window of in-flight requests
//!    (one `write` per window on each end, one thread per connection).
//! 2. **Overload is shed, not absorbed.**  A session runs at most
//!    `queue_depth` of the requests it finds waiting together; the rest
//!    of a burst gets typed `Overloaded` replies while everything
//!    accepted still completes — no unbounded buffering, and the
//!    session stays usable afterwards.
//!
//! Like E7, absolute ops/s on a 1-CPU host measures the protocol stack
//! more than shard parallelism; the structural claims (every request
//! answered exactly once, sheds typed, sessions alive) hold anywhere.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ids_api::{Database, EngineKind, Schema, SharedDatabase};
use ids_client::Client;
use ids_server::wire::{Reply, Request, WireError};
use ids_server::{Server, ServerConfig};
use ids_store::StoreConfig;

/// Declares `key-chain(n)` through the fluent builder: relations
/// `Ri(Ai, Ai+1)` with `Ai → Ai+1` — independent, so every relation
/// gets its own enforcement shard.
pub fn chain_schema(relations: usize) -> Schema {
    let mut b = Schema::builder();
    for i in 0..relations {
        b = b
            .relation(format!("R{i}"), [format!("A{i}"), format!("A{}", i + 1)])
            .fd(format!("A{i} -> A{}", i + 1));
    }
    b.build().expect("key-chain is independent")
}

/// Opens the shared database the server front-ends: `key-chain`
/// relations on a sharded store.
pub fn shared_db(relations: usize) -> Arc<SharedDatabase> {
    let db = Database::open(
        chain_schema(relations),
        EngineKind::Sharded(StoreConfig::default()),
    )
    .expect("independent schema opens sharded");
    Arc::new(db.into_shared().expect("sharded engines share"))
}

/// One row of the E11 throughput sweep.
pub struct NetRow {
    /// Concurrent client connections.
    pub clients: usize,
    /// Pipelined insert requests issued per client.
    pub per_client: usize,
    /// In-flight window per connection.
    pub window: usize,
    /// Wall-clock for the whole fleet.
    pub elapsed: Duration,
    /// Fleet-wide accepted inserts per second.
    pub ops_per_sec: f64,
}

/// Runs a loopback fleet: `clients` threads, each its own TCP session,
/// each pipelining `per_client` inserts in windows of `window`
/// in-flight requests.  Every insert targets the client's own relation
/// with unique keys, so every reply must be `Accepted` — asserted, so
/// the measured path is the full typed round trip.
pub fn fleet_throughput(clients: usize, per_client: usize, window: usize) -> NetRow {
    let shared = shared_db(clients.max(1));
    let server = Server::serve(Arc::clone(&shared), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let relation = format!("R{c}");
                let mut inflight = std::collections::VecDeque::new();
                for i in 0..per_client {
                    let req = Request::Insert {
                        relation: relation.clone(),
                        values: vec![format!("k{i}"), format!("v{i}")],
                    };
                    inflight.push_back(client.send(req).expect("send"));
                    if inflight.len() >= window {
                        let id = inflight.pop_front().unwrap();
                        assert!(
                            matches!(client.recv(id).expect("recv"), Reply::Insert(_)),
                            "insert reply expected"
                        );
                    }
                }
                for id in inflight {
                    assert!(matches!(client.recv(id).expect("recv"), Reply::Insert(_)));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed();
    server.shutdown();

    let total = clients * per_client;
    NetRow {
        clients,
        per_client,
        window,
        elapsed,
        ops_per_sec: total as f64 / elapsed.as_secs_f64(),
    }
}

/// One row of the E11 overload experiment.
pub struct OverloadRow {
    /// Concurrent client connections.
    pub clients: usize,
    /// Full-scan queries burst per client.
    pub burst: usize,
    /// Rows preloaded into the scanned relation (per relation).
    pub preloaded: usize,
    /// `ServerConfig::queue_depth`: the bound on one connection's
    /// backlog of unread requests, past which they are shed.
    pub queue_depth: usize,
    /// Queries that returned rows.
    pub served: usize,
    /// Queries shed with a typed `Overloaded` reply.
    pub shed: usize,
    /// The server's own `server.requests.query` counter after the burst
    /// — executed queries as the *server* tallied them.
    pub counter_served: u64,
    /// The server's own `server.shed` counter after the burst.
    pub counter_shed: u64,
    /// Wall-clock for the whole burst.
    pub elapsed: Duration,
}

/// Drives deliberate overload: every relation preloaded with
/// `preloaded` rows, a backlog bound of `queue_depth`, and each client
/// bursting `burst` pipelined full scans.  The invariant asserted is
/// graceful degradation: **every** request gets exactly one reply —
/// rows or a typed `Overloaded` — and afterwards every session still
/// answers a ping.  (How *many* shed depends on how the burst is cut
/// into reads; that the total is conserved and nothing stalls does not.)
pub fn overload_burst(
    clients: usize,
    burst: usize,
    preloaded: usize,
    queue_depth: usize,
) -> OverloadRow {
    let shared = shared_db(clients.max(1));
    for c in 0..clients {
        for i in 0..preloaded {
            shared
                .insert(&format!("R{c}"), [format!("k{i}"), format!("v{i}")])
                .expect("preload");
        }
    }
    let server = Server::serve_with(
        Arc::clone(&shared),
        "127.0.0.1:0",
        ServerConfig { queue_depth },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let relation = format!("R{c}");
                let ids: Vec<u64> = (0..burst)
                    .map(|_| {
                        client
                            .send(Request::Query {
                                relation: relation.clone(),
                                filters: vec![],
                                select: None,
                            })
                            .expect("send")
                    })
                    .collect();
                let (mut served, mut shed) = (0usize, 0usize);
                for id in ids {
                    match client.recv(id).expect("recv") {
                        Reply::Rows { .. } => served += 1,
                        Reply::Error(WireError::Overloaded) => shed += 1,
                        other => panic!("unexpected reply under overload: {other:?}"),
                    }
                }
                // The session survived the burst.
                client.ping().expect("session alive after overload");
                (served, shed)
            })
        })
        .collect();
    let (mut served, mut shed) = (0usize, 0usize);
    for h in handles {
        let (s, d) = h.join().expect("client thread");
        served += s;
        shed += d;
    }
    let elapsed = start.elapsed();
    // The server's counters must tell the same story as the clients'
    // tallies: conservation checked from both ends of the wire.
    let snap = server.metrics();
    let counter_served = snap.counter("server.requests.query").unwrap_or(0);
    let counter_shed = snap.counter("server.shed").unwrap_or(0);
    server.shutdown();

    assert_eq!(
        served + shed,
        clients * burst,
        "every request must be answered exactly once"
    );
    assert_eq!(
        (counter_served, counter_shed),
        (served as u64, shed as u64),
        "server-side counters must agree with the client tallies"
    );
    OverloadRow {
        clients,
        burst,
        preloaded,
        queue_depth,
        served,
        shed,
        counter_served,
        counter_shed,
        elapsed,
    }
}

/// The E11 throughput sweep (client counts; smoke = one tiny config).
pub fn sweep(smoke: bool) -> Vec<NetRow> {
    if smoke {
        return vec![fleet_throughput(2, 64, 16)];
    }
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|clients| fleet_throughput(clients, 4000, 64))
        .collect()
}

/// The E11 overload sweep (smoke = one tiny config).
pub fn overload_sweep(smoke: bool) -> Vec<OverloadRow> {
    if smoke {
        return vec![overload_burst(2, 48, 256, 1)];
    }
    vec![
        overload_burst(4, 200, 4000, 1),
        overload_burst(4, 200, 4000, 16),
        overload_burst(4, 200, 4000, 256),
    ]
}

//! The TCP front-end: an accept loop plus three threads per
//! connection, driving one shared database.
//!
//! ## Per-connection pipeline
//!
//! ```text
//! socket ─read→ [reader] ─try_send→ bounded job queue ─recv→ [worker]
//!                  │                                            │
//!                  └────── Overloaded / handshake replies ──┐   │
//!                                                           ▼   ▼
//!                                   socket ←write─ [writer] ←─ replies
//! ```
//!
//! * The **reader** decodes frames and `try_send`s jobs into a queue
//!   bounded by [`ServerConfig::queue_depth`].  A full queue **sheds**
//!   the request with a typed [`WireError::Overloaded`] reply instead
//!   of queueing without bound or stalling the socket — accepted
//!   requests still complete, and the accept loop never blocks on a
//!   slow connection.
//! * The **worker** executes jobs in order against the
//!   [`SharedDatabase`], running each operation itself inside the
//!   touched relation's lock in the store; connections working on
//!   different relations never wait on each other there.
//! * The **writer** owns the write half.  When a client drops
//!   mid-batch the writer's `write_all` fails, it shuts the socket
//!   down (waking a blocked reader) and exits; the closed reply
//!   channel then unwinds the worker and reader.  No thread is ever
//!   left blocked on a dead connection — see
//!   `crates/server/tests/e2e.rs` for the regression test.
//!
//! Replies are matched to requests by id, not position: shed
//! `Overloaded` replies go straight to the writer and can overtake
//! queued work, which is exactly why the protocol echoes request ids.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use ids_api::{eq, Alter, Cond, Error, SharedDatabase};
use ids_core::InsertOutcome;
use ids_obs::{Counter, Event, Gauge, MetricsSnapshot, Registry};
use ids_relational::{DatabaseSchema, RelationalError};
use ids_store::StoreError;
use ids_wal::{Cursor, NameTailer, RelationPoll, RelationTailer, WalDir};

use crate::wire::{
    decode_request, encode_reply, AlterOp, FrameReader, Reply, Request, WireError, WireOutcome,
    POOL_STREAM, WIRE_VERSION,
};

/// The connection layer's metric families, interned under `server.*`
/// names in their own [`Registry`] — merged with the database's
/// families when a stats poll or [`Server::metrics`] asks.
struct ServerObs {
    registry: Registry,
    /// Next connection id (monotonic per server, never reused).
    conn_seq: AtomicU64,
    /// Currently open connections.
    connections: Arc<Gauge>,
    /// Requests shed with a typed `Overloaded` reply.
    shed: Arc<Counter>,
    /// Intact frames whose payload did not decode.
    malformed: Arc<Counter>,
    /// Bytes read from peers, across all connections.
    bytes_in: Arc<Counter>,
    /// Bytes written to peers, across all connections.
    bytes_out: Arc<Counter>,
}

impl ServerObs {
    fn new() -> Self {
        let registry = Registry::new();
        ServerObs {
            conn_seq: AtomicU64::new(0),
            connections: registry.gauge("server.connections"),
            shed: registry.counter("server.shed"),
            malformed: registry.counter("server.malformed"),
            bytes_in: registry.counter("server.bytes_in"),
            bytes_out: registry.counter("server.bytes_out"),
            registry,
        }
    }

    /// The per-kind **executed**-request counter.  Executed means the
    /// worker ran it: shed and malformed requests are counted by their
    /// own families, which is what makes `served + shed == sent`
    /// conservation checkable from counters alone.
    fn request_counter(&self, req: &Request) -> Arc<Counter> {
        let kind = match req {
            Request::Hello { .. } => "hello",
            Request::Ping => "ping",
            Request::Insert { .. } => "insert",
            Request::Remove { .. } => "remove",
            Request::Query { .. } => "query",
            Request::Count { .. } => "count",
            Request::Snapshot => "snapshot",
            Request::Checkpoint => "checkpoint",
            Request::Stats => "stats",
            Request::Subscribe { .. } => "subscribe",
            Request::Join { .. } => "join",
            Request::Alter { .. } => "alter",
        };
        self.registry.counter(&format!("server.requests.{kind}"))
    }
}

/// A [`Read`] adapter tallying bytes into the server's `bytes_in`
/// counter and the connection's own total (for the close event).
struct CountingReader<R> {
    inner: R,
    total: Arc<Counter>,
    conn: Arc<AtomicU64>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.total.add(n as u64);
        // The per-connection tally feeds the ConnectionClosed event and
        // is ungated: one relaxed add per syscall is noise.
        self.conn.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// Live connections: a socket clone (for forced shutdown) plus the
/// connection thread's handle (for joining).
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Depth of each connection's job queue.  A request arriving while
    /// the queue holds this many is shed with
    /// [`WireError::Overloaded`] — backpressure by typed refusal, not
    /// by unbounded buffering or socket stall.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { queue_depth: 64 }
    }
}

/// A running TCP server over one [`SharedDatabase`].
///
/// ```no_run
/// use std::sync::Arc;
/// use ids_api::{Database, EngineKind, Schema};
/// use ids_server::Server;
/// use ids_store::StoreConfig;
///
/// let schema = Schema::builder()
///     .relation("CT", ["course", "teacher"])
///     .fd("course -> teacher")
///     .build()?;
/// let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default()))?;
/// let server = Server::serve(Arc::new(db.into_shared()?), "127.0.0.1:0")?;
/// println!("listening on {}", server.local_addr());
/// # server.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: ConnRegistry,
    shared: Arc<SharedDatabase>,
    obs: Arc<ServerObs>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections with the default [`ServerConfig`].
    pub fn serve(shared: Arc<SharedDatabase>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Server::serve_with(shared, addr, ServerConfig::default())
    }

    /// [`Server::serve`] with explicit tuning.
    pub fn serve_with(
        shared: Arc<SharedDatabase>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry = Arc::default();
        let obs = Arc::new(ServerObs::new());
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let shared = Arc::clone(&shared);
            let obs = Arc::clone(&obs);
            std::thread::spawn(move || {
                for incoming in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    let mut conns = conns.lock().expect("connection registry poisoned");
                    // Finished connections are pruned lazily, so the
                    // registry stays proportional to live connections.
                    conns.retain(|(_, handle)| !handle.is_finished());
                    let registered = stream.try_clone().ok();
                    let shared = Arc::clone(&shared);
                    let obs = Arc::clone(&obs);
                    let config = config.clone();
                    let handle =
                        std::thread::spawn(move || serve_connection(stream, shared, obs, config));
                    if let Some(registered) = registered {
                        conns.push((registered, handle));
                    }
                }
            })
        };
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
            conns,
            shared,
            obs,
        })
    }

    /// The server's full observability surface: the database's metric
    /// families (per-shard op counters, WAL, events, poison reason)
    /// merged with the connection layer's (`server.*` counters, the
    /// connection gauge, shed/malformed tallies, bytes in/out) — the
    /// same snapshot a [`crate::wire::Request::Stats`] poll gets over
    /// the wire.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics();
        snap.merge(self.obs.registry.snapshot());
        snap
    }

    /// The bound address — the one to hand to
    /// `ids-client`'s `Client::connect` in tests using port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every live connection, and joins all
    /// server threads.  In-flight requests on closed connections get
    /// socket errors, exactly as if the client had dropped.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection registry poisoned"));
        for (stream, handle) in conns {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
}

/// One connection: this thread is the reader; worker and writer are
/// spawned and joined before it returns.
fn serve_connection(
    stream: TcpStream,
    shared: Arc<SharedDatabase>,
    obs: Arc<ServerObs>,
    config: ServerConfig,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn_id = obs.conn_seq.fetch_add(1, Ordering::Relaxed);
    let conn_bytes_in = Arc::new(AtomicU64::new(0));
    let conn_bytes_out = Arc::new(AtomicU64::new(0));
    obs.connections.inc();
    obs.registry.events().record(Event::ConnectionOpened {
        connection: conn_id,
    });
    let (reply_tx, reply_rx) = mpsc::channel::<(u64, Reply)>();
    let (job_tx, job_rx) = mpsc::sync_channel::<(u64, Request)>(config.queue_depth.max(1));

    let writer = {
        let bytes_out = Arc::clone(&obs.bytes_out);
        let conn_bytes_out = Arc::clone(&conn_bytes_out);
        std::thread::spawn(move || write_replies(stream, reply_rx, bytes_out, conn_bytes_out))
    };
    let worker = {
        let shared = Arc::clone(&shared);
        let obs = Arc::clone(&obs);
        let reply_tx = reply_tx.clone();
        std::thread::spawn(move || run_jobs(shared, obs, job_rx, reply_tx))
    };

    read_requests(
        &read_half,
        &shared,
        &obs,
        conn_id,
        &conn_bytes_in,
        &job_tx,
        &reply_tx,
    );

    // Unwind: closing the job queue drains the worker, and once both
    // reply senders are gone the writer drains and exits.
    drop(job_tx);
    drop(reply_tx);
    let _ = worker.join();
    let _ = writer.join();
    // The accept loop's registry holds a clone of this socket (for
    // forced shutdown), so dropping our halves is not enough to close
    // the connection — shut it down explicitly so the peer sees EOF.
    let _ = read_half.shutdown(Shutdown::Both);
    obs.connections.dec();
    obs.registry.events().record(Event::ConnectionClosed {
        connection: conn_id,
        bytes_in: conn_bytes_in.load(Ordering::Relaxed),
        bytes_out: conn_bytes_out.load(Ordering::Relaxed),
    });
}

/// The reader loop: frames in, jobs (or direct replies) out.
fn read_requests(
    read_half: &TcpStream,
    shared: &SharedDatabase,
    obs: &ServerObs,
    conn_id: u64,
    conn_bytes_in: &Arc<AtomicU64>,
    job_tx: &SyncSender<(u64, Request)>,
    reply_tx: &Sender<(u64, Reply)>,
) {
    let mut frames = FrameReader::new(CountingReader {
        inner: read_half,
        total: Arc::clone(&obs.bytes_in),
        conn: Arc::clone(conn_bytes_in),
    });
    let mut greeted = false;
    loop {
        let payload = match frames.next_payload() {
            Ok(Some(payload)) => payload,
            // Clean EOF, corruption, or I/O error: drop the
            // connection.  After a corrupt frame the stream cannot be
            // trusted to be in sync, so there is nothing to reply to.
            Ok(None) | Err(_) => return,
        };
        match decode_request(&payload) {
            Ok((id, Request::Hello { version })) => {
                if version != WIRE_VERSION {
                    let err = WireError::UnsupportedVersion {
                        server: WIRE_VERSION,
                        client: version,
                    };
                    let _ = reply_tx.send((id, Reply::Error(err)));
                    return;
                }
                greeted = true;
                if reply_tx.send((id, hello_reply(shared))).is_err() {
                    return;
                }
            }
            Ok((id, req)) => {
                if !greeted {
                    let _ = reply_tx.send((id, Reply::Error(WireError::HandshakeRequired)));
                    return;
                }
                match job_tx.try_send((id, req)) {
                    Ok(()) => {}
                    // Shed: the typed refusal goes straight to the
                    // writer, overtaking queued work — the reader
                    // never blocks on a full queue.
                    Err(TrySendError::Full(_)) => {
                        obs.shed.inc();
                        obs.registry.events().record(Event::OverloadShed {
                            connection: conn_id,
                        });
                        if reply_tx
                            .send((id, Reply::Error(WireError::Overloaded)))
                            .is_err()
                        {
                            return;
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            // The frame was intact, so the stream is still in sync:
            // answer the malformed payload and keep serving.
            Err((id, err)) => {
                obs.malformed.inc();
                if reply_tx.send((id, Reply::Error(err))).is_err() {
                    return;
                }
            }
        }
    }
}

/// The worker loop: jobs in order, replies by id.
fn run_jobs(
    shared: Arc<SharedDatabase>,
    obs: Arc<ServerObs>,
    job_rx: Receiver<(u64, Request)>,
    reply_tx: Sender<(u64, Reply)>,
) {
    while let Ok((id, req)) = job_rx.recv() {
        // A subscribe turns this connection into a replication stream:
        // the worker dedicates itself to shipping frames until the
        // client disconnects (or the stream hits a typed error, after
        // which ordinary requests are served again).
        if let Request::Subscribe { cursors, names } = req {
            run_subscribe(&shared, &obs, id, cursors, names, &job_rx, &reply_tx);
            continue;
        }
        if reply_tx.send((id, execute(&shared, &obs, req))).is_err() {
            // Writer gone: the connection is dead, stop executing.
            return;
        }
    }
}

/// Ships one batch of verbatim frame payloads as a [`Reply::Frames`],
/// recording the shipment in the event log.  `Err(())` means the writer
/// is gone — the client disconnected.
#[allow(clippy::too_many_arguments)]
fn ship_frames(
    reply_tx: &Sender<(u64, Reply)>,
    obs: &ServerObs,
    id: u64,
    relation: u16,
    gen: u64,
    tip: u64,
    frames: Vec<Vec<u8>>,
) -> Result<(), ()> {
    if frames.is_empty() {
        return Ok(());
    }
    obs.registry.events().record(Event::SegmentShipped {
        relation,
        generation: gen,
        records: frames.len() as u64,
    });
    reply_tx
        .send((
            id,
            Reply::Frames {
                relation,
                gen,
                tip,
                frames,
            },
        ))
        .map_err(|_| ())
}

/// The replication ship loop behind [`Request::Subscribe`].
///
/// Tails the primary's own segment files (and name log) read-only and
/// forwards every new frame payload **verbatim** — the bytes a follower
/// applies are the bytes the primary made durable, so replication
/// inherits the on-disk format's golden-fixture byte stability.  Names
/// always ship before the records that reference them, mirroring the
/// primary's fsync order.  Each `Frames` reply carries one generation,
/// so a poll that crosses a checkpoint rotation is split and the
/// follower's cursor stays exact.
///
/// Schema transitions ship the same way: each generation manifest the
/// primary commits is forwarded **verbatim** as a [`Reply::Manifest`]
/// before any frame of that generation (the rename happens-before the
/// first new-generation segment, and TCP preserves reply order), so
/// the follower applies the transition under exactly the boundary the
/// primary crossed, then keeps consuming frames under the new schema.
///
/// When a full round finds nothing new, one empty `POOL_STREAM` reply
/// is sent as a heartbeat: it tells the follower "you have everything I
/// can see" (frames are ordered in-channel, so an empty round after the
/// queue drains means caught-up) and doubles as the liveness probe that
/// ends this loop once the writer thread dies after a disconnect.
///
/// A subscribed connection still answers one request: `Ping`.  Pings
/// are drained *before* a poll round and answered *after* it, so the
/// `Pong` is a sync barrier — every record durable before the ping was
/// sent has been shipped by the time the follower sees the answer.
/// Any other request on a replication stream gets a typed error.
fn run_subscribe(
    shared: &SharedDatabase,
    obs: &ServerObs,
    id: u64,
    cursors: Vec<(u64, u64)>,
    names: u64,
    job_rx: &Receiver<(u64, Request)>,
    reply_tx: &Sender<(u64, Reply)>,
) {
    obs.registry.counter("server.requests.subscribe").inc();
    let Some(root) = shared.store().wal_root() else {
        let _ = reply_tx.send((id, Reply::Error(WireError::NotDurable)));
        return;
    };
    let dir = match WalDir::open(&root) {
        Ok(dir) => dir,
        Err(e) => {
            let _ = reply_tx.send((id, Reply::Error(wire_error(e.into()))));
            return;
        }
    };
    // The follower's cursor indexes are scheme indexes under the
    // manifest *governing its position* — the latest one with
    // generation ≤ its cursors — which may be older than the schema
    // this server currently serves.  Start the era there; every later
    // transition is shipped below (manifest before frames), so the
    // follower catches up through the same boundaries the primary
    // crossed.
    let start_gen = cursors.iter().map(|&(gen, _)| gen).max().unwrap_or(0);
    let disk_manifests = match dir.generation_manifests_after(0) {
        Ok(m) => m,
        Err(e) => {
            let _ = reply_tx.send((id, Reply::Error(wire_error(e.into()))));
            return;
        }
    };
    let mut era_schema: DatabaseSchema = disk_manifests
        .iter()
        .rev()
        .find(|(g, ..)| *g <= start_gen)
        .map(|(_, m, _)| m.schema.clone())
        .unwrap_or_else(|| dir.manifest().schema.clone());
    let relations = era_schema.len();
    if cursors.len() != relations {
        let _ = reply_tx.send((
            id,
            Reply::Error(WireError::Internal(format!(
                "subscribe carries {} cursors but the schema has {relations} relations",
                cursors.len()
            ))),
        ));
        return;
    }
    let fingerprint = dir.fingerprint();
    let mut tailers: Vec<RelationTailer> = cursors
        .iter()
        .enumerate()
        .map(|(i, &(gen, seq))| {
            RelationTailer::new(dir.root(), fingerprint, i as u16, Cursor { gen, seq })
        })
        .collect();
    let mut name_tailer = NameTailer::new(&dir.pool_log_path(), fingerprint, names);
    // Highest manifest generation already shipped (or known to the
    // follower, whose cursors can only have reached `start_gen` with
    // every manifest ≤ it applied).  Anything newer found on disk ships
    // verbatim, and the tailer set is remapped to the new schema.
    let mut shipped_gen = start_gen;
    loop {
        // Drain pings BEFORE this round's polls: a ping in hand means
        // everything durable before it was sent is visible to the polls
        // below, so answering after them makes `Pong` a true barrier.
        let mut pings = Vec::new();
        loop {
            match job_rx.try_recv() {
                Ok((rid, Request::Ping)) => pings.push(rid),
                Ok((rid, _)) => {
                    let err = WireError::Internal(
                        "connection is a replication stream: only ping is served".into(),
                    );
                    if reply_tx.send((rid, Reply::Error(err))).is_err() {
                        return;
                    }
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => break,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => return,
            }
        }
        let mut shipped = false;
        // Manifests first: a schema transition must reach the follower
        // before any frame written under it.  The primary renames the
        // manifest into place *before* the first new-generation segment
        // exists, and TCP delivers replies in order, so shipping the
        // manifest here — before this round's polls — preserves that
        // happens-before on the follower.  After shipping, the tailer
        // set is remapped by relation (name + attributes): survivors
        // are retargeted to their scheme index under the new schema,
        // dropped relations fall away, added relations start tailing
        // at `(gen, 0)` — their logs begin at the transition.
        match dir.generation_manifests_after(shipped_gen) {
            Ok(manifests) => {
                for (g, m, payload) in manifests {
                    shipped = true;
                    if reply_tx
                        .send((
                            id,
                            Reply::Manifest {
                                generation: g,
                                payload,
                            },
                        ))
                        .is_err()
                    {
                        return;
                    }
                    let mut old: Vec<Option<RelationTailer>> =
                        tailers.drain(..).map(Some).collect();
                    for (jid, scheme) in m.schema.iter() {
                        let j = jid.index() as u16;
                        let prev = era_schema
                            .iter()
                            .find(|&(iid, s)| {
                                s.name == scheme.name
                                    && era_schema.attrs(iid) == m.schema.attrs(jid)
                            })
                            .map(|(iid, _)| iid.index());
                        match prev.and_then(|i| old[i].take()) {
                            Some(mut t) => {
                                t.retarget(g, j);
                                tailers.push(t);
                            }
                            None => tailers.push(RelationTailer::new(
                                dir.root(),
                                fingerprint,
                                j,
                                Cursor { gen: g, seq: 0 },
                            )),
                        }
                    }
                    era_schema = m.schema;
                    shipped_gen = g;
                }
            }
            Err(e) => {
                let _ = reply_tx.send((id, Reply::Error(wire_error(e.into()))));
                return;
            }
        }
        // Names next: the primary fsyncs a name before any record
        // referencing its value, and the follower needs the same order.
        match name_tailer.poll() {
            Ok(new_names) => {
                if !new_names.is_empty() {
                    shipped = true;
                    let frames: Vec<Vec<u8>> = new_names.into_iter().map(|n| n.payload).collect();
                    let tip = name_tailer.emitted();
                    if ship_frames(reply_tx, obs, id, POOL_STREAM, 0, tip, frames).is_err() {
                        return;
                    }
                }
            }
            Err(e) => {
                let _ = reply_tx.send((id, Reply::Error(wire_error(e.into()))));
                return;
            }
        }
        for tailer in &mut tailers {
            match tailer.poll() {
                Ok(RelationPoll::Records(records)) if !records.is_empty() => {
                    shipped = true;
                    let tip = tailer.cursor().seq;
                    let mut batch: Vec<Vec<u8>> = Vec::new();
                    let mut batch_gen = records[0].gen;
                    // Per-record scheme, not the tailer's current one: a
                    // poll that crosses a transition boundary carries
                    // records under two scheme indexes, and each batch
                    // must be labeled with the index its frames were
                    // written under (splits align with gen splits).
                    let mut batch_scheme = records[0].scheme;
                    for rec in records {
                        if rec.gen != batch_gen || rec.scheme != batch_scheme {
                            let frames = std::mem::take(&mut batch);
                            if ship_frames(reply_tx, obs, id, batch_scheme, batch_gen, tip, frames)
                                .is_err()
                            {
                                return;
                            }
                            batch_gen = rec.gen;
                            batch_scheme = rec.scheme;
                        }
                        batch.push(rec.payload);
                    }
                    if ship_frames(reply_tx, obs, id, batch_scheme, batch_gen, tip, batch).is_err()
                    {
                        return;
                    }
                }
                Ok(RelationPoll::Records(_)) => {}
                Ok(RelationPoll::Behind) => {
                    let _ = reply_tx.send((
                        id,
                        Reply::Error(WireError::Durability(
                            "subscribe cursor is behind pruned segments: \
                             re-seed the replica from a newer snapshot"
                                .into(),
                        )),
                    ));
                    return;
                }
                Err(e) => {
                    let _ = reply_tx.send((id, Reply::Error(wire_error(e.into()))));
                    return;
                }
            }
        }
        let idle = !shipped;
        for rid in pings {
            if reply_tx.send((rid, Reply::Pong)).is_err() {
                return;
            }
        }
        if idle {
            let tip = name_tailer.emitted();
            let heartbeat = Reply::Frames {
                relation: POOL_STREAM,
                gen: 0,
                tip,
                frames: Vec::new(),
            };
            if reply_tx.send((id, heartbeat)).is_err() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

/// The writer loop: owns the write half; on failure shuts the socket
/// down so a blocked reader wakes, then drains nothing further.
fn write_replies(
    mut stream: TcpStream,
    reply_rx: Receiver<(u64, Reply)>,
    bytes_out: Arc<Counter>,
    conn_bytes_out: Arc<AtomicU64>,
) {
    while let Ok((id, reply)) = reply_rx.recv() {
        let frame = encode_reply(id, &reply);
        if stream.write_all(&frame).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        bytes_out.add(frame.len() as u64);
        conn_bytes_out.fetch_add(frame.len() as u64, Ordering::Relaxed);
    }
}

/// The handshake answer: version plus the relation catalog.
fn hello_reply(shared: &SharedDatabase) -> Reply {
    let schema = shared.schema();
    let relations = schema
        .relation_names()
        .map(|name| {
            let columns = schema
                .columns(name)
                .expect("catalog names come from the schema itself")
                .to_vec();
            (name.to_string(), columns)
        })
        .collect();
    Reply::Hello {
        version: WIRE_VERSION,
        relations,
    }
}

/// Executes one request against the shared database.  Every failure
/// becomes a typed [`Reply::Error`]; nothing here panics the worker.
fn execute(shared: &SharedDatabase, obs: &ServerObs, req: Request) -> Reply {
    obs.request_counter(&req).inc();
    match req {
        // A repeated Hello is answered idempotently.
        Request::Hello { .. } => hello_reply(shared),
        Request::Ping => Reply::Pong,
        Request::Insert { relation, values } => match shared.insert(&relation, values) {
            Ok(InsertOutcome::Accepted) => Reply::Insert(WireOutcome::Accepted),
            Ok(InsertOutcome::Duplicate) => Reply::Insert(WireOutcome::Duplicate),
            Ok(InsertOutcome::Rejected { violated }) => {
                let schema = shared.schema();
                let universe = schema.definition().universe();
                Reply::Insert(WireOutcome::Rejected {
                    violated: violated.map(|fd| fd.render(universe)),
                })
            }
            Err(e) => Reply::Error(wire_error(e)),
        },
        Request::Remove { relation, values } => match shared.remove(&relation, values) {
            Ok(present) => Reply::Remove(present),
            Err(e) => Reply::Error(wire_error(e)),
        },
        Request::Query {
            relation,
            filters,
            select,
        } => {
            let filters: Vec<(String, Cond)> =
                filters.into_iter().map(|(c, v)| (c, eq(v))).collect();
            match shared.query(&relation, &filters, select) {
                Ok(rows) => Reply::Rows {
                    columns: rows.columns().to_vec(),
                    rows: rows.into_string_rows(),
                },
                Err(e) => Reply::Error(wire_error(e)),
            }
        }
        Request::Join { relations } => match shared.join(&relations) {
            Ok(rows) => Reply::Rows {
                columns: rows.columns().to_vec(),
                rows: rows.into_string_rows(),
            },
            Err(e) => Reply::Error(wire_error(e)),
        },
        Request::Count { relation } => match shared.count(&relation) {
            Ok(n) => Reply::Count(n as u64),
            Err(e) => Reply::Error(wire_error(e)),
        },
        Request::Snapshot => match shared.snapshot() {
            Ok(state) => {
                let schema = shared.schema();
                let counts = schema
                    .relation_names()
                    .map(|name| {
                        let id = schema
                            .scheme_id(name)
                            .expect("catalog names come from the schema itself");
                        (name.to_string(), state.relation(id).len() as u64)
                    })
                    .collect();
                Reply::Snapshot { counts }
            }
            Err(e) => Reply::Error(wire_error(e)),
        },
        Request::Checkpoint => match shared.checkpoint() {
            Ok(()) => Reply::Checkpointed,
            Err(e) => Reply::Error(wire_error(e)),
        },
        // Purely read-side: aggregates the database's families with the
        // connection layer's and never touches a shard — a stats poll
        // still answers after a poison.
        Request::Stats => {
            let mut snap = shared.metrics();
            snap.merge(obs.registry.snapshot());
            Reply::Stats(snap)
        }
        // Intercepted in `run_jobs` (it owns the reply channel for the
        // stream); reaching this arm would be a dispatch bug.
        Request::Subscribe { .. } => Reply::Error(WireError::Internal(
            "subscribe must be handled by the connection worker".into(),
        )),
        Request::Alter { op } => {
            let op = match op {
                AlterOp::AddRelation { name, columns } => Alter::AddRelation { name, columns },
                AlterOp::DropRelation { name } => Alter::DropRelation { name },
                AlterOp::AddFd { spec } => Alter::AddFd { spec },
                AlterOp::DropFd { spec } => Alter::DropFd { spec },
            };
            match shared.alter(&op) {
                Ok(generation) => Reply::Altered { generation },
                Err(e) => Reply::Error(alter_wire_error(shared, e)),
            }
        }
    }
}

/// Flattens an alter refusal into the wire's typed rejection, rendering
/// the machine-checkable evidence — the `LSAT ∖ WSAT` counterexample of
/// a dependent target, or the violating tuple pair of a refused
/// backfill — so the refusal travels with its witness.  Failures that
/// are not alter-specific (poisoned shard, I/O, ..) fall through to the
/// ordinary [`wire_error`] mapping.
fn alter_wire_error(shared: &SharedDatabase, e: Error) -> WireError {
    match e {
        Error::NotIndependent { reason, witness } => WireError::AlterRejected {
            reason: format!("target schema is not independent: {reason:?}"),
            witness: Some(format!("{:?}", witness.kind)),
        },
        Error::Store(StoreError::BackfillViolation {
            scheme,
            violated,
            witness,
        }) => {
            let schema = shared.schema();
            let universe = schema.definition().universe();
            let relation = schema
                .definition()
                .get_scheme(scheme)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| format!("{scheme:?}"));
            let tuples = shared.render_tuples(&witness).join(", ");
            WireError::AlterRejected {
                reason: format!(
                    "existing tuples of {relation} violate {}",
                    violated.render(universe)
                ),
                witness: Some(format!("{relation}: {{{tuples}}}")),
            }
        }
        Error::Evolve(e) => WireError::AlterRejected {
            reason: e.to_string(),
            witness: None,
        },
        other => wire_error(other),
    }
}

/// Flattens the typed API error into its wire mirror.
fn wire_error(e: Error) -> WireError {
    match e {
        Error::UnknownRelation(name) => WireError::UnknownRelation(name),
        Error::UnknownColumn { relation, column } => WireError::UnknownColumn { relation, column },
        Error::Relational(RelationalError::ArityMismatch { expected, found }) => {
            WireError::ArityMismatch {
                expected: expected as u32,
                found: found as u32,
            }
        }
        Error::Store(StoreError::ShardPoisoned { reason }) => WireError::ShardPoisoned { reason },
        Error::Store(StoreError::Disconnected) => WireError::Disconnected,
        Error::Store(StoreError::NotDurable) => WireError::NotDurable,
        Error::EmptyJoin => WireError::EmptyJoin,
        Error::Wal(e) => WireError::Durability(e.to_string()),
        other => WireError::Internal(other.to_string()),
    }
}

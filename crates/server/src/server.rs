//! The TCP front-end: an accept loop plus **one thread per
//! connection**, each a loop that reads, runs and replies against one
//! shared database.
//!
//! ## The session loop
//!
//! ```text
//!            ┌────────────────────── one thread ──────────────────────┐
//! socket ─read→ frames already buffered ─→ execute inline ─→ reply buffer ─write→ socket
//!            │   (first `queue_depth`)      (the rest: Overloaded)    │
//!            └── flush when the input is drained, or past 64 KiB ─────┘
//! ```
//!
//! * **Read.**  The loop blocks for one frame, then takes every further
//!   complete frame *already in its buffer* — no syscall.  That backlog
//!   is the unit of admission.
//! * **Run.**  The first [`ServerConfig::queue_depth`] requests of a
//!   backlog execute inline against the one [`Database`] (handed to
//!   [`Server::serve`] under its old name, [`SharedDatabase`]), each
//!   inside the touched relation's lock in the store; nothing between
//!   the socket and that lock is shared but name resolution, so
//!   connections working on different relations never wait on each other
//!   past it.  The rest are **shed** with a typed
//!   [`WireError::Overloaded`] — a bound on unread input, not a queue.
//!   Handshake and malformed payloads are answered in place and count
//!   against nothing.
//! * **Reply.**  Every reply is encoded straight into one buffer, in
//!   **request order** (sheds included; ids are still echoed), its frame
//!   sealed where it lies, and the buffer written when the buffered
//!   input is drained or it passes 64 KiB.  `Query` and `Join` rows go
//!   from the value pool into that buffer through
//!   [`crate::wire::RowsWriter`]: no `Reply` and no `String` per value is
//!   built for them.
//!
//! ## The flow-control contract
//!
//! A session holds at most one reply buffer (64 KiB plus the reply
//! that crossed the mark) and one input buffer, so server memory per
//! connection is bounded.  A peer that stops reading its replies is
//! stalled by TCP once that buffer and the socket buffers are full —
//! it stalls **itself only**: its thread blocks in `write`, executes
//! nothing further, and no other connection notices.  The supported
//! pipelining envelope is therefore *at most `queue_depth` requests in
//! flight, replies read as they come*; beyond it requests are shed.
//!
//! Teardown is a drop guard: however the loop ends — EOF, a corrupt
//! frame, a failed write, a panic under `execute` — the socket is shut
//! down, so the peer sees EOF and no thread is ever left blocked on a
//! dead connection (see `crates/server/tests/e2e.rs`).

use std::convert::Infallible;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ids_api::{eq, Alter, Cond, Database, Error, SharedDatabase};
use ids_core::InsertOutcome;
use ids_obs::{Counter, Event, Gauge, MetricsSnapshot, Registry};
use ids_relational::RelationalError;
use ids_store::StoreError;
use ids_wal::{Cursor, FollowPoll, Follower, Shipment, WalDir, WalError};

use crate::wire::{
    append_reply, decode_request, AlterOp, FrameError, FrameReader, Reply, Request, RowsWriter,
    Tagged, WireError, WireOutcome, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD, POOL_STREAM, WIRE_VERSION,
};

/// Replies are written once this many bytes are pending, even with
/// input still buffered — the bound on a session's reply memory.
const FLUSH_BYTES: usize = 64 * 1024;

/// How long an idle replication stream waits for a ping before it
/// polls the logs again.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// Metric names of the request kinds, **indexed by wire tag** (the
/// `Request` table in `wire.rs`): a new request appends its name here.
const REQUEST_KINDS: [&str; 12] = [
    "hello",
    "ping",
    "insert",
    "remove",
    "query",
    "count",
    "snapshot",
    "checkpoint",
    "stats",
    "subscribe",
    "join",
    "alter",
];

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
    /// `server.requests.{kind}`, one handle per [`REQUEST_KINDS`] entry
    /// — interned here so executing a request takes no registry lock.
    requests: [Arc<Counter>; 12],
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
            requests: REQUEST_KINDS
                .map(|kind| registry.counter(&format!("server.requests.{kind}"))),
            registry,
        }
    }

    /// The per-kind **executed**-request counter, indexed by the
    /// request's wire tag.  Executed means the session ran it: shed,
    /// refused and malformed requests are counted by their own families
    /// (or not at all), which is what makes `served + shed == sent`
    /// conservation checkable from counters alone.
    fn executed(&self, req: &Request) -> &Counter {
        &self.requests[usize::from(req.tag())]
    }
}

/// Live connections: a socket clone (for forced shutdown) plus the
/// connection thread's handle (for joining).
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// How many pipelined requests a connection may have waiting.  The
    /// session runs at most this many of the requests it finds buffered
    /// together and sheds the rest with [`WireError::Overloaded`] —
    /// backpressure by typed refusal of unread input, not by queueing.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { queue_depth: 64 }
    }
}

/// A running TCP server over one [`Database`], in memory or durable; alter,
/// checkpoint and subscribe need a durable one and are otherwise refused
/// with a typed [`WireError::NotDurable`].
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
        let depth = config.queue_depth.max(1);
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
                    let handle = std::thread::spawn(move || {
                        // However the loop ends, the session's drop
                        // guard is the whole response.
                        let _ = Session::open(&stream, &shared, &obs).run(depth);
                    });
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

/// One connection, on its one thread: the socket, its input and reply
/// buffers, and — as the `Drop` impl — its teardown.
struct Session<'a> {
    stream: &'a TcpStream,
    frames: FrameReader<&'a TcpStream>,
    /// Encoded replies not yet written, in request order.
    out: Vec<u8>,
    db: &'a Database,
    obs: &'a ServerObs,
    conn_id: u64,
    bytes_out: u64,
}

impl Drop for Session<'_> {
    /// The accept loop's registry holds a clone of this socket (for
    /// forced shutdown), so dropping ours is not enough to close the
    /// connection — shut it down explicitly so the peer sees EOF, even
    /// when a panic is what ended the loop.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.obs.connections.dec();
        self.obs.registry.events().record(Event::ConnectionClosed {
            connection: self.conn_id,
            bytes_in: self.frames.bytes_read(),
            bytes_out: self.bytes_out,
        });
    }
}

impl<'a> Session<'a> {
    fn open(stream: &'a TcpStream, db: &'a Database, obs: &'a ServerObs) -> Self {
        // Replies are coalesced here, in `out`; Nagle on top of that
        // could only add a delayed-ACK stall.
        let _ = stream.set_nodelay(true);
        let conn_id = obs.conn_seq.fetch_add(1, Ordering::Relaxed);
        obs.connections.inc();
        obs.registry.events().record(Event::ConnectionOpened {
            connection: conn_id,
        });
        Session {
            stream,
            frames: FrameReader::new(stream),
            out: Vec::new(),
            db,
            obs,
            conn_id,
            bytes_out: 0,
        }
    }

    /// Reads the next frame off the socket (in whatever blocking mode
    /// it is in), tallying what the read moved.
    fn read_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let before = self.frames.bytes_read();
        let frame = self.frames.next_payload();
        self.obs.bytes_in.add(self.frames.bytes_read() - before);
        frame
    }

    /// Encodes one reply straight into the buffer.
    fn reply(&mut self, id: u64, reply: &Reply) -> Result<(), FrameError> {
        let start = self.out.len();
        append_reply(&mut self.out, id, reply);
        self.appended(id, start)
    }

    /// Streams a `Rows` reply into the buffer: `read` runs the database
    /// read with a [`RowsWriter`] as its sink, so each value goes from
    /// the pool into the reply bytes with no `String` between.  A failed
    /// read wrote nothing the peer may see: the frame is cut back and the
    /// typed error written in its place.
    fn reply_rows(
        &mut self,
        id: u64,
        read: impl FnOnce(&Database, &mut RowsWriter<'_>) -> Result<(), Error>,
    ) -> Result<(), FrameError> {
        let start = self.out.len();
        let db = self.db;
        let mut rows = RowsWriter::new(&mut self.out, id);
        match read(db, &mut rows) {
            Ok(()) => rows.finish(),
            Err(e) => {
                self.out.truncate(start);
                append_reply(&mut self.out, id, &Reply::Error(wire_error(e)));
            }
        }
        self.appended(id, start)
    }

    /// Bounds the frame just appended at `start`, then writes the buffer
    /// out past [`FLUSH_BYTES`].  The peer's `read_frame` takes an
    /// oversize frame for corruption and drops the connection, so one is
    /// refused at write time, as the WAL does: cut back, and replaced by
    /// a typed error.
    fn appended(&mut self, id: u64, start: usize) -> Result<(), FrameError> {
        let payload = self.out.len() - start - FRAME_HEADER_LEN;
        if payload > MAX_FRAME_PAYLOAD as usize {
            self.out.truncate(start);
            let err = WireError::Internal(format!(
                "reply of {payload} bytes exceeds the 64 MiB frame bound"
            ));
            append_reply(&mut self.out, id, &Reply::Error(err));
        }
        if self.out.len() > FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every pending reply.  Blocks for as long as the peer does
    /// not read — the flow-control contract in the module docs.
    fn flush(&mut self) -> Result<(), FrameError> {
        self.stream.write_all(&self.out)?;
        self.obs.bytes_out.add(self.out.len() as u64);
        self.bytes_out += self.out.len() as u64;
        self.out.clear();
        Ok(())
    }

    /// The session loop: every intact frame gets exactly one reply, in
    /// order.  Returns on clean EOF or a refused handshake, and with the
    /// error on a corrupt frame (the stream cannot be trusted to be in
    /// sync, so there is nothing to reply to) or a dead socket.
    fn run(&mut self, depth: usize) -> Result<(), FrameError> {
        let mut greeted = false;
        while let Some(first) = self.read_frame()? {
            // Requests admitted from this backlog: the frame just read
            // plus every complete frame buffered behind it.
            let mut admitted = 0;
            let mut next = Some(first);
            while let Some(payload) = next {
                let mut refused = false;
                match decode_request(&payload) {
                    Ok((id, Request::Hello { version })) if version != WIRE_VERSION => {
                        refused = true;
                        let err = WireError::UnsupportedVersion {
                            server: WIRE_VERSION,
                            client: version,
                        };
                        self.reply(id, &Reply::Error(err))?;
                    }
                    Ok((id, hello @ Request::Hello { .. })) => {
                        greeted = true;
                        self.obs.executed(&hello).inc();
                        self.reply(id, &hello_reply(self.db))?;
                    }
                    Ok((id, _)) if !greeted => {
                        refused = true;
                        self.reply(id, &Reply::Error(WireError::HandshakeRequired))?;
                    }
                    Ok((id, _)) if admitted == depth => {
                        self.obs.shed.inc();
                        self.obs.registry.events().record(Event::OverloadShed {
                            connection: self.conn_id,
                        });
                        self.reply(id, &Reply::Error(WireError::Overloaded))?;
                    }
                    Ok((id, req)) => {
                        admitted += 1;
                        self.obs.executed(&req).inc();
                        self.serve(id, req)?;
                    }
                    // The frame was intact, so the stream is still in
                    // sync: answer the malformed payload and keep
                    // serving.
                    Err((id, err)) => {
                        self.obs.malformed.inc();
                        self.reply(id, &Reply::Error(err))?;
                    }
                }
                if refused {
                    return self.flush();
                }
                next = self.frames.next_buffered()?;
            }
            self.flush()?;
        }
        Ok(())
    }

    /// Runs one admitted request and writes its reply.  Rows replies
    /// stream from the database's row visitor into the buffer; every
    /// other request is one [`execute`]d [`Reply`].
    fn serve(&mut self, id: u64, req: Request) -> Result<(), FrameError> {
        match req {
            // A subscribe turns this connection into a replication
            // stream until the client disconnects (or the stream hits a
            // typed error, after which ordinary requests are served
            // again).
            // `names` is retired (see `Request::Subscribe`): ignored.
            Request::Subscribe { cursors, .. } => match self.subscribe(id, cursors) {
                Err(StreamEnd::Refused(err)) => self.reply(id, &Reply::Error(err)),
                Err(StreamEnd::Hangup(e)) => Err(e),
            },
            Request::Query {
                relation,
                filters,
                select,
            } => {
                let filters: Vec<(String, Cond)> =
                    filters.into_iter().map(|(c, v)| (c, eq(v))).collect();
                self.reply_rows(id, |db, rows| {
                    db.query_into(&relation, &filters, select, rows)
                })
            }
            Request::Join { relations } => {
                self.reply_rows(id, |db, rows| db.join_into(&relations, &[], rows).map(drop))
            }
            req => {
                let reply = execute(self.db, self.obs, req);
                self.reply(id, &reply)
            }
        }
    }

    /// One read that gives up instead of blocking — at once, or after
    /// `wait` — with `Ok(None)` for "nothing yet".  A partial frame stays
    /// buffered in `frames` across the give-up.
    fn poll_frame(&mut self, wait: Option<Duration>) -> Result<Option<Vec<u8>>, FrameError> {
        // Both settings live on the socket, not on this borrow of it:
        // they are in force only around this read, so a flush always
        // blocks.
        self.stream.set_nonblocking(wait.is_none())?;
        self.stream.set_read_timeout(wait)?;
        let frame = self.read_frame();
        self.stream.set_nonblocking(false)?;
        self.stream.set_read_timeout(None)?;
        match frame {
            Ok(None) => Err(FrameError::Io(ErrorKind::UnexpectedEof.into())),
            Err(FrameError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                Ok(None)
            }
            other => other,
        }
    }

    /// Maps one [`Shipment`] of the follow loop to its reply: a manifest
    /// verbatim, records as [`Reply::Frames`] of their verbatim payloads
    /// (recorded in the event log).
    fn ship(&mut self, id: u64, shipment: Shipment) -> Result<(), FrameError> {
        let (relation, gen, tip, records) = match shipment {
            Shipment::Manifest { gen, payload, .. } => {
                let manifest = Reply::Manifest {
                    generation: gen,
                    payload,
                };
                return self.reply(id, &manifest);
            }
            Shipment::Records {
                relation,
                gen,
                tip,
                records,
            } => (relation, gen, tip, records),
        };
        let frames: Vec<Vec<u8>> = records.into_iter().map(|r| r.payload).collect();
        self.obs.registry.events().record(Event::SegmentShipped {
            relation,
            generation: gen,
            records: frames.len() as u64,
        });
        let batch = Reply::Frames {
            relation,
            gen,
            tip,
            frames,
        };
        self.reply(id, &batch)
    }

    /// The replication ship loop behind [`Request::Subscribe`].
    ///
    /// An [`ids_wal::Follower`] over the primary's own directory does the
    /// following — manifests, then records batched per `(generation,
    /// scheme index)`, each carrying the names it is the first in its
    /// segment to use, every tailer retargeted at every
    /// manifest — and this loop forwards each [`Shipment`] as the
    /// follower hands it over (one relation's backlog at a time),
    /// payloads **verbatim**: the bytes a
    /// follower applies are the bytes the primary made durable, so
    /// replication inherits the on-disk format's golden-fixture byte
    /// stability.  One thread writes the socket in program order, so a
    /// manifest reaches the follower before any frame written under it.
    ///
    /// When a round ships nothing, one empty `POOL_STREAM` batch is sent
    /// as a heartbeat — the only use left of that retired label: it
    /// tells the follower "you have everything I can
    /// see" (frames are ordered in-channel, so an empty round after
    /// everything shipped means caught-up).  The round then waits for a
    /// ping in a timed read of [`IDLE_WAIT`], so a barrier ping ends the
    /// wait at once — and so does the follower hanging up.
    ///
    /// A subscribed connection still answers one request: `Ping`.  Pings
    /// are drained *before* a poll round and answered *after* it, so the
    /// `Pong` is a sync barrier — every record durable before the ping was
    /// sent has been shipped by the time the follower sees the answer.
    /// Any other request on a replication stream gets a typed error.
    fn subscribe(&mut self, id: u64, cursors: Vec<(u64, u64)>) -> Result<Infallible, StreamEnd> {
        let root = self
            .db
            .store()
            .wal_root()
            .ok_or(StreamEnd::Refused(WireError::NotDurable))?;
        let cursors: Vec<Cursor> = (cursors.into_iter())
            .map(|(gen, seq)| Cursor { gen, seq })
            .collect();
        let mut follower = Follower::new(&WalDir::open(&root)?, &cursors)?;
        // How long this round's first read may wait: after an idle round,
        // [`IDLE_WAIT`]; otherwise not at all.
        let mut wait = None;
        loop {
            // Drain pings BEFORE this round's poll: a ping in hand means
            // everything durable before it was sent is visible to the poll
            // below, so answering after it makes `Pong` a true barrier.
            let mut pings = Vec::new();
            while let Some(payload) = self.poll_frame(wait.take())? {
                match decode_request(&payload) {
                    Ok((rid, Request::Ping)) => pings.push(rid),
                    Ok((rid, _)) => {
                        let err = WireError::Internal(
                            "connection is a replication stream: only ping is served".into(),
                        );
                        self.reply(rid, &Reply::Error(err))?;
                    }
                    Err((rid, err)) => {
                        self.obs.malformed.inc();
                        self.reply(rid, &Reply::Error(err))?;
                    }
                }
            }
            let polled = follower.poll(|shipment| Ok::<_, StreamEnd>(self.ship(id, shipment)?))?;
            let FollowPoll::Shipped(shipped) = polled else {
                return Err(StreamEnd::Refused(WireError::Durability(
                    "subscribe cursor is behind pruned segments: \
                     re-seed the replica from a newer snapshot"
                        .into(),
                )));
            };
            for rid in pings {
                self.reply(rid, &Reply::Pong)?;
            }
            if shipped == 0 {
                let heartbeat = Reply::Frames {
                    relation: POOL_STREAM,
                    gen: 0,
                    tip: 0,
                    frames: Vec::new(),
                };
                self.reply(id, &heartbeat)?;
                wait = Some(IDLE_WAIT);
            }
            self.flush()?;
        }
    }
}

/// Why a replication stream ended.
enum StreamEnd {
    /// With a typed error for the follower; the session serves on.
    Refused(WireError),
    /// With the connection itself.
    Hangup(FrameError),
}

impl From<WalError> for StreamEnd {
    fn from(e: WalError) -> Self {
        StreamEnd::Refused(match e {
            // The subscriber's own input, not a durability failure.
            WalError::CursorCount { cursors, relations } => WireError::Internal(format!(
                "subscribe carries {cursors} cursors but the schema has {relations} relations"
            )),
            e => wire_error(e.into()),
        })
    }
}

impl From<FrameError> for StreamEnd {
    fn from(e: FrameError) -> Self {
        StreamEnd::Hangup(e)
    }
}

/// The handshake answer: version plus the relation catalog.
fn hello_reply(db: &Database) -> Reply {
    let schema = db.schema();
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
/// becomes a typed [`Reply::Error`]; nothing here panics the session.
fn execute(db: &Database, obs: &ServerObs, req: Request) -> Reply {
    match req {
        // A repeated Hello is answered idempotently.
        Request::Hello { .. } => hello_reply(db),
        Request::Ping => Reply::Pong,
        Request::Insert { relation, values } => match db.insert(&relation, values) {
            Ok(InsertOutcome::Accepted) => Reply::Insert(WireOutcome::Accepted),
            Ok(InsertOutcome::Duplicate) => Reply::Insert(WireOutcome::Duplicate),
            Ok(InsertOutcome::Rejected { violated }) => {
                let schema = db.schema();
                let universe = schema.definition().universe();
                Reply::Insert(WireOutcome::Rejected {
                    violated: violated.map(|fd| fd.render(universe)),
                })
            }
            Err(e) => Reply::Error(wire_error(e)),
        },
        Request::Remove { relation, values } => match db.remove(&relation, values) {
            Ok(present) => Reply::Remove(present),
            Err(e) => Reply::Error(wire_error(e)),
        },
        Request::Count { relation } => match db.count(&relation) {
            Ok(n) => Reply::Count(n as u64),
            Err(e) => Reply::Error(wire_error(e)),
        },
        // The cut and the names that label it come from one era, so an
        // alter racing the request can change neither under the other.
        Request::Snapshot => match db.store().era().and_then(|era| {
            let state = era.snapshot()?;
            let definition = era.schema().definition();
            let counts = (definition.iter())
                .map(|(id, s)| (s.name.clone(), state.relation(id).len() as u64))
                .collect();
            Ok(counts)
        }) {
            Ok(counts) => Reply::Snapshot { counts },
            Err(e) => Reply::Error(wire_error(e.into())),
        },
        Request::Checkpoint => match db.checkpoint() {
            Ok(()) => Reply::Checkpointed,
            Err(e) => Reply::Error(wire_error(e)),
        },
        // Purely read-side: aggregates the database's families with the
        // connection layer's and never touches a shard — a stats poll
        // still answers after a poison.
        Request::Stats => {
            let mut snap = db.metrics();
            snap.merge(obs.registry.snapshot());
            Reply::Stats(snap)
        }
        // Intercepted in `Session::serve` (a stream needs the socket, and
        // rows stream into the session's buffer, not one `Reply`);
        // reaching this arm would be a dispatch bug.
        Request::Subscribe { .. } | Request::Query { .. } | Request::Join { .. } => Reply::Error(
            WireError::Internal("request must be served by the session loop".into()),
        ),
        Request::Alter { op } => {
            let op = match op {
                AlterOp::AddRelation { name, columns } => Alter::AddRelation { name, columns },
                AlterOp::DropRelation { name } => Alter::DropRelation { name },
                AlterOp::AddFd { spec } => Alter::AddFd { spec },
                AlterOp::DropFd { spec } => Alter::DropFd { spec },
            };
            match db.alter(&op) {
                Ok(generation) => Reply::Altered { generation },
                Err(e) => Reply::Error(alter_wire_error(db, e)),
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
fn alter_wire_error(db: &Database, e: Error) -> WireError {
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
            let schema = db.schema();
            let universe = schema.definition().universe();
            let relation = schema
                .definition()
                .get_scheme(scheme)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| format!("{scheme:?}"));
            let tuples = db.render_tuples(&witness).join(", ");
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

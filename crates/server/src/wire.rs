//! The wire protocol: CRC-framed, length-prefixed messages with a
//! request id, a kind byte, and a codec-encoded body.
//!
//! ## Framing
//!
//! Every message travels inside the exact frame the write-ahead log
//! already uses ([`ids_wal::format`]):
//!
//! ```text
//! [len: u32 LE] [crc32(len ‖ payload): u32 LE] [payload]
//! ```
//!
//! bounded by [`MAX_FRAME_PAYLOAD`].  One battle-tested unit of
//! integrity for disk *and* network: a torn TCP read is
//! [`FrameOutcome::Torn`] (keep reading), flipped bits are
//! [`FrameOutcome::CrcMismatch`] (typed error, never a panic), an
//! absurd length field is [`FrameOutcome::Oversize`] (refused before
//! any allocation).
//!
//! ## Payload
//!
//! ```text
//! [request_id: u64] [kind: u8] [body…]
//! ```
//!
//! encoded with [`ids_relational::codec`] — the same length-prefixed
//! primitives as every on-disk structure.  Request ids are chosen by
//! the client and echoed verbatim in the matching reply, which is what
//! makes pipelining safe: a client may have requests in flight and
//! consume their replies in any order, matching by id.  The server
//! itself answers one connection strictly in request order — shed
//! [`WireError::Overloaded`] replies included.
//!
//! Decoding is **total**: any byte sequence yields a value or a typed
//! error, never a panic, and allocation is capped by the decoder's
//! remaining input, so a hostile length prefix cannot balloon memory.

use std::time::Duration;

use ids_obs::{Event, EventRecord, HistogramSnapshot, MetricsSnapshot};
use ids_relational::codec::{Decoder, Encoder};
use ids_relational::RelationalError;
use ids_wal::format::frame;
pub use ids_wal::format::{read_frame, FrameOutcome, MAX_FRAME_PAYLOAD};

/// Version of the wire protocol; negotiated by the Hello handshake.
pub const WIRE_VERSION: u16 = 1;

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// The mandatory first message of every session: the client's wire
    /// version.  Anything else before a Hello is refused with
    /// [`WireError::HandshakeRequired`].
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// String-level insert, values in declared column order.
    Insert {
        /// Target relation name.
        relation: String,
        /// Values in the column order the relation was declared with.
        values: Vec<String>,
    },
    /// String-level remove; replied with whether the row was present.
    Remove {
        /// Target relation name.
        relation: String,
        /// Values in declared column order.
        values: Vec<String>,
    },
    /// String-level query: equality filters pushed down to the owning
    /// shard, optional projection.
    Query {
        /// Target relation name.
        relation: String,
        /// `(column, value)` equality filters, ANDed.
        filters: Vec<(String, String)>,
        /// Output columns; `None` = declaration order.
        select: Option<Vec<String>>,
    },
    /// Barrier-free row count of one relation.
    Count {
        /// Target relation name.
        relation: String,
    },
    /// The cross-relation barrier; replied with per-relation counts
    /// from one consistent cut.
    Snapshot,
    /// Checkpoint a durable database (snapshot + log truncation).
    Checkpoint,
    /// Poll the server's observability surface; answered with
    /// [`Reply::Stats`] carrying a full [`MetricsSnapshot`] (store +
    /// WAL + server metric families, the event ring, and the preserved
    /// poison reason if any).  Purely read-side: polling never mutates
    /// the database.
    Stats,
    /// Turn the connection into a replication stream: the server ships
    /// every relation's log frames from the given cursors onward, as a
    /// sequence of [`Reply::Frames`] messages all echoing this
    /// request's id, until the client disconnects.  Frames are shipped
    /// *verbatim* from the primary's segment files (same payload
    /// bytes), so replication inherits the on-disk format's pinned
    /// byte stability.  Only meaningful against a durable database;
    /// answered with [`WireError::NotDurable`] otherwise.
    Subscribe {
        /// Per-relation resume positions, one `(generation, seq)` pair
        /// per relation in schema order.
        cursors: Vec<(u64, u64)>,
        /// Number of value-pool names the follower already has (its
        /// resume position in the name log).
        names: u64,
    },
    /// Natural join over named relations, answered with
    /// [`Reply::Rows`].  Server-side this runs
    /// `ids_api::Database::join`: a repeated relation is read
    /// once (the self-join contract), acyclic sets run through the
    /// semijoin planner, and columns follow the declared-layout
    /// contract of `ids_api::Database::join`.  An empty list is
    /// [`WireError::EmptyJoin`].
    Join {
        /// Relation names to join, in output-column order.
        relations: Vec<String>,
    },
    /// One `ALTER`-class schema transition against the running
    /// database (`ids_api::Database::alter`).  Accepted
    /// transitions answer [`Reply::Altered`] with the generation the
    /// new schema is effective from; refused ones answer a typed
    /// [`WireError::AlterRejected`] carrying the witness, and the
    /// current schema keeps serving.
    Alter {
        /// The transition to apply.
        op: AlterOp,
    },
}

/// One `ALTER`-class schema transition as it travels in
/// [`Request::Alter`] — the wire mirror of `ids_api::Alter`, carried
/// at the string level so clients need no dependency on the api crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlterOp {
    /// Add a relation with the given column names (declaration order).
    AddRelation {
        /// The new relation's name.
        name: String,
        /// Its column names, in declaration order.
        columns: Vec<String>,
    },
    /// Drop a relation (and any ordered indexes declared on it).
    DropRelation {
        /// The relation to drop.
        name: String,
    },
    /// Declare an additional functional dependency (`"lhs -> rhs"`
    /// spec syntax); existing data is backfill-validated first.
    AddFd {
        /// The dependency spec.
        spec: String,
    },
    /// Retract a declared functional dependency (verbatim).
    DropFd {
        /// The dependency spec.
        spec: String,
    },
}

/// A server → client message; `Reply::Error` can answer any request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Handshake accepted: the server's version and the relation
    /// catalog (name + declared columns, declaration order).
    Hello {
        /// The server's [`WIRE_VERSION`].
        version: u16,
        /// Every relation: `(name, declared columns)`.
        relations: Vec<(String, Vec<String>)>,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Insert`].
    Insert(WireOutcome),
    /// Answer to [`Request::Remove`]: was the row present?
    Remove(bool),
    /// Answer to [`Request::Query`]: rendered rows.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// One `Vec<String>` per row, aligned with `columns`.
        rows: Vec<Vec<String>>,
    },
    /// Answer to [`Request::Count`].
    Count(u64),
    /// Answer to [`Request::Snapshot`]: per-relation row counts from
    /// one globally-consistent barrier cut (bounded, unlike shipping
    /// every tuple).
    Snapshot {
        /// `(relation, rows)` for every relation in the schema.
        counts: Vec<(String, u64)>,
    },
    /// Answer to [`Request::Checkpoint`].
    Checkpointed,
    /// Answer to [`Request::Stats`]: the server's merged metrics
    /// snapshot (database + connection-layer families).
    Stats(MetricsSnapshot),
    /// One batch of a replication stream (see [`Request::Subscribe`]):
    /// log frames of a single relation, shipped verbatim from the
    /// primary's segment files.
    Frames {
        /// Relation index the frames belong to, or [`POOL_STREAM`] for
        /// value-pool name-log frames.
        relation: u16,
        /// Checkpoint generation the frames came from (0 for the name
        /// stream, which has no generations).
        gen: u64,
        /// The primary's current tip for this stream when the batch
        /// was cut: the last appended sequence number (or total name
        /// count for [`POOL_STREAM`]).  `tip` minus the last frame's
        /// sequence number is the follower's lag.
        tip: u64,
        /// Raw frame payloads, exactly as stored on disk —
        /// [`ids_wal::WalRecord`] payloads, or name-log payloads for
        /// [`POOL_STREAM`].
        frames: Vec<Vec<u8>>,
    },
    /// Answer to an accepted [`Request::Alter`]: the generation the
    /// new schema is effective from.
    Altered {
        /// First generation governed by the new schema.
        generation: u64,
    },
    /// A schema transition crossing a replication stream (see
    /// [`Request::Subscribe`]): the generation manifest the primary
    /// committed, shipped **verbatim** (the exact manifest frame
    /// payload made durable on the primary) and **before** any frames
    /// of a generation at or past it — TCP ordering makes the follower
    /// see the transition exactly where the primary's log does.
    Manifest {
        /// The generation the manifest is effective from.
        generation: u64,
        /// The raw manifest frame payload, exactly as stored on disk.
        payload: Vec<u8>,
    },
    /// Typed failure; the request id says which request it answers.
    Error(WireError),
}

/// The `relation` value of a [`Reply::Frames`] batch that carries
/// value-pool name-log frames instead of a relation's log records.
/// Relation indices are `u16` but schemas are far smaller, so the
/// sentinel cannot collide.
pub const POOL_STREAM: u16 = u16::MAX;

/// The FD-maintenance verdict of an insert, rendered for the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// The row is compatible; the state was updated.
    Accepted,
    /// The row was already present (state unchanged).
    Duplicate,
    /// The row would violate a dependency; state unchanged.
    Rejected {
        /// The violated FD rendered as text (e.g. `C -> T`), when the
        /// engine identified a specific one.
        violated: Option<String>,
    },
}

/// Every way the server says "no" — the wire mirror of
/// [`ids_api::Error`], flattened to owned, renderable data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The named relation is not part of the schema.
    UnknownRelation(String),
    /// The named column is not part of the named relation.
    UnknownColumn {
        /// The relation the request targeted.
        relation: String,
        /// The column that does not belong to it.
        column: String,
    },
    /// A row's value count does not match the relation's arity.
    ArityMismatch {
        /// The relation's declared arity.
        expected: u32,
        /// The number of values supplied.
        found: u32,
    },
    /// A relation's write hit a durability failure; the first failure's
    /// reason is preserved and reported verbatim (see
    /// `ids_store::StoreError::ShardPoisoned`).
    ShardPoisoned {
        /// Rendered reason of the first durability failure.
        reason: String,
    },
    /// A store lock was poisoned by a panicking thread; no reason was
    /// recorded (see `ids_store::StoreError::Disconnected`).
    Disconnected,
    /// A rendered durability-layer error (I/O, corruption, schema
    /// mismatch).
    Durability(String),
    /// Checkpoint was requested of a database with no write-ahead log.
    NotDurable,
    /// More than the server's `queue_depth` requests were waiting on
    /// this connection: the request was **shed, not executed** —
    /// backpressure instead of an unbounded queue.  Requests accepted
    /// before it still complete; retry later.
    Overloaded,
    /// The peer's frame was valid but its payload did not decode.
    Malformed(String),
    /// Client and server disagree on [`WIRE_VERSION`].
    UnsupportedVersion {
        /// The server's version.
        server: u16,
        /// The client's claimed version.
        client: u16,
    },
    /// A non-Hello request arrived before the handshake.
    HandshakeRequired,
    /// Any other server-side failure, rendered.
    Internal(String),
    /// [`Request::Join`] carried an empty relation list (the natural
    /// join has no neutral element over an unknown scheme).
    EmptyJoin,
    /// A [`Request::Alter`] was refused and the current schema keeps
    /// serving — dependent target schema, a new FD the existing data
    /// violates, a malformed operation, or an engine that cannot
    /// evolve.
    AlterRejected {
        /// Rendered reason of the refusal.
        reason: String,
        /// The typed witness, rendered: the `LSAT ∖ WSAT` state for a
        /// dependent target, or the violating tuple pair for a
        /// backfill failure.  `None` when the refusal has no witness
        /// (e.g. an unknown relation name).
        witness: Option<String>,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            Self::UnknownColumn { relation, column } => {
                write!(f, "relation `{relation}` has no column `{column}`")
            }
            Self::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected} values, got {found}")
            }
            Self::ShardPoisoned { reason } => {
                write!(f, "shard poisoned by a durability failure: {reason}")
            }
            Self::Disconnected => write!(f, "a store lock was poisoned by a panicking thread"),
            Self::Durability(msg) => write!(f, "durability failure: {msg}"),
            Self::NotDurable => write!(f, "database has no write-ahead log"),
            Self::Overloaded => write!(f, "server overloaded: request shed, retry later"),
            Self::Malformed(msg) => write!(f, "malformed message: {msg}"),
            Self::UnsupportedVersion { server, client } => {
                write!(f, "wire version mismatch: server {server}, client {client}")
            }
            Self::HandshakeRequired => write!(f, "handshake required before any other request"),
            Self::Internal(msg) => write!(f, "internal server error: {msg}"),
            Self::EmptyJoin => write!(f, "join requires at least one relation"),
            Self::AlterRejected { reason, witness } => match witness {
                Some(w) => write!(f, "schema alter rejected: {reason} (witness: {w})"),
                None => write!(f, "schema alter rejected: {reason}"),
            },
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Kind bytes.  Stable on the wire: append, never renumber.

const REQ_HELLO: u8 = 0;
const REQ_PING: u8 = 1;
const REQ_INSERT: u8 = 2;
const REQ_REMOVE: u8 = 3;
const REQ_QUERY: u8 = 4;
const REQ_COUNT: u8 = 5;
const REQ_SNAPSHOT: u8 = 6;
const REQ_CHECKPOINT: u8 = 7;
const REQ_STATS: u8 = 8;
const REQ_SUBSCRIBE: u8 = 9;
const REQ_JOIN: u8 = 10;
const REQ_ALTER: u8 = 11;

// Operation tags inside a REQ_ALTER body.  Append-only.
const ALTER_ADD_RELATION: u8 = 0;
const ALTER_DROP_RELATION: u8 = 1;
const ALTER_ADD_FD: u8 = 2;
const ALTER_DROP_FD: u8 = 3;

const REP_HELLO: u8 = 0;
const REP_PONG: u8 = 1;
const REP_INSERT: u8 = 2;
const REP_REMOVE: u8 = 3;
const REP_ROWS: u8 = 4;
const REP_COUNT: u8 = 5;
const REP_SNAPSHOT: u8 = 6;
const REP_CHECKPOINTED: u8 = 7;
const REP_ERROR: u8 = 8;
const REP_STATS: u8 = 9;
const REP_FRAMES: u8 = 10;
const REP_ALTERED: u8 = 11;
const REP_MANIFEST: u8 = 12;

// Structured-event tags inside a REP_STATS body.  Append-only, like
// the kind bytes.
const EV_SHARD_POISONED: u8 = 0;
const EV_CHECKPOINT_STARTED: u8 = 1;
const EV_CHECKPOINT_COMPLETED: u8 = 2;
const EV_OVERLOAD_SHED: u8 = 3;
const EV_RECOVERY_REPLAYED: u8 = 4;
const EV_CONNECTION_OPENED: u8 = 5;
const EV_CONNECTION_CLOSED: u8 = 6;
const EV_SEGMENT_SHIPPED: u8 = 7;
const EV_REPLICA_CAUGHT_UP: u8 = 8;
const EV_SCHEMA_ALTERED: u8 = 9;
const EV_ALTER_REJECTED: u8 = 10;
const EV_BACKFILL_COMPLETED: u8 = 11;

const OUT_ACCEPTED: u8 = 0;
const OUT_DUPLICATE: u8 = 1;
const OUT_REJECTED: u8 = 2;

const ERR_UNKNOWN_RELATION: u8 = 0;
const ERR_UNKNOWN_COLUMN: u8 = 1;
const ERR_ARITY: u8 = 2;
const ERR_POISONED: u8 = 3;
const ERR_DISCONNECTED: u8 = 4;
const ERR_DURABILITY: u8 = 5;
const ERR_NOT_DURABLE: u8 = 6;
const ERR_OVERLOADED: u8 = 7;
const ERR_MALFORMED: u8 = 8;
const ERR_VERSION: u8 = 9;
const ERR_HANDSHAKE: u8 = 10;
const ERR_INTERNAL: u8 = 11;
const ERR_EMPTY_JOIN: u8 = 12;
const ERR_ALTER_REJECTED: u8 = 13;

// ---------------------------------------------------------------------
// Encoding.

fn put_strs(e: &mut Encoder, items: &[String]) {
    e.put_u32(items.len() as u32);
    for s in items {
        e.put_str(s);
    }
}

/// Encodes a request as one ready-to-write CRC frame.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(id);
    match req {
        Request::Hello { version } => {
            e.put_u8(REQ_HELLO);
            e.put_u16(*version);
        }
        Request::Ping => e.put_u8(REQ_PING),
        Request::Insert { relation, values } => {
            e.put_u8(REQ_INSERT);
            e.put_str(relation);
            put_strs(&mut e, values);
        }
        Request::Remove { relation, values } => {
            e.put_u8(REQ_REMOVE);
            e.put_str(relation);
            put_strs(&mut e, values);
        }
        Request::Query {
            relation,
            filters,
            select,
        } => {
            e.put_u8(REQ_QUERY);
            e.put_str(relation);
            e.put_u32(filters.len() as u32);
            for (column, value) in filters {
                e.put_str(column);
                e.put_str(value);
            }
            match select {
                None => e.put_u8(0),
                Some(cols) => {
                    e.put_u8(1);
                    put_strs(&mut e, cols);
                }
            }
        }
        Request::Count { relation } => {
            e.put_u8(REQ_COUNT);
            e.put_str(relation);
        }
        Request::Snapshot => e.put_u8(REQ_SNAPSHOT),
        Request::Checkpoint => e.put_u8(REQ_CHECKPOINT),
        Request::Stats => e.put_u8(REQ_STATS),
        Request::Subscribe { cursors, names } => {
            e.put_u8(REQ_SUBSCRIBE);
            e.put_u32(cursors.len() as u32);
            for (gen, seq) in cursors {
                e.put_u64(*gen);
                e.put_u64(*seq);
            }
            e.put_u64(*names);
        }
        Request::Join { relations } => {
            e.put_u8(REQ_JOIN);
            put_strs(&mut e, relations);
        }
        Request::Alter { op } => {
            e.put_u8(REQ_ALTER);
            match op {
                AlterOp::AddRelation { name, columns } => {
                    e.put_u8(ALTER_ADD_RELATION);
                    e.put_str(name);
                    put_strs(&mut e, columns);
                }
                AlterOp::DropRelation { name } => {
                    e.put_u8(ALTER_DROP_RELATION);
                    e.put_str(name);
                }
                AlterOp::AddFd { spec } => {
                    e.put_u8(ALTER_ADD_FD);
                    e.put_str(spec);
                }
                AlterOp::DropFd { spec } => {
                    e.put_u8(ALTER_DROP_FD);
                    e.put_str(spec);
                }
            }
        }
    }
    frame(&e.into_bytes())
}

/// Clamps a duration to whole nanoseconds for the wire (saturating —
/// a ~585-year duration is not worth a wider encoding).
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn put_snapshot(e: &mut Encoder, snap: &MetricsSnapshot) {
    e.put_u32(snap.counters.len() as u32);
    for (name, value) in &snap.counters {
        e.put_str(name);
        e.put_u64(*value);
    }
    e.put_u32(snap.gauges.len() as u32);
    for (name, value) in &snap.gauges {
        e.put_str(name);
        // i64 travels through its two's-complement bits.
        e.put_u64(*value as u64);
    }
    e.put_u32(snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        e.put_str(name);
        e.put_u64(h.count);
        e.put_u64(h.sum_ns);
        e.put_u32(h.buckets.len() as u32);
        for b in &h.buckets {
            e.put_u64(*b);
        }
    }
    e.put_u32(snap.events.len() as u32);
    for record in &snap.events {
        e.put_u64(record.seq);
        e.put_u64(duration_ns(record.at));
        match &record.event {
            Event::ShardPoisoned { shard, reason } => {
                e.put_u8(EV_SHARD_POISONED);
                e.put_u64(*shard);
                e.put_str(reason);
            }
            Event::CheckpointStarted { generation } => {
                e.put_u8(EV_CHECKPOINT_STARTED);
                e.put_u64(*generation);
            }
            Event::CheckpointCompleted {
                generation,
                duration,
            } => {
                e.put_u8(EV_CHECKPOINT_COMPLETED);
                e.put_u64(*generation);
                e.put_u64(duration_ns(*duration));
            }
            Event::OverloadShed { connection } => {
                e.put_u8(EV_OVERLOAD_SHED);
                e.put_u64(*connection);
            }
            Event::RecoveryReplayed { records, duration } => {
                e.put_u8(EV_RECOVERY_REPLAYED);
                e.put_u64(*records);
                e.put_u64(duration_ns(*duration));
            }
            Event::ConnectionOpened { connection } => {
                e.put_u8(EV_CONNECTION_OPENED);
                e.put_u64(*connection);
            }
            Event::ConnectionClosed {
                connection,
                bytes_in,
                bytes_out,
            } => {
                e.put_u8(EV_CONNECTION_CLOSED);
                e.put_u64(*connection);
                e.put_u64(*bytes_in);
                e.put_u64(*bytes_out);
            }
            Event::SegmentShipped {
                relation,
                generation,
                records,
            } => {
                e.put_u8(EV_SEGMENT_SHIPPED);
                e.put_u16(*relation);
                e.put_u64(*generation);
                e.put_u64(*records);
            }
            Event::ReplicaCaughtUp { records } => {
                e.put_u8(EV_REPLICA_CAUGHT_UP);
                e.put_u64(*records);
            }
            Event::SchemaAltered {
                generation,
                relations,
            } => {
                e.put_u8(EV_SCHEMA_ALTERED);
                e.put_u64(*generation);
                e.put_u64(*relations);
            }
            Event::AlterRejected { reason } => {
                e.put_u8(EV_ALTER_REJECTED);
                e.put_str(reason);
            }
            Event::BackfillCompleted {
                relation,
                tuples,
                duration,
            } => {
                e.put_u8(EV_BACKFILL_COMPLETED);
                e.put_u64(*relation);
                e.put_u64(*tuples);
                e.put_u64(duration_ns(*duration));
            }
        }
    }
    match &snap.poisoned {
        None => e.put_u8(0),
        Some(reason) => {
            e.put_u8(1);
            e.put_str(reason);
        }
    }
}

/// Encodes a reply as one ready-to-write CRC frame.
pub fn encode_reply(id: u64, reply: &Reply) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(id);
    match reply {
        Reply::Hello { version, relations } => {
            e.put_u8(REP_HELLO);
            e.put_u16(*version);
            e.put_u32(relations.len() as u32);
            for (name, columns) in relations {
                e.put_str(name);
                put_strs(&mut e, columns);
            }
        }
        Reply::Pong => e.put_u8(REP_PONG),
        Reply::Insert(outcome) => {
            e.put_u8(REP_INSERT);
            match outcome {
                WireOutcome::Accepted => e.put_u8(OUT_ACCEPTED),
                WireOutcome::Duplicate => e.put_u8(OUT_DUPLICATE),
                WireOutcome::Rejected { violated } => {
                    e.put_u8(OUT_REJECTED);
                    match violated {
                        None => e.put_u8(0),
                        Some(fd) => {
                            e.put_u8(1);
                            e.put_str(fd);
                        }
                    }
                }
            }
        }
        Reply::Remove(present) => {
            e.put_u8(REP_REMOVE);
            e.put_u8(u8::from(*present));
        }
        Reply::Rows { columns, rows } => {
            e.put_u8(REP_ROWS);
            put_strs(&mut e, columns);
            e.put_u32(rows.len() as u32);
            for row in rows {
                put_strs(&mut e, row);
            }
        }
        Reply::Count(n) => {
            e.put_u8(REP_COUNT);
            e.put_u64(*n);
        }
        Reply::Snapshot { counts } => {
            e.put_u8(REP_SNAPSHOT);
            e.put_u32(counts.len() as u32);
            for (name, n) in counts {
                e.put_str(name);
                e.put_u64(*n);
            }
        }
        Reply::Checkpointed => e.put_u8(REP_CHECKPOINTED),
        Reply::Stats(snap) => {
            e.put_u8(REP_STATS);
            put_snapshot(&mut e, snap);
        }
        Reply::Frames {
            relation,
            gen,
            tip,
            frames,
        } => {
            e.put_u8(REP_FRAMES);
            e.put_u16(*relation);
            e.put_u64(*gen);
            e.put_u64(*tip);
            e.put_u32(frames.len() as u32);
            for f in frames {
                e.put_bytes(f);
            }
        }
        Reply::Altered { generation } => {
            e.put_u8(REP_ALTERED);
            e.put_u64(*generation);
        }
        Reply::Manifest {
            generation,
            payload,
        } => {
            e.put_u8(REP_MANIFEST);
            e.put_u64(*generation);
            e.put_bytes(payload);
        }
        Reply::Error(err) => {
            e.put_u8(REP_ERROR);
            match err {
                WireError::UnknownRelation(name) => {
                    e.put_u8(ERR_UNKNOWN_RELATION);
                    e.put_str(name);
                }
                WireError::UnknownColumn { relation, column } => {
                    e.put_u8(ERR_UNKNOWN_COLUMN);
                    e.put_str(relation);
                    e.put_str(column);
                }
                WireError::ArityMismatch { expected, found } => {
                    e.put_u8(ERR_ARITY);
                    e.put_u32(*expected);
                    e.put_u32(*found);
                }
                WireError::ShardPoisoned { reason } => {
                    e.put_u8(ERR_POISONED);
                    e.put_str(reason);
                }
                WireError::Disconnected => e.put_u8(ERR_DISCONNECTED),
                WireError::Durability(msg) => {
                    e.put_u8(ERR_DURABILITY);
                    e.put_str(msg);
                }
                WireError::NotDurable => e.put_u8(ERR_NOT_DURABLE),
                WireError::Overloaded => e.put_u8(ERR_OVERLOADED),
                WireError::Malformed(msg) => {
                    e.put_u8(ERR_MALFORMED);
                    e.put_str(msg);
                }
                WireError::UnsupportedVersion { server, client } => {
                    e.put_u8(ERR_VERSION);
                    e.put_u16(*server);
                    e.put_u16(*client);
                }
                WireError::HandshakeRequired => e.put_u8(ERR_HANDSHAKE),
                WireError::Internal(msg) => {
                    e.put_u8(ERR_INTERNAL);
                    e.put_str(msg);
                }
                WireError::EmptyJoin => e.put_u8(ERR_EMPTY_JOIN),
                WireError::AlterRejected { reason, witness } => {
                    e.put_u8(ERR_ALTER_REJECTED);
                    e.put_str(reason);
                    match witness {
                        None => e.put_u8(0),
                        Some(w) => {
                            e.put_u8(1);
                            e.put_str(w);
                        }
                    }
                }
            }
        }
    }
    frame(&e.into_bytes())
}

// ---------------------------------------------------------------------
// Decoding — total, allocation capped by the decoder's remaining input.

/// `Vec::with_capacity` guard: a hostile count cannot reserve more
/// entries than bytes actually present.
fn cap(count: u32, d: &Decoder<'_>) -> usize {
    (count as usize).min(d.remaining())
}

fn get_strs(d: &mut Decoder<'_>) -> Result<Vec<String>, RelationalError> {
    let n = d.get_u32()?;
    let mut out = Vec::with_capacity(cap(n, d));
    for _ in 0..n {
        out.push(d.get_str()?);
    }
    Ok(out)
}

fn malformed(e: RelationalError) -> WireError {
    WireError::Malformed(e.to_string())
}

/// Decodes one frame payload into `(request_id, Request)`.
///
/// Total: any byte sequence yields `Ok` or a typed
/// [`WireError::Malformed`] — never a panic, never unbounded
/// allocation.  When even the request id is unreadable the returned
/// error carries id 0.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), (u64, WireError)> {
    let mut d = Decoder::new(payload);
    let id = d.get_u64().map_err(|e| (0, malformed(e)))?;
    decode_request_body(&mut d)
        .map(|req| (id, req))
        .map_err(|err| (id, err))
}

fn decode_request_body(d: &mut Decoder<'_>) -> Result<Request, WireError> {
    let kind = d.get_u8().map_err(malformed)?;
    let req = match kind {
        REQ_HELLO => Request::Hello {
            version: d.get_u16().map_err(malformed)?,
        },
        REQ_PING => Request::Ping,
        REQ_INSERT | REQ_REMOVE => {
            let relation = d.get_str().map_err(malformed)?;
            let values = get_strs(d).map_err(malformed)?;
            if kind == REQ_INSERT {
                Request::Insert { relation, values }
            } else {
                Request::Remove { relation, values }
            }
        }
        REQ_QUERY => {
            let relation = d.get_str().map_err(malformed)?;
            let n = d.get_u32().map_err(malformed)?;
            let mut filters = Vec::with_capacity(cap(n, d));
            for _ in 0..n {
                let column = d.get_str().map_err(malformed)?;
                let value = d.get_str().map_err(malformed)?;
                filters.push((column, value));
            }
            let select = match d.get_u8().map_err(malformed)? {
                0 => None,
                1 => Some(get_strs(d).map_err(malformed)?),
                tag => return Err(WireError::Malformed(format!("bad select tag {tag}"))),
            };
            Request::Query {
                relation,
                filters,
                select,
            }
        }
        REQ_COUNT => Request::Count {
            relation: d.get_str().map_err(malformed)?,
        },
        REQ_SNAPSHOT => Request::Snapshot,
        REQ_CHECKPOINT => Request::Checkpoint,
        REQ_STATS => Request::Stats,
        REQ_SUBSCRIBE => {
            let n = d.get_u32().map_err(malformed)?;
            let mut cursors = Vec::with_capacity(cap(n, d));
            for _ in 0..n {
                let gen = d.get_u64().map_err(malformed)?;
                let seq = d.get_u64().map_err(malformed)?;
                cursors.push((gen, seq));
            }
            let names = d.get_u64().map_err(malformed)?;
            Request::Subscribe { cursors, names }
        }
        REQ_JOIN => Request::Join {
            relations: get_strs(d).map_err(malformed)?,
        },
        REQ_ALTER => {
            let op = match d.get_u8().map_err(malformed)? {
                ALTER_ADD_RELATION => AlterOp::AddRelation {
                    name: d.get_str().map_err(malformed)?,
                    columns: get_strs(d).map_err(malformed)?,
                },
                ALTER_DROP_RELATION => AlterOp::DropRelation {
                    name: d.get_str().map_err(malformed)?,
                },
                ALTER_ADD_FD => AlterOp::AddFd {
                    spec: d.get_str().map_err(malformed)?,
                },
                ALTER_DROP_FD => AlterOp::DropFd {
                    spec: d.get_str().map_err(malformed)?,
                },
                tag => return Err(WireError::Malformed(format!("bad alter tag {tag}"))),
            };
            Request::Alter { op }
        }
        other => return Err(WireError::Malformed(format!("bad request kind {other}"))),
    };
    if !d.is_done() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after request",
            d.remaining()
        )));
    }
    Ok(req)
}

/// Decodes one frame payload into `(request_id, Reply)`.  Total, like
/// [`decode_request`].
pub fn decode_reply(payload: &[u8]) -> Result<(u64, Reply), (u64, WireError)> {
    let mut d = Decoder::new(payload);
    let id = d.get_u64().map_err(|e| (0, malformed(e)))?;
    decode_reply_body(&mut d)
        .map(|rep| (id, rep))
        .map_err(|err| (id, err))
}

fn decode_reply_body(d: &mut Decoder<'_>) -> Result<Reply, WireError> {
    let kind = d.get_u8().map_err(malformed)?;
    let reply = match kind {
        REP_HELLO => {
            let version = d.get_u16().map_err(malformed)?;
            let n = d.get_u32().map_err(malformed)?;
            let mut relations = Vec::with_capacity(cap(n, d));
            for _ in 0..n {
                let name = d.get_str().map_err(malformed)?;
                let columns = get_strs(d).map_err(malformed)?;
                relations.push((name, columns));
            }
            Reply::Hello { version, relations }
        }
        REP_PONG => Reply::Pong,
        REP_INSERT => {
            let outcome = match d.get_u8().map_err(malformed)? {
                OUT_ACCEPTED => WireOutcome::Accepted,
                OUT_DUPLICATE => WireOutcome::Duplicate,
                OUT_REJECTED => WireOutcome::Rejected {
                    violated: match d.get_u8().map_err(malformed)? {
                        0 => None,
                        1 => Some(d.get_str().map_err(malformed)?),
                        tag => return Err(WireError::Malformed(format!("bad violated tag {tag}"))),
                    },
                },
                tag => return Err(WireError::Malformed(format!("bad outcome tag {tag}"))),
            };
            Reply::Insert(outcome)
        }
        REP_REMOVE => Reply::Remove(match d.get_u8().map_err(malformed)? {
            0 => false,
            1 => true,
            tag => return Err(WireError::Malformed(format!("bad bool tag {tag}"))),
        }),
        REP_ROWS => {
            let columns = get_strs(d).map_err(malformed)?;
            let n = d.get_u32().map_err(malformed)?;
            let mut rows = Vec::with_capacity(cap(n, d));
            for _ in 0..n {
                rows.push(get_strs(d).map_err(malformed)?);
            }
            Reply::Rows { columns, rows }
        }
        REP_COUNT => Reply::Count(d.get_u64().map_err(malformed)?),
        REP_SNAPSHOT => {
            let n = d.get_u32().map_err(malformed)?;
            let mut counts = Vec::with_capacity(cap(n, d));
            for _ in 0..n {
                let name = d.get_str().map_err(malformed)?;
                let count = d.get_u64().map_err(malformed)?;
                counts.push((name, count));
            }
            Reply::Snapshot { counts }
        }
        REP_CHECKPOINTED => Reply::Checkpointed,
        REP_STATS => Reply::Stats(get_snapshot(d)?),
        REP_FRAMES => {
            let relation = d.get_u16().map_err(malformed)?;
            let gen = d.get_u64().map_err(malformed)?;
            let tip = d.get_u64().map_err(malformed)?;
            let n = d.get_u32().map_err(malformed)?;
            let mut frames = Vec::with_capacity(cap(n, d));
            for _ in 0..n {
                frames.push(d.get_bytes().map_err(malformed)?);
            }
            Reply::Frames {
                relation,
                gen,
                tip,
                frames,
            }
        }
        REP_ALTERED => Reply::Altered {
            generation: d.get_u64().map_err(malformed)?,
        },
        REP_MANIFEST => Reply::Manifest {
            generation: d.get_u64().map_err(malformed)?,
            payload: d.get_bytes().map_err(malformed)?,
        },
        REP_ERROR => Reply::Error(decode_wire_error(d)?),
        other => return Err(WireError::Malformed(format!("bad reply kind {other}"))),
    };
    if !d.is_done() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after reply",
            d.remaining()
        )));
    }
    Ok(reply)
}

/// Decodes a [`MetricsSnapshot`] — total, like everything else here:
/// counts are capped by the remaining input, every tag is checked.
fn get_snapshot(d: &mut Decoder<'_>) -> Result<MetricsSnapshot, WireError> {
    let n = d.get_u32().map_err(malformed)?;
    let mut counters = Vec::with_capacity(cap(n, d));
    for _ in 0..n {
        let name = d.get_str().map_err(malformed)?;
        let value = d.get_u64().map_err(malformed)?;
        counters.push((name, value));
    }
    let n = d.get_u32().map_err(malformed)?;
    let mut gauges = Vec::with_capacity(cap(n, d));
    for _ in 0..n {
        let name = d.get_str().map_err(malformed)?;
        let value = d.get_u64().map_err(malformed)? as i64;
        gauges.push((name, value));
    }
    let n = d.get_u32().map_err(malformed)?;
    let mut histograms = Vec::with_capacity(cap(n, d));
    for _ in 0..n {
        let name = d.get_str().map_err(malformed)?;
        let count = d.get_u64().map_err(malformed)?;
        let sum_ns = d.get_u64().map_err(malformed)?;
        let nb = d.get_u32().map_err(malformed)?;
        let mut buckets = Vec::with_capacity(cap(nb, d));
        for _ in 0..nb {
            buckets.push(d.get_u64().map_err(malformed)?);
        }
        histograms.push((
            name,
            HistogramSnapshot {
                buckets,
                count,
                sum_ns,
            },
        ));
    }
    let n = d.get_u32().map_err(malformed)?;
    let mut events = Vec::with_capacity(cap(n, d));
    for _ in 0..n {
        let seq = d.get_u64().map_err(malformed)?;
        let at = Duration::from_nanos(d.get_u64().map_err(malformed)?);
        let event = match d.get_u8().map_err(malformed)? {
            EV_SHARD_POISONED => Event::ShardPoisoned {
                shard: d.get_u64().map_err(malformed)?,
                reason: d.get_str().map_err(malformed)?,
            },
            EV_CHECKPOINT_STARTED => Event::CheckpointStarted {
                generation: d.get_u64().map_err(malformed)?,
            },
            EV_CHECKPOINT_COMPLETED => Event::CheckpointCompleted {
                generation: d.get_u64().map_err(malformed)?,
                duration: Duration::from_nanos(d.get_u64().map_err(malformed)?),
            },
            EV_OVERLOAD_SHED => Event::OverloadShed {
                connection: d.get_u64().map_err(malformed)?,
            },
            EV_RECOVERY_REPLAYED => Event::RecoveryReplayed {
                records: d.get_u64().map_err(malformed)?,
                duration: Duration::from_nanos(d.get_u64().map_err(malformed)?),
            },
            EV_CONNECTION_OPENED => Event::ConnectionOpened {
                connection: d.get_u64().map_err(malformed)?,
            },
            EV_CONNECTION_CLOSED => Event::ConnectionClosed {
                connection: d.get_u64().map_err(malformed)?,
                bytes_in: d.get_u64().map_err(malformed)?,
                bytes_out: d.get_u64().map_err(malformed)?,
            },
            EV_SEGMENT_SHIPPED => Event::SegmentShipped {
                relation: d.get_u16().map_err(malformed)?,
                generation: d.get_u64().map_err(malformed)?,
                records: d.get_u64().map_err(malformed)?,
            },
            EV_REPLICA_CAUGHT_UP => Event::ReplicaCaughtUp {
                records: d.get_u64().map_err(malformed)?,
            },
            EV_SCHEMA_ALTERED => Event::SchemaAltered {
                generation: d.get_u64().map_err(malformed)?,
                relations: d.get_u64().map_err(malformed)?,
            },
            EV_ALTER_REJECTED => Event::AlterRejected {
                reason: d.get_str().map_err(malformed)?,
            },
            EV_BACKFILL_COMPLETED => Event::BackfillCompleted {
                relation: d.get_u64().map_err(malformed)?,
                tuples: d.get_u64().map_err(malformed)?,
                duration: Duration::from_nanos(d.get_u64().map_err(malformed)?),
            },
            tag => return Err(WireError::Malformed(format!("bad event tag {tag}"))),
        };
        events.push(EventRecord { seq, at, event });
    }
    let poisoned = match d.get_u8().map_err(malformed)? {
        0 => None,
        1 => Some(d.get_str().map_err(malformed)?),
        tag => return Err(WireError::Malformed(format!("bad poisoned tag {tag}"))),
    };
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
        events,
        poisoned,
    })
}

fn decode_wire_error(d: &mut Decoder<'_>) -> Result<WireError, WireError> {
    Ok(match d.get_u8().map_err(malformed)? {
        ERR_UNKNOWN_RELATION => WireError::UnknownRelation(d.get_str().map_err(malformed)?),
        ERR_UNKNOWN_COLUMN => WireError::UnknownColumn {
            relation: d.get_str().map_err(malformed)?,
            column: d.get_str().map_err(malformed)?,
        },
        ERR_ARITY => WireError::ArityMismatch {
            expected: d.get_u32().map_err(malformed)?,
            found: d.get_u32().map_err(malformed)?,
        },
        ERR_POISONED => WireError::ShardPoisoned {
            reason: d.get_str().map_err(malformed)?,
        },
        ERR_DISCONNECTED => WireError::Disconnected,
        ERR_DURABILITY => WireError::Durability(d.get_str().map_err(malformed)?),
        ERR_NOT_DURABLE => WireError::NotDurable,
        ERR_OVERLOADED => WireError::Overloaded,
        ERR_MALFORMED => WireError::Malformed(d.get_str().map_err(malformed)?),
        ERR_VERSION => WireError::UnsupportedVersion {
            server: d.get_u16().map_err(malformed)?,
            client: d.get_u16().map_err(malformed)?,
        },
        ERR_HANDSHAKE => WireError::HandshakeRequired,
        ERR_INTERNAL => WireError::Internal(d.get_str().map_err(malformed)?),
        ERR_EMPTY_JOIN => WireError::EmptyJoin,
        ERR_ALTER_REJECTED => WireError::AlterRejected {
            reason: d.get_str().map_err(malformed)?,
            witness: match d.get_u8().map_err(malformed)? {
                0 => None,
                1 => Some(d.get_str().map_err(malformed)?),
                tag => return Err(WireError::Malformed(format!("bad witness tag {tag}"))),
            },
        },
        other => return Err(WireError::Malformed(format!("bad error tag {other}"))),
    })
}

// ---------------------------------------------------------------------
// Stream framing.

/// Pulls CRC frames off a byte stream — the shared reading loop of the
/// server's connection loop and the blocking client.
///
/// A torn buffer keeps reading; EOF on a frame boundary is a clean
/// close (`Ok(None)`); EOF mid-frame, a CRC mismatch, or an oversize
/// length is a typed [`FrameError`].  Corruption is unrecoverable by
/// design: framing is what keeps a pipelined stream in sync, so after
/// a bad frame the only safe move is to drop the connection.
///
/// An I/O error loses nothing: bytes already read stay buffered, so a
/// stream in non-blocking or timed mode can return `WouldBlock` /
/// `TimedOut` mid-frame and the next call resumes where it stopped.
pub struct FrameReader<R> {
    inner: R,
    /// `buf[start..end]` is read but not yet returned; `buf[end..]` is
    /// the (initialized, reused) target of the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    bytes_read: u64,
}

/// The least room a read is offered; the buffer doubles only when one
/// frame outgrows it.
const READ_CHUNK: usize = 16 * 1024;

/// Why a [`FrameReader`] stopped.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The stream ended mid-frame, or a frame failed its checksum or
    /// declared an oversize length.
    Corrupt(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "stream i/o error: {e}"),
            Self::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps a readable stream.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
            bytes_read: 0,
        }
    }

    /// Total bytes read off the stream so far, returned or not.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The next frame's payload if it is **already buffered** — never
    /// touches the stream, so it cannot block.  `Ok(None)` means the
    /// buffer holds at most a partial frame.
    pub fn next_buffered(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        match read_frame(&self.buf[self.start..self.end]) {
            FrameOutcome::Complete { payload, rest } => {
                let payload = payload.to_vec();
                self.start = self.end - rest.len();
                Ok(Some(payload))
            }
            FrameOutcome::CrcMismatch => Err(FrameError::Corrupt("crc mismatch")),
            FrameOutcome::Oversize => Err(FrameError::Corrupt("oversize frame")),
            FrameOutcome::Torn => Ok(None),
        }
    }

    /// Reads the next complete frame's payload, `Ok(None)` on a clean
    /// EOF at a frame boundary.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            if let Some(payload) = self.next_buffered()? {
                return Ok(Some(payload));
            }
            // Out of room: slide the partial frame over the consumed
            // bytes, keeping memory proportional to in-flight data, and
            // grow only if that one frame still does not fit.
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if self.buf.len() - self.end < READ_CHUNK {
                    self.buf.resize((self.buf.len() * 2).max(READ_CHUNK), 0);
                }
            }
            let n = self.inner.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return if self.start == self.end {
                    Ok(None)
                } else {
                    Err(FrameError::Corrupt("eof mid-frame"))
                };
            }
            self.end += n;
            self.bytes_read += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let framed = encode_request(7, &req);
        let FrameOutcome::Complete { payload, rest } = read_frame(&framed) else {
            panic!("encode_request must emit one complete frame");
        };
        assert!(rest.is_empty());
        assert_eq!(decode_request(payload).unwrap(), (7, req));
    }

    fn roundtrip_reply(reply: Reply) {
        let framed = encode_reply(9, &reply);
        let FrameOutcome::Complete { payload, rest } = read_frame(&framed) else {
            panic!("encode_reply must emit one complete frame");
        };
        assert!(rest.is_empty());
        assert_eq!(decode_reply(payload).unwrap(), (9, reply));
    }

    #[test]
    fn every_request_roundtrips() {
        for req in [
            Request::Hello {
                version: WIRE_VERSION,
            },
            Request::Ping,
            Request::Insert {
                relation: "CT".into(),
                values: vec!["CS402".into(), "Jones".into()],
            },
            Request::Remove {
                relation: "CT".into(),
                values: vec!["CS402".into(), "Jones".into()],
            },
            Request::Query {
                relation: "CT".into(),
                filters: vec![("course".into(), "CS402".into())],
                select: Some(vec!["teacher".into()]),
            },
            Request::Query {
                relation: "CT".into(),
                filters: vec![],
                select: None,
            },
            Request::Count {
                relation: "CT".into(),
            },
            Request::Snapshot,
            Request::Checkpoint,
            Request::Stats,
            Request::Subscribe {
                cursors: vec![(1, 42), (3, 0)],
                names: 17,
            },
            Request::Subscribe {
                cursors: vec![],
                names: 0,
            },
            Request::Join {
                relations: vec!["CT".into(), "CHR".into()],
            },
            Request::Join { relations: vec![] },
            Request::Alter {
                op: AlterOp::AddRelation {
                    name: "TD".into(),
                    columns: vec!["teacher".into(), "dept".into()],
                },
            },
            Request::Alter {
                op: AlterOp::DropRelation { name: "CS".into() },
            },
            Request::Alter {
                op: AlterOp::AddFd {
                    spec: "teacher -> dept".into(),
                },
            },
            Request::Alter {
                op: AlterOp::DropFd {
                    spec: "teacher -> dept".into(),
                },
            },
        ] {
            roundtrip_request(req);
        }
    }

    /// A representative snapshot exercising every event tag and both
    /// poisoned states — shared with the golden fixtures.
    pub(crate) fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("store.shard0.accepted".into(), 41),
                ("wal.appends".into(), 41),
            ],
            gauges: vec![("store.shard0.queue_depth".into(), -1)],
            histograms: vec![(
                "store.shard0.apply_ns".into(),
                HistogramSnapshot {
                    buckets: vec![0, 2, 5, 1],
                    count: 8,
                    sum_ns: 12_345,
                },
            )],
            events: vec![
                EventRecord {
                    seq: 0,
                    at: Duration::from_nanos(100),
                    event: Event::ConnectionOpened { connection: 1 },
                },
                EventRecord {
                    seq: 1,
                    at: Duration::from_nanos(200),
                    event: Event::CheckpointStarted { generation: 2 },
                },
                EventRecord {
                    seq: 2,
                    at: Duration::from_nanos(300),
                    event: Event::CheckpointCompleted {
                        generation: 2,
                        duration: Duration::from_nanos(90),
                    },
                },
                EventRecord {
                    seq: 3,
                    at: Duration::from_nanos(400),
                    event: Event::OverloadShed { connection: 1 },
                },
                EventRecord {
                    seq: 4,
                    at: Duration::from_nanos(500),
                    event: Event::RecoveryReplayed {
                        records: 7,
                        duration: Duration::from_nanos(60),
                    },
                },
                EventRecord {
                    seq: 5,
                    at: Duration::from_nanos(600),
                    event: Event::ShardPoisoned {
                        shard: 0,
                        reason: "disk gone".into(),
                    },
                },
                EventRecord {
                    seq: 6,
                    at: Duration::from_nanos(700),
                    event: Event::ConnectionClosed {
                        connection: 1,
                        bytes_in: 512,
                        bytes_out: 2048,
                    },
                },
                EventRecord {
                    seq: 7,
                    at: Duration::from_nanos(800),
                    event: Event::SegmentShipped {
                        relation: 1,
                        generation: 2,
                        records: 16,
                    },
                },
                EventRecord {
                    seq: 8,
                    at: Duration::from_nanos(900),
                    event: Event::ReplicaCaughtUp { records: 23 },
                },
                EventRecord {
                    seq: 9,
                    at: Duration::from_nanos(1000),
                    event: Event::SchemaAltered {
                        generation: 3,
                        relations: 4,
                    },
                },
                EventRecord {
                    seq: 10,
                    at: Duration::from_nanos(1100),
                    event: Event::AlterRejected {
                        reason: "dependent target schema".into(),
                    },
                },
                EventRecord {
                    seq: 11,
                    at: Duration::from_nanos(1200),
                    event: Event::BackfillCompleted {
                        relation: 1,
                        tuples: 99,
                        duration: Duration::from_nanos(70),
                    },
                },
            ],
            poisoned: Some("disk gone".into()),
        }
    }

    #[test]
    fn every_reply_roundtrips() {
        for reply in [
            Reply::Hello {
                version: WIRE_VERSION,
                relations: vec![("CT".into(), vec!["course".into(), "teacher".into()])],
            },
            Reply::Pong,
            Reply::Insert(WireOutcome::Accepted),
            Reply::Insert(WireOutcome::Duplicate),
            Reply::Insert(WireOutcome::Rejected {
                violated: Some("C -> T".into()),
            }),
            Reply::Insert(WireOutcome::Rejected { violated: None }),
            Reply::Remove(true),
            Reply::Rows {
                columns: vec!["course".into()],
                rows: vec![vec!["CS402".into()], vec!["CS500".into()]],
            },
            Reply::Count(42),
            Reply::Snapshot {
                counts: vec![("CT".into(), 2), ("CS".into(), 0)],
            },
            Reply::Checkpointed,
            Reply::Stats(MetricsSnapshot::default()),
            Reply::Stats(sample_snapshot()),
            Reply::Frames {
                relation: 0,
                gen: 2,
                tip: 42,
                frames: vec![vec![1, 2, 3], vec![]],
            },
            Reply::Frames {
                relation: POOL_STREAM,
                gen: 0,
                tip: 3,
                frames: vec![b"\x05\x00\x00\x00Jones".to_vec()],
            },
            Reply::Error(WireError::UnknownRelation("TD".into())),
            Reply::Error(WireError::UnknownColumn {
                relation: "CT".into(),
                column: "room".into(),
            }),
            Reply::Error(WireError::ArityMismatch {
                expected: 2,
                found: 3,
            }),
            Reply::Error(WireError::ShardPoisoned {
                reason: "disk gone".into(),
            }),
            Reply::Error(WireError::Disconnected),
            Reply::Error(WireError::Durability("io".into())),
            Reply::Error(WireError::NotDurable),
            Reply::Error(WireError::Overloaded),
            Reply::Error(WireError::Malformed("trailing".into())),
            Reply::Error(WireError::UnsupportedVersion {
                server: 1,
                client: 2,
            }),
            Reply::Error(WireError::HandshakeRequired),
            Reply::Error(WireError::Internal("oops".into())),
            Reply::Error(WireError::EmptyJoin),
            Reply::Altered { generation: 4 },
            Reply::Manifest {
                generation: 4,
                payload: vec![7, 7, 7],
            },
            Reply::Error(WireError::AlterRejected {
                reason: "dependent target schema".into(),
                witness: Some("CT: {(CS402, Jones), (CS402, Smith)}".into()),
            }),
            Reply::Error(WireError::AlterRejected {
                reason: "unknown relation `TD`".into(),
                witness: None,
            }),
        ] {
            roundtrip_reply(reply);
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let framed = encode_request(1, &Request::Ping);
        let FrameOutcome::Complete { payload, .. } = read_frame(&framed) else {
            unreachable!()
        };
        let mut longer = payload.to_vec();
        longer.push(0);
        let (id, err) = decode_request(&longer).unwrap_err();
        assert_eq!(id, 1);
        assert!(matches!(err, WireError::Malformed(_)));
    }

    /// A stream that replays a script of `read` results, then EOF.
    struct Script(std::collections::VecDeque<std::io::Result<Vec<u8>>>);

    impl std::io::Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(step) = self.0.pop_front() else {
                return Ok(0);
            };
            let bytes = step?;
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let mut bytes = encode_request(1, &Request::Ping);
        bytes.extend(encode_request(
            2,
            &Request::Count {
                relation: "CT".into(),
            },
        ));
        // Deliver one byte at a time: every read is torn.
        let script = bytes.iter().map(|&b| Ok(vec![b])).collect();
        let mut reader = FrameReader::new(Script(script));
        let first = reader.next_payload().unwrap().unwrap();
        assert_eq!(decode_request(&first).unwrap().0, 1);
        let second = reader.next_payload().unwrap().unwrap();
        assert_eq!(decode_request(&second).unwrap().0, 2);
        assert!(reader.next_payload().unwrap().is_none());
    }

    #[test]
    fn a_would_block_mid_frame_loses_nothing() {
        // Half a frame, then WouldBlock, then the rest: what a socket in
        // non-blocking or timed mode does to the subscribe loop's ping
        // drain.
        let req = Request::Count {
            relation: "CT".into(),
        };
        let framed = encode_request(9, &req);
        let (head, tail) = framed.split_at(framed.len() / 2);
        let blocked = std::io::ErrorKind::WouldBlock;
        let script = [Ok(head.to_vec()), Err(blocked.into()), Ok(tail.to_vec())];
        let mut reader = FrameReader::new(Script(script.into()));
        match reader.next_payload() {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), blocked),
            other => panic!("expected the WouldBlock to surface, got {other:?}"),
        }
        // The half already read is still there, and still only a half.
        assert!(reader.next_buffered().unwrap().is_none());
        let payload = reader.next_payload().unwrap().unwrap();
        assert_eq!(decode_request(&payload).unwrap(), (9, req));
        assert_eq!(reader.bytes_read(), framed.len() as u64);
        assert!(reader.next_payload().unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_corrupt_not_clean() {
        let bytes = encode_request(1, &Request::Ping);
        let truncated = &bytes[..bytes.len() - 1];
        let mut reader = FrameReader::new(truncated);
        assert!(matches!(
            reader.next_payload(),
            Err(FrameError::Corrupt("eof mid-frame"))
        ));
    }
}

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
//! error, never a panic.  A list reserves, up front, no more memory
//! than the bytes still unread (its count is clamped to what fits, *in
//! memory*, into the remaining input) and a string or blob is copied
//! only once its bytes are known to be present, so no single
//! allocation exceeds the payload and a hostile length prefix cannot
//! balloon memory.
//!
//! Sending is bounded the same way: a message whose payload would
//! exceed [`MAX_FRAME_PAYLOAD`] is refused by its sender — the server
//! answers [`WireError::Internal`] in its place, the client returns an
//! error without writing — because the peer's [`read_frame`] would take
//! it for corruption and drop the connection.
//!
//! ## Adding a message
//!
//! The byte layout of every message is declared once, in the tables
//! near the end of this module (`tag => Variant { fields in wire
//! order }`); encoding and decoding are both generated from them — with
//! the two pinned restatements listed below.  A new message is:
//!
//! 1. the enum variant, with its doc comment;
//! 2. one line in that enum's table, under the next free tag (the
//!    append-never-renumber rule is stated there) — forgetting it is a
//!    compile error;
//! 3. for a request: an `execute` arm in `server.rs` (its
//!    `server.requests.{kind}` counter is named from the table line:
//!    the variant name, lowercased);
//! 4. a typed method on `ids-client`'s `Client`;
//! 5. one entry **appended** to the canonical lists in
//!    `tests/golden_wire.rs`, then `regenerate_fixtures` — the old
//!    fixture bytes must stay a strict prefix.
//!
//! Some layouts are stated twice on purpose, each so that a hot path
//! builds no `String`:
//!
//! * [`Reply::Rows`], which the server streams through [`RowsWriter`]
//!   straight from the database's row visitor instead of building the
//!   reply's strings;
//! * [`Request::Insert`] and [`Request::Remove`], which the server runs
//!   from a [`WriteView`] of the frame — relation and values borrowed
//!   from the payload — instead of decoding them into a `Request`;
//! * [`Request::Query`], [`Request::Count`] and [`Request::Join`], run
//!   the same way from a [`ReadView`];
//! * the `Reply::Insert(WireOutcome::Rejected { .. })` reply, written by
//!   `append_rejected` from the violated FD's cached text.
//!
//! Change a table line and its restatement together: the golden
//! fixtures, `wire_proptest.rs` and this module's tests pin each
//! restatement to the table (byte for byte for the writers; same
//! acceptance, id and names for the views).
//!
//! ## Where the bytes lie
//!
//! Both ends encode in place and decode from where the bytes arrived:
//! [`append_request`] and `append_reply` seal each frame in the
//! sender's buffer, and [`FrameReader`] lends each payload out of its
//! own read buffer.  A message is encoded once, into the buffer it is
//! written from, and decoded from the buffer it was read into; no frame
//! is copied between the two.

use std::sync::Arc;
use std::time::Duration;

use ids_api::RowSink;
use ids_obs::{Event, EventRecord, HistogramSnapshot, MetricsSnapshot};
use ids_relational::codec::{Decoder, Encoder};
use ids_relational::RelationalError;
use ids_wal::format::seal_frame;
pub use ids_wal::format::{read_frame, FrameOutcome, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};

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
        /// Retired: the resume position in the global name log of the
        /// older format.  Relation logs now carry the names their
        /// records use, so the server ignores it; clients send 0.
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
        /// Relation index the frames belong to ([`POOL_STREAM`] on the
        /// empty idle heartbeat).
        relation: u16,
        /// Checkpoint generation the frames came from (0 on the
        /// heartbeat).
        gen: u64,
        /// The primary's current tip for this stream when the batch
        /// was cut: the last appended sequence number.  `tip` minus the
        /// last frame's sequence number is the follower's lag.
        tip: u64,
        /// Raw frame payloads, exactly as stored on disk:
        /// [`ids_wal::WalRecord`] payloads, names included.
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

/// The `relation` value of the older format's name-stream batches,
/// retired with its global name log: a server sends no names under it,
/// and labels with it only the **empty** [`Reply::Frames`] heartbeat of
/// an idle stream.  Relation indices are `u16` but schemas are far
/// smaller, so the sentinel cannot collide.
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
    /// `ids_store::Error::ShardPoisoned`).
    ShardPoisoned {
        /// Rendered reason of the first durability failure.
        reason: String,
    },
    /// A store lock was poisoned by a panicking thread; no reason was
    /// recorded (see `ids_store::Error::Disconnected`).
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
// The codec.  A message's byte layout is stated once — a `Wire` impl
// for each primitive, a field list per struct, a table per enum — and
// both directions are generated from that one statement.

/// Why a payload did not decode.  Kept small and private — `get` runs
/// in the inner loops, and a `Result<String, WireError>` there is
/// several words wider than this (measured: +4–6 % on the codec layer);
/// it is rendered into [`WireError::Malformed`] once, in [`decode`].
enum Bad {
    /// A primitive ran off the input or read invalid UTF-8.
    Codec(RelationalError),
    /// A tag byte outside its table: `(what, tag)`.
    Tag(&'static str, u8),
}

impl From<RelationalError> for Bad {
    fn from(e: RelationalError) -> Self {
        Bad::Codec(e)
    }
}

impl From<Bad> for WireError {
    fn from(bad: Bad) -> Self {
        WireError::Malformed(match bad {
            Bad::Codec(e) => e.to_string(),
            Bad::Tag(what, tag) => format!("bad {what} {tag}"),
        })
    }
}

/// A value with one byte layout: `get` reads back exactly what `put`
/// wrote, and is total — any input yields a value or a [`Bad`].
trait Wire: Sized {
    fn put(&self, e: &mut Encoder);
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad>;
}

/// An enum's tag byte — the number on its line in its table.  What
/// `put` writes first, and what the server's per-kind request counters
/// are found by.
pub(crate) trait Tagged {
    /// Each variant's tag and name, in table order.
    const KINDS: &'static [(u8, &'static str)];
    fn tag(&self) -> u8;
}

impl Wire for u16 {
    fn put(&self, e: &mut Encoder) {
        e.put_u16(*self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        Ok(d.get_u16()?)
    }
}

impl Wire for u32 {
    fn put(&self, e: &mut Encoder) {
        e.put_u32(*self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        Ok(d.get_u32()?)
    }
}

impl Wire for u64 {
    fn put(&self, e: &mut Encoder) {
        e.put_u64(*self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        Ok(d.get_u64()?)
    }
}

/// Travels through its two's-complement bits.
impl Wire for i64 {
    fn put(&self, e: &mut Encoder) {
        e.put_u64(*self as u64);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        Ok(d.get_u64()? as i64)
    }
}

impl Wire for bool {
    fn put(&self, e: &mut Encoder) {
        e.put_u8(u8::from(*self));
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        match d.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(Bad::Tag("bool tag", tag)),
        }
    }
}

/// Whole nanoseconds, saturating — a ~585-year duration is not worth a
/// wider encoding.
impl Wire for Duration {
    fn put(&self, e: &mut Encoder) {
        e.put_u64(self.as_nanos().min(u64::MAX as u128) as u64);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        Ok(Duration::from_nanos(d.get_u64()?))
    }
}

impl Wire for String {
    fn put(&self, e: &mut Encoder) {
        e.put_str(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        Ok(d.get_str()?)
    }
}

/// An opaque blob: one length prefix, one `memcpy`.  `u8` itself is
/// deliberately not `Wire` (tags are read directly), which is what lets
/// this impl stand beside the blanket `Vec<T>` one.
impl Wire for Vec<u8> {
    fn put(&self, e: &mut Encoder) {
        e.put_bytes(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        Ok(d.get_bytes()?)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(value) => {
                e.put_u8(1);
                value.put(e);
            }
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            tag => Err(Bad::Tag("option tag", tag)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Encoder) {
        // Cannot truncate: both senders refuse a message whose payload
        // exceeds `MAX_FRAME_PAYLOAD` (64 MiB), and every entry takes at
        // least one byte of it, so a count that reaches the wire is far
        // below `u32::MAX`.
        e.put_u32(self.len() as u32);
        for item in self {
            item.put(e);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        let n = d.get_u32()? as usize;
        // The one allocation guard: a count may lie, so reserve no more
        // entries than fit — in memory — into the bytes still unread.
        // Growth past that is paid for by input actually present.
        let fit = d.remaining() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(n.min(fit));
        for _ in 0..n {
            items.push(T::get(d)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, e: &mut Encoder) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// A struct on the wire is its fields, in the order listed.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* }) => {
        impl Wire for $ty {
            fn put(&self, e: &mut Encoder) {
                $(self.$field.put(e);)*
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
                Ok($ty { $($field: Wire::get(d)?),* })
            }
        }
    };
}

/// An enum on the wire is a tag byte, then the variant's fields in the
/// order listed.  Lines are `tag => Variant { fields }`,
/// `tag => Variant(field)` or `tag => Variant`; `$what` names the tag
/// in the "bad {what} {tag}" refusal.  The generated matches on `self`
/// have no wildcard arm, so a variant missing from its table does not
/// compile.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),* })? $(( $inner:ident ))?,)*
    }) => {
        impl Tagged for $ty {
            const KINDS: &'static [(u8, &'static str)] = &[$(($tag, stringify!($variant))),*];
            fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant { .. } => $tag,)*
                }
            }
        }
        impl Wire for $ty {
            fn put(&self, e: &mut Encoder) {
                e.put_u8(self.tag());
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $inner ))? => {
                        $($($field.put(e);)*)?
                        $($inner.put(e);)?
                    })*
                }
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, Bad> {
                Ok(match d.get_u8()? {
                    $($tag => Self::$variant
                        $({ $($field: Wire::get(d)?),* })?
                        $(({ let $inner = Wire::get(d)?; $inner }))?,)*
                    tag => return Err(Bad::Tag($what, tag)),
                })
            }
        }
    };
}

// The tables.  Tags are stable on the wire: **append, never renumber**
// — a new variant takes the next free tag of its table, a retired one
// keeps its number forever.

wire_enum! { Request, "request kind" {
    0 => Hello { version },
    1 => Ping,
    2 => Insert { relation, values },
    3 => Remove { relation, values },
    4 => Query { relation, filters, select },
    5 => Count { relation },
    6 => Snapshot,
    7 => Checkpoint,
    8 => Stats,
    9 => Subscribe { cursors, names },
    10 => Join { relations },
    11 => Alter { op },
}}

wire_enum! { AlterOp, "alter tag" {
    0 => AddRelation { name, columns },
    1 => DropRelation { name },
    2 => AddFd { spec },
    3 => DropFd { spec },
}}

wire_enum! { Reply, "reply kind" {
    0 => Hello { version, relations },
    1 => Pong,
    2 => Insert(outcome),
    3 => Remove(present),
    4 => Rows { columns, rows },
    5 => Count(count),
    6 => Snapshot { counts },
    7 => Checkpointed,
    8 => Error(error),
    9 => Stats(snapshot),
    10 => Frames { relation, gen, tip, frames },
    11 => Altered { generation },
    12 => Manifest { generation, payload },
}}

wire_enum! { WireOutcome, "outcome tag" {
    0 => Accepted,
    1 => Duplicate,
    2 => Rejected { violated },
}}

wire_enum! { WireError, "error tag" {
    0 => UnknownRelation(name),
    1 => UnknownColumn { relation, column },
    2 => ArityMismatch { expected, found },
    3 => ShardPoisoned { reason },
    4 => Disconnected,
    5 => Durability(message),
    6 => NotDurable,
    7 => Overloaded,
    8 => Malformed(message),
    9 => UnsupportedVersion { server, client },
    10 => HandshakeRequired,
    11 => Internal(message),
    12 => EmptyJoin,
    13 => AlterRejected { reason, witness },
}}

// Inside a `Reply::Stats` body.
wire_struct! { MetricsSnapshot { counters, gauges, histograms, events, poisoned } }
wire_struct! { HistogramSnapshot { count, sum_ns, buckets } }
wire_struct! { EventRecord { seq, at, event } }

wire_enum! { Event, "event tag" {
    0 => ShardPoisoned { shard, reason },
    1 => CheckpointStarted { generation },
    2 => CheckpointCompleted { generation, duration },
    3 => OverloadShed { connection },
    4 => RecoveryReplayed { records, duration },
    5 => ConnectionOpened { connection },
    6 => ConnectionClosed { connection, bytes_in, bytes_out },
    7 => SegmentShipped { relation, generation, records },
    8 => ReplicaCaughtUp { records },
    9 => SchemaAltered { generation, relations },
    10 => AlterRejected { reason },
    11 => BackfillCompleted { relation, tuples, duration },
}}

/// Opens a frame at the end of `out`: the header reserved for
/// [`seal_frame`], then the payload's request id.  Returns where the
/// frame starts.
fn open_frame(out: &mut Vec<u8>, id: u64) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    out.extend_from_slice(&id.to_le_bytes());
    start
}

/// Appends one message to `out` as one complete CRC frame,
/// `[id][message]`, encoded in place and sealed where it lies.
fn encode_into<T: Wire>(out: &mut Vec<u8>, id: u64, message: &T) {
    let start = open_frame(out, id);
    let mut e = Encoder::from_bytes(std::mem::take(out));
    message.put(&mut e);
    *out = e.into_bytes();
    seal_frame(&mut out[start..]);
}

/// One message as one ready-to-write CRC frame.
fn encode<T: Wire>(id: u64, message: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, id, message);
    out
}

/// One frame payload back into `(id, message)`; `what` names the
/// message in the trailing-bytes refusal.  The id is echoed on a body
/// error, and is 0 when the id itself is unreadable.
fn decode<T: Wire>(payload: &[u8], what: &str) -> Result<(u64, T), (u64, WireError)> {
    let mut d = Decoder::new(payload);
    let id = u64::get(&mut d).map_err(|bad| (0, bad.into()))?;
    let message = T::get(&mut d).map_err(|bad| (id, bad.into()))?;
    if !d.is_done() {
        let trailing = format!("{} trailing bytes after {what}", d.remaining());
        return Err((id, WireError::Malformed(trailing)));
    }
    Ok((id, message))
}

/// Encodes a request as one ready-to-write CRC frame: the bytes of
/// [`append_request`], in a new buffer.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    encode(id, req)
}

/// Appends a request to `out` as one complete CRC frame — the bytes of
/// [`encode_request`], encoded where they will be written from.
pub fn append_request(out: &mut Vec<u8>, id: u64, req: &Request) {
    encode_into(out, id, req);
}

/// Encodes a reply as one ready-to-write CRC frame.
pub fn encode_reply(id: u64, reply: &Reply) -> Vec<u8> {
    encode(id, reply)
}

/// Appends a reply to `out` as one complete CRC frame — the bytes of
/// [`encode_reply`], encoded where they will be written from.
pub(crate) fn append_reply(out: &mut Vec<u8>, id: u64, reply: &Reply) {
    encode_into(out, id, reply);
}

/// Streams a [`Reply::Rows`] into a buffer as the rows are rendered —
/// the bytes `encode_reply(id, &Reply::Rows { columns, rows })` would
/// frame, with no `String` built per value.  [`RowsWriter::new`] reserves
/// the frame header and writes the id and the reply tag; the database
/// drives it as its [`RowSink`] (`ids_api::Database::query_into`,
/// `join_into`); [`RowsWriter::finish`] seals the frame in place.
///
/// This is the second statement of the `Rows` layout — the `Reply`
/// table's `Rows { columns, rows }` line is the first: a `u32` count and
/// length-prefixed strings for the columns, then a `u32` row count, then
/// per row a `u32` value count and its length-prefixed strings.  The
/// golden fixtures and the streamed-reply proptest pin the two equal.
pub struct RowsWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Where this frame's header starts in `out`.
    start: usize,
    /// Values per row, from [`RowSink::start`].
    width: u32,
}

impl<'a> RowsWriter<'a> {
    /// Opens a `Rows` reply to request `id` at the end of `out`.
    pub fn new(out: &'a mut Vec<u8>, id: u64) -> Self {
        let start = open_frame(out, id);
        let empty = Reply::Rows {
            columns: Vec::new(),
            rows: Vec::new(),
        };
        out.push(empty.tag());
        RowsWriter {
            out,
            start,
            width: 0,
        }
    }

    /// Seals the frame.  Call once the database has fed the writer —
    /// after a successful read, which started it exactly once.
    pub fn finish(self) {
        seal_frame(&mut self.out[self.start..]);
    }

    /// `Encoder::put_u32`, into the borrowed buffer.
    fn put_u32(&mut self, n: u32) {
        self.out.extend_from_slice(&n.to_le_bytes());
    }

    /// `Encoder::put_str`, into the borrowed buffer.
    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }
}

impl RowSink for RowsWriter<'_> {
    fn start(&mut self, columns: &Arc<[String]>, rows: usize) {
        // The counts cannot truncate: a reply past 64 MiB is refused
        // before it is written, and every entry takes at least a byte.
        self.width = columns.len() as u32;
        self.put_u32(self.width);
        for column in columns.iter() {
            self.put_str(column);
        }
        self.put_u32(rows as u32);
    }

    fn row(&mut self) {
        self.put_u32(self.width);
    }

    fn value(&mut self, value: &str) {
        self.put_str(value);
    }
}

/// Decodes one frame payload into `(request_id, Request)`.
///
/// Total: any byte sequence yields `Ok` or a typed
/// [`WireError::Malformed`] — never a panic, never unbounded
/// allocation.  When even the request id is unreadable the returned
/// error carries id 0.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), (u64, WireError)> {
    decode(payload, "request")
}

/// Decodes one frame payload into `(request_id, Reply)`.  Total, like
/// [`decode_request`].
pub fn decode_reply(payload: &[u8]) -> Result<(u64, Reply), (u64, WireError)> {
    decode(payload, "reply")
}

/// A string [`Request::Insert`] or [`Request::Remove`] read where it
/// lies: the relation and the values borrow the payload they arrived
/// in, so the server runs the write with no `String` built for it.
///
/// This is the second statement of the two layouts — the `Request`
/// table's `Insert { relation, values }` and `Remove { relation, values
/// }` lines are the first: after the id, the tag, the relation as a
/// length-prefixed string, then a `u32` value count and the
/// length-prefixed values.  [`WriteView::parse`] accepts exactly the
/// payloads [`decode_request`] decodes to one of the two and yields the
/// same id, relation and values; `wire_proptest.rs` pins the two equal.
#[derive(Clone, Copy, Debug)]
pub struct WriteView<'p> {
    /// The request id.
    pub id: u64,
    /// `true` for a [`Request::Remove`], `false` for a
    /// [`Request::Insert`].
    pub remove: bool,
    /// Target relation name.
    pub relation: &'p str,
    /// How many values `values` holds.
    count: u32,
    /// The values, each length-prefixed, every one already checked.
    values: &'p [u8],
}

/// The `Request` table's tags of the two lines [`WriteView`] restates.
const INSERT_TAG: u8 = 2;
const REMOVE_TAG: u8 = 3;

impl<'p> WriteView<'p> {
    /// Views one frame payload: `None` for any payload that is not an
    /// `Insert` or a `Remove`, or that [`decode_request`] would refuse.
    /// Total, like the decoder, and allocation-free.
    pub fn parse(payload: &'p [u8]) -> Option<Self> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().ok()?;
        let remove = match d.get_u8().ok()? {
            INSERT_TAG => false,
            REMOVE_TAG => true,
            _ => return None,
        };
        let relation = d.get_str_ref().ok()?;
        let count = d.get_u32().ok()?;
        let values = &payload[payload.len() - d.remaining()..];
        for _ in 0..count {
            d.get_str_ref().ok()?;
        }
        d.is_done().then_some(WriteView {
            id,
            remove,
            relation,
            count,
            values,
        })
    }

    /// The values, in the column order the relation was declared with.
    pub fn values(&self) -> impl Iterator<Item = &'p str> {
        let mut d = Decoder::new(self.values);
        // `parse` read every value once already, so no read here fails.
        (0..self.count).map_while(move |_| d.get_str_ref().ok())
    }

    /// The viewed request's tag, its line in the `Request` table.
    pub(crate) fn tag(&self) -> u8 {
        if self.remove {
            REMOVE_TAG
        } else {
            INSERT_TAG
        }
    }
}

/// A string [`Request::Query`], [`Request::Count`] or [`Request::Join`]
/// read where it lies: every name borrows the payload it arrived in, so
/// the server runs the read with no `String` or `Vec` built for its
/// request.
///
/// The second statement of three layouts — the `Request` table's `Query
/// { relation, filters, select }`, `Count { relation }` and `Join {
/// relations }` lines are the first: after the id and the tag, a
/// length-prefixed string per name, a `u32` count before each list (a
/// filter is two strings, column then value), and a `0`/`1` byte before
/// the optional select list.  [`ReadView::parse`] accepts exactly the
/// payloads [`decode_request`] decodes to one of the three and yields
/// the same id and names; `wire_proptest.rs` pins the two equal.
#[derive(Clone, Copy, Debug)]
pub enum ReadView<'p> {
    /// A [`Request::Query`].
    Query {
        /// Target relation name.
        relation: &'p str,
        /// `(column, value)` equality filters, ANDed: read them with
        /// [`Names::pairs`].
        filters: Names<'p>,
        /// Output columns; `None` = declaration order.
        select: Option<Names<'p>>,
    },
    /// A [`Request::Count`].
    Count {
        /// Target relation name.
        relation: &'p str,
    },
    /// A [`Request::Join`].
    Join {
        /// Relation names to join, in output-column order.
        relations: Names<'p>,
    },
}

/// The `Request` table's tags of the three lines [`ReadView`] restates.
const QUERY_TAG: u8 = 4;
const COUNT_TAG: u8 = 5;
const JOIN_TAG: u8 = 10;

impl<'p> ReadView<'p> {
    /// Views one frame payload as `(id, read)`: `None` for any payload
    /// that is not a `Query`, `Count` or `Join`, or that
    /// [`decode_request`] would refuse.  Total, like the decoder, and
    /// allocation-free.
    pub fn parse(payload: &'p [u8]) -> Option<(u64, Self)> {
        let mut d = Decoder::new(payload);
        let id = d.get_u64().ok()?;
        let view = match d.get_u8().ok()? {
            QUERY_TAG => ReadView::Query {
                relation: d.get_str_ref().ok()?,
                filters: Names::parse(payload, &mut d, 2)?,
                select: match d.get_u8().ok()? {
                    0 => None,
                    1 => Some(Names::parse(payload, &mut d, 1)?),
                    _ => return None,
                },
            },
            COUNT_TAG => ReadView::Count {
                relation: d.get_str_ref().ok()?,
            },
            JOIN_TAG => ReadView::Join {
                relations: Names::parse(payload, &mut d, 1)?,
            },
            _ => return None,
        };
        d.is_done().then_some((id, view))
    }

    /// The viewed request's tag, its line in the `Request` table.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            ReadView::Query { .. } => QUERY_TAG,
            ReadView::Count { .. } => COUNT_TAG,
            ReadView::Join { .. } => JOIN_TAG,
        }
    }
}

/// A list of names in a payload, as a [`ReadView`] lends it: the
/// length-prefixed strings after the list's `u32` count, every one
/// already checked.
#[derive(Clone, Copy, Debug)]
pub struct Names<'p> {
    /// How many strings `bytes` holds.
    strings: usize,
    bytes: &'p [u8],
}

impl<'p> Names<'p> {
    /// Reads a list's count, then `width` strings per entry, from `d`
    /// reading `payload`.
    fn parse(payload: &'p [u8], d: &mut Decoder<'p>, width: usize) -> Option<Self> {
        let strings = d.get_u32().ok()? as usize * width;
        let rest = &payload[payload.len() - d.remaining()..];
        for _ in 0..strings {
            d.get_str_ref().ok()?;
        }
        let bytes = &rest[..rest.len() - d.remaining()];
        Some(Names { strings, bytes })
    }

    /// The names, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = &'p str> {
        let mut d = Decoder::new(self.bytes);
        // `parse` read every string once already, so no read here fails.
        (0..self.strings).map_while(move |_| d.get_str_ref().ok())
    }

    /// The names two at a time: a list of `(column, value)` filters.
    pub fn pairs(&self) -> impl Iterator<Item = (&'p str, &'p str)> {
        let mut names = self.iter();
        std::iter::from_fn(move || Some((names.next()?, names.next()?)))
    }
}

/// Appends the reply to a rejected insert, `Reply::Insert(WireOutcome::
/// Rejected { violated })`, as one complete CRC frame — the bytes of
/// [`encode_reply`], written from the violated FD's text where it lies
/// (the schema renders each FD once), with no `Reply` built around it.
/// A second statement of that reply's layout, pinned to the `Reply` and
/// `WireOutcome` tables by a unit test here.
pub(crate) fn append_rejected(out: &mut Vec<u8>, id: u64, violated: Option<&str>) {
    let start = open_frame(out, id);
    let mut e = Encoder::from_bytes(std::mem::take(out));
    e.put_u8(Reply::Insert(WireOutcome::Duplicate).tag());
    e.put_u8(WireOutcome::Rejected { violated: None }.tag());
    match violated {
        None => e.put_u8(0),
        Some(text) => {
            e.put_u8(1);
            e.put_str(text);
        }
    }
    *out = e.into_bytes();
    seal_frame(&mut out[start..]);
}

// ---------------------------------------------------------------------
// Stream framing.

/// Pulls CRC frames off a byte stream — the shared reading loop of the
/// server's connection loop and the blocking client.
///
/// Each payload is **lent** out of the reader's buffer
/// ([`FrameReader::next_payload`], [`FrameReader::next_buffered`]): it
/// is decoded where it lies and is valid until the next call, so no
/// frame is copied out on its way to the decoder.
///
/// A torn buffer keeps reading; EOF on a frame boundary is a clean
/// close (`Ok(None)`); EOF mid-frame, a CRC mismatch, or an oversize
/// length is a typed [`FrameError`].  Corruption is unrecoverable by
/// design: framing is what keeps a pipelined stream in sync, so after
/// a bad frame the only safe move is to drop the connection.
///
/// An I/O error loses nothing: bytes already read stay buffered, so a
/// stream in non-blocking or timed mode can return `WouldBlock` /
/// `TimedOut` mid-frame and the next call resumes where it stopped.  A
/// read a signal interrupted (`Interrupted`) is retried in place, as
/// `Read::read_exact` does, so a signal never ends a session.
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
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The next frame's payload if it is **already buffered** — never
    /// touches the stream, so it cannot block.  `Ok(None)` means the
    /// buffer holds at most a partial frame.  The payload is lent from
    /// the reader's buffer, valid until the next call.
    pub fn next_buffered(&mut self) -> Result<Option<&[u8]>, FrameError> {
        Ok(self.buffered()?.map(|at| &self.buf[at]))
    }

    /// Where the next buffered frame's payload lies in `buf`, consumed.
    fn buffered(&mut self) -> Result<Option<std::ops::Range<usize>>, FrameError> {
        let pending = &self.buf[self.start..self.end];
        match read_frame(pending) {
            FrameOutcome::Complete { payload, rest } => {
                let at = self.start + FRAME_HEADER_LEN;
                self.start = self.end - rest.len();
                Ok(Some(at..at + payload.len()))
            }
            FrameOutcome::CrcMismatch => Err(FrameError::Corrupt("crc mismatch")),
            FrameOutcome::Oversize => Err(FrameError::Corrupt("oversize frame")),
            FrameOutcome::Torn => Ok(None),
        }
    }

    /// Reads the next complete frame's payload, `Ok(None)` on a clean
    /// EOF at a frame boundary.  Lent like [`FrameReader::next_buffered`]'s.
    /// A read interrupted by a signal is retried; `WouldBlock` and
    /// `TimedOut` are returned, with nothing lost.
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, FrameError> {
        loop {
            if let Some(at) = self.buffered()? {
                return Ok(Some(&self.buf[at]));
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
            let n = match self.inner.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => read?,
            };
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
        assert_eq!(decode_request(first).unwrap().0, 1);
        let second = reader.next_payload().unwrap().unwrap();
        assert_eq!(decode_request(second).unwrap().0, 2);
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
        assert_eq!(decode_request(payload).unwrap(), (9, req));
        assert_eq!(reader.bytes_read(), framed.len() as u64);
        assert!(reader.next_payload().unwrap().is_none());
    }

    #[test]
    fn a_signal_mid_frame_is_retried_not_returned() {
        // Half a frame, then a read a signal interrupted, then the rest:
        // a blocking caller must get the frame, not the interruption.
        let req = Request::Count {
            relation: "CT".into(),
        };
        let framed = encode_request(9, &req);
        let (head, tail) = framed.split_at(framed.len() / 2);
        let interrupted = std::io::ErrorKind::Interrupted;
        let script = [
            Ok(head.to_vec()),
            Err(interrupted.into()),
            Ok(tail.to_vec()),
        ];
        let mut reader = FrameReader::new(Script(script.into()));
        let payload = reader.next_payload().unwrap().unwrap();
        assert_eq!(decode_request(payload).unwrap(), (9, req));
        assert_eq!(reader.bytes_read(), framed.len() as u64);
        assert!(reader.next_payload().unwrap().is_none());
    }

    #[test]
    fn the_write_view_restates_the_insert_and_remove_lines() {
        let (relation, values) = ("CT".to_string(), vec!["CS402".to_string()]);
        let insert = Request::Insert {
            relation: relation.clone(),
            values: values.clone(),
        };
        let remove = Request::Remove { relation, values };
        assert_eq!((insert.tag(), remove.tag()), (INSERT_TAG, REMOVE_TAG));
        for (req, is_remove) in [(insert, false), (remove, true)] {
            let framed = encode_request(5, &req);
            let view = WriteView::parse(&framed[FRAME_HEADER_LEN..]).unwrap();
            assert_eq!(
                (view.id, view.remove, view.tag()),
                (5, is_remove, req.tag())
            );
            assert_eq!(view.relation, "CT");
            assert_eq!(view.values().collect::<Vec<_>>(), ["CS402"]);
        }
        let ping = encode_request(6, &Request::Ping);
        assert!(WriteView::parse(&ping[FRAME_HEADER_LEN..]).is_none());
    }

    #[test]
    fn the_read_view_restates_the_query_count_and_join_lines() {
        let query = Request::Query {
            relation: "CT".into(),
            filters: vec![("course".into(), "CS402".into())],
            select: Some(vec!["teacher".into()]),
        };
        let count = Request::Count {
            relation: "CT".into(),
        };
        let join = Request::Join {
            relations: vec!["CT".into(), "CS".into()],
        };
        let tags = (query.tag(), count.tag(), join.tag());
        assert_eq!(tags, (QUERY_TAG, COUNT_TAG, JOIN_TAG));
        for req in [query, count, join] {
            let framed = encode_request(5, &req);
            let (id, view) = ReadView::parse(&framed[FRAME_HEADER_LEN..]).unwrap();
            assert_eq!((id, view.tag()), (5, req.tag()));
            match view {
                ReadView::Query {
                    relation,
                    filters,
                    select,
                } => {
                    assert_eq!(relation, "CT");
                    assert_eq!(filters.pairs().collect::<Vec<_>>(), [("course", "CS402")]);
                    assert_eq!(select.unwrap().iter().collect::<Vec<_>>(), ["teacher"]);
                }
                ReadView::Count { relation } => assert_eq!(relation, "CT"),
                ReadView::Join { relations } => {
                    assert_eq!(relations.iter().collect::<Vec<_>>(), ["CT", "CS"]);
                }
            }
        }
        let ping = encode_request(6, &Request::Ping);
        assert!(ReadView::parse(&ping[FRAME_HEADER_LEN..]).is_none());
    }

    #[test]
    fn a_rejection_is_written_as_the_reply_table_encodes_it() {
        for violated in [None, Some("a -> b"), Some("")] {
            let mut out = b"earlier".to_vec();
            append_rejected(&mut out, 9, violated);
            let reply = Reply::Insert(WireOutcome::Rejected {
                violated: violated.map(str::to_string),
            });
            assert_eq!(&out[..7], b"earlier");
            assert_eq!(out[7..], encode_reply(9, &reply)[..]);
        }
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

//! # ids-client
//!
//! The blocking TCP client for `ids-server`: connect, handshake, then
//! speak strings — with explicit support for **pipelining**.
//!
//! Every convenience method ([`Client::insert`], [`Client::query`],
//! ...) is one request / one reply.  The lower-level pair
//! [`Client::send`] / [`Client::recv`] lets a caller keep a window of
//! requests in flight; replies are matched by the request id the
//! server echoes, so they may be consumed in any order — including the
//! typed [`WireError::Overloaded`] replies for requests the server
//! shed because more than its `queue_depth` were waiting.
//!
//! ## When bytes move
//!
//! The client writes only when it is about to block, mirroring the
//! server's session loop.  [`Client::send`] appends to a buffer; the
//! buffer is written when [`Client::recv`] would otherwise wait on the
//! socket (nothing stashed, no complete reply buffered), when it
//! passes 64 KiB, on [`Client::flush`], and best-effort on drop — so a
//! window of requests costs one `write`, and "send, then vanish" still
//! puts the bytes on the wire.  The server answers in request order
//! and stops executing while its replies go unread (TCP flow control),
//! so read replies as they come rather than sending without bound.
//!
//! ```no_run
//! use ids_client::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! client.insert("CT", ["CS402", "Jones"])?;
//! let rows = client.query("CT", &[("course", "CS402")], None)?;
//! assert_eq!(rows.rows, vec![vec!["CS402".to_string(), "Jones".to_string()]]);
//! # Ok::<(), ids_client::ClientError>(())
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

use ids_server::wire::{
    decode_reply, encode_request, AlterOp, FrameError, FrameReader, Reply, Request, WireError,
    WireOutcome, MAX_FRAME_PAYLOAD, WIRE_VERSION,
};

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure.
    Io(std::io::Error),
    /// The server's byte stream was corrupt (bad CRC, oversize frame,
    /// EOF mid-frame) or a reply payload did not decode.
    Corrupt(String),
    /// The server answered with a typed error.
    Server(WireError),
    /// The protocol was violated: by the server (e.g. a non-Hello answer
    /// to the handshake, or a reply kind that does not match the
    /// request), or by a request too large for one frame, refused before
    /// a byte of it was written.
    Protocol(String),
    /// The connection closed while a reply was still awaited.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Corrupt(what) => write!(f, "corrupt reply stream: {what}"),
            Self::Server(e) => write!(f, "server error: {e}"),
            Self::Protocol(what) => write!(f, "protocol violation: {what}"),
            Self::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Server(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Corrupt(what) => ClientError::Corrupt(what.to_string()),
        }
    }
}

/// Rendered rows from a [`Client::query`]: column names plus one
/// `Vec<String>` per row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowSet {
    /// Output column names, in the order requested (declaration order
    /// when no projection was given).
    pub columns: Vec<String>,
    /// The rows, aligned with `columns`.
    pub rows: Vec<Vec<String>>,
}

/// Queued requests are written once this many bytes are pending, even
/// with no `recv` waiting — the same mark the server's reply buffer uses.
const FLUSH_BYTES: usize = 64 * 1024;

/// A blocking connection to an `ids-server`, already past the Hello
/// handshake.
pub struct Client {
    write_half: TcpStream,
    frames: FrameReader<TcpStream>,
    /// Encoded requests not yet written.
    out: Vec<u8>,
    next_id: u64,
    /// Replies that arrived while awaiting a different id.
    stash: HashMap<u64, Reply>,
    catalog: Vec<(String, Vec<String>)>,
}

impl Client {
    /// Connects and performs the Hello handshake, returning a session
    /// that knows the server's relation catalog.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let write_half = TcpStream::connect(addr)?;
        // Requests are coalesced here, in `out`; Nagle on top of that
        // could only add a delayed-ACK stall.
        write_half.set_nodelay(true)?;
        let read_half = write_half.try_clone()?;
        let mut client = Client {
            write_half,
            frames: FrameReader::new(read_half),
            out: Vec::new(),
            next_id: 0,
            stash: HashMap::new(),
            catalog: Vec::new(),
        };
        let id = client.send(Request::Hello {
            version: WIRE_VERSION,
        })?;
        match client.recv(id)? {
            Reply::Hello { relations, .. } => client.catalog = relations,
            Reply::Error(e) => return Err(ClientError::Server(e)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Hello reply, got {other:?}"
                )))
            }
        }
        Ok(client)
    }

    /// The relation catalog from the handshake: `(name, declared
    /// columns)` for every relation the server maintains.
    pub fn catalog(&self) -> &[(String, Vec<String>)] {
        &self.catalog
    }

    /// Queues one request without waiting, returning its id — the
    /// pipelining primitive.  Collect ids, then [`Client::recv`] each.
    /// The bytes leave when a `recv` is about to block, once 64 KiB
    /// are pending, or on [`Client::flush`].  A request too large for
    /// one frame is refused here with [`ClientError::Protocol`], nothing
    /// written, and the connection stays usable.
    pub fn send(&mut self, req: Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        let framed = encode_request(id, &req);
        // The server's `read_frame` would take it for corruption and drop
        // the connection.  (8 = the frame header, `[len: u32][crc: u32]`.)
        let payload = framed.len() - 8;
        if payload > MAX_FRAME_PAYLOAD as usize {
            return Err(ClientError::Protocol(format!(
                "request of {payload} bytes exceeds the 64 MiB frame bound"
            )));
        }
        self.next_id += 1;
        self.out.extend_from_slice(&framed);
        if self.out.len() > FLUSH_BYTES {
            self.flush()?;
        }
        Ok(id)
    }

    /// Writes every queued request now.  Only needed by a caller that
    /// sends and then waits on something other than [`Client::recv`].
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.write_half.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// The next reply off the stream.  Queued requests are written
    /// first if — and only if — this is about to block on the socket.
    fn next_reply(&mut self) -> Result<(u64, Reply), ClientError> {
        let payload = match self.frames.next_buffered()? {
            Some(payload) => payload,
            None => {
                self.flush()?;
                self.frames.next_payload()?.ok_or(ClientError::Closed)?
            }
        };
        decode_reply(&payload).map_err(|(_, e)| ClientError::Corrupt(e.to_string()))
    }

    /// Blocks until the reply for `id` arrives.  Replies for other
    /// in-flight ids encountered on the way are stashed and returned
    /// by their own `recv` calls — consuming out of order is fine.
    pub fn recv(&mut self, id: u64) -> Result<Reply, ClientError> {
        if let Some(reply) = self.stash.remove(&id) {
            return Ok(reply);
        }
        loop {
            let (got, reply) = self.next_reply()?;
            if got == id {
                return Ok(reply);
            }
            self.stash.insert(got, reply);
        }
    }

    /// Blocks until *any* reply arrives (stash first), returning it with
    /// its id — the replication stream's receive primitive, where Frames
    /// and barrier Pongs interleave on one connection.
    fn recv_any(&mut self) -> Result<(u64, Reply), ClientError> {
        if let Some(id) = self.stash.keys().next().copied() {
            let reply = self.stash.remove(&id).expect("key just listed");
            return Ok((id, reply));
        }
        self.next_reply()
    }

    /// One request, one reply.
    fn call(&mut self, req: Request) -> Result<Reply, ClientError> {
        let id = self.send(req)?;
        match self.recv(id)? {
            Reply::Error(e) => Err(ClientError::Server(e)),
            reply => Ok(reply),
        }
    }

    fn protocol_err<T>(got: Reply, wanted: &str) -> Result<T, ClientError> {
        Err(ClientError::Protocol(format!(
            "expected {wanted} reply, got {got:?}"
        )))
    }

    /// Liveness probe, returning the measured round-trip time: the
    /// wall-clock span from putting the Ping on the wire to decoding
    /// its Pong.
    pub fn ping(&mut self) -> Result<std::time::Duration, ClientError> {
        let start = std::time::Instant::now();
        match self.call(Request::Ping)? {
            Reply::Pong => Ok(start.elapsed()),
            other => Self::protocol_err(other, "Pong"),
        }
    }

    /// Polls the server's observability surface: the database's metric
    /// families (per-shard op counters, WAL, apply-latency histograms,
    /// the event ring, any preserved poison reason) merged with the
    /// connection layer's `server.*` families.  Purely read-side on the
    /// server — it answers even after a shard has been poisoned.
    pub fn stats(&mut self) -> Result<ids_obs::MetricsSnapshot, ClientError> {
        match self.call(Request::Stats)? {
            Reply::Stats(snapshot) => Ok(snapshot),
            other => Self::protocol_err(other, "Stats"),
        }
    }

    /// Inserts a row; FD violations are outcomes, not errors.
    pub fn insert<S: Into<String>>(
        &mut self,
        relation: &str,
        values: impl IntoIterator<Item = S>,
    ) -> Result<WireOutcome, ClientError> {
        let req = Request::Insert {
            relation: relation.to_string(),
            values: values.into_iter().map(Into::into).collect(),
        };
        match self.call(req)? {
            Reply::Insert(outcome) => Ok(outcome),
            other => Self::protocol_err(other, "Insert"),
        }
    }

    /// Removes a row; `Ok(true)` when it was present.
    pub fn remove<S: Into<String>>(
        &mut self,
        relation: &str,
        values: impl IntoIterator<Item = S>,
    ) -> Result<bool, ClientError> {
        let req = Request::Remove {
            relation: relation.to_string(),
            values: values.into_iter().map(Into::into).collect(),
        };
        match self.call(req)? {
            Reply::Remove(present) => Ok(present),
            other => Self::protocol_err(other, "Remove"),
        }
    }

    /// Queries one relation with `(column, value)` equality filters
    /// and an optional projection (`None` = declaration order).
    pub fn query(
        &mut self,
        relation: &str,
        filters: &[(&str, &str)],
        select: Option<&[&str]>,
    ) -> Result<RowSet, ClientError> {
        let req = Request::Query {
            relation: relation.to_string(),
            filters: filters
                .iter()
                .map(|(c, v)| (c.to_string(), v.to_string()))
                .collect(),
            select: select.map(|cols| cols.iter().map(|c| c.to_string()).collect()),
        };
        match self.call(req)? {
            Reply::Rows { columns, rows } => Ok(RowSet { columns, rows }),
            other => Self::protocol_err(other, "Rows"),
        }
    }

    /// All rows of one relation (barrier-free read).
    pub fn rows(&mut self, relation: &str) -> Result<Vec<Vec<String>>, ClientError> {
        Ok(self.query(relation, &[], None)?.rows)
    }

    /// Natural join over named relations, as rendered rows.
    ///
    /// Server-side semantics are those of `ids_api::Database::join`: a
    /// repeated relation is read exactly once (a self-join joins one
    /// cut with itself), acyclic relation sets run through the semijoin
    /// planner, and output columns follow the listed relations'
    /// declared layouts.  An empty list is the typed
    /// [`WireError::EmptyJoin`]; an unknown name is
    /// [`WireError::UnknownRelation`].
    pub fn join<S: Into<String>>(
        &mut self,
        relations: impl IntoIterator<Item = S>,
    ) -> Result<RowSet, ClientError> {
        let req = Request::Join {
            relations: relations.into_iter().map(Into::into).collect(),
        };
        match self.call(req)? {
            Reply::Rows { columns, rows } => Ok(RowSet { columns, rows }),
            other => Self::protocol_err(other, "Rows"),
        }
    }

    /// Barrier-free row count of one relation.
    pub fn count(&mut self, relation: &str) -> Result<u64, ClientError> {
        match self.call(Request::Count {
            relation: relation.to_string(),
        })? {
            Reply::Count(n) => Ok(n),
            other => Self::protocol_err(other, "Count"),
        }
    }

    /// The cross-relation barrier: per-relation counts from one
    /// consistent cut.
    pub fn snapshot(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.call(Request::Snapshot)? {
            Reply::Snapshot { counts } => Ok(counts),
            other => Self::protocol_err(other, "Snapshot"),
        }
    }

    /// Checkpoints a durable server-side database.
    pub fn checkpoint(&mut self) -> Result<(), ClientError> {
        match self.call(Request::Checkpoint)? {
            Reply::Checkpointed => Ok(()),
            other => Self::protocol_err(other, "Checkpointed"),
        }
    }

    /// Applies one `ALTER`-class schema transition to the running
    /// server — add/drop a relation or a functional dependency — and
    /// returns the WAL generation the transition committed at.
    ///
    /// The server re-decides independence incrementally before touching
    /// anything: a dependent target schema, or a new FD the existing
    /// data violates, is refused with the typed
    /// [`WireError::AlterRejected`] (under [`ClientError::Server`])
    /// carrying the machine-checkable witness, and the current schema
    /// keeps serving.  On success the handshake catalog held by *this*
    /// client is refreshed via a re-Hello, so [`Client::catalog`] stays
    /// truthful.
    pub fn alter(&mut self, op: AlterOp) -> Result<u64, ClientError> {
        let generation = match self.call(Request::Alter { op })? {
            Reply::Altered { generation } => generation,
            other => return Self::protocol_err(other, "Altered"),
        };
        // A repeated Hello is answered idempotently with the current
        // catalog — the cheapest way to keep `catalog()` in sync.
        match self.call(Request::Hello {
            version: WIRE_VERSION,
        })? {
            Reply::Hello { relations, .. } => self.catalog = relations,
            other => return Self::protocol_err(other, "Hello"),
        }
        Ok(generation)
    }

    /// Turns this connection into a **replication stream**: from here on
    /// the server ships [`FrameBatch`]es of verbatim log-frame payloads
    /// and nothing else, so the `Client` is consumed.
    ///
    /// `cursors[i] = (gen, seq)` is the follower's position in relation
    /// `i`'s log (one entry per schema relation, `(0, 0)` for "from the
    /// start of generation 0").  The server resumes each stream exactly
    /// after those positions; the records carry the names they use.
    pub fn subscribe(mut self, cursors: Vec<(u64, u64)>) -> Result<Subscription, ClientError> {
        // `names` is retired: the server ignores it.
        let id = self.send(Request::Subscribe { cursors, names: 0 })?;
        Ok(Subscription { client: self, id })
    }
}

impl Drop for Client {
    /// Best-effort: requests queued by [`Client::send`] still reach the
    /// wire when the client is dropped without a `recv`.  Non-blocking,
    /// so dropping a client whose peer has stalled cannot hang.
    fn drop(&mut self) {
        if !self.out.is_empty() && self.write_half.set_nonblocking(true).is_ok() {
            let _ = self.write_half.write(&self.out);
        }
    }
}

/// One shipped batch from a [`Subscription`]: frame payloads of one
/// relation's log, exactly as the primary stored them on disk — the
/// names the records use included.
///
/// `tip` is the last durable sequence number the primary's shipper had
/// seen when it sent the batch — the follower's lag is `tip` minus what
/// it has applied.  An **empty** batch is the server's idle heartbeat
/// (labelled [`ids_server::wire::POOL_STREAM`]): every stream was fully
/// shipped when it was sent, so a follower that has drained the
/// connection up to it is caught up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameBatch {
    /// Relation index the frames belong to (`POOL_STREAM` on the
    /// heartbeat).
    pub relation: u16,
    /// Generation of the segment the frames came from (0 on the
    /// heartbeat).
    pub gen: u64,
    /// The shipper's last durable sequence number for this stream.
    pub tip: u64,
    /// Verbatim on-disk frame payloads, in log order.
    pub frames: Vec<Vec<u8>>,
}

/// One message off a replication stream: a shipped [`FrameBatch`], or
/// the answer to a [`Subscription::ping`] barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// A batch of shipped log frames (possibly the idle heartbeat).
    Frames(FrameBatch),
    /// The barrier answer to the ping with this request id.  The server
    /// answers a ping only *after* a full poll round that started after
    /// the ping arrived, so every record durable before the ping was
    /// sent has already been delivered as `Frames` ahead of this event.
    Pong {
        /// Request id returned by the [`Subscription::ping`] call.
        id: u64,
    },
    /// A schema transition committed on the primary: the generation
    /// manifest, shipped verbatim.  Guaranteed to arrive **before** any
    /// `Frames` of a generation ≥ its own, so a follower that applies
    /// it on receipt interprets every subsequent frame under the schema
    /// it was written against.
    Manifest {
        /// The WAL generation the transition committed at.
        generation: u64,
        /// The manifest's on-disk payload bytes (decode with
        /// `ids_wal::Manifest::decode`).
        payload: Vec<u8>,
    },
}

/// The receiving end of a replication stream — see [`Client::subscribe`].
pub struct Subscription {
    client: Client,
    id: u64,
}

impl Subscription {
    /// Blocks until the next [`StreamEvent`] arrives.  The server
    /// heartbeats when idle, so this returns regularly even with no
    /// write traffic; a typed server error (corrupt primary log, cursor
    /// behind pruned segments, ...) surfaces as [`ClientError::Server`].
    pub fn next_event(&mut self) -> Result<StreamEvent, ClientError> {
        match self.client.recv_any()? {
            // Frames always echo the subscribe id — anything else is a
            // stream the server was never asked for.
            (
                id,
                Reply::Frames {
                    relation,
                    gen,
                    tip,
                    frames,
                },
            ) if id == self.id => Ok(StreamEvent::Frames(FrameBatch {
                relation,
                gen,
                tip,
                frames,
            })),
            (
                id,
                Reply::Manifest {
                    generation,
                    payload,
                },
            ) if id == self.id => Ok(StreamEvent::Manifest {
                generation,
                payload,
            }),
            (id, Reply::Pong) => Ok(StreamEvent::Pong { id }),
            (_, Reply::Error(e)) => Err(ClientError::Server(e)),
            (_, other) => Client::protocol_err(other, "Frames or Pong"),
        }
    }

    /// Blocks until the next [`FrameBatch`] arrives, discarding any
    /// barrier answers on the way (use [`Subscription::next_event`] to
    /// see both).  **Caution:** this also discards
    /// [`StreamEvent::Manifest`] transitions — a follower of a primary
    /// that may alter its schema must consume via
    /// [`Subscription::next_event`] and apply manifests in order.
    pub fn next_frames(&mut self) -> Result<FrameBatch, ClientError> {
        loop {
            if let StreamEvent::Frames(batch) = self.next_event()? {
                return Ok(batch);
            }
        }
    }

    /// Queues a sync-barrier ping on the stream without waiting, returning
    /// its request id; it is written when [`Subscription::next_event`]
    /// next has to wait.  Keep calling [`Subscription::next_event`]
    /// (applying the `Frames` it yields) until the matching
    /// [`StreamEvent::Pong`] arrives: at that point the follower holds
    /// everything that was durable on the primary when the ping was
    /// sent.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        self.client.send(Request::Ping)
    }
}

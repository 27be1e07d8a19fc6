//! # ids-store
//!
//! A sharded, concurrent maintenance store that turns schema independence
//! into parallelism.
//!
//! Theorem 3 of Graham & Yannakakis proves that on an **independent**
//! schema every insert is validated by probing only the touched relation's
//! enforcement cover `Fi`.  Read as a systems statement, that is a
//! *soundness proof for sharding*: relations share no enforcement state,
//! so each one can live on its own shard/thread with **zero cross-shard
//! coordination** — no locks, no two-phase commit, no validation traffic
//! between shards.  A dependent schema offers no such decomposition (a
//! single insert may need the whole-state chase, Theorem 1), which is why
//! [`Store::open`] refuses non-independent inputs with a typed error
//! carrying the analysis's counterexample.
//!
//! ## Architecture
//!
//! ```text
//!            clients (any number of threads, &Store is Sync)
//!                │ insert / remove / apply_batch / snapshot
//!                ▼
//!        ┌─ route by relation ─┐        commands over std::sync::mpsc
//!        ▼                     ▼
//!   ┌─────────┐           ┌─────────┐
//!   │ shard 0 │    ...    │ shard S │   one OS thread per shard
//!   │ worker  │           │ worker  │
//!   └─────────┘           └─────────┘
//!     owns R0,R2,…          owns R1,R3,…   (round-robin assignment)
//!     tuples + Fi           tuples + Fi
//!     hash indexes          hash indexes
//! ```
//!
//! Each worker owns its relations' tuples plus one
//! [`ids_core::RelationShard`] per relation — the same probe/commit
//! machinery the sequential [`ids_core::LocalMaintainer`] drives, which is
//! exactly why differential tests can replay any trace sequentially and
//! demand identical outcomes.  [`Store::snapshot`] performs a barrier
//! across shards (every shard answers after draining the commands sent
//! before it) and reassembles a consistent [`DatabaseState`];
//! independence guarantees that state is **globally** satisfying, not just
//! locally (`LSAT = WSAT`).
//!
//! ## Consistency model
//!
//! Per relation, operations are applied in submission order (each shard's
//! command channel is FIFO).  Across relations there is no ordering — and
//! independence is what makes that safe: every per-relation-order-
//! preserving interleaving of a trace is a serialization the sequential
//! engines would also accept, with the same outcomes and final state.
//!
//! Two read paths follow from that model:
//!
//! * [`Store::snapshot`] — a **barrier**: every shard pauses to answer,
//!   the result is one globally-satisfying state, cross-relation
//!   consistent.  Cost scales with the whole database and stalls all
//!   shards for the copy.
//! * [`Store::read`] — **barrier-free**, and the *only* per-relation read:
//!   a [`ReadPlan`] (predicate + shape of the answer) travels to the owning
//!   shard, which evaluates it where the tuples live and ships back only the
//!   tuples, distinct join keys, or count the plan asked for; the other
//!   shards never notice.  Per relation it is exactly as fresh as a
//!   snapshot (FIFO read-your-writes), and because independent relations
//!   share no enforcement state, the answer is one a barrier snapshot could
//!   also have produced.  Two reads of different relations, however, may
//!   observe cuts no single snapshot contains — that is the (only)
//!   consistency you trade for not stopping the world.
//!
//! ## Durability
//!
//! [`Store::open_durable`] adds a write-ahead log (`ids-wal`) *inside*
//! each shard: Theorem 3 makes every accepted operation a local decision
//! of one relation's cover `Fi`, so each relation gets its own
//! append-only log with its own sequence numbers and **no ordering
//! between logs** — the shard appends its acknowledged ops, group-fsyncs
//! them per its [`SyncPolicy`], and never coordinates with any other
//! shard.  [`Store::checkpoint`] rotates every log onto a fresh
//! generation, writes one snapshot, and truncates the covered
//! generations.  Reopening the same path replays snapshot + log tails
//! through the same [`RelationShard`] probe/commit machinery the live
//! store runs — replay is per-relation, embarrassingly parallel in
//! principle, and doubles as an integrity check (every logged op must
//! re-accept).  A log written under a different schema or FD set is
//! refused with a typed [`WalError::SchemaMismatch`].

#![warn(missing_docs)]

use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use ids_core::{InsertOutcome, MaintenanceError, NotIndependentReason, RelationShard, Witness};
use ids_deps::{Fd, FdSet};
use ids_obs::{Counter, Event, EventLog, Gauge, LatencyHistogram, MetricsSnapshot, Registry};
use ids_relational::{
    AttrId, DatabaseSchema, DatabaseState, Predicate, ReadPlan, ReadReply, Relation,
    RelationalError, SchemeId, Tuple, Value,
};
use ids_wal::{Manifest, WalDir, WalError, WalMetrics, WalOp, WalWriter};

pub use ids_wal::SyncPolicy;

/// One operation of a store workload, routed to its relation's shard.
#[derive(Clone, Debug)]
pub enum StoreOp {
    /// Insert a tuple (scheme order) into a relation.
    Insert {
        /// Target relation.
        scheme: SchemeId,
        /// Tuple in scheme order.
        tuple: Vec<Value>,
    },
    /// Remove a tuple from a relation (always satisfaction-preserving).
    Remove {
        /// Target relation.
        scheme: SchemeId,
        /// Tuple in scheme order.
        tuple: Vec<Value>,
    },
}

impl StoreOp {
    /// The relation the operation touches.
    pub fn scheme(&self) -> SchemeId {
        match self {
            StoreOp::Insert { scheme, .. } | StoreOp::Remove { scheme, .. } => *scheme,
        }
    }
}

/// Per-operation result of [`Store::apply_batch`], aligned with the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// Outcome of an insert.
    Insert(InsertOutcome),
    /// Outcome of a remove: `true` when the tuple was present.
    Remove(bool),
}

/// Errors of the concurrent store.
#[derive(Debug)]
pub enum StoreError {
    /// The schema is not independent: sharded enforcement would be
    /// unsound.  Carries the decision procedure's diagnosis and its
    /// machine-checkable `LSAT ∖ WSAT` counterexample.
    NotIndependent {
        /// Which condition of the decision procedure failed.
        reason: NotIndependentReason,
        /// A locally-satisfying, globally-unsatisfying state.
        witness: Box<Witness>,
    },
    /// The initial state handed to [`Store::open_with`] violates a
    /// relation's enforcement cover.
    InvalidBaseState {
        /// The offending relation.
        scheme: SchemeId,
        /// The violated FD of its cover `Fi`.
        violated: Fd,
    },
    /// An operation referenced a scheme outside the schema.
    UnknownScheme(SchemeId),
    /// An operation's tuple arity does not match its scheme.
    Relational(RelationalError),
    /// A shard worker is gone (panicked or already shut down) and left
    /// no recorded reason behind.
    Disconnected,
    /// A shard worker hit a durability failure (WAL append, sync or
    /// rotate), refused to acknowledge what it could not log, and shut
    /// itself down.  The first failure's reason is preserved in a shared
    /// poison cell and reported — verbatim — by every later operation,
    /// instead of being lost to a worker panic on stderr.
    ShardPoisoned {
        /// Rendered reason of the first durability failure.
        reason: String,
    },
    /// A durability-layer failure (I/O, corruption, or a log written
    /// under a different schema/FD set).
    Wal(WalError),
    /// [`Store::checkpoint`] or [`Store::apply_transition`] was called
    /// on a store opened without a write-ahead log.
    NotDurable,
    /// An [`Store::apply_transition`] backfill found existing tuples
    /// that violate a functional dependency the transition would start
    /// enforcing.  The current schema keeps serving; nothing durable
    /// changed.
    BackfillViolation {
        /// The relation (under the **current** schema) whose data
        /// violates the new cover.
        scheme: SchemeId,
        /// The violated FD of the would-be enforcement cover.
        violated: Fd,
        /// A violating pair of tuples (same LHS projection, different
        /// RHS), shipped back as the machine-checkable witness.
        witness: Vec<Tuple>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotIndependent { reason, .. } => write!(
                f,
                "schema is not independent (sharded enforcement unsound): {reason:?}"
            ),
            Self::InvalidBaseState { scheme, violated } => write!(
                f,
                "initial state violates the enforcement cover of {scheme:?} (FD {violated:?})"
            ),
            Self::UnknownScheme(id) => write!(f, "operation references unknown scheme {id:?}"),
            Self::Relational(e) => write!(f, "{e}"),
            Self::Disconnected => write!(f, "shard worker disconnected"),
            Self::ShardPoisoned { reason } => {
                write!(f, "shard poisoned by a durability failure: {reason}")
            }
            Self::Wal(e) => write!(f, "{e}"),
            Self::NotDurable => write!(f, "store was opened without a write-ahead log"),
            Self::BackfillViolation {
                scheme, violated, ..
            } => write!(
                f,
                "existing tuples of {scheme:?} violate {violated:?}; transition refused"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<RelationalError> for StoreError {
    fn from(e: RelationalError) -> Self {
        Self::Relational(e)
    }
}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

/// Configuration of [`Store::open_with`].
#[derive(Debug, Default)]
pub struct StoreConfig {
    /// Number of shard worker threads.  Clamped to `1..=schema.len()`
    /// (more shards than relations cannot help: a relation is never
    /// split).  `0` (the default) picks `min(schema.len(), available
    /// parallelism)`.
    pub shards: usize,
    /// Initial state to load; every relation must satisfy its cover.
    pub initial_state: Option<DatabaseState>,
    /// Ordered (BTree) secondary indexes to build, one `(relation,
    /// column)` pair each — the shard-side structures behind range, set-
    /// membership and non-key equality pushdown.  Maintained on the same
    /// probe→commit write path as the FD hash indexes; a pair naming a
    /// foreign scheme or column is a typed error at open.
    pub ordered_indexes: Vec<(SchemeId, AttrId)>,
}

/// Configuration of [`Store::open_durable_with`].
#[derive(Debug, Default)]
pub struct DurableConfig {
    /// The in-memory store configuration.  `initial_state` only applies
    /// when the directory is created — or re-opened with **no history**
    /// (no snapshot, no records), which makes a creation that crashed
    /// half-way repeatable.  Reopening a log that has real history with
    /// an initial state is a typed error (the log *is* the state).
    pub store: StoreConfig,
    /// When acknowledged records reach stable storage.
    pub sync: SyncPolicy,
    /// Opaque application bytes stored in the manifest at creation
    /// (the `ids-api` layer keeps its column layouts here).
    pub app: Vec<u8>,
    /// Fault injection for poisoning tests (not part of the stable API):
    /// every relation's log writer fails its appends after this many
    /// successful ones, as if the disk went bad mid-workload.
    #[doc(hidden)]
    pub fail_appends_after: Option<u64>,
}

/// Commands a shard worker processes in FIFO order.
enum Command {
    /// Apply a run of operations; reply with per-op outcomes tagged by the
    /// caller's indexes.
    Apply {
        ops: Vec<(u32, StoreOp)>,
        reply: Sender<Vec<(u32, OpOutcome)>>,
    },
    /// Answer a [`ReadPlan`] against one owned relation — the one
    /// barrier-free read.  The shard evaluates the predicate where the
    /// tuples live (see [`RelationShard::read`]) and only the plan's shape
    /// of the matches crosses the channel.  Only the owning shard ever
    /// sees this command.
    Read {
        scheme: SchemeId,
        plan: ReadPlan,
        reply: Sender<ReadReply>,
    },
    /// Reply with a clone of every owned relation — the shard's part of a
    /// consistent snapshot barrier.
    Snapshot {
        reply: Sender<Vec<(SchemeId, Relation)>>,
    },
    /// Seal every owned relation's current log segment and open a fresh
    /// one at `new_gen`; reply with the relation clones and the sealed
    /// sequence numbers — the shard's part of a checkpoint.  Only sent
    /// to durable stores.
    Rotate {
        new_gen: u64,
        reply: Sender<Vec<(SchemeId, Relation, u64)>>,
    },
    /// Re-validate one owned relation under `cover` and, on success,
    /// install it as the relation's enforcement cover — the **backfill**
    /// phase of a schema transition.  During an alter the cover is the
    /// union of the old and new covers, so traffic accepted between the
    /// backfill and the transition satisfies both schemas; during a
    /// rollback it is the exact old cover.  On violation nothing is
    /// installed and the reply carries the violated FD plus a violating
    /// pair of tuples.  Only the owning shard ever sees this command.
    Prepare {
        scheme: SchemeId,
        cover: FdSet,
        reply: Sender<Result<u64, (Fd, Vec<Tuple>)>>,
    },
    /// Switch this worker onto a new schema generation: dropped slots
    /// are released (their writers sync on drop), surviving slots are
    /// retargeted to their new [`SchemeId`] (same attribute set — the
    /// universe is append-only), rebuilt when their exact enforcement
    /// cover changed, and their logs rotated onto `new_gen` under the
    /// new scheme index.  Sent to every pre-existing worker while the
    /// router holds the topology write lock, so channel FIFO order
    /// cleanly splits old-schema from new-schema commands.
    Transition {
        new_gen: u64,
        schema: Arc<DatabaseSchema>,
        enforcement: Arc<Vec<FdSet>>,
        /// Old scheme index → new id; `None` means dropped.
        remap: Arc<Vec<Option<SchemeId>>>,
    },
}

/// One relation a worker owns: its enforcement shard, its tuples, and —
/// on a durable store — its write-ahead log writer.
struct Slot {
    id: SchemeId,
    shard: RelationShard,
    rel: Relation,
    wal: Option<WalWriter>,
}

/// Metric handles of one shard, interned in the store's registry under
/// `store.shard{i}.*` names.  Per Theorem 3's locality argument, each
/// shard records only into its **own** family — telemetry never makes
/// two shards share a cache line, just as enforcement never makes them
/// share state.
#[derive(Debug)]
struct ShardMetrics {
    /// Inserts committed (`InsertOutcome::Accepted`).
    accepted: Arc<Counter>,
    /// Inserts that found the tuple already present.
    duplicate: Arc<Counter>,
    /// Inserts refused by the enforcement cover probe.
    rejected: Arc<Counter>,
    /// Removes of a present tuple.
    removed: Arc<Counter>,
    /// Commands sent to this shard and not yet picked up by its worker.
    queue_depth: Arc<Gauge>,
    /// Wall-clock latency of each `Apply` batch (probe + commit + WAL
    /// append + group fsync), recorded once per batch.
    apply_ns: Arc<LatencyHistogram>,
}

impl ShardMetrics {
    fn new(registry: &Registry, shard: usize) -> Self {
        let name = |what: &str| format!("store.shard{shard}.{what}");
        ShardMetrics {
            accepted: registry.counter(&name("accepted")),
            duplicate: registry.counter(&name("duplicate")),
            rejected: registry.counter(&name("rejected")),
            removed: registry.counter(&name("removed")),
            queue_depth: registry.gauge(&name("queue_depth")),
            apply_ns: registry.histogram(&name("apply_ns")),
        }
    }
}

/// The state a worker thread owns: its relations and their shards.
struct Worker {
    /// This worker's shard index (for poison events).
    shard: usize,
    slots: Vec<Slot>,
    /// scheme index → slot index (dense, `None` for foreign schemes).
    slot_of: Vec<Option<usize>>,
    /// Sync cadence for the slots' logs (irrelevant without logs).
    sync: SyncPolicy,
    /// Shared with the [`Store`] front-end: the first durability failure
    /// of *any* shard lands here, and every later caller-side channel
    /// failure is upgraded to [`StoreError::ShardPoisoned`] with it.
    poison: Arc<OnceLock<String>>,
    /// This shard's metric family (shared with the front-end, which
    /// increments `queue_depth` on send).
    metrics: Arc<ShardMetrics>,
    /// The store-wide event ring (poison events land here).
    events: Arc<EventLog>,
}

impl Worker {
    fn run(mut self, rx: Receiver<Command>) -> Vec<(SchemeId, Relation)> {
        // Scratch: which slots the current Apply touched with logged ops.
        let mut dirty: Vec<usize> = Vec::new();
        while let Ok(cmd) = rx.recv() {
            self.metrics.queue_depth.dec();
            if self.step(cmd, &mut dirty).is_err() {
                // A durability failure: the reason is already in the
                // poison cell (recorded *before* the un-acked reply
                // sender dropped, so no caller can observe the hangup
                // without the reason being readable).  Stop serving —
                // queued and future commands surface `ShardPoisoned`.
                return self.slots.into_iter().map(|s| (s.id, s.rel)).collect();
            }
        }
        // All senders dropped: shutdown.  Dropping a writer syncs its
        // tail (best effort); hand the relations back.
        self.slots.into_iter().map(|s| (s.id, s.rel)).collect()
    }

    /// Processes one command; `Err` means a WAL failure was recorded in
    /// the poison cell and the worker must stop **without replying** to
    /// the failing command (an op that could not be logged is not
    /// acknowledged).
    fn step(&mut self, cmd: Command, dirty: &mut Vec<usize>) -> Result<(), WalError> {
        match cmd {
            Command::Apply { ops, reply } => {
                // Instrumentation is amortized over the batch: the
                // per-op tallies are plain locals, flushed with four
                // relaxed adds (plus one histogram sample) per batch —
                // the hot loop itself touches no atomics.
                let start = ids_obs::recording().then(Instant::now);
                let (mut accepted, mut duplicate, mut rejected, mut removed) =
                    (0u64, 0u64, 0u64, 0u64);
                let mut out = Vec::with_capacity(ops.len());
                dirty.clear();
                for (idx, op) in ops {
                    let si = self.slot_of[op.scheme().index()]
                        .expect("router sent an op for a foreign scheme");
                    let slot = &mut self.slots[si];
                    let outcome = match op {
                        StoreOp::Insert { tuple, .. } => {
                            // Clone for the log only when there is
                            // one: the in-memory fast path stays
                            // allocation-free per op.
                            let to_log = slot.wal.is_some().then(|| tuple.clone());
                            let outcome = slot
                                .shard
                                .insert(&mut slot.rel, tuple)
                                .expect("arity validated by the router");
                            match outcome {
                                InsertOutcome::Accepted => {
                                    accepted += 1;
                                    if let Some(t) = to_log {
                                        slot.log(WalOp::Insert(t), dirty, si).map_err(|e| {
                                            record_poison(&self.poison, &self.events, self.shard, e)
                                        })?;
                                    }
                                }
                                InsertOutcome::Duplicate => duplicate += 1,
                                InsertOutcome::Rejected { .. } => rejected += 1,
                            }
                            OpOutcome::Insert(outcome)
                        }
                        StoreOp::Remove { tuple, .. } => {
                            let present = slot
                                .shard
                                .remove(&mut slot.rel, &tuple)
                                .expect("arity validated by the router");
                            if present {
                                removed += 1;
                                slot.log(WalOp::Remove(tuple), dirty, si).map_err(|e| {
                                    record_poison(&self.poison, &self.events, self.shard, e)
                                })?;
                            }
                            OpOutcome::Remove(present)
                        }
                    };
                    out.push((idx, outcome));
                }
                // Group fsync: one pass over the touched logs per
                // batch, before anything is acknowledged.
                for &si in dirty.iter() {
                    if let Some(w) = &mut self.slots[si].wal {
                        w.maybe_sync(self.sync).map_err(|e| {
                            record_poison(&self.poison, &self.events, self.shard, e)
                        })?;
                    }
                }
                let m = &self.metrics;
                m.accepted.add(accepted);
                m.duplicate.add(duplicate);
                m.rejected.add(rejected);
                m.removed.add(removed);
                if let Some(start) = start {
                    m.apply_ns.record(start.elapsed());
                }
                // A client that hung up no longer needs the reply.
                let _ = reply.send(out);
            }
            Command::Read {
                scheme,
                plan,
                reply,
            } => {
                let si =
                    self.slot_of[scheme.index()].expect("router sent a read for a foreign scheme");
                let slot = &self.slots[si];
                let answer = slot
                    .shard
                    .read(&slot.rel, &plan)
                    .expect("plan validated by the router");
                let _ = reply.send(answer);
            }
            Command::Snapshot { reply } => {
                let _ = reply.send(self.slots.iter().map(|s| (s.id, s.rel.clone())).collect());
            }
            Command::Rotate { new_gen, reply } => {
                let mut out = Vec::with_capacity(self.slots.len());
                for slot in &mut self.slots {
                    let wal = slot
                        .wal
                        .as_mut()
                        .expect("rotate sent to a store without logs");
                    let sealed = wal
                        .rotate(new_gen)
                        .map_err(|e| record_poison(&self.poison, &self.events, self.shard, e))?;
                    out.push((slot.id, slot.rel.clone(), sealed));
                }
                let _ = reply.send(out);
            }
            Command::Prepare {
                scheme,
                cover,
                reply,
            } => {
                let si = self.slot_of[scheme.index()]
                    .expect("router sent a prepare for a foreign scheme");
                let slot = &mut self.slots[si];
                let schema = slot.shard.schema().clone();
                match RelationShard::with_relation(&schema, scheme, cover, &slot.rel) {
                    Ok(mut shard) => {
                        // The rebuilt shard revalidated the relation
                        // under the candidate cover; carry the ordered
                        // secondary indexes over before installing it.
                        let ordered: Vec<AttrId> = slot.shard.ordered_columns().collect();
                        for attr in ordered {
                            shard
                                .add_ordered_index(attr, &slot.rel)
                                .expect("an existing ordered index re-adds cleanly");
                        }
                        slot.shard = shard;
                        let _ = reply.send(Ok(slot.rel.len() as u64));
                    }
                    Err(MaintenanceError::BaseStateViolation { violated, .. }) => {
                        let witness = violating_pair(&schema, scheme, &slot.rel, violated);
                        let _ = reply.send(Err((violated, witness)));
                    }
                    Err(e) => unreachable!("with_relation cannot fail with {e}"),
                }
            }
            Command::Transition {
                new_gen,
                schema,
                enforcement,
                remap,
            } => {
                let slots = std::mem::take(&mut self.slots);
                for mut slot in slots {
                    let Some(nid) = remap[slot.id.index()] else {
                        // Dropped relation: releasing the slot drops its
                        // writer, which syncs the tail.  Its segments
                        // stay on disk; recovery skips them by name.
                        continue;
                    };
                    slot.shard
                        .retarget(&schema, nid)
                        .expect("a surviving relation keeps its attribute set");
                    if !slot.shard.enforcement().same_fds(&enforcement[nid.index()]) {
                        let mut shard = RelationShard::with_relation(
                            &schema,
                            nid,
                            enforcement[nid.index()].clone(),
                            &slot.rel,
                        )
                        .expect("the transition cover was union-validated by Prepare");
                        let ordered: Vec<AttrId> = slot.shard.ordered_columns().collect();
                        for attr in ordered {
                            shard
                                .add_ordered_index(attr, &slot.rel)
                                .expect("an existing ordered index re-adds cleanly");
                        }
                        slot.shard = shard;
                    }
                    if let Some(w) = slot.wal.as_mut() {
                        // Rotate onto the new generation under the new
                        // scheme index, so every post-transition record
                        // lands in a segment its era's manifest governs.
                        w.rotate_as(nid.index() as u16, new_gen).map_err(|e| {
                            record_poison(&self.poison, &self.events, self.shard, e)
                        })?;
                    }
                    slot.id = nid;
                    self.slots.push(slot);
                }
                self.slot_of = vec![None; schema.len()];
                for (i, slot) in self.slots.iter().enumerate() {
                    self.slot_of[slot.id.index()] = Some(i);
                }
            }
        }
        Ok(())
    }
}

/// Finds a pair of tuples witnessing a relation's violation of `fd`:
/// equal on the FD's left-hand side, different on its right — the
/// concrete evidence shipped inside [`StoreError::BackfillViolation`].
fn violating_pair(schema: &DatabaseSchema, id: SchemeId, rel: &Relation, fd: Fd) -> Vec<Tuple> {
    let attrs = schema.attrs(id);
    let lhs: Vec<usize> = fd.lhs.iter().map(|a| attrs.rank(a)).collect();
    let rhs: Vec<usize> = fd.rhs.iter().map(|a| attrs.rank(a)).collect();
    let mut seen: std::collections::HashMap<Vec<Value>, &Tuple> = std::collections::HashMap::new();
    for t in rel.iter() {
        let key: Vec<Value> = lhs.iter().map(|&p| t[p]).collect();
        match seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let prev = *e.get();
                if rhs.iter().any(|&p| prev[p] != t[p]) {
                    return vec![prev.clone(), t.clone()];
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(t);
            }
        }
    }
    Vec::new()
}

/// Records a durability failure in the shared poison cell (first error
/// wins) *before* the failing command's reply sender is dropped, so no
/// caller can observe the hangup without the reason being readable.  The
/// first failure is also published as an [`Event::ShardPoisoned`] in the
/// store's event ring, so a stats poll discovers the reason without
/// issuing a (failing) operation.  A free function so worker closures
/// borrow only these fields, not the whole worker.
fn record_poison(
    cell: &OnceLock<String>,
    events: &EventLog,
    shard: usize,
    e: WalError,
) -> WalError {
    let reason = e.to_string();
    if cell.set(reason.clone()).is_ok() {
        events.record(Event::ShardPoisoned {
            shard: shard as u64,
            reason,
        });
    }
    e
}

impl Slot {
    /// Appends an effective op to the slot's log (no-op without one)
    /// and marks the slot dirty for the end-of-batch sync pass.
    fn log(&mut self, op: WalOp, dirty: &mut Vec<usize>, si: usize) -> Result<(), WalError> {
        if let Some(w) = &mut self.wal {
            // An op the shard cannot log must not be acknowledged: the
            // caller (the worker loop) records the reason in the poison
            // cell and shuts the shard down without replying.
            w.append(op)?;
            if !dirty.contains(&si) {
                dirty.push(si);
            }
        }
        Ok(())
    }
}

/// The concurrent maintenance store: one worker thread per shard, each
/// exclusively owning a subset of the relations.
///
/// `&Store` is `Send + Sync`: any number of client threads may call
/// [`Store::insert`] / [`Store::apply_batch`] / [`Store::snapshot`]
/// concurrently.  See the crate docs for the consistency model.
#[derive(Debug)]
pub struct Store {
    /// The routing state an operation consults: schema, covers, shard
    /// assignment, command channels, per-shard metric handles.  Behind
    /// a read-write lock so [`Store::apply_transition`] can swap the
    /// whole set atomically while normal traffic takes cheap,
    /// uncontended read guards.
    topology: RwLock<Topology>,
    handles: Mutex<Vec<WorkerHandle>>,
    /// Shared with every worker: the first durability failure's reason.
    /// Set exactly once, read by [`Store::fail`] to upgrade an opaque
    /// channel hangup into [`StoreError::ShardPoisoned`].
    poison: Arc<OnceLock<String>>,
    /// Present on durable stores: the directory handle plus the current
    /// segment generation, serialized under a mutex so checkpoints and
    /// schema transitions cannot interleave.
    durability: Option<Durability>,
    /// The store's observability surface: the registry every layer's
    /// metric families are interned in.
    obs: StoreObs,
}

/// The hot routing state of a [`Store`], swapped wholesale by a schema
/// transition.  Everything an operation needs between "caller thread"
/// and "owning shard's channel" lives here, so one read guard answers
/// every routing question consistently.
#[derive(Debug)]
struct Topology {
    schema: Arc<DatabaseSchema>,
    enforcement: Arc<Vec<FdSet>>,
    /// scheme index → shard index.
    assignment: Vec<usize>,
    senders: Vec<Sender<Command>>,
    /// Per-shard metric handles, indexed by shard (queue-depth gauges
    /// the front-end touches on send).
    shard: Vec<Arc<ShardMetrics>>,
}

/// The observability half of a [`Store`].
#[derive(Debug)]
struct StoreObs {
    registry: Arc<Registry>,
}

/// The durable half of a [`Store`].
#[derive(Debug)]
struct Durability {
    dir: WalDir,
    /// Generation the live segments are on; advanced by checkpoints and
    /// schema transitions, which serialize on this mutex.
    gen: Mutex<u64>,
    /// Sync cadence, kept so transition-spawned workers inherit it.
    sync: SyncPolicy,
    /// Fault injection carried to writers created after open.
    fail_appends_after: Option<u64>,
    /// The store-wide WAL metric family, attached to every writer —
    /// including those created for relations added by a transition.
    wal_metrics: Option<WalMetrics>,
}

impl Store {
    /// Opens a store over `schema`, enforcing `fds ∪ {*D}`, with one
    /// shard per relation (capped by available parallelism), starting
    /// from the empty state.
    ///
    /// Runs the full independence analysis first and refuses
    /// non-independent schemas with [`StoreError::NotIndependent`].
    pub fn open(schema: &DatabaseSchema, fds: &FdSet) -> Result<Self, StoreError> {
        Self::open_with(schema, fds, StoreConfig::default())
    }

    /// Opens a store with an explicit shard count and/or initial state.
    pub fn open_with(
        schema: &DatabaseSchema,
        fds: &FdSet,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        Self::from_analysis(schema, &ids_core::analyze(schema, fds), config)
    }

    /// Opens a store from an already-computed independence analysis,
    /// without re-running the decision procedure — the path the `ids-api`
    /// facade takes, where the builder analyzed the schema exactly once.
    pub fn from_analysis(
        schema: &DatabaseSchema,
        analysis: &ids_core::IndependenceAnalysis,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let enforcement = extract_enforcement(schema, analysis)?;
        // Tear the initial state into per-scheme relations.  Roundtrip
        // through `from_relations` to revalidate the full shape — the
        // state may come from a different schema handle, and a mismatched
        // relation must be a typed error, not a worker panic.
        let relations: Vec<Relation> = match config.initial_state {
            Some(state) => {
                DatabaseState::from_relations(schema, state.into_relations())?.into_relations()
            }
            None => schema
                .ids()
                .map(|id| Relation::new(schema.attrs(id)))
                .collect(),
        };

        // Build each relation's shard (indexing + validating the preload).
        for &(sid, _) in &config.ordered_indexes {
            if schema.get_scheme(sid).is_none() {
                return Err(StoreError::UnknownScheme(sid));
            }
        }
        let mut parts = Vec::with_capacity(schema.len());
        for (id, rel) in schema.ids().zip(relations) {
            let fi = enforcement[id.index()].clone();
            let mut shard =
                RelationShard::with_relation(schema, id, fi, &rel).map_err(base_state_error)?;
            for &(sid, attr) in &config.ordered_indexes {
                if sid == id {
                    shard.add_ordered_index(attr, &rel).map_err(index_error)?;
                }
            }
            parts.push(Slot {
                id,
                shard,
                rel,
                wal: None,
            });
        }
        Ok(Self::spawn(
            schema,
            enforcement,
            parts,
            config.shards,
            SyncPolicy::Never,
            None,
        ))
    }

    /// Opens a durable store at `path` with the default configuration:
    /// creates the write-ahead log directory on first open, recovers
    /// (snapshot + log-tail replay through the normal probe/commit
    /// path) on every later open.  See the crate docs' *Durability*
    /// section.
    pub fn open_durable(
        path: impl AsRef<Path>,
        schema: &DatabaseSchema,
        fds: &FdSet,
    ) -> Result<Self, StoreError> {
        Self::open_durable_with(path, schema, fds, DurableConfig::default())
    }

    /// Opens a durable store with an explicit configuration.
    pub fn open_durable_with(
        path: impl AsRef<Path>,
        schema: &DatabaseSchema,
        fds: &FdSet,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        Self::open_durable_from_analysis(path, schema, fds, &ids_core::analyze(schema, fds), config)
    }

    /// Durable open from an already-computed independence analysis —
    /// the path the `ids-api` facade takes.  `fds` must be the set the
    /// analysis was computed from; it is pinned in the manifest so a
    /// later open under different dependencies is refused.
    pub fn open_durable_from_analysis(
        path: impl AsRef<Path>,
        schema: &DatabaseSchema,
        fds: &FdSet,
        analysis: &ids_core::IndependenceAnalysis,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref();
        if WalDir::exists(path) {
            return Self::recover_durable_from_analysis(
                WalDir::open(path)?,
                schema,
                fds,
                analysis,
                config,
            );
        }
        let enforcement = extract_enforcement(schema, analysis)?;
        let DurableConfig {
            store,
            sync,
            app,
            fail_appends_after,
        } = config;
        let dir = WalDir::create(path, schema, fds, app)?;
        let (relations, shards) = preload_parts(
            &dir,
            schema,
            &enforcement,
            store.initial_state,
            &store.ordered_indexes,
        )?;
        let last_seqs = vec![0; schema.len()];
        Self::finish_durable(
            dir,
            schema,
            enforcement,
            relations,
            shards,
            last_seqs,
            1,
            store.shards,
            sync,
            fail_appends_after,
        )
    }

    /// Durable reopen over an **already-open** directory handle — the
    /// entry point `Database::recover` uses after reading the manifest,
    /// so the manifest is decoded exactly once per open.  Refuses a
    /// handle whose manifest disagrees with `schema`/`fds`, then
    /// recovers: per-relation log tails replay through the normal
    /// probe/commit machinery on top of the snapshot base.
    pub fn recover_durable_from_analysis(
        dir: WalDir,
        schema: &DatabaseSchema,
        fds: &FdSet,
        analysis: &ids_core::IndependenceAnalysis,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        let enforcement = extract_enforcement(schema, analysis)?;
        dir.check_identity(schema, fds)?;
        let recovered = dir.recover()?;
        if let Some(preload) = config.store.initial_state {
            // The log *is* the state, so a preload is only accepted on a
            // directory with no history — which makes a create that
            // crashed between the manifest and the preload snapshot
            // repeatable, instead of silently forking or losing data.
            let virgin = !recovered.has_snapshot
                && recovered.tail.iter().all(|t| t.is_empty())
                && recovered.base_seqs.iter().all(|&s| s == 0);
            if !virgin {
                return Err(
                    RelationalError::SchemaMismatch("initial state for an existing log").into(),
                );
            }
            let (relations, shards) = preload_parts(
                &dir,
                schema,
                &enforcement,
                Some(preload),
                &config.store.ordered_indexes,
            )?;
            let last_seqs = vec![0; schema.len()];
            let next_gen = recovered.next_gen;
            return Self::finish_durable(
                dir,
                schema,
                enforcement,
                relations,
                shards,
                last_seqs,
                next_gen,
                config.store.shards,
                config.sync,
                config.fail_appends_after,
            );
        }
        let last_seqs = recovered.last_seqs();
        let next_gen = recovered.next_gen;
        // Replay is a cold path: time it unconditionally so the summary
        // event carries a real duration even if recording was toggled.
        let replay_start = Instant::now();
        let (relations, shards, replayed_per_relation) = replay_recovered(
            &dir,
            schema,
            &enforcement,
            recovered,
            &config.store.ordered_indexes,
        )?;
        let replay_elapsed = replay_start.elapsed();
        let store = Self::finish_durable(
            dir,
            schema,
            enforcement,
            relations,
            shards,
            last_seqs,
            next_gen,
            config.store.shards,
            config.sync,
            config.fail_appends_after,
        )?;
        // Replay progress is a per-relation fact (recovery of an
        // independent schema is per-relation by construction), so it is
        // surfaced as a family — replicas reuse the same names for
        // their apply counts — with the aggregate kept for continuity.
        let replayed: u64 = replayed_per_relation.iter().sum();
        for (i, n) in replayed_per_relation.iter().enumerate() {
            store
                .obs
                .registry
                .counter(&format!("wal.r{i}.recovered_records"))
                .add(*n);
        }
        store
            .obs
            .registry
            .counter("wal.recovered_records")
            .add(replayed);
        store.obs.registry.events().record(Event::RecoveryReplayed {
            records: replayed,
            duration: replay_elapsed,
        });
        Ok(store)
    }

    /// Shared tail of the durable opens: attach one segment writer per
    /// relation and spawn the workers.
    #[allow(clippy::too_many_arguments)]
    fn finish_durable(
        dir: WalDir,
        schema: &DatabaseSchema,
        enforcement: Vec<FdSet>,
        relations: Vec<Relation>,
        shards: Vec<RelationShard>,
        last_seqs: Vec<u64>,
        next_gen: u64,
        shard_count: usize,
        sync: SyncPolicy,
        fail_appends_after: Option<u64>,
    ) -> Result<Self, StoreError> {
        let mut parts = Vec::with_capacity(schema.len());
        for ((id, rel), shard) in schema.ids().zip(relations).zip(shards) {
            let mut writer =
                dir.segment_writer(id.index() as u16, next_gen, last_seqs[id.index()])?;
            if let Some(n) = fail_appends_after {
                writer.fail_appends_after(n);
            }
            parts.push(Slot {
                id,
                shard,
                rel,
                wal: Some(writer),
            });
        }
        let durability = Durability {
            dir,
            gen: Mutex::new(next_gen),
            sync,
            fail_appends_after,
            wal_metrics: None,
        };
        Ok(Self::spawn(
            schema,
            enforcement,
            parts,
            shard_count,
            sync,
            Some(durability),
        ))
    }

    /// Distributes prepared slots round-robin over worker threads and
    /// starts them.
    fn spawn(
        schema: &DatabaseSchema,
        enforcement: Vec<FdSet>,
        mut parts: Vec<Slot>,
        shards: usize,
        sync: SyncPolicy,
        mut durability: Option<Durability>,
    ) -> Store {
        let shard_count = if shards == 0 {
            schema.len().min(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        } else {
            shards.min(schema.len())
        }
        .max(1);
        let registry = Arc::new(Registry::new());
        if let Some(d) = durability.as_mut() {
            // One WAL metric family for the whole store (aggregated
            // across relations — per-relation fan-out is per-shard
            // already), attached to every slot's writer and interned
            // under stable names.
            let wal_metrics = WalMetrics::new();
            registry.register_counter("wal.appends", Arc::clone(&wal_metrics.appends));
            registry.register_counter("wal.append_bytes", Arc::clone(&wal_metrics.append_bytes));
            registry.register_counter("wal.fsyncs", Arc::clone(&wal_metrics.fsyncs));
            registry.register_histogram("wal.fsync_ns", Arc::clone(&wal_metrics.fsync_ns));
            registry.register_counter("wal.rotations", Arc::clone(&wal_metrics.rotations));
            for slot in &mut parts {
                if let Some(w) = slot.wal.as_mut() {
                    w.set_metrics(wal_metrics.clone());
                }
            }
            d.wal_metrics = Some(wal_metrics);
        }
        let shard_metrics: Vec<Arc<ShardMetrics>> = (0..shard_count)
            .map(|i| Arc::new(ShardMetrics::new(&registry, i)))
            .collect();
        let assignment: Vec<usize> = (0..schema.len()).map(|i| i % shard_count).collect();
        let poison: Arc<OnceLock<String>> = Arc::new(OnceLock::new());
        let mut workers: Vec<Worker> = (0..shard_count)
            .map(|i| Worker {
                shard: i,
                slots: Vec::new(),
                slot_of: vec![None; schema.len()],
                sync,
                poison: Arc::clone(&poison),
                metrics: Arc::clone(&shard_metrics[i]),
                events: Arc::clone(registry.events()),
            })
            .collect();
        for slot in parts {
            let w = &mut workers[assignment[slot.id.index()]];
            w.slot_of[slot.id.index()] = Some(w.slots.len());
            w.slots.push(slot);
        }
        let mut senders = Vec::with_capacity(shard_count);
        let mut handles = Vec::with_capacity(shard_count);
        for (i, worker) in workers.into_iter().enumerate() {
            let (tx, rx) = channel();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ids-shard-{i}"))
                    .spawn(move || worker.run(rx))
                    .expect("spawn shard worker"),
            );
        }
        Store {
            topology: RwLock::new(Topology {
                schema: Arc::new(schema.clone()),
                enforcement: Arc::new(enforcement),
                assignment,
                senders,
                shard: shard_metrics,
            }),
            handles: Mutex::new(handles),
            poison,
            durability,
            obs: StoreObs { registry },
        }
    }

    /// Takes the topology read guard, treating lock poisoning (a panic
    /// on another thread mid-swap) as survivable: routing state is
    /// swapped atomically, so the inner value is always consistent.
    fn topology(&self) -> RwLockReadGuard<'_, Topology> {
        self.topology.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Routes one command to a shard, keeping its queue-depth gauge in
    /// step: incremented on send, decremented by the worker on receipt
    /// (and re-decremented here if the send itself fails).
    fn send(&self, topo: &Topology, shard: usize, cmd: Command) -> Result<(), StoreError> {
        topo.shard[shard].queue_depth.inc();
        topo.senders[shard].send(cmd).map_err(|_| {
            topo.shard[shard].queue_depth.dec();
            self.fail()
        })
    }

    /// The error behind a failed channel round trip: a poisoned shard
    /// reports the preserved reason of the first durability failure;
    /// only a genuinely reasonless hangup stays [`StoreError::Disconnected`].
    fn fail(&self) -> StoreError {
        match self.poison.get() {
            Some(reason) => StoreError::ShardPoisoned {
                reason: reason.clone(),
            },
            None => StoreError::Disconnected,
        }
    }

    /// The preserved reason of the first shard durability failure, when
    /// one has poisoned this store.  Shards that did not fail keep
    /// serving their relations; every operation that *does* touch the
    /// poisoned shard (and any store-wide barrier) reports
    /// [`StoreError::ShardPoisoned`] with this reason.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poison.get().map(String::as_str)
    }

    /// The schema the store currently serves.  A schema transition
    /// swaps the shared handle; holders of a previous `Arc` keep a
    /// consistent (if stale) view.
    pub fn schema(&self) -> Arc<DatabaseSchema> {
        Arc::clone(&self.topology().schema)
    }

    /// The per-scheme enforcement covers `Fi` the shards probe, aligned
    /// with the current schema.
    pub fn enforcement(&self) -> Arc<Vec<FdSet>> {
        Arc::clone(&self.topology().enforcement)
    }

    /// Number of shard worker threads.
    pub fn shards(&self) -> usize {
        self.topology().senders.len()
    }

    /// True when the store was opened with a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Where a durable store's optional value-pool name log lives (the
    /// `ids-api` layer writes it; the store itself never touches it).
    pub fn pool_log_path(&self) -> Option<std::path::PathBuf> {
        self.durability.as_ref().map(|d| d.dir.pool_log_path())
    }

    /// Root of a durable store's log directory — what a replication
    /// follower (or the server's subscribe path) tails read-only.
    pub fn wal_root(&self) -> Option<std::path::PathBuf> {
        self.durability.as_ref().map(|d| d.dir.root().to_path_buf())
    }

    /// The directory's identity fingerprint — the one from the **base**
    /// manifest, which every segment, snapshot, and the name log carry
    /// for the directory's whole life (schema transitions append
    /// generation manifests; they do not re-fingerprint the directory).
    pub fn wal_fingerprint(&self) -> Option<u32> {
        self.durability.as_ref().map(|d| d.dir.fingerprint())
    }

    /// The current schema generation of a durable store: 0 at creation,
    /// bumped by every checkpoint and every accepted
    /// [`Store::apply_transition`].
    pub fn generation(&self) -> Option<u64> {
        self.durability
            .as_ref()
            .map(|d| *d.gen.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Checkpoints a durable store: every shard seals its relations'
    /// current log segments (fsync'd) and hands back a per-relation cut;
    /// the cut is written as one snapshot (atomically, temp + rename)
    /// and the covered segments are deleted — the log truncation.
    ///
    /// Like [`Store::snapshot`], the cut is per-relation consistent,
    /// which independence makes globally satisfying.  Safe to call
    /// repeatedly (a checkpoint with no new records just rewrites an
    /// identical snapshot) and concurrently (checkpoints serialize on an
    /// internal lock).  A crash between the snapshot write and the
    /// pruning leaves only covered segments behind, which recovery
    /// skips.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let d = self.durability.as_ref().ok_or(StoreError::NotDurable)?;
        let mut gen = d.gen.lock().map_err(|_| self.fail())?;
        let topo = self.topology();
        let old_gen = *gen;
        let new_gen = old_gen + 1;
        let start = ids_obs::recording().then(Instant::now);
        self.obs.registry.events().record(Event::CheckpointStarted {
            generation: new_gen,
        });
        let (reply_tx, reply_rx) = channel();
        for shard in 0..topo.senders.len() {
            self.send(
                &topo,
                shard,
                Command::Rotate {
                    new_gen,
                    reply: reply_tx.clone(),
                },
            )?;
        }
        drop(reply_tx);
        let mut parts: Vec<Option<(Relation, u64)>> = vec![None; topo.schema.len()];
        for _ in 0..topo.senders.len() {
            for (id, rel, sealed) in reply_rx.recv().map_err(|_| self.fail())? {
                parts[id.index()] = Some((rel, sealed));
            }
        }
        // The workers are on `new_gen` now, whatever happens below:
        // advance the counter immediately so a snapshot/prune failure
        // leaves the checkpoint *retryable* (the retry rotates onto yet
        // another generation and its snapshot covers everything the
        // failed attempt left behind) instead of colliding with the
        // already-created segment files.
        *gen = new_gen;
        let mut relations = Vec::with_capacity(parts.len());
        let mut seqs = Vec::with_capacity(parts.len());
        for p in parts {
            let (rel, sealed) = p.expect("every scheme lives on exactly one shard");
            relations.push(rel);
            seqs.push(sealed);
        }
        let state = DatabaseState::from_relations(&topo.schema, relations)?;
        d.dir.write_snapshot(&state, &seqs, old_gen)?;
        d.dir.prune_segments(old_gen)?;
        let duration = start.map(|t| t.elapsed()).unwrap_or_default();
        self.obs
            .registry
            .histogram("wal.checkpoint_ns")
            .record(duration);
        self.obs
            .registry
            .events()
            .record(Event::CheckpointCompleted {
                generation: new_gen,
                duration,
            });
        Ok(())
    }

    /// Applies an `ALTER`-class schema transition to the **running**
    /// store: add/drop a relation, add/drop a functional dependency —
    /// any change whose target schema the caller has already built.
    /// Returns the new segment generation on success.
    ///
    /// `analysis` must be the independence analysis of `(new_schema,
    /// new_fds)`; a dependent target is refused with
    /// [`StoreError::NotIndependent`] (carrying the `LSAT ∖ WSAT`
    /// witness) and the current schema keeps serving.  `app` becomes the
    /// new manifest's application bytes (the `ids-api` layer keeps its
    /// column layouts there).
    ///
    /// The transition runs in three phases, serialized with checkpoints
    /// on the generation mutex:
    ///
    /// 1. **Backfill** (topology read lock — traffic keeps flowing):
    ///    every surviving relation whose new enforcement cover is not
    ///    implied by its old one revalidates its tuples under the
    ///    *union* of both covers on its owning shard, and installs the
    ///    union on success.  A violation rolls the already-prepared
    ///    shards back to their exact old covers and refuses the
    ///    transition with [`StoreError::BackfillViolation`] — violated
    ///    FD plus a violating pair of tuples.  Traffic accepted between
    ///    backfill and switch satisfies both schemas, which is what
    ///    makes the crash window sound in both directions.
    /// 2. **Durability point**: a generation-numbered manifest
    ///    (`MANIFEST-g{n}`) is staged and renamed into the log
    ///    directory.  From here the transition *will* be in effect
    ///    after any crash; until here a crash recovers the old schema.
    /// 3. **Switch** (topology write lock): workers for added relations
    ///    spawn, every pre-existing worker receives a
    ///    `Command::Transition` (drop released slots, retarget +
    ///    rotate surviving ones onto the new generation), and the
    ///    routing topology is swapped.  Channel FIFO order means every
    ///    command sent before the swap ran under the old schema and
    ///    everything after runs under the new — shards that own only
    ///    untouched relations never stop serving.
    pub fn apply_transition(
        &self,
        new_schema: &DatabaseSchema,
        new_fds: &FdSet,
        analysis: &ids_core::IndependenceAnalysis,
        app: Vec<u8>,
    ) -> Result<u64, StoreError> {
        let d = self.durability.as_ref().ok_or(StoreError::NotDurable)?;
        let new_enforcement = match extract_enforcement(new_schema, analysis) {
            Ok(e) => e,
            Err(e) => {
                self.obs.registry.counter("evolve.rejected").inc();
                self.obs.registry.events().record(Event::AlterRejected {
                    reason: e.to_string(),
                });
                return Err(e);
            }
        };
        // Serialize with checkpoints and other transitions.
        let mut gen = d.gen.lock().map_err(|_| self.fail())?;
        let new_gen = *gen + 1;

        // Phase 1: remap + backfill under a topology *read* lock.
        let remap = {
            let topo = self.topology();
            let mut remap: Vec<Option<SchemeId>> = Vec::with_capacity(topo.schema.len());
            for id in topo.schema.ids() {
                let name = &topo.schema.scheme(id).name;
                let nid = new_schema.scheme_by_name(name);
                if let Some(nid) = nid {
                    if new_schema.attrs(nid) != topo.schema.attrs(id) {
                        return Err(RelationalError::SchemaMismatch(
                            "a surviving relation changed its attribute set",
                        )
                        .into());
                    }
                }
                remap.push(nid);
            }
            // Which survivors need a backfill: those whose old cover
            // does not already imply every FD of the new one.
            let mut prepared: Vec<(SchemeId, u64)> = Vec::new();
            let backfill_start = Instant::now();
            let mut violation: Option<(SchemeId, Fd, Vec<Tuple>)> = None;
            for (i, nid) in remap.iter().enumerate() {
                let Some(nid) = nid else { continue };
                let old_id = SchemeId::from_index(i);
                let old = &topo.enforcement[i];
                let new = &new_enforcement[nid.index()];
                if old.implies_all(new) {
                    continue;
                }
                let mut union = old.clone();
                for fd in new.iter() {
                    union.insert(*fd);
                }
                let (reply_tx, reply_rx) = channel();
                self.send(
                    &topo,
                    topo.assignment[i],
                    Command::Prepare {
                        scheme: old_id,
                        cover: union,
                        reply: reply_tx,
                    },
                )?;
                match reply_rx.recv().map_err(|_| self.fail())? {
                    Ok(tuples) => prepared.push((old_id, tuples)),
                    Err((violated, witness)) => {
                        violation = Some((old_id, violated, witness));
                        break;
                    }
                }
            }
            if let Some((scheme, violated, witness)) = violation {
                // Roll the already-prepared shards back to their exact
                // old covers; the store keeps serving the old schema.
                for &(old_id, _) in &prepared {
                    let (reply_tx, reply_rx) = channel();
                    self.send(
                        &topo,
                        topo.assignment[old_id.index()],
                        Command::Prepare {
                            scheme: old_id,
                            cover: topo.enforcement[old_id.index()].clone(),
                            reply: reply_tx,
                        },
                    )?;
                    reply_rx
                        .recv()
                        .map_err(|_| self.fail())?
                        .expect("the old cover re-validates the data it accepted");
                }
                let err = StoreError::BackfillViolation {
                    scheme,
                    violated,
                    witness,
                };
                self.obs.registry.counter("evolve.rejected").inc();
                self.obs.registry.events().record(Event::AlterRejected {
                    reason: err.to_string(),
                });
                return Err(err);
            }
            if !prepared.is_empty() {
                let duration = backfill_start.elapsed();
                self.obs
                    .registry
                    .histogram("evolve.backfill_ns")
                    .record(duration);
                for (old_id, tuples) in prepared {
                    self.obs.registry.events().record(Event::BackfillCompleted {
                        relation: old_id.index() as u64,
                        tuples,
                        duration,
                    });
                }
            }
            remap
        };

        // Phase 2: the durability point.  The manifest must be on disk
        // before any segment of the new generation can exist.
        d.dir.append_generation_manifest(
            new_gen,
            &Manifest {
                schema: new_schema.clone(),
                fds: new_fds.clone(),
                app,
            },
        )?;

        // Phase 3: swap the topology and fan the transition out.
        let mut topo = self.topology.write().unwrap_or_else(|e| e.into_inner());
        let schema = Arc::new(new_schema.clone());
        let enforcement = Arc::new(new_enforcement);
        let remap = Arc::new(remap);
        let mut assignment = vec![usize::MAX; new_schema.len()];
        for (i, nid) in remap.iter().enumerate() {
            if let Some(nid) = nid {
                assignment[nid.index()] = topo.assignment[i];
            }
        }
        let mut senders = topo.senders.clone();
        let mut shard_metrics = topo.shard.clone();
        let mut new_handles = Vec::new();
        for id in new_schema.ids() {
            if assignment[id.index()] != usize::MAX {
                continue;
            }
            // An added relation: a fresh shard worker of its own, so no
            // existing relation's traffic is disturbed.
            let shard_idx = senders.len();
            let rel = Relation::new(new_schema.attrs(id));
            let shard =
                RelationShard::with_relation(&schema, id, enforcement[id.index()].clone(), &rel)
                    .map_err(base_state_error)?;
            let mut writer = d.dir.segment_writer(id.index() as u16, new_gen, 0)?;
            if let Some(n) = d.fail_appends_after {
                writer.fail_appends_after(n);
            }
            if let Some(m) = &d.wal_metrics {
                writer.set_metrics(m.clone());
            }
            let metrics = Arc::new(ShardMetrics::new(&self.obs.registry, shard_idx));
            let mut worker = Worker {
                shard: shard_idx,
                slots: vec![Slot {
                    id,
                    shard,
                    rel,
                    wal: Some(writer),
                }],
                slot_of: vec![None; new_schema.len()],
                sync: d.sync,
                poison: Arc::clone(&self.poison),
                metrics: Arc::clone(&metrics),
                events: Arc::clone(self.obs.registry.events()),
            };
            worker.slot_of[id.index()] = Some(0);
            let (tx, rx) = channel();
            senders.push(tx);
            shard_metrics.push(metrics);
            assignment[id.index()] = shard_idx;
            new_handles.push(
                std::thread::Builder::new()
                    .name(format!("ids-shard-{shard_idx}"))
                    .spawn(move || worker.run(rx))
                    .expect("spawn shard worker"),
            );
        }
        // Fan out while holding the write lock: every command a shard
        // received before its Transition ran under the old schema, and
        // no new-schema command can be sent until the lock drops.
        for shard in 0..topo.senders.len() {
            self.send(
                &topo,
                shard,
                Command::Transition {
                    new_gen,
                    schema: Arc::clone(&schema),
                    enforcement: Arc::clone(&enforcement),
                    remap: Arc::clone(&remap),
                },
            )?;
        }
        let relations = new_schema.len() as u64;
        *topo = Topology {
            schema,
            enforcement,
            assignment,
            senders,
            shard: shard_metrics,
        };
        drop(topo);
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(new_handles);
        *gen = new_gen;
        self.obs.registry.counter("evolve.alters").inc();
        self.obs.registry.events().record(Event::SchemaAltered {
            generation: new_gen,
            relations,
        });
        Ok(new_gen)
    }

    /// A typed snapshot of every metric family the store (and its WAL
    /// writers) record into, plus the event ring and — satellite of the
    /// poison-discoverability fix — the preserved first-failure reason
    /// in [`MetricsSnapshot::poisoned`], readable **without issuing a
    /// failing operation**.
    ///
    /// Purely read-side: no worker round trip, no barrier, works even
    /// after every shard has shut down.  See the `ids-obs` crate docs
    /// for the relaxed-ordering read semantics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        snap.poisoned = self.poison.get().cloned();
        snap
    }

    /// Validates an operation's scheme and arity before it is routed, so
    /// an out-of-range [`SchemeId`] is a typed error at the router
    /// boundary rather than an index panic inside a worker.  Delegates to
    /// [`ids_core::validate_op`] — the one validation contract every
    /// engine shares.
    fn validate(topo: &Topology, op: &StoreOp) -> Result<(), StoreError> {
        let (StoreOp::Insert { scheme, tuple } | StoreOp::Remove { scheme, tuple }) = op;
        ids_core::validate_op(&topo.schema, *scheme, tuple).map_err(|e| match e {
            MaintenanceError::UnknownScheme(id) => StoreError::UnknownScheme(id),
            MaintenanceError::Relational(e) => StoreError::Relational(e),
            other => unreachable!("validate_op cannot fail with {other}"),
        })
    }

    /// Attempts to insert `tuple` (scheme order) into relation `id`,
    /// blocking until the owning shard answers.
    ///
    /// For throughput, prefer [`Store::apply_batch`]: a per-op round trip
    /// pays one channel rendezvous per operation.
    pub fn insert(&self, id: SchemeId, tuple: Vec<Value>) -> Result<InsertOutcome, StoreError> {
        let outcomes = self.apply_batch(vec![StoreOp::Insert { scheme: id, tuple }])?;
        match outcomes.into_iter().next() {
            Some(OpOutcome::Insert(outcome)) => Ok(outcome),
            _ => Err(self.fail()),
        }
    }

    /// Removes a tuple from relation `id`; `true` when it was present.
    /// Always satisfaction-preserving under weak-instance semantics.
    pub fn remove(&self, id: SchemeId, tuple: Vec<Value>) -> Result<bool, StoreError> {
        let outcomes = self.apply_batch(vec![StoreOp::Remove { scheme: id, tuple }])?;
        match outcomes.into_iter().next() {
            Some(OpOutcome::Remove(present)) => Ok(present),
            _ => Err(self.fail()),
        }
    }

    /// Applies a batch of operations, pipelined across shards: the batch
    /// is partitioned by relation, each shard processes its part in
    /// parallel, and the per-op outcomes come back aligned with the input.
    ///
    /// The whole batch is validated (scheme + arity) before anything is
    /// sent, so a malformed batch mutates nothing.  Per-relation order
    /// within the batch is preserved; FD violations are *outcomes*
    /// ([`InsertOutcome::Rejected`]), not errors.
    pub fn apply_batch(&self, ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, StoreError> {
        let topo = self.topology();
        for op in &ops {
            Self::validate(&topo, op)?;
        }
        let total = ops.len();
        let mut per_shard: Vec<Vec<(u32, StoreOp)>> = (0..topo.senders.len())
            .map(|_| Vec::with_capacity(total / topo.senders.len() + 1))
            .collect();
        for (idx, op) in ops.into_iter().enumerate() {
            per_shard[topo.assignment[op.scheme().index()]].push((idx as u32, op));
        }
        let (reply_tx, reply_rx) = channel();
        let mut involved = 0usize;
        for (shard, ops) in per_shard.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            involved += 1;
            self.send(
                &topo,
                shard,
                Command::Apply {
                    ops,
                    reply: reply_tx.clone(),
                },
            )?;
        }
        drop(reply_tx);
        let mut out: Vec<Option<OpOutcome>> = vec![None; total];
        for _ in 0..involved {
            let part = reply_rx.recv().map_err(|_| self.fail())?;
            for (idx, outcome) in part {
                out[idx as usize] = Some(outcome);
            }
        }
        Ok(out
            .into_iter()
            .map(|o| o.expect("every op was routed to exactly one shard"))
            .collect())
    }

    /// Answers a [`ReadPlan`] against one relation **without a barrier**:
    /// only the owning shard is consulted, so no other shard pauses,
    /// queues, or copies anything.  The shard evaluates the predicate
    /// where the tuples live — a point lookup on a key FD's left-hand side
    /// is O(1) against the enforcement hash index, see
    /// [`RelationShard::scan`] — and only the plan's shape of the matches
    /// (tuples, distinct join keys, or a count) crosses the channel.
    ///
    /// This is sound precisely because the schema is independent:
    /// relations share no enforcement state, so the cut "this relation at
    /// its current point in its own FIFO, all others untouched" is a
    /// prefix of a valid serialization — the answer is computed from
    /// exactly what some barrier snapshot would also contain for this
    /// scheme.  What you give up versus [`Store::snapshot`] is
    /// *cross-relation* consistency: two `read` calls on different
    /// relations may observe cuts no single snapshot contains.  Per
    /// relation you still get read-your-writes: the owning shard drains
    /// every operation submitted before the read (its command channel is
    /// FIFO).
    ///
    /// The id and the plan are validated here, at the router boundary, so
    /// a foreign scheme, predicate attribute or projection column is a
    /// typed error and never a worker panic.
    pub fn read(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, StoreError> {
        let topo = self.topology();
        let scheme = topo
            .schema
            .get_scheme(id)
            .ok_or(StoreError::UnknownScheme(id))?;
        plan.validate_against(scheme.attrs)?;
        let (reply_tx, reply_rx) = channel();
        self.send(
            &topo,
            topo.assignment[id.index()],
            Command::Read {
                scheme: id,
                plan: plan.clone(),
                reply: reply_tx,
            },
        )?;
        reply_rx.recv().map_err(|_| self.fail())
    }

    /// The tuples of one relation matching `predicate` — [`Store::read`]
    /// with the tuples shape.
    pub fn query(&self, id: SchemeId, predicate: &Predicate) -> Result<Vec<Tuple>, StoreError> {
        Ok(self.read(id, &ReadPlan::tuples(predicate.clone()))?.rows)
    }

    /// Takes a consistent snapshot: a barrier across all shards (each
    /// answers after draining every command sent before the barrier), then
    /// reassembles the relation clones into a [`DatabaseState`].
    ///
    /// On an independent schema the snapshot is globally satisfying — each
    /// shard enforced its `Fi`, and `LSAT = WSAT` does the rest.
    pub fn snapshot(&self) -> Result<DatabaseState, StoreError> {
        let topo = self.topology();
        let (reply_tx, reply_rx) = channel();
        for shard in 0..topo.senders.len() {
            self.send(
                &topo,
                shard,
                Command::Snapshot {
                    reply: reply_tx.clone(),
                },
            )?;
        }
        drop(reply_tx);
        let mut parts: Vec<Option<Relation>> = vec![None; topo.schema.len()];
        for _ in 0..topo.senders.len() {
            for (id, rel) in reply_rx.recv().map_err(|_| self.fail())? {
                parts[id.index()] = Some(rel);
            }
        }
        let relations = parts
            .into_iter()
            .map(|r| r.expect("every scheme lives on exactly one shard"))
            .collect();
        DatabaseState::from_relations(&topo.schema, relations).map_err(Into::into)
    }

    /// Shuts the store down: closes every command channel, joins the
    /// workers, and hands back the final state.
    pub fn shutdown(self) -> Result<DatabaseState, StoreError> {
        let schema = self.schema();
        let parts = self.shutdown_inner()?;
        DatabaseState::from_relations(&schema, parts).map_err(Into::into)
    }

    /// Drains channels and joins workers; idempotent (a second call — the
    /// `Drop` after an explicit `shutdown()` — is a no-op).  Returns the
    /// final relations in scheme order.
    fn shutdown_inner(&self) -> Result<Vec<Relation>, StoreError> {
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        if handles.is_empty() {
            return Ok(Vec::new());
        }
        let schema_len = {
            let mut topo = self.topology.write().unwrap_or_else(|e| e.into_inner());
            topo.senders.clear(); // closing the channels stops the workers
            topo.schema.len()
        };
        let mut parts: Vec<Option<Relation>> = vec![None; schema_len];
        let mut lost = false;
        for handle in handles.drain(..) {
            match handle.join() {
                Ok(slots) => {
                    for (id, rel) in slots {
                        parts[id.index()] = Some(rel);
                    }
                }
                Err(_) => lost = true,
            }
        }
        if let Some(reason) = self.poison.get() {
            // A poisoned shard exited without acknowledging everything it
            // was sent: the final state is not the callers' view, so
            // shutdown reports the preserved reason instead of a state.
            return Err(StoreError::ShardPoisoned {
                reason: reason.clone(),
            });
        }
        if lost {
            return Err(StoreError::Disconnected);
        }
        Ok(parts
            .into_iter()
            .map(|r| r.expect("every scheme lives on exactly one shard"))
            .collect())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort: stop the workers even when the caller skipped
        // `shutdown()`.  Panics in workers surface there, not here.
        let _ = self.shutdown_inner();
    }
}

/// Prepares the starting relations + shards of a durable store from an
/// optional preload: the state is revalidated against the schema and
/// every cover (typed errors, never worker panics), and a nonempty
/// preload — which lives in no log — is pinned in an initial snapshot
/// so recovery starts from it.  Shared by the fresh-create path and the
/// repeat of a create that crashed before its snapshot landed.
fn preload_parts(
    dir: &WalDir,
    schema: &DatabaseSchema,
    enforcement: &[FdSet],
    initial_state: Option<DatabaseState>,
    ordered_indexes: &[(SchemeId, AttrId)],
) -> Result<(Vec<Relation>, Vec<RelationShard>), StoreError> {
    let relations: Vec<Relation> = match initial_state {
        Some(state) => {
            DatabaseState::from_relations(schema, state.into_relations())?.into_relations()
        }
        None => schema
            .ids()
            .map(|id| Relation::new(schema.attrs(id)))
            .collect(),
    };
    let mut shards = Vec::with_capacity(schema.len());
    for (id, rel) in schema.ids().zip(relations.iter()) {
        let fi = enforcement[id.index()].clone();
        shards.push(RelationShard::with_relation(schema, id, fi, rel).map_err(base_state_error)?);
    }
    apply_ordered_indexes(schema, &mut shards, &relations, ordered_indexes)?;
    if relations.iter().any(|r| !r.is_empty()) {
        let state = DatabaseState::from_relations(schema, relations.clone())?;
        dir.write_snapshot(&state, &vec![0; schema.len()], 0)?;
    }
    Ok((relations, shards))
}

/// Builds the configured ordered secondary indexes on freshly
/// constructed shards, each absorbing its relation's current tuples.  A
/// spec naming a foreign scheme or column is a typed error at open, not
/// a silently missing index.
fn apply_ordered_indexes(
    schema: &DatabaseSchema,
    shards: &mut [RelationShard],
    relations: &[Relation],
    specs: &[(SchemeId, AttrId)],
) -> Result<(), StoreError> {
    for &(id, attr) in specs {
        if schema.get_scheme(id).is_none() {
            return Err(StoreError::UnknownScheme(id));
        }
        shards[id.index()]
            .add_ordered_index(attr, &relations[id.index()])
            .map_err(index_error)?;
    }
    Ok(())
}

/// Maps secondary-index declaration failures to typed store errors.
fn index_error(e: MaintenanceError) -> StoreError {
    match e {
        MaintenanceError::Relational(e) => StoreError::Relational(e),
        other => unreachable!("add_ordered_index cannot fail with {other}"),
    }
}

/// Pulls the per-scheme enforcement covers out of an analysis verdict:
/// a dependent schema is refused with its witness, and an analysis of a
/// *different* schema is a typed error, not an index panic while
/// distributing covers (same guard as `LocalMaintainer::new`).
fn extract_enforcement(
    schema: &DatabaseSchema,
    analysis: &ids_core::IndependenceAnalysis,
) -> Result<Vec<FdSet>, StoreError> {
    let enforcement = match &analysis.verdict {
        ids_core::Verdict::Independent { enforcement } => enforcement.clone(),
        ids_core::Verdict::NotIndependent { reason, witness } => {
            return Err(StoreError::NotIndependent {
                reason: reason.clone(),
                witness: Box::new(witness.clone()),
            })
        }
    };
    if enforcement.len() != schema.len() {
        return Err(RelationalError::SchemaMismatch("enforcement covers").into());
    }
    Ok(enforcement)
}

/// Maps shard-construction failures (preload validation) to typed
/// store errors.
fn base_state_error(e: MaintenanceError) -> StoreError {
    match e {
        MaintenanceError::BaseStateViolation { scheme, violated } => {
            StoreError::InvalidBaseState { scheme, violated }
        }
        MaintenanceError::Relational(e) => StoreError::Relational(e),
        other => unreachable!("with_relation cannot fail with {other}"),
    }
}

/// What [`replay_recovered`] rebuilds: each relation's state, its
/// enforcement shard, and how many tail records it replayed.
type Replayed = (Vec<Relation>, Vec<RelationShard>, Vec<u64>);

/// A shard worker thread; joining one yields the relation states it
/// owned, keyed by scheme, so a transition can re-seed the new
/// topology.
type WorkerHandle = JoinHandle<Vec<(SchemeId, Relation)>>;

/// Replays a recovery result through the normal probe/commit machinery:
/// the snapshot base builds each relation's shard (which validates it
/// against the enforcement cover `Fi`), then the relation's log tail
/// re-runs through the shard.  Every logged record was an accepted,
/// effective operation, so replay must re-accept each one — anything
/// else means the files contradict themselves and is reported as
/// corruption, never silently patched.  One relation never consults
/// another: recovery of an independent schema is per-relation by
/// construction.
///
/// Each tail record is tagged with the **era** it was written in — the
/// index of the generation manifest governing its segment — and replays
/// under that era's schema and enforcement covers, so a record accepted
/// before an `ALTER` is re-judged by exactly the rules that accepted
/// it.  Era covers come from re-running the independence analysis on
/// the era manifest (a cold path, memoized per era); the final era
/// reuses the caller's already-extracted covers.  With a single-entry
/// manifest chain this degenerates to plain single-schema replay.
fn replay_recovered(
    dir: &WalDir,
    schema: &DatabaseSchema,
    enforcement: &[FdSet],
    recovered: ids_wal::Recovered,
    ordered_indexes: &[(SchemeId, AttrId)],
) -> Result<Replayed, StoreError> {
    let chain = dir.manifests();
    let last_era = chain.len() - 1;
    let root = dir.root();
    let mut era_enf: Vec<Option<Vec<FdSet>>> = vec![None; chain.len()];
    let base = recovered.base.into_relations();
    let mut relations = Vec::with_capacity(schema.len());
    let mut shards = Vec::with_capacity(schema.len());
    let mut replayed_per_relation = vec![0u64; schema.len()];
    for ((id, mut rel), records) in schema.ids().zip(base).zip(recovered.tail) {
        let name = schema.scheme(id).name.clone();
        let mut cur: Option<(usize, RelationShard)> = None;
        for (era, record) in records {
            if cur.as_ref().map(|(e, _)| *e) != Some(era) {
                let shard = if era == last_era {
                    RelationShard::with_relation(schema, id, enforcement[id.index()].clone(), &rel)
                } else {
                    let m = &chain[era].1;
                    let eid = m.schema.scheme_by_name(&name).ok_or_else(|| {
                        StoreError::Wal(WalError::Corrupt {
                            path: root.to_path_buf(),
                            detail: format!(
                                "records of {name:?} map to a generation whose schema lacks it"
                            ),
                        })
                    })?;
                    if era_enf[era].is_none() {
                        let analysis = ids_core::analyze(&m.schema, &m.fds);
                        era_enf[era] = Some(extract_enforcement(&m.schema, &analysis)?);
                    }
                    let cover = era_enf[era].as_ref().expect("just filled")[eid.index()].clone();
                    RelationShard::with_relation(&m.schema, eid, cover, &rel)
                }
                .map_err(base_state_error)?;
                cur = Some((era, shard));
            }
            let (_, shard) = cur.as_mut().expect("just installed");
            let seq = record.seq;
            replayed_per_relation[id.index()] += 1;
            let replayed = match record.op {
                WalOp::Insert(t) => {
                    matches!(shard.insert(&mut rel, t), Ok(InsertOutcome::Accepted))
                }
                WalOp::Remove(t) => matches!(shard.remove(&mut rel, &t), Ok(true)),
            };
            if !replayed {
                return Err(WalError::Corrupt {
                    path: root.to_path_buf(),
                    detail: format!(
                        "logged op did not replay cleanly (relation {id:?}, seq {seq})"
                    ),
                }
                .into());
            }
        }
        // The live shard runs under the final schema and cover; reuse
        // the last era's shard when it already is that.
        let shard = match cur {
            Some((era, shard)) if era == last_era => shard,
            _ => RelationShard::with_relation(schema, id, enforcement[id.index()].clone(), &rel)
                .map_err(base_state_error)?,
        };
        relations.push(rel);
        shards.push(shard);
    }
    // Indexes are declared only after replay, so they absorb the final
    // recovered relations in their (replayed) insertion order.
    apply_ordered_indexes(schema, &mut shards, &relations, ordered_indexes)?;
    Ok((relations, shards, replayed_per_relation))
}

// The whole point: clients on many threads share one store.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Store>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    /// Example 2: {CT, CS, CHR} with C→T, CH→R — independent.
    fn independent_setup() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema =
            DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R"]).unwrap();
        (schema, fds)
    }

    #[test]
    fn store_refuses_non_independent_schema_with_witness() {
        // Example 1: cross-relation contradiction invisible to shards.
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let err = Store::open(&schema, &fds).unwrap_err();
        let StoreError::NotIndependent { witness, .. } = err else {
            panic!("expected NotIndependent, got {err}");
        };
        assert!(ids_chase::locally_satisfies(
            &schema,
            &fds,
            &witness.state,
            &ids_chase::ChaseConfig::default()
        )
        .unwrap());
    }

    #[test]
    fn insert_remove_roundtrip_and_fd_enforcement() {
        let (schema, fds) = independent_setup();
        let store = Store::open(&schema, &fds).unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        assert_eq!(
            store.insert(ct, vec![v(1), v(10)]).unwrap(),
            InsertOutcome::Accepted
        );
        assert_eq!(
            store.insert(ct, vec![v(1), v(10)]).unwrap(),
            InsertOutcome::Duplicate
        );
        assert!(matches!(
            store.insert(ct, vec![v(1), v(11)]).unwrap(),
            InsertOutcome::Rejected { violated: Some(_) }
        ));
        assert!(store.remove(ct, vec![v(1), v(10)]).unwrap());
        assert!(!store.remove(ct, vec![v(1), v(10)]).unwrap());
        assert_eq!(
            store.insert(ct, vec![v(1), v(11)]).unwrap(),
            InsertOutcome::Accepted
        );
        let state = store.shutdown().unwrap();
        assert_eq!(state.total_tuples(), 1);
        assert!(state.relation(ct).contains(&[v(1), v(11)]));
    }

    #[test]
    fn batch_outcomes_align_with_input_across_shards() {
        let (schema, fds) = independent_setup();
        for shards in 1..=3 {
            let store = Store::open_with(
                &schema,
                &fds,
                StoreConfig {
                    shards,
                    initial_state: None,
                    ordered_indexes: Vec::new(),
                },
            )
            .unwrap();
            assert_eq!(store.shards(), shards);
            let ct = schema.scheme_by_name("CT").unwrap();
            let cs = schema.scheme_by_name("CS").unwrap();
            let chr = schema.scheme_by_name("CHR").unwrap();
            let outcomes = store
                .apply_batch(vec![
                    StoreOp::Insert {
                        scheme: ct,
                        tuple: vec![v(1), v(20)],
                    },
                    StoreOp::Insert {
                        scheme: chr,
                        tuple: vec![v(1), v(30), v(40)],
                    },
                    StoreOp::Insert {
                        scheme: chr,
                        tuple: vec![v(1), v(30), v(41)], // violates CH→R
                    },
                    StoreOp::Insert {
                        scheme: cs,
                        tuple: vec![v(1), v(50)],
                    },
                    StoreOp::Insert {
                        scheme: ct,
                        tuple: vec![v(1), v(21)], // violates C→T
                    },
                    StoreOp::Remove {
                        scheme: cs,
                        tuple: vec![v(1), v(50)],
                    },
                ])
                .unwrap();
            assert_eq!(outcomes.len(), 6);
            assert_eq!(outcomes[0], OpOutcome::Insert(InsertOutcome::Accepted));
            assert_eq!(outcomes[1], OpOutcome::Insert(InsertOutcome::Accepted));
            assert!(matches!(
                outcomes[2],
                OpOutcome::Insert(InsertOutcome::Rejected { .. })
            ));
            assert_eq!(outcomes[3], OpOutcome::Insert(InsertOutcome::Accepted));
            assert!(matches!(
                outcomes[4],
                OpOutcome::Insert(InsertOutcome::Rejected { .. })
            ));
            assert_eq!(outcomes[5], OpOutcome::Remove(true));
            let state = store.shutdown().unwrap();
            assert_eq!(state.total_tuples(), 2);
        }
    }

    #[test]
    fn malformed_batches_mutate_nothing() {
        let (schema, fds) = independent_setup();
        let store = Store::open(&schema, &fds).unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        let err = store
            .apply_batch(vec![
                StoreOp::Insert {
                    scheme: ct,
                    tuple: vec![v(1), v(10)],
                },
                StoreOp::Insert {
                    scheme: ct,
                    tuple: vec![v(2)], // arity error
                },
            ])
            .unwrap_err();
        assert!(matches!(err, StoreError::Relational(_)));
        let err = store
            .apply_batch(vec![StoreOp::Insert {
                scheme: SchemeId(99),
                tuple: vec![v(1)],
            }])
            .unwrap_err();
        assert!(matches!(err, StoreError::UnknownScheme(_)));
        assert_eq!(store.snapshot().unwrap().total_tuples(), 0);
    }

    #[test]
    fn snapshot_is_a_barrier_over_prior_batches() {
        let (schema, fds) = independent_setup();
        let store = Store::open(&schema, &fds).unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        let chr = schema.scheme_by_name("CHR").unwrap();
        store
            .apply_batch(vec![
                StoreOp::Insert {
                    scheme: ct,
                    tuple: vec![v(1), v(10)],
                },
                StoreOp::Insert {
                    scheme: chr,
                    tuple: vec![v(1), v(2), v(3)],
                },
            ])
            .unwrap();
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.total_tuples(), 2);
        // The snapshot is an independent copy: later writes don't leak in.
        store.insert(ct, vec![v(2), v(20)]).unwrap();
        assert_eq!(snap.total_tuples(), 2);
        assert_eq!(store.snapshot().unwrap().total_tuples(), 3);
    }

    #[test]
    fn barrier_free_read_sees_prior_writes_on_its_relation() {
        let (schema, fds) = independent_setup();
        for shards in 1..=3 {
            let store = Store::open_with(
                &schema,
                &fds,
                StoreConfig {
                    shards,
                    initial_state: None,
                    ordered_indexes: Vec::new(),
                },
            )
            .unwrap();
            let ct = schema.scheme_by_name("CT").unwrap();
            let cs = schema.scheme_by_name("CS").unwrap();
            store.insert(ct, vec![v(1), v(10)]).unwrap();
            store.insert(cs, vec![v(1), v(50)]).unwrap();
            // Read-your-writes per relation, regardless of shard layout.
            let all = Predicate::new();
            let rows = store.query(ct, &all).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(&*rows[0], &[v(1), v(10)]);
            // The read is an independent copy: later writes don't leak in.
            store.insert(ct, vec![v(2), v(20)]).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(store.query(ct, &all).unwrap().len(), 2);
            // Agreement with the barrier path, relation by relation.
            let snap = store.snapshot().unwrap();
            assert_eq!(
                store.query(cs, &all).unwrap(),
                snap.relation(cs).filter_tuples(&all)
            );
            // The cardinality probe agrees without shipping tuples.
            let count = |id| store.read(id, &ReadPlan::count(all.clone())).unwrap();
            assert_eq!((count(ct).count, count(ct).rows.len()), (2, 0));
            assert_eq!(count(cs).count, 1);
        }
    }

    /// One read path, three shapes: each ships only what it promises,
    /// agrees with the linear reference on a snapshot, and refuses foreign
    /// ids, predicate attributes and projection columns at the router.
    #[test]
    fn every_read_shape_ships_only_what_it_promises() {
        let (schema, fds) = independent_setup();
        let attr = |name| schema.universe().attr(name).unwrap();
        let (c, t, s) = (attr("C"), attr("T"), attr("S"));
        let ct = schema.scheme_by_name("CT").unwrap();
        let cs = schema.scheme_by_name("CS").unwrap();
        for shards in 1..=3 {
            let store = Store::open_with(
                &schema,
                &fds,
                StoreConfig {
                    shards,
                    initial_state: None,
                    ordered_indexes: Vec::new(),
                },
            )
            .unwrap();
            // CT is keyed by C; CS holds many students per course, so
            // distinct courses ≪ tuples.
            for i in 0..20u64 {
                store.insert(ct, vec![v(i), v(100 + i)]).unwrap();
            }
            for course in 0..5u64 {
                for student in 0..10u64 {
                    store.insert(cs, vec![v(course), v(100 + student)]).unwrap();
                }
            }
            let snap = store.snapshot().unwrap();
            // (relation, predicate, distinct column, matches, distinct rows)
            let table = [
                (ct, Predicate::new(), c, 20, 20),
                (ct, Predicate::new().and_eq(c, v(7)), c, 1, 1), // key index hit
                (ct, Predicate::new().and_eq(t, v(107)), c, 1, 1), // linear filter
                (ct, Predicate::new().and_eq(c, v(999)), c, 0, 0), // miss
                (cs, Predicate::new(), c, 50, 5),
                (cs, Predicate::new().and_eq(s, v(103)), c, 5, 5),
                (cs, Predicate::new().and_eq(c, v(2)), c, 10, 1),
            ];
            for (id, pred, col, matches, keys) in table {
                for (plan, shipped) in [
                    (ReadPlan::tuples(pred.clone()), matches),
                    (ReadPlan::distinct_columns(pred.clone(), vec![col]), keys),
                    (ReadPlan::count(pred.clone()), 0),
                ] {
                    let got = store.read(id, &plan).unwrap();
                    assert_eq!(
                        got,
                        snap.relation(id).read(&plan),
                        "{shards} shards, {plan:?}"
                    );
                    assert_eq!((got.rows.len(), got.count), (shipped, matches), "{plan:?}");
                }
                assert_eq!(store.query(id, &pred).unwrap().len(), matches);
            }
            for plan in [
                ReadPlan::tuples(Predicate::new()),
                ReadPlan::distinct_columns(Predicate::new(), vec![c]),
                ReadPlan::count(Predicate::new()),
            ] {
                assert!(matches!(
                    store.read(SchemeId(99), &plan),
                    Err(StoreError::UnknownScheme(_))
                ));
            }
            for plan in [
                ReadPlan::tuples(Predicate::new().and_eq(t, v(0))),
                ReadPlan::count(Predicate::new().and_eq(t, v(0))),
                ReadPlan::distinct_columns(Predicate::new(), vec![c, t]),
            ] {
                assert!(matches!(
                    store.read(cs, &plan),
                    Err(StoreError::Relational(RelationalError::SchemaMismatch(_)))
                ));
            }
        }
    }

    #[test]
    fn configured_ordered_indexes_serve_ranges_and_survive_recovery() {
        let (schema, fds) = independent_setup();
        let cs = schema.scheme_by_name("CS").unwrap();
        let s = schema.universe().attr("S").unwrap();
        let specs = vec![(cs, s)];
        // In-memory: the indexed path must agree with a linear filter.
        let store = Store::open_with(
            &schema,
            &fds,
            StoreConfig {
                shards: 2,
                initial_state: None,
                ordered_indexes: specs.clone(),
            },
        )
        .unwrap();
        for i in 0..30u64 {
            store.insert(cs, vec![v(i % 3), v(i)]).unwrap();
        }
        let whole = store.snapshot().unwrap();
        let pred = Predicate::new().and_range(s, v(10), v(19));
        assert_eq!(
            store.query(cs, &pred).unwrap(),
            whole.relation(cs).filter_tuples(&pred)
        );
        drop(store);

        // A spec naming a foreign column is refused at open.
        let x_free = schema.universe().attr("H").unwrap();
        assert!(Store::open_with(
            &schema,
            &fds,
            StoreConfig {
                shards: 2,
                initial_state: None,
                ordered_indexes: vec![(cs, x_free)],
            },
        )
        .is_err());

        // Durable: the index is rebuilt by recovery and still agrees.
        let root = tmp_dir("ordered-index");
        {
            let store = Store::open_durable_with(
                &root,
                &schema,
                &fds,
                DurableConfig {
                    store: StoreConfig {
                        shards: 2,
                        initial_state: None,
                        ordered_indexes: specs.clone(),
                    },
                    ..DurableConfig::default()
                },
            )
            .unwrap();
            for i in 0..30u64 {
                store.insert(cs, vec![v(i % 3), v(i)]).unwrap();
            }
            store.shutdown().unwrap();
        }
        let store = Store::open_durable_with(
            &root,
            &schema,
            &fds,
            DurableConfig {
                store: StoreConfig {
                    shards: 2,
                    initial_state: None,
                    ordered_indexes: specs,
                },
                ..DurableConfig::default()
            },
        )
        .unwrap();
        let whole = store.snapshot().unwrap();
        assert_eq!(
            store.query(cs, &pred).unwrap(),
            whole.relation(cs).filter_tuples(&pred)
        );
        assert_eq!(store.query(cs, &pred).unwrap().len(), 10);
        store.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn from_analysis_skips_reanalysis_and_honors_the_verdict() {
        let (schema, fds) = independent_setup();
        let analysis = ids_core::analyze(&schema, &fds);
        let store = Store::from_analysis(&schema, &analysis, StoreConfig::default()).unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        assert_eq!(
            store.insert(ct, vec![v(1), v(10)]).unwrap(),
            InsertOutcome::Accepted
        );
        drop(store);

        // An analysis of a *different* schema is a typed error, not an
        // index panic.
        let u2 = Universe::from_names(["A", "B"]).unwrap();
        let other = DatabaseSchema::parse(u2, &[("AB", "AB")]).unwrap();
        let other_analysis = ids_core::analyze(&other, &FdSet::new());
        assert!(matches!(
            Store::from_analysis(&schema, &other_analysis, StoreConfig::default()),
            Err(StoreError::Relational(RelationalError::SchemaMismatch(_)))
        ));

        // A dependent schema's stored verdict is surfaced unchanged.
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let dep = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let dep_fds = FdSet::parse(dep.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let dep_analysis = ids_core::analyze(&dep, &dep_fds);
        assert!(matches!(
            Store::from_analysis(&dep, &dep_analysis, StoreConfig::default()),
            Err(StoreError::NotIndependent { .. })
        ));
    }

    #[test]
    fn preloaded_state_is_enforced_and_invalid_preloads_refused() {
        let (schema, fds) = independent_setup();
        let ct = schema.scheme_by_name("CT").unwrap();
        let mut base = DatabaseState::empty(&schema);
        base.insert(ct, vec![v(9), v(90)]).unwrap();
        let store = Store::open_with(
            &schema,
            &fds,
            StoreConfig {
                shards: 2,
                initial_state: Some(base.clone()),
                ordered_indexes: Vec::new(),
            },
        )
        .unwrap();
        assert!(matches!(
            store.insert(ct, vec![v(9), v(91)]).unwrap(),
            InsertOutcome::Rejected { .. }
        ));
        drop(store);

        base.insert(ct, vec![v(9), v(91)]).unwrap(); // violates C→T
        let err = Store::open_with(
            &schema,
            &fds,
            StoreConfig {
                shards: 2,
                initial_state: Some(base),
                ordered_indexes: Vec::new(),
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            StoreError::InvalidBaseState { scheme, .. } if scheme == ct
        ));
    }

    #[test]
    fn initial_state_from_a_different_schema_is_a_typed_error() {
        let (schema, fds) = independent_setup();
        // A state over a structurally different schema: same relation
        // count, different attribute sets.
        let u2 = Universe::from_names(["A", "B", "C"]).unwrap();
        let other = DatabaseSchema::parse(u2, &[("AB", "AB"), ("BC", "BC"), ("AC", "AC")]).unwrap();
        let mut foreign = DatabaseState::empty(&other);
        foreign.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        let err = Store::open_with(
            &schema,
            &fds,
            StoreConfig {
                shards: 2,
                initial_state: Some(foreign),
                ordered_indexes: Vec::new(),
            },
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::Relational(_)), "got {err}");
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("ids-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn durable_store_recovers_across_reopens_and_checkpoints() {
        let root = tmp_dir("recover");
        let (schema, fds) = independent_setup();
        let ct = schema.scheme_by_name("CT").unwrap();
        let cs = schema.scheme_by_name("CS").unwrap();

        // Session 1: a few ops, checkpoint mid-stream, more ops.
        {
            let store = Store::open_durable(&root, &schema, &fds).unwrap();
            assert!(store.is_durable());
            store.insert(ct, vec![v(1), v(10)]).unwrap();
            store.insert(cs, vec![v(1), v(50)]).unwrap();
            // Rejected/duplicate ops must not reach the log.
            assert!(store.insert(ct, vec![v(1), v(11)]).unwrap().is_rejected());
            store.insert(ct, vec![v(1), v(10)]).unwrap(); // duplicate
            store.checkpoint().unwrap();
            store.insert(cs, vec![v(2), v(51)]).unwrap();
            assert!(store.remove(ct, vec![v(1), v(10)]).unwrap());
            store.shutdown().unwrap();
        }
        // Session 2: recover, verify, extend, clean-shutdown again.
        {
            let store = Store::open_durable(&root, &schema, &fds).unwrap();
            let state = store.snapshot().unwrap();
            assert_eq!(state.relation(ct).len(), 0);
            assert_eq!(state.relation(cs).len(), 2);
            // The freed key is usable again — enforcement state was
            // rebuilt through the same probe/commit path.
            assert!(store.insert(ct, vec![v(1), v(12)]).unwrap().is_accepted());
            // Double checkpoint is a semantic no-op.
            store.checkpoint().unwrap();
            store.checkpoint().unwrap();
            store.shutdown().unwrap();
        }
        // Session 3: recover after clean shutdown is the identity.
        {
            let store = Store::open_durable(&root, &schema, &fds).unwrap();
            let state = store.shutdown().unwrap();
            assert_eq!(state.relation(ct).len(), 1);
            assert!(state.relation(ct).contains(&[v(1), v(12)]));
            assert_eq!(state.relation(cs).len(), 2);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn durable_store_refuses_foreign_logs_and_misuse() {
        let root = tmp_dir("mismatch");
        let (schema, fds) = independent_setup();
        {
            let store = Store::open_durable(&root, &schema, &fds).unwrap();
            store
                .insert(schema.scheme_by_name("CT").unwrap(), vec![v(1), v(10)])
                .unwrap();
            store.shutdown().unwrap();
        }
        // Different FD set: typed mismatch, no replay.
        let other_fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        assert!(matches!(
            Store::open_durable(&root, &schema, &other_fds),
            Err(StoreError::Wal(ids_wal::WalError::SchemaMismatch { .. }))
        ));
        // Different schema: same refusal.
        let u2 = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema2 =
            DatabaseSchema::parse(u2, &[("CT", "CT"), ("CS", "CS"), ("CHRS", "CHRS")]).unwrap();
        assert!(matches!(
            Store::open_durable(&root, &schema2, &fds),
            Err(StoreError::Wal(ids_wal::WalError::SchemaMismatch { .. }))
        ));
        // Preloading an existing log is refused.
        assert!(Store::open_durable_with(
            &root,
            &schema,
            &fds,
            DurableConfig {
                store: StoreConfig {
                    shards: 0,
                    initial_state: Some(DatabaseState::empty(&schema)),
                    ordered_indexes: Vec::new(),
                },
                ..DurableConfig::default()
            },
        )
        .is_err());
        // Checkpoint on an in-memory store is a typed error.
        let mem = Store::open(&schema, &fds).unwrap();
        assert!(!mem.is_durable());
        assert!(matches!(mem.checkpoint(), Err(StoreError::NotDurable)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn preloaded_create_is_repeatable_after_a_crash_in_the_window() {
        // A crash between manifest creation and the preload snapshot
        // leaves a manifest with no history; re-running the same
        // preloaded open must succeed (and land the preload), not error
        // or silently yield an empty store.
        let root = tmp_dir("create-window");
        let (schema, fds) = independent_setup();
        let ct = schema.scheme_by_name("CT").unwrap();
        // Simulate the torn create: manifest only, nothing else.
        ids_wal::WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let mut base = DatabaseState::empty(&schema);
        base.insert(ct, vec![v(9), v(90)]).unwrap();
        let preloaded_open = || {
            Store::open_durable_with(
                &root,
                &schema,
                &fds,
                DurableConfig {
                    store: StoreConfig {
                        shards: 2,
                        initial_state: Some(base.clone()),
                        ordered_indexes: Vec::new(),
                    },
                    ..DurableConfig::default()
                },
            )
        };
        let store = preloaded_open().unwrap();
        assert_eq!(store.query(ct, &Predicate::new()).unwrap().len(), 1);
        store.shutdown().unwrap();
        // Once the store has history the same call is refused again.
        assert!(preloaded_open().is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn durable_store_pins_a_nonempty_preload_in_an_initial_snapshot() {
        let root = tmp_dir("preload");
        let (schema, fds) = independent_setup();
        let ct = schema.scheme_by_name("CT").unwrap();
        let mut base = DatabaseState::empty(&schema);
        base.insert(ct, vec![v(9), v(90)]).unwrap();
        {
            let store = Store::open_durable_with(
                &root,
                &schema,
                &fds,
                DurableConfig {
                    store: StoreConfig {
                        shards: 2,
                        initial_state: Some(base),
                        ordered_indexes: Vec::new(),
                    },
                    sync: SyncPolicy::Always,
                    app: Vec::new(),
                    ..Default::default()
                },
            )
            .unwrap();
            store.insert(ct, vec![v(8), v(80)]).unwrap();
            store.shutdown().unwrap();
        }
        let store = Store::open_durable(&root, &schema, &fds).unwrap();
        let state = store.shutdown().unwrap();
        assert_eq!(state.relation(ct).len(), 2);
        assert!(state.relation(ct).contains(&[v(9), v(90)]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_clients_on_disjoint_relations_are_deterministic() {
        let (schema, fds) = independent_setup();
        let store = Store::open(&schema, &fds).unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        let cs = schema.scheme_by_name("CS").unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..50u64 {
                    // Every odd insert violates C→T against the even one.
                    store.insert(ct, vec![v(i / 2), v(i)]).unwrap();
                }
            });
            s.spawn(|| {
                for i in 0..50u64 {
                    store.insert(cs, vec![v(i), v(i + 1)]).unwrap();
                }
            });
        });
        let state = store.shutdown().unwrap();
        // CT: 25 accepted (one per C value); CS: all 50 (no FDs).
        assert_eq!(state.relation(ct).len(), 25);
        assert_eq!(state.relation(cs).len(), 50);
    }
}

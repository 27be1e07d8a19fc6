//! # ids-store
//!
//! A concurrent maintenance store that turns schema independence into
//! uncoordinated writers.
//!
//! Theorem 3 of Graham & Yannakakis proves that on an **independent**
//! schema every insert is validated by probing only the touched relation's
//! enforcement cover `Fi`.  Read as a systems statement, that is a
//! *soundness proof for sharding*: relations share no enforcement state,
//! so each one is its own unit of concurrency with **zero cross-relation
//! coordination** — no shared lock, no two-phase commit, no validation
//! traffic between relations.  A dependent schema offers no such
//! decomposition (a single insert may need the whole-state chase,
//! Theorem 1), which is why [`Store::open`] refuses non-independent inputs
//! with a typed error carrying the analysis's counterexample.
//!
//! ## Architecture
//!
//! ```text
//!            clients (any number of threads, &Store is Sync)
//!                │ insert / remove / apply_batch / read / snapshot
//!                ▼
//!        ┌─ index by relation ─┐        no threads, no queues: the
//!        ▼                     ▼        caller locks the slot and runs
//!   ┌─────────┐           ┌─────────┐   the operation itself
//!   │ Mutex   │    ...    │ Mutex   │
//!   │ slot R0 │           │ slot Rn │   one slot per relation
//!   └─────────┘           └─────────┘
//!     tuples + Fi           tuples + Fi
//!     hash indexes          hash indexes
//!     own log writer        own log writer
//! ```
//!
//! The theorem licenses *independence*, not *threads*: a relation the
//! calling thread locks and runs itself is exactly as uncoordinated as
//! one it would message, and two callers on two relations still never
//! meet.  So a relation is a mutex-guarded **slot** — its tuples, its
//! [`ids_core::RelationShard`] and, on a durable store, its log writer —
//! and every [`Store`] method does its work on the calling thread inside
//! that one lock.  The shard is the same probe/commit machinery the
//! sequential [`ids_core::LocalMaintainer`] drives, which is exactly why
//! differential tests can replay any trace sequentially and demand
//! identical outcomes.
//!
//! ## Consistency model
//!
//! Per relation the store is **linearizable**: an operation takes effect
//! inside its slot's lock scope, so it is visible to every operation on
//! that relation that starts after it returns (read-your-writes is the
//! special case of one caller).  Across relations there is no ordering —
//! and independence is what makes that safe: every per-relation-order-
//! preserving interleaving of a trace is a serialization the sequential
//! engines would also accept, with the same outcomes and final state.
//!
//! Two read paths follow from that model:
//!
//! * [`Store::snapshot`] — a **cut**: every slot is locked, in ascending
//!   scheme order, and held while the relations are cloned, so the result
//!   is one state the store actually passed through — globally
//!   satisfying, because each relation enforced its `Fi` and
//!   `LSAT = WSAT`.  Cost scales with the whole database and stalls every
//!   writer for the copy.
//! * [`Store::read`] — the *only* per-relation read: a [`ReadPlan`]
//!   (predicate + shape of the answer) is evaluated under the one
//!   relation's lock, where the tuples and indexes live, and only the
//!   tuples, distinct join keys, or count the plan asked for are built;
//!   no other relation notices.  Because independent relations share no
//!   enforcement state, the answer is one a snapshot could also have
//!   produced.  Two reads of different relations, however, may observe
//!   cuts no single snapshot contains — that is the (only) consistency
//!   you trade for not stopping the world.
//!
//! ## The live schema
//!
//! The validated [`Schema`] handle — definition, dependencies, the one
//! independence analysis, the declared column layouts and indexes —
//! lives in this crate, with its [`SchemaBuilder`], the [`Alter`]
//! transitions and the front end's [`Error`] (`ids-api` re-exports all
//! four).  A store's topology holds exactly one handle, the schema it
//! serves: its covers are what the slots enforce, its layouts what the
//! manifest records, and [`Store::apply_transition`] swaps it for the
//! next one.  There is no second copy to fall out of step.
//!
//! ## Lock order
//!
//! Generation mutex (checkpoints and schema transitions) → topology
//! guard → slot mutexes in ascending scheme id → the value pool
//! ([`Store::names`]).  Every operation takes
//! the topology guard for reading **once** — an [`Era`] — and holds it
//! for its whole duration; only a transition's switch takes it for
//! writing.  So the write guard is a barrier: when a transition holds
//! it, no operation is in flight, and each operation finds its relation's
//! id, declared layout, cover and slot in the one [`Schema`] of its era.
//! No operation path takes the read guard a second time while holding
//! it: std readers queue behind a waiting writer, so a nested read would
//! deadlock against a pending switch.  The `ids-api` front end interns
//! into the value pool inside the era and releases it before the slot
//! is locked; a durable slot locks the pool *inside* its own lock, and
//! only to read the names of values its current log segment has not
//! defined yet.  A checkpoint locks it, to copy it, after the slots are
//! released.
//! No slot lock is ever held while taking another, except in
//! [`Store::snapshot`], which takes them all in that order.
//!
//! ## Durability
//!
//! [`Store::open_durable`] adds a write-ahead log (`ids-wal`) *inside*
//! each slot: Theorem 3 makes every accepted operation a local decision
//! of one relation's cover `Fi`, so each relation gets its own
//! append-only log with its own sequence numbers and **no ordering
//! between logs** — a lock scope appends the ops it accepted,
//! group-fsyncs them per the [`SyncPolicy`] before anything is
//! acknowledged, and never touches another relation's log.  The logs
//! are self-defining: the first record of a segment that uses a value of
//! the store's value pool ([`Store::names`]) carries the value's name,
//! so names share their records' file, fsync and policy, and no file is
//! shared between relations.  A log
//! failure poisons *that relation only*: the failing call and every later
//! operation on it report [`StoreError::ShardPoisoned`] with the first
//! failure's reason, as does every store-wide operation, while the other
//! relations keep serving.  [`Store::checkpoint`] rotates every log onto
//! a fresh generation, writes one snapshot — carrying every name of the
//! pool and its next id — and truncates the covered generations.
//! Reopening the same path rebuilds the value pool from the snapshot's
//! and the records' definitions and replays snapshot + log tails
//! through the same [`RelationShard`] probe/commit machinery the live
//! store runs — replay is per-relation, embarrassingly parallel in
//! principle, and doubles as an integrity check (every logged op must
//! re-accept).  A log written under a different schema or FD set is
//! refused with a typed [`WalError::SchemaMismatch`].  That replay is
//! one step and attaching the log writers another: [`Store::recover_from`]
//! runs the replay alone, into an in-memory store that touches no file —
//! which is how a replication follower (`ids-replica`) bootstraps.

#![warn(missing_docs)]

mod error;
mod schema;

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

use ids_core::{
    IndependenceAnalysis, InsertOutcome, MaintenanceError, NotIndependentReason, RelationShard,
    Witness,
};
use ids_deps::{Fd, FdSet};
use ids_obs::{Counter, Event, LatencyHistogram, MetricsSnapshot, Registry};
use ids_relational::{
    AttrId, DatabaseSchema, DatabaseState, Predicate, ReadPlan, ReadReply, Relation,
    RelationalError, SchemeId, Tuple, Value, ValuePool,
};
use ids_wal::{Cursor, Manifest, WalDir, WalError, WalMetrics, WalOp, WalWriter};

pub use error::Error;
pub use ids_wal::SyncPolicy;
pub use schema::{Alter, RelationLayout, Schema, SchemaBuilder};

/// One operation of a store workload, run inside its relation's slot.
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
    /// A lock guarding the store's state is poisoned: a thread panicked
    /// while holding it, so what it guards can no longer be trusted.
    Disconnected,
    /// A relation's log hit a durability failure (WAL append, sync or
    /// rotate): the failing call was not acknowledged and the relation
    /// serves nothing any more.  The first failure's reason is preserved
    /// in a poison cell and reported — verbatim — by every later
    /// operation on that relation and every store-wide one.  A schema
    /// switch that fails after its durability point poisons every
    /// relation this way.
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
            Self::Disconnected => write!(f, "a store lock was poisoned by a panicking thread"),
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
    /// Inert: every relation is its own slot, run by its caller, so
    /// there is nothing to size.  Kept only for source compatibility;
    /// nothing reads it.
    pub shards: usize,
    /// Initial state to load; every relation must satisfy its cover.
    pub initial_state: Option<DatabaseState>,
    /// Ordered secondary indexes to build, one `(relation,
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
    /// Fault injection for poisoning tests (not part of the stable API):
    /// every relation's log writer fails its appends after this many
    /// successful ones, as if the disk went bad mid-workload.
    #[doc(hidden)]
    pub fail_appends_after: Option<u64>,
}

/// The one mapping from the enforcement kernel's errors to the store's.
impl From<MaintenanceError> for StoreError {
    fn from(e: MaintenanceError) -> Self {
        match e {
            MaintenanceError::Relational(e) => Self::Relational(e),
            MaintenanceError::UnknownScheme(id) => Self::UnknownScheme(id),
            MaintenanceError::BaseStateViolation { scheme, violated } => {
                Self::InvalidBaseState { scheme, violated }
            }
            MaintenanceError::NotIndependent { reason, witness } => {
                Self::NotIndependent { reason, witness }
            }
            // Only the whole-state `ChaseMaintainer` runs the chase; the
            // store calls `validate_op` and `RelationShard`, which never do.
            MaintenanceError::Chase(e) => unreachable!("a relation shard ran the chase: {e}"),
        }
    }
}

/// One relation of the store: its enforcement shard, its tuples, its
/// metric family and — on a durable store — its write-ahead log writer.
/// Lives behind its own mutex in [`Topology::slots`]; whoever holds the
/// lock runs the operation.
#[derive(Debug)]
struct Slot {
    id: SchemeId,
    shard: RelationShard,
    rel: Relation,
    wal: Option<WalWriter>,
    metrics: ShardMetrics,
    /// Set by a durability failure on this relation's log (or by a schema
    /// switch that failed after its durability point): the slot serves
    /// nothing any more, and [`Store::poison`] holds the reason.
    dead: bool,
}

/// Metric handles of one slot, interned in the store's registry under
/// `store.shard{i}.*` names.  Per Theorem 3's locality argument, each
/// relation records only into its **own** family — telemetry never makes
/// two relations share a cache line, just as enforcement never makes them
/// share state.
#[derive(Debug)]
struct ShardMetrics {
    /// The `{i}` of the family's names, also what
    /// [`Event::ShardPoisoned`] reports.  A relation keeps its family
    /// for life, however a schema transition renumbers its scheme.
    index: u64,
    /// Inserts committed (`InsertOutcome::Accepted`).
    accepted: Arc<Counter>,
    /// Inserts that found the tuple already present.
    duplicate: Arc<Counter>,
    /// Inserts refused by the enforcement cover probe.
    rejected: Arc<Counter>,
    /// Removes of a present tuple.
    removed: Arc<Counter>,
    /// Wall-clock latency of each write lock scope (probe + commit + WAL
    /// append + group fsync), recorded once per scope.
    apply_ns: Arc<LatencyHistogram>,
}

impl ShardMetrics {
    fn new(registry: &Registry, index: usize) -> Self {
        let name = |what: &str| format!("store.shard{index}.{what}");
        ShardMetrics {
            index: index as u64,
            accepted: registry.counter(&name("accepted")),
            duplicate: registry.counter(&name("duplicate")),
            rejected: registry.counter(&name("rejected")),
            removed: registry.counter(&name("removed")),
            apply_ns: registry.histogram(&name("apply_ns")),
        }
    }
}

/// Outcome counts of one write lock scope.  Instrumentation is amortized
/// over the scope: the per-op tallies are plain integers, flushed with
/// four relaxed adds (plus one histogram sample) when the scope ends —
/// the hot loop itself touches no atomics.
#[derive(Default)]
struct Tally {
    accepted: u64,
    duplicate: u64,
    rejected: u64,
    removed: u64,
}

impl Slot {
    fn new(
        id: SchemeId,
        shard: RelationShard,
        rel: Relation,
        wal: Option<WalWriter>,
        metrics: ShardMetrics,
    ) -> Self {
        Slot {
            id,
            shard,
            rel,
            wal,
            metrics,
            dead: false,
        }
    }

    /// Probes and commits one insert, logging it when accepted.  An op
    /// the slot cannot log must not be acknowledged: the `Wal` error
    /// ends the lock scope, which poisons the slot (see [`Store::write`]).
    fn insert(
        &mut self,
        tuple: Vec<Value>,
        tally: &mut Tally,
    ) -> Result<InsertOutcome, StoreError> {
        // Clone for the log only when there is one: the in-memory fast
        // path stays allocation-free per op.
        let to_log = self.wal.is_some().then(|| tuple.clone());
        let outcome = self.shard.insert(&mut self.rel, tuple)?;
        match outcome {
            InsertOutcome::Accepted => {
                tally.accepted += 1;
                if let (Some(w), Some(t)) = (&mut self.wal, to_log) {
                    w.append(WalOp::Insert(t))?;
                }
            }
            InsertOutcome::Duplicate => tally.duplicate += 1,
            InsertOutcome::Rejected { .. } => tally.rejected += 1,
        }
        Ok(outcome)
    }

    /// Removes one tuple, logging the remove when it was present.
    fn remove(&mut self, tuple: Vec<Value>, tally: &mut Tally) -> Result<bool, StoreError> {
        let present = self.shard.remove(&mut self.rel, &tuple)?;
        if present {
            tally.removed += 1;
            if let Some(w) = &mut self.wal {
                w.append(WalOp::Remove(tuple))?;
            }
        }
        Ok(present)
    }

    /// Re-validates the relation under `cover` and, on success, installs
    /// it as the enforcement cover, returning the tuple count — the
    /// **backfill** step of a schema transition, and O(rows).  During an
    /// alter the cover is first the union of the old and new covers, so
    /// traffic accepted between the backfill and the switch satisfies
    /// both schemas, and then the exact new cover; during a rollback it
    /// is the exact old cover.  On violation nothing is installed and the
    /// error carries the violated FD plus a violating pair of tuples.
    fn install_cover(&mut self, cover: FdSet) -> Result<u64, StoreError> {
        let schema = self.shard.schema().clone();
        match RelationShard::with_relation(&schema, self.id, cover, &self.rel) {
            Ok(mut shard) => {
                // The rebuilt shard revalidated the relation under the
                // candidate cover; carry the ordered secondary indexes
                // over before installing it.
                let ordered: Vec<AttrId> = self.shard.ordered_columns().collect();
                for attr in ordered {
                    shard.add_ordered_index(attr, &self.rel)?;
                }
                self.shard = shard;
                Ok(self.rel.len() as u64)
            }
            Err(MaintenanceError::BaseStateViolation { violated, .. }) => {
                Err(StoreError::BackfillViolation {
                    scheme: self.id,
                    violated,
                    witness: violating_pair(&schema, self.id, &self.rel, violated),
                })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// This relation's half of a schema switch: the shard is retargeted
    /// to its new [`SchemeId`] (same attribute set — the universe is
    /// append-only, so this is O(1)) and the log rotated onto `new_gen`
    /// under the new scheme index, so every post-transition record lands
    /// in a segment its era's manifest governs.
    fn retarget(
        &mut self,
        schema: &DatabaseSchema,
        id: SchemeId,
        new_gen: u64,
    ) -> Result<(), StoreError> {
        self.shard.retarget(schema, id)?;
        if let Some(w) = &mut self.wal {
            w.rotate_as(id.index() as u16, new_gen)?;
        }
        self.id = id;
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
    let mut seen: std::collections::HashMap<Vec<Value>, &[Value]> =
        std::collections::HashMap::new();
    for t in rel.iter() {
        let key: Vec<Value> = lhs.iter().map(|&p| t[p]).collect();
        match seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let prev = *e.get();
                if rhs.iter().any(|&p| prev[p] != t[p]) {
                    return vec![prev.into(), t.into()];
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(t);
            }
        }
    }
    Vec::new()
}

/// The concurrent maintenance store: one mutex-guarded slot per relation,
/// run by whichever thread calls in.
///
/// `&Store` is `Send + Sync`: any number of client threads may call
/// [`Store::insert`] / [`Store::apply_batch`] / [`Store::snapshot`]
/// concurrently.  See the crate docs for the consistency model.
#[derive(Debug)]
pub struct Store {
    /// The state an operation consults: the schema and the slots
    /// themselves.  Behind a read-write lock so
    /// [`Store::apply_transition`] can swap the whole set atomically
    /// while normal traffic takes cheap, uncontended read guards.
    topology: RwLock<Topology>,
    /// The first durability failure's reason.  Set exactly once, before
    /// any slot is marked dead, and reported — verbatim — by every
    /// operation that meets a dead slot.
    poison: OnceLock<String>,
    /// Present on durable stores: the directory handle plus the current
    /// segment generation, serialized under a mutex so checkpoints and
    /// schema transitions cannot interleave.
    durability: Option<Durability>,
    /// The store's observability surface: the registry every layer's
    /// metric families are interned in.
    obs: StoreObs,
    /// The value pool the logs name their values from: rebuilt by
    /// recovery, shared with every log writer, read by checkpoints.
    /// `None` for a store built in memory.
    names: Option<Arc<Mutex<ValuePool>>>,
}

/// The serving state of a [`Store`], swapped wholesale by a schema
/// transition.  Everything an operation needs between "caller thread"
/// and "the relation's tuples" lives here, so one read guard answers
/// every question consistently.
#[derive(Debug)]
struct Topology {
    /// The one live schema: names, declared layouts, covers (each slot's
    /// shard enforces its relation's cover from here).
    schema: Arc<Schema>,
    /// One slot per relation, indexed by scheme.
    slots: Vec<Mutex<Slot>>,
    /// Metric families minted so far; a relation added by a transition
    /// takes the next index.
    families: usize,
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
    /// Sync cadence of every relation's log.
    sync: SyncPolicy,
    /// Fault injection carried to every writer, including those created
    /// after open.
    fail_appends_after: Option<u64>,
    /// The store-wide WAL metric family (aggregated across relations —
    /// per-relation fan-out is per-slot already), attached to every
    /// writer — including those created for relations added by a
    /// transition.
    wal_metrics: WalMetrics,
}

impl Durability {
    /// Opens relation `id`'s log segment at `gen`, continuing its
    /// sequence numbering from `last_seq`, wired to the store's fault
    /// injection, WAL metric family and value pool `names`.
    fn writer(
        &self,
        id: SchemeId,
        gen: u64,
        last_seq: u64,
        names: &Arc<Mutex<ValuePool>>,
    ) -> Result<WalWriter, WalError> {
        let mut writer = self.dir.segment_writer(id.index() as u16, gen, last_seq)?;
        if let Some(n) = self.fail_appends_after {
            writer.fail_appends_after(n);
        }
        writer.set_metrics(self.wal_metrics.clone());
        writer.set_names(Arc::clone(names));
        Ok(writer)
    }
}

impl Store {
    /// Opens a store over `schema`, enforcing `fds ∪ {*D}`, with one
    /// slot per relation, starting from the empty state.
    ///
    /// Runs the full independence analysis first and refuses
    /// non-independent schemas with [`StoreError::NotIndependent`].
    pub fn open(schema: &DatabaseSchema, fds: &FdSet) -> Result<Self, StoreError> {
        Self::open_with(schema, fds, StoreConfig::default())
    }

    /// Opens a store with an explicit initial state and/or ordered indexes.
    pub fn open_with(
        schema: &DatabaseSchema,
        fds: &FdSet,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let analysis = ids_core::analyze(schema, fds);
        Self::from_schema(
            Schema::canonical(schema.clone(), fds.clone(), analysis),
            config,
        )
    }

    /// Opens a store from an already-computed independence analysis,
    /// without re-running the decision procedure.  The analysis does not
    /// name the dependencies it was computed from, so the store's
    /// [`Schema`] records the union of its enforcement covers — the
    /// dependencies the store enforces — in their place.
    pub fn from_analysis(
        schema: &DatabaseSchema,
        analysis: &IndependenceAnalysis,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let fds = covers(schema, analysis)?.iter().flat_map(FdSet::iter);
        let schema = Schema::canonical(schema.clone(), fds.copied().collect(), analysis.clone());
        Self::from_schema(schema, config)
    }

    /// Opens an in-memory store serving `schema` — the path the `ids-api`
    /// facade takes, where the builder analyzed the schema exactly once.
    /// The handle becomes the store's live schema ([`Store::schema`]),
    /// so the declared column layouts travel with it; the ordered
    /// indexes it declares are built beside any in `config`.
    ///
    /// A preload (`config.initial_state`) is roundtripped through
    /// `from_relations` to revalidate its full shape — it may come from a
    /// different schema handle, and a mismatched relation must be a typed
    /// error — and every relation is indexed and validated against its
    /// cover.
    pub fn from_schema(schema: Schema, config: StoreConfig) -> Result<Self, StoreError> {
        let definition = &schema.definition;
        let covers = schema.covers()?;
        let relations: Vec<Relation> = match config.initial_state {
            Some(state) => {
                DatabaseState::from_relations(definition, state.into_relations())?.into_relations()
            }
            None => (definition.ids())
                .map(|id| Relation::new(definition.attrs(id)))
                .collect(),
        };
        let mut shards = Vec::with_capacity(definition.len());
        for (id, rel) in definition.ids().zip(relations.iter()) {
            let fi = covers[id.index()].clone();
            shards.push(RelationShard::with_relation(definition, id, fi, rel)?);
        }
        apply_ordered_indexes(&schema, &mut shards, &relations, &config.ordered_indexes)?;
        Ok(Self::assemble(schema, relations, shards))
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

    /// Durable open from an already-computed independence analysis.
    /// `fds` must be the set the analysis was computed from; it is
    /// pinned in the manifest so a later open under different
    /// dependencies is refused.
    pub fn open_durable_from_analysis(
        path: impl AsRef<Path>,
        schema: &DatabaseSchema,
        fds: &FdSet,
        analysis: &IndependenceAnalysis,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        let schema = Schema::canonical(schema.clone(), fds.clone(), analysis.clone());
        Self::open_durable_schema(path, schema, config)
    }

    /// Durable open serving `schema` — the path the `ids-api` facade
    /// takes.  The first open creates the directory, whose manifest
    /// records the schema with its declared column layouts and indexes;
    /// every later open recovers, as [`Store::recover_durable`].
    pub fn open_durable_schema(
        path: impl AsRef<Path>,
        schema: Schema,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref();
        if WalDir::exists(path) {
            return Self::recover_durable(WalDir::open(path)?, schema, config);
        }
        schema.covers()?;
        let app = schema.encode_layouts();
        let dir = WalDir::create(path, &schema.definition, &schema.fds, app)?;
        let last_seqs = vec![0; schema.definition.len()];
        let store = Self::preload(&dir, schema, config.store)?;
        store.attach_writers(dir, 1, &last_seqs, config.sync, config.fail_appends_after)
    }

    /// Durable reopen over an **already-open** directory handle — the
    /// entry point `Database::recover` uses after reading the manifest,
    /// so the manifest is decoded exactly once per open.  Refuses a
    /// handle whose manifest disagrees with `schema`'s relations and
    /// dependencies, then recovers exactly as [`Store::recover_from`]
    /// does and attaches one log writer per relation on a fresh
    /// generation.
    pub fn recover_durable(
        dir: WalDir,
        schema: Schema,
        config: DurableConfig,
    ) -> Result<Self, StoreError> {
        schema.covers()?;
        dir.check_identity(&schema.definition, &schema.fds)?;
        let recovered = dir.recover()?;
        let next_gen = recovered.next_gen;
        let (store, last_seqs) = if config.store.initial_state.is_some() {
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
            let last_seqs = vec![0; schema.definition.len()];
            (Self::preload(&dir, schema, config.store)?, last_seqs)
        } else {
            let indexes = &config.store.ordered_indexes;
            Self::replay(&dir, schema, recovered, indexes)?
        };
        store.attach_writers(
            dir,
            next_gen,
            &last_seqs,
            config.sync,
            config.fail_appends_after,
        )
    }

    /// Recovers the durable directory `dir` into an **in-memory** store
    /// serving `schema`: snapshot plus per-relation log tails, replayed
    /// through the normal probe/commit machinery by the one replay a
    /// durable reopen runs too (which then attaches its log writers).
    /// Read-only: no writer is opened and no file is created or
    /// modified, so it may run against a directory a live primary keeps
    /// appending to — a replication follower's bootstrap.  `schema` must
    /// be the directory's latest manifest (a typed
    /// [`WalError::SchemaMismatch`] otherwise); build it with
    /// [`Schema::from_manifest`] so its declared layouts and indexes
    /// come along.
    ///
    /// Returns the store and, per relation in scheme order, the `(gen,
    /// seq)` the replay reached — where a follower resumes tailing.
    pub fn recover_from(dir: &WalDir, schema: Schema) -> Result<(Self, Vec<Cursor>), StoreError> {
        schema.covers()?;
        dir.check_identity(&schema.definition, &schema.fds)?;
        let recovered = dir.recover()?;
        let gen = recovered.next_gen - 1;
        let (store, last_seqs) = Self::replay(dir, schema, recovered, &[])?;
        let cursors = last_seqs.into_iter().map(|seq| Cursor { gen, seq });
        Ok((store, cursors.collect()))
    }

    /// [`Store::from_schema`] for a durable store: a nonempty preload —
    /// which lives in no log — is pinned in an initial snapshot so
    /// recovery starts from it.  Shared by the fresh-create path and the
    /// repeat of a create that crashed before its snapshot landed.
    fn preload(dir: &WalDir, schema: Schema, config: StoreConfig) -> Result<Self, StoreError> {
        let store = Self::from_schema(schema, config)?;
        let state = store.snapshot()?;
        if state.total_tuples() > 0 {
            dir.write_snapshot(&state, &vec![0; state.len()], 0, Vec::new(), 0)?;
        }
        Ok(store)
    }

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
    /// index of the generation manifest governing its segment, beside the
    /// relation's index there (`Recovered::eras`) — and replays
    /// under that era's schema and enforcement covers, so a record accepted
    /// before an `ALTER` is re-judged by exactly the rules that accepted
    /// it.  Era covers come from re-running the independence analysis on
    /// the era manifest (a cold path, memoized per era); the final era
    /// reuses `schema`'s covers.  With a single-entry manifest chain this
    /// degenerates to plain single-schema replay.
    ///
    /// The store keeps the value pool recovery rebuilt ([`Store::names`]).
    ///
    /// Returns the in-memory store and each relation's last sequence
    /// number; replay progress lands in the store's registry as the
    /// `wal.r{i}.recovered_records` family (the per-relation fact —
    /// replicas reuse the names for their bootstrap), the aggregate
    /// `wal.recovered_records` and one [`Event::RecoveryReplayed`].
    fn replay(
        dir: &WalDir,
        schema: Schema,
        recovered: ids_wal::Recovered,
        ordered_indexes: &[(SchemeId, AttrId)],
    ) -> Result<(Self, Vec<u64>), StoreError> {
        let last_seqs = recovered.last_seqs();
        // Replay is a cold path: time it unconditionally so the summary
        // event carries a real duration even if recording was toggled.
        let start = Instant::now();
        let chain = dir.manifests();
        let last_era = chain.len() - 1;
        let root = dir.root();
        let (definition, enforcement) = (&schema.definition, schema.covers()?);
        let mut era_enf: Vec<Option<Vec<FdSet>>> = vec![None; chain.len()];
        let base = recovered.base.into_relations();
        let mut relations = Vec::with_capacity(definition.len());
        let mut shards = Vec::with_capacity(definition.len());
        let mut replayed = vec![0u64; definition.len()];
        let tails = recovered.tail.into_iter().zip(recovered.eras);
        for ((id, mut rel), (records, eras)) in definition.ids().zip(base).zip(tails) {
            let mut records = records.into_iter().peekable();
            let mut cur: Option<(usize, RelationShard)> = None;
            for (era, eid) in eras {
                let mut shard = if era == last_era {
                    let cover = enforcement[id.index()].clone();
                    RelationShard::with_relation(definition, id, cover, &rel)?
                } else {
                    let m = &chain[era].1;
                    let covers = match &mut era_enf[era] {
                        Some(covers) => covers,
                        unfilled => {
                            let analysis = ids_core::analyze(&m.schema, &m.fds);
                            unfilled.insert(covers(&m.schema, &analysis)?.to_vec())
                        }
                    };
                    let cover = covers[eid.index()].clone();
                    RelationShard::with_relation(&m.schema, eid, cover, &rel)?
                };
                while let Some((_, record)) = records.next_if(|(e, _)| *e == era) {
                    let seq = record.seq;
                    replayed[id.index()] += 1;
                    let reapplied = match record.op {
                        WalOp::Insert(t) => {
                            matches!(shard.insert(&mut rel, t), Ok(InsertOutcome::Accepted))
                        }
                        WalOp::Remove(t) => matches!(shard.remove(&mut rel, &t), Ok(true)),
                    };
                    if !reapplied {
                        return Err(WalError::Corrupt {
                            path: root.to_path_buf(),
                            detail: format!(
                                "logged op did not replay cleanly (relation {id:?}, seq {seq})"
                            ),
                        }
                        .into());
                    }
                }
                cur = Some((era, shard));
            }
            // The live shard runs under the final schema and cover; reuse
            // the last era's shard when it already is that.
            let shard = match cur {
                Some((era, shard)) if era == last_era => shard,
                _ => {
                    let cover = enforcement[id.index()].clone();
                    RelationShard::with_relation(definition, id, cover, &rel)?
                }
            };
            relations.push(rel);
            shards.push(shard);
        }
        // Indexes are declared only after replay, so they absorb the final
        // recovered relations in their (replayed) insertion order.
        apply_ordered_indexes(&schema, &mut shards, &relations, ordered_indexes)?;
        let duration = start.elapsed();
        let store = Store {
            names: Some(Arc::new(Mutex::new(recovered.names))),
            ..Self::assemble(schema, relations, shards)
        };
        let registry = &store.obs.registry;
        for (i, n) in replayed.iter().enumerate() {
            registry
                .counter(&format!("wal.r{i}.recovered_records"))
                .add(*n);
        }
        let records = replayed.iter().sum();
        registry.counter("wal.recovered_records").add(records);
        (registry.events()).record(Event::RecoveryReplayed { records, duration });
        Ok((store, last_seqs))
    }

    /// Wraps each relation's tuples and shard (scheme order) in its slot:
    /// an in-memory store serving `schema`.  [`Store::attach_writers`]
    /// makes it durable.
    fn assemble(schema: Schema, relations: Vec<Relation>, shards: Vec<RelationShard>) -> Store {
        let registry = Arc::new(Registry::new());
        let slots = (schema.definition.ids().zip(relations).zip(shards))
            .map(|((id, rel), shard)| {
                let metrics = ShardMetrics::new(&registry, id.index());
                Mutex::new(Slot::new(id, shard, rel, None, metrics))
            })
            .collect();
        Store {
            topology: RwLock::new(Topology {
                families: schema.definition.len(),
                schema: Arc::new(schema),
                slots,
            }),
            poison: OnceLock::new(),
            durability: None,
            obs: StoreObs { registry },
            names: None,
        }
    }

    /// Makes an in-memory store durable over `dir`: one segment writer
    /// per relation on generation `next_gen`, continuing its sequence
    /// numbering from `last_seqs`, all wired to the store-wide WAL
    /// metric family and to the value pool (a fresh one unless recovery
    /// rebuilt it).
    fn attach_writers(
        mut self,
        dir: WalDir,
        next_gen: u64,
        last_seqs: &[u64],
        sync: SyncPolicy,
        fail_appends_after: Option<u64>,
    ) -> Result<Self, StoreError> {
        let wal_metrics = WalMetrics::new();
        let registry = &self.obs.registry;
        registry.register_counter("wal.appends", Arc::clone(&wal_metrics.appends));
        registry.register_counter("wal.append_bytes", Arc::clone(&wal_metrics.append_bytes));
        registry.register_counter("wal.fsyncs", Arc::clone(&wal_metrics.fsyncs));
        registry.register_histogram("wal.fsync_ns", Arc::clone(&wal_metrics.fsync_ns));
        registry.register_counter("wal.rotations", Arc::clone(&wal_metrics.rotations));
        let durability = Durability {
            dir,
            gen: Mutex::new(next_gen),
            sync,
            fail_appends_after,
            wal_metrics,
        };
        let names = (self.names).get_or_insert_with(|| Arc::new(Mutex::new(ValuePool::new())));
        let topo = self
            .topology
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for (slot, &last_seq) in topo.slots.iter_mut().zip(last_seqs) {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            slot.wal = Some(durability.writer(slot.id, next_gen, last_seq, names)?);
        }
        self.durability = Some(durability);
        Ok(self)
    }

    /// Takes the topology read guard every operation holds for its whole
    /// duration.  The lock is poisoned only by a panic inside a schema
    /// switch, which may have left the slots half-switched: nothing can
    /// be served from that.
    fn topology(&self) -> Result<RwLockReadGuard<'_, Topology>, StoreError> {
        self.topology.read().map_err(|_| StoreError::Disconnected)
    }

    /// Pins the current topology era for one operation: see [`Era`].
    pub fn era(&self) -> Result<Era<'_>, StoreError> {
        Ok(Era {
            store: self,
            topo: self.topology()?,
        })
    }

    /// Locks relation `id`'s slot, refusing a dead one with the preserved
    /// reason.  `id` must have been validated against `topo.schema`.
    fn lock<'t>(
        &self,
        topo: &'t Topology,
        id: SchemeId,
    ) -> Result<MutexGuard<'t, Slot>, StoreError> {
        let slot = topo.slots[id.index()]
            .lock()
            .map_err(|_| StoreError::Disconnected)?;
        if slot.dead {
            return Err(self.poisoned());
        }
        Ok(slot)
    }

    /// The error every operation that meets a dead slot reports: the
    /// preserved reason of the first durability failure.  (A slot is
    /// marked dead only after the cell is set, so the default is never
    /// seen.)
    fn poisoned(&self) -> StoreError {
        StoreError::ShardPoisoned {
            reason: self.poison.get().cloned().unwrap_or_default(),
        }
    }

    /// Refuses a store-wide operation on a poisoned store up front, so it
    /// cannot leave the healthy relations half-way through it.
    fn healthy(&self) -> Result<(), StoreError> {
        match self.poison.get() {
            Some(_) => Err(self.poisoned()),
            None => Ok(()),
        }
    }

    /// Records a durability failure in the poison cell (first error
    /// wins) and returns the error the failing call reports.  The first
    /// failure is also published as an [`Event::ShardPoisoned`] in the
    /// store's event ring, so a stats poll discovers the reason without
    /// issuing a (failing) operation.  The caller marks the slot dead
    /// *after* this returns and before it releases the slot's lock, so
    /// no operation can find a dead slot without the reason being
    /// readable.
    fn record_poison(&self, shard: u64, e: &dyn std::fmt::Display) -> StoreError {
        let reason = e.to_string();
        if self.poison.set(reason.clone()).is_ok() {
            self.obs
                .registry
                .events()
                .record(Event::ShardPoisoned { shard, reason });
        }
        self.poisoned()
    }

    /// A relation's log failed inside a lock scope: record the reason and
    /// mark the slot dead.  Nothing the scope did is acknowledged.
    fn poison_slot(&self, slot: &mut Slot, e: WalError) -> StoreError {
        let err = self.record_poison(slot.metrics.index, &e);
        slot.dead = true;
        err
    }

    /// The preserved reason of the first durability failure, when one has
    /// poisoned this store.  Relations whose logs did not fail keep
    /// serving; every operation that *does* touch the poisoned relation
    /// (and any store-wide operation) reports
    /// [`StoreError::ShardPoisoned`] with this reason.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poison.get().map(String::as_str)
    }

    /// The schema the store currently serves — its one live schema,
    /// covers and declared layouts included.  Cheap (one read lock, one
    /// `Arc` clone).  A schema transition swaps the handle; holders of a
    /// previous `Arc` keep a consistent (if stale) view.  Survives lock
    /// poisoning: a switch assigns the handle in its last, panic-free
    /// step.
    pub fn schema(&self) -> Arc<Schema> {
        let topo = self.topology.read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&topo.schema)
    }

    /// True when the store was opened with a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The value pool the store's logs name their values from — what a
    /// durable open or a recovery ([`Store::recover_from`] included)
    /// rebuilt from the directory's definitions, and every log writer
    /// and checkpoint reads.  `None` for a store built in memory.  The
    /// `ids-api` front end interns into this same pool.
    pub fn names(&self) -> Option<Arc<Mutex<ValuePool>>> {
        self.names.clone()
    }

    /// Root of a durable store's log directory — what a replication
    /// follower (or the server's subscribe path) tails read-only.
    pub fn wal_root(&self) -> Option<std::path::PathBuf> {
        self.durability.as_ref().map(|d| d.dir.root().to_path_buf())
    }

    /// The current schema generation of a durable store: 0 at creation,
    /// bumped by every checkpoint and every accepted
    /// [`Store::apply_transition`].
    pub fn generation(&self) -> Option<u64> {
        self.durability
            .as_ref()
            .map(|d| *d.gen.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Checkpoints a durable store: every relation's current log segment
    /// is sealed (fsync'd) under its slot's lock and its tuples cloned —
    /// a per-relation cut; the cut is written as one snapshot
    /// (atomically, temp + rename) and the covered segments are deleted —
    /// the log truncation.
    ///
    /// Unlike [`Store::snapshot`], the cut is only per-relation
    /// consistent (slots are visited one at a time), which independence
    /// makes globally satisfying.  Safe to call repeatedly (a checkpoint
    /// with no new records just rewrites an identical snapshot) and
    /// concurrently (checkpoints serialize on an internal lock).  A crash
    /// between the snapshot write and the pruning leaves only covered
    /// segments behind, which recovery skips.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let d = self.durability.as_ref().ok_or(StoreError::NotDurable)?;
        let mut gen = d.gen.lock().map_err(|_| StoreError::Disconnected)?;
        self.healthy()?;
        let topo = self.topology()?;
        let old_gen = *gen;
        let new_gen = old_gen + 1;
        let start = ids_obs::recording().then(Instant::now);
        self.obs.registry.events().record(Event::CheckpointStarted {
            generation: new_gen,
        });
        let definition = &topo.schema.definition;
        let mut relations = Vec::with_capacity(definition.len());
        let mut seqs = Vec::with_capacity(definition.len());
        for id in definition.ids() {
            let mut slot = self.lock(&topo, id)?;
            let wal = slot.wal.as_mut().ok_or(StoreError::NotDurable)?;
            match wal.rotate(new_gen) {
                Ok(sealed) => seqs.push(sealed),
                Err(e) => return Err(self.poison_slot(&mut slot, e)),
            }
            relations.push(slot.rel.clone());
        }
        // The logs are on `new_gen` now, whatever happens below:
        // advance the counter immediately so a snapshot/prune failure
        // leaves the checkpoint *retryable* (the retry rotates onto yet
        // another generation and its snapshot covers everything the
        // failed attempt left behind) instead of colliding with the
        // already-created segment files.
        *gen = new_gen;
        let state = DatabaseState::from_relations(definition, relations)?;
        let (names, next_id) = self.pool_names()?;
        d.dir
            .write_snapshot(&state, &seqs, old_gen, names, next_id)?;
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

    /// The `(value, name)` of every name in the pool, and the pool's
    /// next id: what a snapshot must define, since the segments that did
    /// are the ones it lets a checkpoint prune.  The whole pool, not just
    /// the names the rows use — a name whose rows are all gone keeps its
    /// id, as any follower that saw it does.  The pool is locked only to
    /// copy it.
    fn pool_names(&self) -> Result<(Vec<(Value, String)>, u64), StoreError> {
        let Some(names) = &self.names else {
            return Ok((Vec::new(), 0));
        };
        let pool = names.lock().map_err(|_| StoreError::Disconnected)?.clone();
        let defs = pool.iter().map(|(name, v)| (v, name.to_owned())).collect();
        Ok((defs, pool.len() as u64))
    }

    /// Applies an `ALTER`-class schema transition to the **running**
    /// store: add/drop a relation, add/drop a functional dependency —
    /// any change whose target schema the caller has already built.
    /// Returns the new segment generation on success.
    ///
    /// `next` is the complete target handle (`ids-api` builds it with
    /// [`Schema::evolved`]): a dependent target is refused with
    /// [`StoreError::NotIndependent`] (carrying the `LSAT ∖ WSAT`
    /// witness) and the current schema keeps serving.  The new manifest
    /// records `next` with its declared column layouts and indexes, and
    /// after the switch `next` is the store's live schema.
    ///
    /// A relation survives the transition when the target holds one of
    /// the same name over the same attributes
    /// ([`DatabaseSchema::remap_from`], the rule recovery and replication
    /// apply to the manifest chain); a same-name relation over other
    /// attributes is refused with a typed [`RelationalError::SchemaMismatch`].
    ///
    /// The transition runs in three phases on the calling thread,
    /// serialized with checkpoints on the generation mutex:
    ///
    /// 1. **Backfill** (topology read lock — traffic keeps flowing):
    ///    every surviving relation whose new enforcement cover is not
    ///    implied by its old one revalidates its tuples under the
    ///    *union* of both covers, inside its own slot's lock, and
    ///    installs the union on success.  A violation rolls the
    ///    already-prepared relations back to their exact old covers and
    ///    refuses the transition with [`StoreError::BackfillViolation`] —
    ///    violated FD plus a violating pair of tuples.  Traffic accepted
    ///    between backfill and switch satisfies both schemas, which is
    ///    what makes the crash window sound in both directions.
    /// 2. **Durability point**: a generation-numbered manifest
    ///    (`MANIFEST-g{n}`) is staged and renamed into the log
    ///    directory.  From here the transition *will* be in effect
    ///    after any crash; until here a crash recovers the old schema,
    ///    and any error leaves the current schema serving, untouched.
    /// 3. **Switch**: each surviving relation, inside its own slot's
    ///    lock, is retargeted to its new scheme id (O(1): same attribute
    ///    set) and its log rotated onto the new generation — sound ahead
    ///    of the swap, because the manifest already governs that
    ///    generation and what the relation accepts meanwhile satisfies
    ///    both schemas; added relations get fresh slots.  All the I/O
    ///    happens there, so a relation waits for its own log only.  Then,
    ///    under the topology **write lock**, dropped slots are released
    ///    and the topology is swapped — memory only.  Every operation
    ///    holds its [`Era`]'s read guard for its duration, so none is in
    ///    flight: the write lock cleanly splits old-schema from
    ///    new-schema operations.  Finally a relation still enforcing a
    ///    union (or otherwise stale) cover is rebuilt under its exact new
    ///    cover, again inside its own slot's lock, so untouched relations
    ///    keep serving through every O(rows) step.  An error in the switch
    ///    cannot be returned with the old schema still serving —
    ///    recovery would load the new one — so it **poisons the whole
    ///    store**: every slot is marked dead and the failing call, like
    ///    every later operation, reports [`StoreError::ShardPoisoned`]
    ///    with the reason.
    pub fn apply_transition(&self, next: Schema) -> Result<u64, StoreError> {
        let d = self.durability.as_ref().ok_or(StoreError::NotDurable)?;
        let reject = |e: StoreError| {
            self.obs.registry.counter("evolve.rejected").inc();
            self.obs.registry.events().record(Event::AlterRejected {
                reason: e.to_string(),
            });
            e
        };
        let new_covers = next.covers().map_err(reject)?;
        // Serialize with checkpoints and other transitions.
        let mut gen = d.gen.lock().map_err(|_| StoreError::Disconnected)?;
        self.healthy()?;
        let new_gen = *gen + 1;

        // Phase 1: remap + backfill under a topology *read* lock.
        let remap = {
            let topo = self.topology()?;
            let (old, old_covers) = (&topo.schema.definition, topo.schema.covers()?);
            // `old index → new index` for the survivors.
            let mut remap: Vec<Option<SchemeId>> = vec![None; old.len()];
            let from = next.definition.remap_from(old);
            for ((nid, scheme), at) in next.definition.iter().zip(from) {
                match at {
                    Some(id) => remap[id.index()] = Some(nid),
                    None if old.scheme_by_name(&scheme.name).is_some() => {
                        return Err(RelationalError::SchemaMismatch(
                            "a surviving relation changed its attribute set",
                        )
                        .into())
                    }
                    None => {}
                }
            }
            // Which survivors need a backfill: those whose old cover
            // does not already imply every FD of the new one.
            let mut prepared: Vec<(SchemeId, u64)> = Vec::new();
            let backfill_start = Instant::now();
            let mut refusal: Option<StoreError> = None;
            for (i, nid) in remap.iter().enumerate() {
                let Some(nid) = nid else { continue };
                let old_id = SchemeId::from_index(i);
                let (old, new) = (&old_covers[i], &new_covers[nid.index()]);
                if old.implies_all(new) {
                    continue;
                }
                let mut union = old.clone();
                for fd in new.iter() {
                    union.insert(*fd);
                }
                let installed = self
                    .lock(&topo, old_id)
                    .and_then(|mut slot| slot.install_cover(union));
                match installed {
                    Ok(tuples) => prepared.push((old_id, tuples)),
                    Err(e) => {
                        refusal = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = refusal {
                // Roll the already-prepared relations back to their
                // exact old covers (which re-validate the data they
                // accepted); the store keeps serving the old schema.
                for &(old_id, _) in &prepared {
                    let old = old_covers[old_id.index()].clone();
                    self.lock(&topo, old_id)?.install_cover(old)?;
                }
                return Err(reject(e));
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
                schema: next.definition.clone(),
                fds: next.fds.clone(),
                app: next.encode_layouts(),
            },
        )?;

        // Phase 3: switch, then settle the covers.
        if let Err((shard, e)) = self.switch(d, next, &remap, new_gen) {
            // Memory must not go on acknowledging writes under a schema
            // recovery will no longer load.
            let err = self.record_poison(shard, &format_args!("schema switch failed: {e}"));
            for slot in &self.topology()?.slots {
                if let Ok(mut slot) = slot.lock() {
                    slot.dead = true;
                }
            }
            return Err(err);
        }
        *gen = new_gen;
        let topo = self.topology()?;
        for (slot, cover) in topo.slots.iter().zip(topo.schema.covers()?) {
            // A slot lost to a panicking caller has nothing to settle.
            let Ok(mut slot) = slot.lock() else { continue };
            if !slot.shard.enforcement().same_fds(cover) {
                // Cannot be refused: since its backfill the relation has
                // enforced a superset of this cover.
                slot.install_cover(cover.clone())?;
            }
        }
        self.obs.registry.counter("evolve.alters").inc();
        self.obs.registry.events().record(Event::SchemaAltered {
            generation: new_gen,
            relations: topo.schema.definition.len() as u64,
        });
        Ok(new_gen)
    }

    /// Phase 3 of [`Store::apply_transition`].  On error the caller
    /// poisons the store; the error names the metric family of the
    /// relation that failed.
    fn switch(
        &self,
        d: &Durability,
        next: Schema,
        remap: &[Option<SchemeId>],
        new_gen: u64,
    ) -> Result<(), (u64, StoreError)> {
        let (definition, covers) = (&next.definition, next.covers().map_err(|e| (0, e))?);
        // Survivors, one slot lock at a time: this is where the I/O is.
        let topo = self.topology().map_err(|e| (0, e))?;
        for (id, nid) in topo.schema.definition.ids().zip(remap) {
            let Some(nid) = *nid else { continue };
            let mut slot = self.lock(&topo, id).map_err(|e| (id.index() as u64, e))?;
            let shard = slot.metrics.index;
            slot.retarget(definition, nid, new_gen)
                .map_err(|e| (shard, e))?;
        }
        // An added relation: a fresh, empty slot with a metric family of
        // its own.
        let mut families = topo.families;
        drop(topo);
        let mut placed = Vec::with_capacity(definition.len());
        for id in definition.ids().filter(|id| !remap.contains(&Some(*id))) {
            let names = self
                .names
                .as_ref()
                .expect("a durable store has a value pool");
            let writer = d
                .writer(id, new_gen, 0, names)
                .map_err(|e| (families as u64, e.into()))?;
            let slot = Slot::new(
                id,
                RelationShard::new(definition, id, covers[id.index()].clone()),
                Relation::new(definition.attrs(id)),
                Some(writer),
                ShardMetrics::new(&self.obs.registry, families),
            );
            placed.push((id, Mutex::new(slot)));
            families += 1;
        }
        // The swap: memory only, nothing can fail.  The mutexes move as
        // they are, so one a panicking caller poisoned stays poisoned.
        let mut topo = self
            .topology
            .write()
            .map_err(|_| (0, StoreError::Disconnected))?;
        for (slot, nid) in std::mem::take(&mut topo.slots).into_iter().zip(remap) {
            // Releasing a dropped relation's slot drops its writer, which
            // syncs the tail.  Its segments stay on disk; the follow loop
            // recovery runs drops the relation at the manifest.
            if let Some(nid) = *nid {
                placed.push((nid, slot));
            }
        }
        placed.sort_by_key(|(id, _)| *id);
        *topo = Topology {
            schema: Arc::new(next),
            slots: placed.into_iter().map(|(_, slot)| slot).collect(),
            families,
        };
        Ok(())
    }

    /// A typed snapshot of every metric family the store (and its WAL
    /// writers) record into, plus the event ring and — satellite of the
    /// poison-discoverability fix — the preserved first-failure reason
    /// in [`MetricsSnapshot::poisoned`], readable **without issuing a
    /// failing operation**.
    ///
    /// Purely read-side: no slot is locked, and it works even after
    /// every relation has been poisoned.  See the `ids-obs` crate docs
    /// for the relaxed-ordering read semantics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        snap.poisoned = self.poison.get().cloned();
        snap
    }

    /// Validates an operation's scheme and arity before any slot is
    /// locked, so an out-of-range [`SchemeId`] is a typed error at the
    /// store's boundary rather than an index panic under a lock.
    /// Delegates to [`ids_core::validate_op`] — the one validation
    /// contract every engine shares.
    fn validate(topo: &Topology, id: SchemeId, tuple: &[Value]) -> Result<(), StoreError> {
        ids_core::validate_op(&topo.schema.definition, id, tuple).map_err(Into::into)
    }

    /// The one write scope: lock relation `id`, run `body` against its
    /// slot, apply the sync policy to its log — once, before anything is
    /// acknowledged — and flush the scope's tallies.  A log failure
    /// anywhere in the scope poisons the slot instead of acknowledging.
    fn write<T>(
        &self,
        topo: &Topology,
        id: SchemeId,
        body: impl FnOnce(&mut Slot, &mut Tally) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut slot = self.lock(topo, id)?;
        let start = ids_obs::recording().then(Instant::now);
        let mut tally = Tally::default();
        let done = body(&mut slot, &mut tally).and_then(|out| {
            if let (Some(w), Some(d)) = (&mut slot.wal, &self.durability) {
                w.maybe_sync(d.sync)?;
            }
            Ok(out)
        });
        match done {
            Ok(out) => {
                let m = &slot.metrics;
                m.accepted.add(tally.accepted);
                m.duplicate.add(tally.duplicate);
                m.rejected.add(tally.rejected);
                m.removed.add(tally.removed);
                if let Some(start) = start {
                    m.apply_ns.record(start.elapsed());
                }
                Ok(out)
            }
            Err(StoreError::Wal(e)) => Err(self.poison_slot(&mut slot, e)),
            Err(e) => Err(e),
        }
    }

    /// Attempts to insert `tuple` (scheme order) into relation `id`, on
    /// the calling thread, inside the relation's lock.
    ///
    /// `id` is a position in the schema that is current when the call
    /// runs ([`Store::schema`]).  A schema transition may move a relation
    /// to another position ([`Alter::DropRelation`]), so a caller holding
    /// an id across one must re-resolve it by name — or resolve and
    /// insert inside one [`Era`], as the name-addressed `ids-api`
    /// operations do.
    pub fn insert(&self, id: SchemeId, tuple: Vec<Value>) -> Result<InsertOutcome, StoreError> {
        self.era()?.insert(id, tuple)
    }

    /// Removes a tuple from relation `id`; `true` when it was present.
    /// Always satisfaction-preserving under weak-instance semantics.
    /// `id` is positional, as for [`Store::insert`].
    pub fn remove(&self, id: SchemeId, tuple: Vec<Value>) -> Result<bool, StoreError> {
        self.era()?.remove(id, tuple)
    }

    /// Applies a batch of operations: the batch is partitioned by
    /// relation, each touched relation's operations run in submission
    /// order inside one lock scope (one slot at a time, never two held,
    /// one group fsync per relation), and the per-op outcomes come back
    /// aligned with the input.
    ///
    /// The whole batch is validated (scheme + arity) before any slot is
    /// locked, so a malformed batch mutates nothing.  Per-relation order
    /// within the batch is preserved; FD violations are *outcomes*
    /// ([`InsertOutcome::Rejected`]), not errors.  The whole batch runs
    /// in one [`Era`], against positional ids as for [`Store::insert`].
    pub fn apply_batch(&self, mut ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, StoreError> {
        let topo = self.topology()?;
        for op in &ops {
            let (StoreOp::Insert { scheme, tuple } | StoreOp::Remove { scheme, tuple }) = op;
            Self::validate(&topo, *scheme, tuple)?;
        }
        // Group the batch by relation with a counting sort of its indexes:
        // O(n), and stable, so each relation's run keeps submission order.
        let mut ends = vec![0usize; topo.slots.len()];
        for op in &ops {
            ends[op.scheme().index()] += 1;
        }
        let mut total = 0;
        for end in &mut ends {
            total += *end;
            *end = total - *end; // the run's start, for now
        }
        let mut order = vec![0usize; ops.len()];
        for (i, op) in ops.iter().enumerate() {
            let at = &mut ends[op.scheme().index()];
            order[*at] = i;
            *at += 1;
        }
        // `order` is a permutation of the batch's indexes, so every
        // placeholder below is overwritten by its op's real outcome.
        let mut out = vec![OpOutcome::Remove(false); ops.len()];
        let mut start = 0;
        for (scheme, &end) in ends.iter().enumerate() {
            let run = &order[start..end];
            start = end;
            if run.is_empty() {
                continue;
            }
            self.write(&topo, SchemeId::from_index(scheme), |slot, tally| {
                for &i in run {
                    out[i] = match &mut ops[i] {
                        StoreOp::Insert { tuple, .. } => {
                            OpOutcome::Insert(slot.insert(std::mem::take(tuple), tally)?)
                        }
                        StoreOp::Remove { tuple, .. } => {
                            OpOutcome::Remove(slot.remove(std::mem::take(tuple), tally)?)
                        }
                    };
                }
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Answers a [`ReadPlan`] against one relation: only that relation's
    /// slot is locked, so no other relation pauses or copies anything.
    /// The predicate is evaluated where the tuples live — a point lookup
    /// on a key FD's left-hand side is O(1) against the enforcement hash
    /// index, see [`RelationShard::scan`] — and only the plan's shape of
    /// the matches (tuples, distinct join keys, or a count) is built.
    ///
    /// This is sound precisely because the schema is independent:
    /// relations share no enforcement state, so the cut "this relation
    /// as of now, all others untouched" is a prefix of a valid
    /// serialization — the answer is computed from exactly what some
    /// snapshot would also contain for this scheme.  What you give up
    /// versus [`Store::snapshot`] is *cross-relation* consistency: two
    /// `read` calls on different relations may observe cuts no single
    /// snapshot contains.  Per relation the read is linearizable: it
    /// sees every operation that returned before it started.
    ///
    /// The id and the plan are validated here, before the slot is
    /// locked, so a foreign scheme, predicate attribute or projection
    /// column is a typed error.  `id` is positional, as for
    /// [`Store::insert`].
    pub fn read(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, StoreError> {
        self.era()?.read(id, plan)
    }

    /// The tuples of one relation matching `predicate` — [`Store::read`]
    /// with the tuples shape.
    pub fn query(&self, id: SchemeId, predicate: &Predicate) -> Result<Vec<Tuple>, StoreError> {
        Ok(self.read(id, &ReadPlan::tuples(predicate.clone()))?.rows)
    }

    /// Takes a consistent snapshot: every slot is locked, in ascending
    /// scheme order, and all are held while the relations are cloned
    /// into a [`DatabaseState`] — a true cut, a state the store actually
    /// passed through.
    ///
    /// On an independent schema the snapshot is globally satisfying — each
    /// relation enforced its `Fi`, and `LSAT = WSAT` does the rest.
    pub fn snapshot(&self) -> Result<DatabaseState, StoreError> {
        self.era()?.snapshot()
    }

    /// Shuts the store down and hands back the final state.  Dropping a
    /// slot's log writer syncs its tail (best effort), as does dropping
    /// the store without calling this.  A poisoned store refuses: it
    /// holds operations that were applied but never acknowledged, so
    /// its final state is not the callers' view, and shutdown reports
    /// the preserved reason instead.
    pub fn shutdown(self) -> Result<DatabaseState, StoreError> {
        self.healthy()?;
        let topo = self
            .topology
            .into_inner()
            .map_err(|_| StoreError::Disconnected)?;
        let mut relations = Vec::with_capacity(topo.slots.len());
        for slot in topo.slots {
            relations.push(slot.into_inner().map_err(|_| StoreError::Disconnected)?.rel);
        }
        DatabaseState::from_relations(&topo.schema.definition, relations).map_err(Into::into)
    }
}

/// One topology era of a [`Store`], pinned for one operation: the
/// [`Schema`] the store serves and the slots that enforce it, under one
/// topology read guard ([`Store::era`]).
///
/// A name-addressed operation does all its work in one era — resolve
/// the name ([`Schema::scheme_id`]), read the declared layout
/// ([`Schema::layout`]), run its slot operations — so the name, layout,
/// cover and slot always come from the same schema, however a concurrent
/// [`Store::apply_transition`] races it: the transition's switch waits
/// for every era to end, and an era that starts after it sees only the
/// new schema.  One racing transition therefore behaves exactly as if
/// submitted before or after the operation.
///
/// Hold an era for one operation only: a pending switch blocks new eras,
/// and with them every operation, until the held ones end.  Never take a
/// second era — nor call a [`Store`] method, which takes its own — while
/// holding one: std readers queue behind a waiting writer, so a switch
/// arriving between the two would deadlock them.
pub struct Era<'s> {
    store: &'s Store,
    topo: RwLockReadGuard<'s, Topology>,
}

impl Era<'_> {
    /// The schema of this era.
    pub fn schema(&self) -> &Schema {
        &self.topo.schema
    }

    /// [`Store::insert`] in this era: `id` is a position in
    /// [`Era::schema`].
    pub fn insert(&self, id: SchemeId, tuple: Vec<Value>) -> Result<InsertOutcome, StoreError> {
        Store::validate(&self.topo, id, &tuple)?;
        (self.store).write(&self.topo, id, |slot, tally| slot.insert(tuple, tally))
    }

    /// [`Store::remove`] in this era.
    pub fn remove(&self, id: SchemeId, tuple: Vec<Value>) -> Result<bool, StoreError> {
        Store::validate(&self.topo, id, &tuple)?;
        (self.store).write(&self.topo, id, |slot, tally| slot.remove(tuple, tally))
    }

    /// [`Store::snapshot`] in this era: a cut of exactly the relations
    /// of [`Era::schema`].
    pub fn snapshot(&self) -> Result<DatabaseState, StoreError> {
        let definition = &self.topo.schema.definition;
        let slots = (definition.ids())
            .map(|id| self.store.lock(&self.topo, id))
            .collect::<Result<Vec<_>, _>>()?;
        let relations = slots.iter().map(|slot| slot.rel.clone()).collect();
        drop(slots);
        DatabaseState::from_relations(definition, relations).map_err(Into::into)
    }

    /// [`Store::read`] in this era.
    pub fn read(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, StoreError> {
        let definition = &self.topo.schema.definition;
        let scheme = definition
            .get_scheme(id)
            .ok_or(StoreError::UnknownScheme(id))?;
        plan.validate_against(scheme.attrs)?;
        let slot = self.store.lock(&self.topo, id)?;
        Ok(slot.shard.read(&slot.rel, plan)?)
    }
}

/// Builds a schema's ordered secondary indexes, plus the `extra` ones a
/// [`StoreConfig`] asks for, on freshly constructed shards, each
/// absorbing its relation's current tuples.  A spec naming a foreign
/// scheme or column is a typed error at open, not a silently missing
/// index; a repeated spec is a no-op.
fn apply_ordered_indexes(
    schema: &Schema,
    shards: &mut [RelationShard],
    relations: &[Relation],
    extra: &[(SchemeId, AttrId)],
) -> Result<(), StoreError> {
    for &(id, attr) in schema.ordered_indexes.iter().chain(extra) {
        if schema.definition.get_scheme(id).is_none() {
            return Err(StoreError::UnknownScheme(id));
        }
        shards[id.index()].add_ordered_index(attr, &relations[id.index()])?;
    }
    Ok(())
}

/// The per-scheme enforcement covers `Fi` of an analysis verdict: a
/// dependent schema is refused with its witness, and an analysis of a
/// *different* schema is a typed error, not an index panic while
/// distributing covers (same guard as `LocalMaintainer::new`).
fn covers<'a>(
    schema: &DatabaseSchema,
    analysis: &'a IndependenceAnalysis,
) -> Result<&'a [FdSet], StoreError> {
    let enforcement = match &analysis.verdict {
        ids_core::Verdict::Independent { enforcement } => enforcement,
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
    fn batch_outcomes_align_with_input_across_relations() {
        let (schema, fds) = independent_setup();
        let store = Store::open(&schema, &fds).unwrap();
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
        let store = Store::open(&schema, &fds).unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        let cs = schema.scheme_by_name("CS").unwrap();
        store.insert(ct, vec![v(1), v(10)]).unwrap();
        store.insert(cs, vec![v(1), v(50)]).unwrap();
        // Read-your-writes per relation.
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
        let store = Store::open(&schema, &fds).unwrap();
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
                assert_eq!(got, snap.relation(id).read(&plan), "{plan:?}");
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
                initial_state: None,
                ordered_indexes: specs.clone(),
                ..Default::default()
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
                initial_state: None,
                ordered_indexes: vec![(cs, x_free)],
                ..Default::default()
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
                        initial_state: None,
                        ordered_indexes: specs.clone(),
                        ..Default::default()
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
                    initial_state: None,
                    ordered_indexes: specs,
                    ..Default::default()
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
                initial_state: Some(base.clone()),
                ordered_indexes: Vec::new(),
                ..Default::default()
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
                initial_state: Some(base),
                ordered_indexes: Vec::new(),
                ..Default::default()
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
                initial_state: Some(foreign),
                ordered_indexes: Vec::new(),
                ..Default::default()
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
                    initial_state: Some(DatabaseState::empty(&schema)),
                    ordered_indexes: Vec::new(),
                    ..Default::default()
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
                        initial_state: Some(base.clone()),
                        ordered_indexes: Vec::new(),
                        ..Default::default()
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
                        initial_state: Some(base),
                        ordered_indexes: Vec::new(),
                        ..Default::default()
                    },
                    sync: SyncPolicy::Always,
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

    /// Threads per shard: 0.  Opening a store, writing to it and
    /// snapshotting it starts no thread — the callers are the only
    /// threads there are.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_store_spawns_no_threads() {
        let inst = ids_workloads::families::key_chain(8);
        assert_eq!(inst.schema.len(), 8);
        let store = Store::open(&inst.schema, &inst.fds).unwrap();
        for id in inst.schema.ids() {
            store.insert(id, vec![v(1), v(2)]).unwrap();
        }
        assert_eq!(store.snapshot().unwrap().total_tuples(), 8);
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let comm = std::fs::read_to_string(task.unwrap().path().join("comm"));
            // A task may exit between the listing and the read.
            let Ok(comm) = comm else { continue };
            assert!(!comm.starts_with("ids-shard"), "shard thread {comm:?}");
        }
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

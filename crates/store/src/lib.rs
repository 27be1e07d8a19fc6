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
//! * [`Era::gather`] and [`Era::count`] — the per-relation read: a
//!   predicate is evaluated under the one relation's lock, where the
//!   tuples and indexes live, by the shard's one row visitor, which
//!   either appends the matching rows' values to the caller's buffer or
//!   counts them ([`Store::query`] is `gather` cut into tuples).  No
//!   other relation notices.  Because independent relations share no
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
//! transitions and [`Error`] — the one error type of the store and of
//! the front end, so a refusal has one variant and one rendering
//! whichever layer surfaced it (`ids-api` re-exports all four).  A
//! store's topology holds exactly one handle, the schema it
//! serves: its covers are what the slots enforce, its layouts what the
//! manifest records, and [`Store::alter`] swaps it for the next one,
//! which it derives from it.  There is no second copy to fall out of
//! step.
//!
//! ## One way in
//!
//! A store opens one way per mode, and owns what it serves — the
//! schema handle, its ordered indexes, the value pool and the alters:
//!
//! * [`Store::open`] — in memory, from a [`Schema`] handle (a typed-level
//!   caller builds one with [`Schema::canonical`]) and a [`StoreConfig`],
//!   whose ordered indexes join the handle's own at open;
//! * [`Store::open_at`] — durable, creating the log directory or
//!   recovering it;
//! * [`Store::recover_from`] — an open directory replayed into memory,
//!   writing nothing: a replication follower's bootstrap.
//!
//! ## Lock order
//!
//! Generation mutex (checkpoints and schema transitions) → topology
//! guard → slot mutexes in ascending scheme id → the value pool
//! ([`Store::names`]).  An alter holds the generation mutex from end
//! to end — it derives its target from the served schema, backfills,
//! writes the manifest and switches under it — so alters serialize on
//! it, and with checkpoints.  Every operation takes
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
//! [`Store::open_at`] adds a write-ahead log (`ids-wal`) *inside*
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
//! operation on it report [`Error::ShardPoisoned`] with the first
//! failure's reason, as does every store-wide operation, while the other
//! relations keep serving.  [`Store::checkpoint`] rotates every log onto
//! a fresh generation, writes one snapshot — carrying every name of the
//! pool and its next id — and truncates the covered generations.
//! Reopening the same path rebuilds the store from the snapshot and
//! replays the log after it through [`Store::follow`], the one replay:
//! records re-run through the same [`RelationShard`] probe/commit
//! machinery the live store runs, their definitions rebuild the value
//! pool, and each schema transition switches the store in place, so
//! every record is judged under the covers of its own era.  Replay is
//! per-relation, embarrassingly parallel in principle, and doubles as an
//! integrity check (every logged op must re-accept).  A log written
//! under a different schema or FD set is refused with a typed
//! [`WalError::SchemaMismatch`].  That replay is one step and attaching
//! the log writers another: [`Store::recover_from`] runs the replay
//! alone, into an in-memory store that touches no file — which is how a
//! replication follower (`ids-replica`) bootstraps, before it applies
//! the primary's stream through the same [`Store::follow`].

#![warn(missing_docs)]

mod error;
mod schema;

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

use ids_core::{IndependenceAnalysis, InsertOutcome, MaintenanceError, RelationShard};
use ids_deps::{Fd, FdSet};
use ids_obs::{Counter, Event, LatencyHistogram, MetricsSnapshot, Registry};
use ids_relational::{
    AttrId, DatabaseSchema, DatabaseState, Predicate, Relation, RelationalError, SchemeId, Tuple,
    Value, ValuePool,
};
use ids_wal::{
    Cursor, Manifest, Shipment, TailedRecord, WalDir, WalError, WalMetrics, WalOp, WalWriter,
};

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

/// Configuration of [`Store::open`].
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
    /// membership and non-key equality pushdown.  Added at open to the
    /// ones the [`Schema`] handle declares, so the store's schema (and a
    /// durable store's manifest) carries them from then on.  Maintained
    /// on the same probe→commit write path as the FD hash indexes; a
    /// pair naming a foreign scheme or column is a typed error at open.
    pub ordered_indexes: Vec<(SchemeId, AttrId)>,
}

/// Configuration of [`Store::open_at`].
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
    /// transition that failed at or after its durability point): the
    /// slot serves nothing any more, and [`Store::poison`] holds the
    /// reason.
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
    fn insert(&mut self, tuple: &[Value], tally: &mut Tally) -> Result<InsertOutcome, Error> {
        let outcome = self.shard.insert_row(&mut self.rel, tuple)?;
        match outcome {
            InsertOutcome::Accepted => {
                tally.accepted += 1;
                // Copied for the log only when there is one: the
                // in-memory path stays allocation-free per op.
                if let Some(w) = &mut self.wal {
                    w.append(WalOp::Insert(tuple.to_vec()))?;
                }
            }
            InsertOutcome::Duplicate => tally.duplicate += 1,
            InsertOutcome::Rejected { .. } => tally.rejected += 1,
        }
        Ok(outcome)
    }

    /// Removes one tuple, logging the remove when it was present.
    fn remove(&mut self, tuple: &[Value], tally: &mut Tally) -> Result<bool, Error> {
        let present = self.shard.remove(&mut self.rel, tuple)?;
        if present {
            tally.removed += 1;
            if let Some(w) = &mut self.wal {
                w.append(WalOp::Remove(tuple.to_vec()))?;
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
    /// is the exact old cover.  On violation nothing is installed, the
    /// relation stays filed under the serving shard's key, and the error
    /// carries the violated FD plus a violating pair of tuples.
    fn install_cover(&mut self, cover: FdSet) -> Result<u64, Error> {
        let schema = self.shard.schema().clone();
        match RelationShard::with_relation(&schema, self.id, cover, &mut self.rel) {
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
                Err(Error::BackfillViolation {
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
    ) -> Result<(), Error> {
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
/// concrete evidence shipped inside [`Error::BackfillViolation`].
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
    /// themselves.  Behind a read-write lock so [`Store::alter`] can
    /// swap the whole set atomically
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
    /// The one value pool: interned into by the front end, rebuilt by
    /// recovery, shared with every log writer, read by checkpoints.
    names: Arc<Mutex<ValuePool>>,
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
    /// Opens an in-memory store serving `schema`, with one slot per
    /// relation, from `config.initial_state` (empty when `None`).
    ///
    /// The handle carries its independence analysis, so none runs here;
    /// a dependent handle is refused with [`Error::NotIndependent`]
    /// (and its witness).  The handle becomes the store's live schema
    /// ([`Store::schema`]), its declared column layouts with it, and
    /// `config.ordered_indexes` join the indexes it declares.  A typed-
    /// level caller builds the handle with [`Schema::canonical`].
    ///
    /// A preload is roundtripped through `from_relations` to revalidate
    /// its full shape — it may come from a different schema handle, and
    /// a mismatched relation must be a typed error — and every relation
    /// is indexed and validated against its cover.
    pub fn open(schema: Schema, config: StoreConfig) -> Result<Self, Error> {
        let schema = schema.with_ordered_indexes(&config.ordered_indexes)?;
        let mut store = Self::with_state(schema, config.initial_state)?;
        store.add_ordered_indexes()?;
        Ok(store)
    }

    /// [`Store::open`] from an already-computed independence analysis.
    /// The analysis does not name the dependencies it was computed from,
    /// so the store's [`Schema`] records the union of its enforcement
    /// covers — the dependencies the store enforces — in their place.
    pub fn from_analysis(
        schema: &DatabaseSchema,
        analysis: &IndependenceAnalysis,
        config: StoreConfig,
    ) -> Result<Self, Error> {
        let fds = covers(schema, analysis)?.iter().flat_map(FdSet::iter);
        let schema = Schema::analyzed(schema.clone(), fds.copied().collect(), analysis.clone());
        Self::open(schema, config)
    }

    /// An in-memory store serving `schema` from `state` (empty when
    /// `None`), each relation indexed and validated against its cover,
    /// with no ordered index yet and an empty value pool.
    fn with_state(schema: Schema, state: Option<DatabaseState>) -> Result<Self, Error> {
        let definition = &schema.definition;
        let covers = schema.covers()?;
        let relations: Vec<Relation> = match state {
            Some(state) => {
                DatabaseState::from_relations(definition, state.into_relations())?.into_relations()
            }
            None => (definition.ids())
                .map(|id| Relation::new(definition.attrs(id)))
                .collect(),
        };
        let registry = Arc::new(Registry::new());
        let mut slots = Vec::with_capacity(definition.len());
        for (id, mut rel) in definition.ids().zip(relations) {
            let fi = covers[id.index()].clone();
            let shard = RelationShard::with_relation(definition, id, fi, &mut rel)?;
            let metrics = ShardMetrics::new(&registry, id.index());
            slots.push(Mutex::new(Slot::new(id, shard, rel, None, metrics)));
        }
        Ok(Store {
            topology: RwLock::new(Topology {
                families: definition.len(),
                schema: Arc::new(schema),
                slots,
            }),
            poison: OnceLock::new(),
            durability: None,
            obs: StoreObs { registry },
            names: Arc::new(Mutex::new(ValuePool::new())),
        })
    }

    /// Builds the ordered secondary indexes the served schema declares,
    /// each absorbing its relation's current tuples; one already built
    /// is a no-op.
    fn add_ordered_indexes(&mut self) -> Result<(), Error> {
        let topo = (self.topology.get_mut()).unwrap_or_else(PoisonError::into_inner);
        for &(id, attr) in &topo.schema.ordered_indexes {
            let slot = (topo.slots.get_mut(id.index())).ok_or(Error::UnknownScheme(id))?;
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            slot.shard.add_ordered_index(attr, &slot.rel)?;
        }
        Ok(())
    }

    /// Opens a **durable** store serving `schema` at `path`: the first
    /// open creates the write-ahead log directory, whose manifest records
    /// the schema with its declared column layouts and indexes; every
    /// later open recovers — the snapshot, then the log after it through
    /// [`Store::follow`], as [`Store::recover_from`] does — and attaches
    /// one log writer per relation on a fresh generation.  See the crate
    /// docs' *Durability* section.
    ///
    /// A directory whose manifest disagrees with `schema`'s relations or
    /// dependencies is refused with [`WalError::SchemaMismatch`].
    /// `config.store.initial_state` applies only to a directory with no
    /// history (see [`DurableConfig::store`]); its ordered indexes join
    /// the schema's, as for [`Store::open`].
    pub fn open_at(
        path: impl AsRef<Path>,
        schema: Schema,
        config: DurableConfig,
    ) -> Result<Self, Error> {
        let path = path.as_ref();
        let DurableConfig {
            store: config,
            sync,
            fail_appends_after,
        } = config;
        let schema = schema.with_ordered_indexes(&config.ordered_indexes)?;
        if !WalDir::exists(path) {
            schema.covers()?;
            let app = schema.encode_layouts();
            let dir = WalDir::create(path, &schema.definition, &schema.fds, app)?;
            let last_seqs = vec![0; schema.definition.len()];
            let store = Self::preload(&dir, schema, config)?;
            return store.attach_writers(dir, 1, &last_seqs, sync, fail_appends_after);
        }
        let dir = WalDir::open(path)?;
        let (mut store, replayed) = Self::replay(&dir, schema.clone())?;
        if config.initial_state.is_some() {
            // The log *is* the state, so a preload is only accepted on a
            // directory with no history — which makes a create that
            // crashed between the manifest and the preload snapshot
            // repeatable, instead of silently forking or losing data.
            if replayed.history {
                return Err(
                    RelationalError::SchemaMismatch("initial state for an existing log").into(),
                );
            }
            store = Self::preload(&dir, schema, config)?;
        }
        let last_seqs: Vec<u64> = replayed.cursors.iter().map(|c| c.seq).collect();
        store.attach_writers(dir, replayed.next_gen, &last_seqs, sync, fail_appends_after)
    }

    /// [`Store::open_at`] from an already-computed independence analysis.
    /// `fds` must be the set the analysis was computed from; it is
    /// pinned in the manifest so a later open under different
    /// dependencies is refused.
    pub fn open_durable_from_analysis(
        path: impl AsRef<Path>,
        schema: &DatabaseSchema,
        fds: &FdSet,
        analysis: &IndependenceAnalysis,
        config: DurableConfig,
    ) -> Result<Self, Error> {
        let schema = Schema::analyzed(schema.clone(), fds.clone(), analysis.clone());
        Self::open_at(path, schema, config)
    }

    /// Recovers the durable directory `dir` into an **in-memory** store
    /// serving `schema`: the snapshot, then every later record and
    /// manifest through [`Store::follow`] — the one replay a durable
    /// reopen runs too (which then attaches its log writers).
    /// Read-only: no writer is opened and no file is created or
    /// modified, so it may run against a directory a live primary keeps
    /// appending to — a replication follower's bootstrap.  `schema` must
    /// be the directory's latest manifest (a typed
    /// [`WalError::SchemaMismatch`] otherwise); build it with
    /// [`Schema::from_manifest`] so its declared layouts and indexes
    /// come along.
    ///
    /// Returns the store and, per relation in scheme order, the cursor
    /// the replay reached ([`ids_wal::Follower::cursors`]) — where a
    /// follower resumes tailing.
    pub fn recover_from(dir: &WalDir, schema: Schema) -> Result<(Self, Vec<Cursor>), Error> {
        let (store, replayed) = Self::replay(dir, schema)?;
        Ok((store, replayed.cursors))
    }

    /// [`Store::open`] for a durable create: a nonempty preload — which
    /// lives in no log — is pinned in an initial snapshot so recovery
    /// starts from it.  Shared by the fresh-create path and the repeat of
    /// a create that crashed before its snapshot landed.
    fn preload(dir: &WalDir, schema: Schema, config: StoreConfig) -> Result<Self, Error> {
        let store = Self::open(schema, config)?;
        let state = store.snapshot()?;
        if state.total_tuples() > 0 {
            dir.write_snapshot(&state, &vec![0; state.len()], 0, Vec::new(), 0)?;
        }
        Ok(store)
    }

    /// Crash recovery: the snapshot builds an in-memory store under the
    /// schema of its era (each relation's shard validates it against its
    /// cover `Fi`), and every later record and manifest the follow loop
    /// ([`ids_wal::Recovered::log`]) reads is applied to it, as one batch,
    /// through [`Store::follow`] — the same entry point a replica applies
    /// its stream with; one batch, so the names all the relations' logs
    /// define land in the pool in id order.  So each record re-runs under
    /// the cover of the era that accepted it, each manifest switches the
    /// store in place, and
    /// one relation never consults another: recovery of an independent
    /// schema is per-relation by construction.  A record that does not
    /// re-accept, or a cover the replayed rows violate, means the files
    /// contradict themselves and is reported as
    /// [`WalError::Corrupt`], never silently patched.
    ///
    /// `schema` must be the directory's latest manifest (a typed
    /// [`WalError::SchemaMismatch`] otherwise) and independent.  The
    /// replay ends under that manifest; the store then serves the
    /// caller's `schema` handle and builds its ordered indexes over the
    /// recovered relations.  The store keeps the value pool the snapshot
    /// and the records define ([`Store::names`]).  Replay progress lands
    /// in the store's registry as the `wal.r{i}.recovered_records`
    /// family (the per-relation fact — replicas reuse the names for
    /// their bootstrap), the aggregate `wal.recovered_records` and one
    /// [`Event::RecoveryReplayed`].
    fn replay(dir: &WalDir, schema: Schema) -> Result<(Self, Replayed), Error> {
        schema.covers()?;
        dir.check_identity(&schema.definition, &schema.fds)?;
        // Replay is a cold path: time it unconditionally so the summary
        // event carries a real duration even if recording was toggled.
        let start = Instant::now();
        let recovered = dir.recover()?;
        let (chain, root) = (dir.manifests(), dir.root());
        let era = match &chain[recovered.era].1 {
            // No transition since the snapshot: the caller's handle.
            _ if recovered.era + 1 == chain.len() => schema.clone(),
            m => Schema::from_recovered(m.schema.clone(), m.fds.clone(), &m.app)?,
        };
        let mut store = Self::with_state(era, Some(recovered.base))?;
        store.names = Arc::new(Mutex::new(recovered.names));
        // Each relation's records, counted under the schema they ship in.
        let (mut replayed, mut shipped) = (vec![0u64; recovered.base_seqs.len()], Vec::new());
        let mut relations = store.schema().definition.clone();
        let mut log = recovered.log;
        log.replay(|shipment| {
            match &shipment {
                Shipment::Manifest { manifest, .. } => {
                    let from = manifest.schema.remap_from(&relations);
                    replayed = (from.into_iter())
                        .map(|i| i.map_or(0, |i| replayed[i.index()]))
                        .collect();
                    relations = manifest.schema.clone();
                }
                Shipment::Records {
                    relation, records, ..
                } => replayed[*relation as usize] += records.len() as u64,
            }
            shipped.push(shipment);
            Ok::<_, Error>(())
        })?;
        store.follow(shipped).map_err(|e| corrupt(root, e))?;
        let history = recovered.has_snapshot || log.cursors().iter().any(|c| c.seq > 0);
        store.serve(schema)?;
        let duration = start.elapsed();
        let registry = &store.obs.registry;
        for (i, n) in replayed.iter().enumerate() {
            registry
                .counter(&format!("wal.r{i}.recovered_records"))
                .add(*n);
        }
        let records = replayed.iter().sum();
        registry.counter("wal.recovered_records").add(records);
        (registry.events()).record(Event::RecoveryReplayed { records, duration });
        let cursors = log.cursors();
        let next_gen = recovered.next_gen;
        Ok((
            store,
            Replayed {
                cursors,
                next_gen,
                history,
            },
        ))
    }

    /// The end of a replay: the store serves `schema`, the caller's
    /// handle of the schema the replay ended in, with its exact covers
    /// and its ordered indexes.
    fn serve(&mut self, schema: Schema) -> Result<(), Error> {
        let topo = (self.topology.get_mut()).unwrap_or_else(PoisonError::into_inner);
        if topo.schema.definition != schema.definition {
            return Err(RelationalError::SchemaMismatch("the replayed schema").into());
        }
        topo.schema = Arc::new(schema);
        self.settle()?;
        self.add_ordered_indexes()
    }

    /// Makes an in-memory store durable over `dir`: one segment writer
    /// per relation on generation `next_gen`, continuing its sequence
    /// numbering from `last_seqs`, all wired to the store-wide WAL
    /// metric family and to the store's value pool.
    fn attach_writers(
        mut self,
        dir: WalDir,
        next_gen: u64,
        last_seqs: &[u64],
        sync: SyncPolicy,
        fail_appends_after: Option<u64>,
    ) -> Result<Self, Error> {
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
        let topo = self
            .topology
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for (slot, &last_seq) in topo.slots.iter_mut().zip(last_seqs) {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            slot.wal = Some(durability.writer(slot.id, next_gen, last_seq, &self.names)?);
        }
        self.durability = Some(durability);
        Ok(self)
    }

    /// Takes the topology read guard every operation holds for its whole
    /// duration.  The lock is poisoned only by a panic inside a schema
    /// switch, which may have left the slots half-switched: nothing can
    /// be served from that.
    fn topology(&self) -> Result<RwLockReadGuard<'_, Topology>, Error> {
        self.topology.read().map_err(|_| Error::Disconnected)
    }

    /// Pins the current topology era for one operation: see [`Era`].
    pub fn era(&self) -> Result<Era<'_>, Error> {
        Ok(Era {
            store: self,
            topo: self.topology()?,
        })
    }

    /// Locks relation `id`'s slot, refusing a dead one with the preserved
    /// reason.  `id` must have been validated against `topo.schema`.
    fn lock<'t>(&self, topo: &'t Topology, id: SchemeId) -> Result<MutexGuard<'t, Slot>, Error> {
        let slot = topo.slots[id.index()]
            .lock()
            .map_err(|_| Error::Disconnected)?;
        if slot.dead {
            return Err(self.poisoned());
        }
        Ok(slot)
    }

    /// The error every operation that meets a dead slot reports: the
    /// preserved reason of the first durability failure.  (A slot is
    /// marked dead only after the cell is set, so the default is never
    /// seen.)
    fn poisoned(&self) -> Error {
        Error::ShardPoisoned {
            reason: self.poison.get().cloned().unwrap_or_default(),
        }
    }

    /// Refuses a store-wide operation on a poisoned store up front, so it
    /// cannot leave the healthy relations half-way through it.
    fn healthy(&self) -> Result<(), Error> {
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
    fn record_poison(&self, shard: u64, e: &dyn std::fmt::Display) -> Error {
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
    fn poison_slot(&self, slot: &mut Slot, e: WalError) -> Error {
        let err = self.record_poison(slot.metrics.index, &e);
        slot.dead = true;
        err
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

    /// The store's value pool: what the `ids-api` front end interns
    /// into and renders from, every log writer and checkpoint reads, and
    /// a recovery ([`Store::recover_from`] included) rebuilt from the
    /// directory's definitions.  Empty for a store opened in memory.
    pub fn names(&self) -> &Mutex<ValuePool> {
        &self.names
    }

    /// Root of a durable store's log directory — what a replication
    /// follower (or the server's subscribe path) tails read-only.
    pub fn wal_root(&self) -> Option<std::path::PathBuf> {
        self.durability.as_ref().map(|d| d.dir.root().to_path_buf())
    }

    /// The generation a durable store's log segments are on (`None` in
    /// memory): 1 after the [`Store::open_at`] that creates the
    /// directory, the next one after every checkpoint and every accepted
    /// [`Store::alter`], and a fresh one past every generation on disk
    /// after a reopen.
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
    pub fn checkpoint(&self) -> Result<(), Error> {
        let d = self.durability.as_ref().ok_or(Error::NotDurable)?;
        let mut gen = d.gen.lock().map_err(|_| Error::Disconnected)?;
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
            let wal = slot.wal.as_mut().ok_or(Error::NotDurable)?;
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
    fn pool_names(&self) -> Result<(Vec<(Value, String)>, u64), Error> {
        let pool = (self.names.lock()).map_err(|_| Error::Disconnected)?;
        let pool = pool.clone();
        let defs = pool.iter().map(|(name, v)| (v, name.to_owned())).collect();
        Ok((defs, pool.len() as u64))
    }

    /// Applies one `ALTER`-class schema transition to the **running**
    /// store — add/drop a relation, add/drop a functional dependency —
    /// as an operator on the schema it serves.  Returns the new segment
    /// generation on success.
    ///
    /// The target is derived from the served schema (`Schema::evolved`)
    /// under the generation mutex, which the alter holds to its end, so
    /// two concurrent alters never derive from the same schema.  Every
    /// refusal — a dependent target ([`Error::NotIndependent`], with the
    /// `LSAT ∖ WSAT` witness), a name error ([`Error::Evolve`],
    /// [`Error::UnknownRelation`], [`Error::FdParse`]) or a backfill
    /// violation — leaves the current schema serving, bumps the
    /// `evolve.rejected` counter and records one [`Event::AlterRejected`].
    /// The new manifest records the target with its declared column
    /// layouts and indexes, and after the switch the target is the
    /// store's live schema.  A relation survives when the target holds
    /// one of the same name over the same attributes
    /// ([`DatabaseSchema::remap_from`], the rule recovery and
    /// replication apply to the manifest chain).
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
    ///    refuses the transition with [`Error::BackfillViolation`] —
    ///    violated FD plus a violating pair of tuples.  Traffic accepted
    ///    between backfill and switch satisfies both schemas, which is
    ///    what makes the crash window sound in both directions.
    /// 2. **Durability point**: a generation-numbered manifest
    ///    (`MANIFEST-g{n}`) is staged and renamed into the log
    ///    directory.  From here the transition *will* be in effect
    ///    after any crash; until here a crash recovers the old schema,
    ///    and any error before this step leaves the current schema
    ///    serving, untouched.  An error *from* this step may come after
    ///    the rename (the directory fsync), with the new manifest
    ///    already in place, so it poisons the store like an error in
    ///    the switch.
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
    ///    (or in the manifest write) cannot be returned with the old
    ///    schema still serving —
    ///    recovery would load the new one — so it **poisons the whole
    ///    store**: every slot is marked dead and the failing call, like
    ///    every later operation, reports [`Error::ShardPoisoned`]
    ///    with the reason.
    ///
    /// An in-memory store has no log to append the generation to:
    /// [`Error::NotDurable`].
    pub fn alter(&self, op: &Alter) -> Result<u64, Error> {
        let d = self.durability.as_ref().ok_or(Error::NotDurable)?;
        // Serialize with checkpoints and other transitions.
        let mut gen = d.gen.lock().map_err(|_| Error::Disconnected)?;
        self.healthy()?;
        let reject = |e: Error| {
            self.obs.registry.counter("evolve.rejected").inc();
            self.obs.registry.events().record(Event::AlterRejected {
                reason: e.to_string(),
            });
            e
        };
        let (next, _reuse) = self.schema().evolved(op).map_err(reject)?;
        let new_covers = next.covers().map_err(reject)?;
        let new_gen = *gen + 1;

        // Phase 1: remap + backfill under a topology *read* lock.
        let remap = {
            let topo = self.topology()?;
            let (old, old_covers) = (&topo.schema.definition, topo.schema.covers()?);
            let remap = survivors(old, &next.definition);
            // Which survivors need a backfill: those whose old cover
            // does not already imply every FD of the new one.
            let mut prepared: Vec<(SchemeId, u64)> = Vec::new();
            let backfill_start = Instant::now();
            let mut refusal: Option<Error> = None;
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
        // before any segment of the new generation can exist.  Phase 3:
        // switch, then settle the covers.
        let manifest = Manifest {
            schema: next.definition.clone(),
            fds: next.fds.clone(),
            app: next.encode_layouts(),
        };
        let mut shard = 0;
        let switched = (d.dir.append_generation_manifest(new_gen, &manifest))
            .map_err(Error::from)
            .and_then(|()| self.switch(Some(d), next, &remap, new_gen, &mut shard));
        if let Err(e) = switched {
            // A failed manifest write may have renamed the manifest into
            // place already.  Either way memory must not go on
            // acknowledging writes under a schema recovery may no longer
            // load.
            let err = self.record_poison(shard, &format_args!("schema switch failed: {e}"));
            for slot in &self.topology()?.slots {
                if let Ok(mut slot) = slot.lock() {
                    slot.dead = true;
                }
            }
            return Err(err);
        }
        *gen = new_gen;
        // Cannot be refused: since its backfill each relation has
        // enforced a superset of its new cover.
        self.settle()?;
        self.obs.registry.counter("evolve.alters").inc();
        self.obs.registry.events().record(Event::SchemaAltered {
            generation: new_gen,
            relations: self.schema().definition.len() as u64,
        });
        Ok(new_gen)
    }

    /// Applies shipments of the follow loop ([`ids_wal::Follower`]), in
    /// order, to an in-memory store — the one replay crash recovery and
    /// both replica transports run, so a relation's log means the same
    /// to each of them.
    ///
    /// * Every name the shipments' records carry goes into the value pool
    ///   ([`Store::names`]) first, in id order, so a pool rebuilt from
    ///   several relations' logs read one after another keeps its names
    ///   packed in its arena.  A name the pool already gives another
    ///   value is [`Error::Replay`].
    /// * A manifest switches the store in place, exactly as the switch of
    ///   [`Store::alter`] does on the primary — survivors
    ///   (by [`DatabaseSchema::remap_from`]) are renumbered with their
    ///   rows, dropped relations released, added ones start empty — and
    ///   then installs each relation's exact new cover.  No backfill, no
    ///   manifest write and no log rotation: the primary did those.  A
    ///   cover the relation's rows violate is
    ///   [`Error::BackfillViolation`].
    /// * Records are applied to the relation the batch names, by its
    ///   index in the schema the store serves, under one slot lock: each
    ///   operation must re-accept under the slot's current cover.  Every
    ///   logged record was an accepted, effective operation, so anything
    ///   else is [`Error::Replay`].
    ///
    /// The follow loop ships each record before any manifest written
    /// after it, so each record is judged by the rules of its own era.
    /// Call it on a store with no log writer: what it applies is logged
    /// already.
    pub fn follow(&self, shipments: impl IntoIterator<Item = Shipment>) -> Result<(), Error> {
        let shipments: Vec<Shipment> = shipments.into_iter().collect();
        self.define(&shipments)?;
        for shipment in shipments {
            let (relation, records) = match shipment {
                Shipment::Manifest { gen, manifest, .. } => {
                    let Manifest { schema, fds, app } = manifest;
                    let next = Schema::from_recovered(schema, fds, &app)?;
                    next.covers()?;
                    let remap = survivors(&self.schema().definition, &next.definition);
                    self.switch(None, next, &remap, gen, &mut 0)?;
                    self.settle()?;
                    continue;
                }
                Shipment::Records {
                    relation, records, ..
                } => (SchemeId::from_index(relation as usize), records),
            };
            let topo = self.topology()?;
            if relation.index() >= topo.slots.len() {
                return Err(Error::UnknownScheme(relation));
            }
            let mut slot = self.lock(&topo, relation)?;
            let Slot { shard, rel, .. } = &mut *slot;
            for TailedRecord { record, .. } in records {
                let reapplied = match record.op {
                    WalOp::Insert(t) => {
                        matches!(shard.insert(rel, t), Ok(InsertOutcome::Accepted))
                    }
                    WalOp::Remove(t) => matches!(shard.remove(rel, &t), Ok(true)),
                };
                if !reapplied {
                    return Err(Error::Replay {
                        scheme: relation,
                        seq: record.seq,
                        detail: "not accepted by the relation's slot".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The first step of [`Store::follow`]: every name the records of
    /// `shipments` define, into the value pool in id order.
    fn define(&self, shipments: &[Shipment]) -> Result<(), Error> {
        let mut defs = Vec::new();
        for shipment in shipments {
            if let Shipment::Records {
                relation, records, ..
            } = shipment
            {
                for TailedRecord { record, .. } in records {
                    for (v, name) in &record.defs {
                        defs.push((*v, *relation, record.seq, name.as_str()));
                    }
                }
            }
        }
        defs.sort_unstable_by_key(|&(v, ..)| v);
        let mut pool = self.names.lock().map_err(|_| Error::Disconnected)?;
        for (v, relation, seq, name) in defs {
            pool.define(v, name).map_err(|e| Error::Replay {
                scheme: SchemeId::from_index(relation as usize),
                seq,
                detail: format!("bad value definitions: {e}"),
            })?;
        }
        Ok(())
    }

    /// The last step of a switch: each relation whose shard enforces
    /// another cover than the served schema gives it — a union left by
    /// a backfill, or the old era's — installs its exact cover, inside
    /// its own slot's lock, so untouched relations keep serving.  A
    /// cover the relation's rows violate is
    /// [`Error::BackfillViolation`].
    fn settle(&self) -> Result<(), Error> {
        let topo = self.topology()?;
        for (slot, cover) in topo.slots.iter().zip(topo.schema.covers()?) {
            // A slot lost to a panicking caller has nothing to settle.
            let Ok(mut slot) = slot.lock() else { continue };
            if !slot.shard.enforcement().same_fds(cover) {
                slot.install_cover(cover.clone())?;
            }
        }
        Ok(())
    }

    /// The switch of a schema transition: survivors renumbered in their
    /// own slots (and, on a durable store `d`, their logs rotated onto
    /// `new_gen`), added relations given fresh slots, then the topology
    /// swapped.  On error the primary poisons the store; `failed` is
    /// then the metric family of the relation that failed.
    fn switch(
        &self,
        d: Option<&Durability>,
        next: Schema,
        remap: &[Option<SchemeId>],
        new_gen: u64,
        failed: &mut u64,
    ) -> Result<(), Error> {
        let (definition, covers) = (&next.definition, next.covers()?);
        // Survivors, one slot lock at a time: this is where the I/O is.
        let topo = self.topology()?;
        for (id, nid) in topo.schema.definition.ids().zip(remap) {
            let Some(nid) = *nid else { continue };
            *failed = id.index() as u64;
            let mut slot = self.lock(&topo, id)?;
            *failed = slot.metrics.index;
            slot.retarget(definition, nid, new_gen)?;
        }
        // An added relation: a fresh, empty slot with a metric family of
        // its own.
        let mut families = topo.families;
        drop(topo);
        let mut placed = Vec::with_capacity(definition.len());
        for id in definition.ids().filter(|id| !remap.contains(&Some(*id))) {
            let writer = d.map(|d| d.writer(id, new_gen, 0, &self.names));
            *failed = families as u64;
            let writer = writer.transpose()?;
            let slot = Slot::new(
                id,
                RelationShard::new(definition, id, covers[id.index()].clone()),
                Relation::new(definition.attrs(id)),
                writer,
                ShardMetrics::new(&self.obs.registry, families),
            );
            placed.push((id, Mutex::new(slot)));
            families += 1;
        }
        // The swap: memory only, nothing can fail.  The mutexes move as
        // they are, so one a panicking caller poisoned stays poisoned.
        *failed = 0;
        let mut topo = self.topology.write().map_err(|_| Error::Disconnected)?;
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
    fn validate(topo: &Topology, id: SchemeId, tuple: &[Value]) -> Result<(), Error> {
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
        body: impl FnOnce(&mut Slot, &mut Tally) -> Result<T, Error>,
    ) -> Result<T, Error> {
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
            Err(Error::Wal(e)) => Err(self.poison_slot(&mut slot, e)),
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
    pub fn insert(&self, id: SchemeId, tuple: Vec<Value>) -> Result<InsertOutcome, Error> {
        self.era()?.insert(id, &tuple)
    }

    /// Removes a tuple from relation `id`; `true` when it was present.
    /// Always satisfaction-preserving under weak-instance semantics.
    /// `id` is positional, as for [`Store::insert`].
    pub fn remove(&self, id: SchemeId, tuple: Vec<Value>) -> Result<bool, Error> {
        self.era()?.remove(id, &tuple)
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
    pub fn apply_batch(&self, ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, Error> {
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
                    out[i] = match &ops[i] {
                        StoreOp::Insert { tuple, .. } => {
                            OpOutcome::Insert(slot.insert(tuple, tally)?)
                        }
                        StoreOp::Remove { tuple, .. } => {
                            OpOutcome::Remove(slot.remove(tuple, tally)?)
                        }
                    };
                }
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// The tuples of one relation matching `predicate`, in insertion
    /// order: [`Era::gather`] in an era of its own, the gathered values
    /// then cut into one [`Tuple`] per row.  Only that relation's slot is
    /// locked, so no other relation pauses or copies anything.  The
    /// predicate is evaluated where the tuples live — a point lookup on
    /// the relation's key is O(1) against its membership table, see
    /// [`RelationShard::scan`].
    ///
    /// This is sound precisely because the schema is independent:
    /// relations share no enforcement state, so the cut "this relation
    /// as of now, all others untouched" is a prefix of a valid
    /// serialization — the answer is computed from exactly what some
    /// snapshot would also contain for this scheme.  What you give up
    /// versus [`Store::snapshot`] is *cross-relation* consistency: two
    /// reads of different relations may observe cuts no single snapshot
    /// contains.  Per relation the read is linearizable: it sees every
    /// operation that returned before it started.
    ///
    /// A foreign scheme or predicate attribute is a typed error.  `id`
    /// is positional, as for [`Store::insert`].
    pub fn query(&self, id: SchemeId, predicate: &Predicate) -> Result<Vec<Tuple>, Error> {
        let era = self.era()?;
        let mut values = Vec::new();
        era.gather(id, predicate, &mut values)?;
        let width = era.topo.schema.definition.attrs(id).len();
        Ok(values.chunks_exact(width).map(Tuple::from).collect())
    }

    /// Takes a consistent snapshot: every slot is locked, in ascending
    /// scheme order, and all are held while the relations are cloned
    /// into a [`DatabaseState`] — a true cut, a state the store actually
    /// passed through.
    ///
    /// On an independent schema the snapshot is globally satisfying — each
    /// relation enforced its `Fi`, and `LSAT = WSAT` does the rest.
    pub fn snapshot(&self) -> Result<DatabaseState, Error> {
        self.era()?.snapshot()
    }

    /// Shuts the store down and hands back the final state.  Dropping a
    /// slot's log writer syncs its tail (best effort), as does dropping
    /// the store without calling this.  A poisoned store refuses: it
    /// holds operations that were applied but never acknowledged, so
    /// its final state is not the callers' view, and shutdown reports
    /// the preserved reason instead.
    pub fn shutdown(self) -> Result<DatabaseState, Error> {
        self.healthy()?;
        let topo = self
            .topology
            .into_inner()
            .map_err(|_| Error::Disconnected)?;
        let mut relations = Vec::with_capacity(topo.slots.len());
        for slot in topo.slots {
            relations.push(slot.into_inner().map_err(|_| Error::Disconnected)?.rel);
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
/// [`Store::alter`] races it: the transition's switch waits
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
    /// [`Era::schema`].  The row is borrowed: the relation copies it into
    /// its slab, and the log (when there is one) into its record.
    pub fn insert(&self, id: SchemeId, tuple: &[Value]) -> Result<InsertOutcome, Error> {
        Store::validate(&self.topo, id, tuple)?;
        (self.store).write(&self.topo, id, |slot, tally| slot.insert(tuple, tally))
    }

    /// [`Store::remove`] in this era, of a borrowed row.
    pub fn remove(&self, id: SchemeId, tuple: &[Value]) -> Result<bool, Error> {
        Store::validate(&self.topo, id, tuple)?;
        (self.store).write(&self.topo, id, |slot, tally| slot.remove(tuple, tally))
    }

    /// [`Store::snapshot`] in this era: a cut of exactly the relations
    /// of [`Era::schema`].
    pub fn snapshot(&self) -> Result<DatabaseState, Error> {
        let relations = self.cut(|slot| slot.rel.clone())?;
        DatabaseState::from_relations(&self.topo.schema.definition, relations).map_err(Into::into)
    }

    /// The tuple count of every relation of [`Era::schema`], in scheme
    /// order: the counts of the cut [`Era::snapshot`] would copy, taken
    /// under the same locks without copying a relation.
    pub fn lens(&self) -> Result<Vec<usize>, Error> {
        self.cut(|slot| slot.rel.len())
    }

    /// `read` of every slot of this era, all locked at once in ascending
    /// scheme order: a true cut.
    fn cut<T>(&self, read: impl Fn(&Slot) -> T) -> Result<Vec<T>, Error> {
        let slots = (self.topo.schema.definition.ids())
            .map(|id| self.store.lock(&self.topo, id))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(slots.iter().map(|slot| read(slot)).collect())
    }

    /// Appends the values of relation `id`'s rows matching `predicate`
    /// to `out`, row after row, and returns how many rows matched: the
    /// store's one per-relation read, flattened into the caller's buffer
    /// under the slot lock with no allocation per row (see
    /// [`RelationShard::gather`]).  A foreign scheme is a typed error
    /// here, a foreign predicate attribute one from the shard's own check
    /// (the read's only one), and a dead slot is refused, with `out`
    /// untouched.
    pub fn gather(
        &self,
        id: SchemeId,
        predicate: &Predicate,
        out: &mut Vec<Value>,
    ) -> Result<usize, Error> {
        let slot = self.read_lock(id)?;
        Ok(slot.shard.gather(&slot.rel, predicate, out)?)
    }

    /// How many of relation `id`'s rows match `predicate`: the rows
    /// [`Era::gather`] would append, counted under the slot lock and
    /// copied nowhere (see [`RelationShard::count`]; the true predicate
    /// is the O(1) cardinality).  Validated and locked exactly as
    /// [`Era::gather`].
    pub fn count(&self, id: SchemeId, predicate: &Predicate) -> Result<usize, Error> {
        let slot = self.read_lock(id)?;
        Ok(slot.shard.count(&slot.rel, predicate)?)
    }

    /// Relation `id`'s slot, locked for a read, once `id` is checked
    /// against this era's schema.  The predicate is the shard's to check:
    /// [`RelationShard::gather`] and [`RelationShard::count`] refuse a
    /// foreign attribute before they visit a row.
    fn read_lock(&self, id: SchemeId) -> Result<MutexGuard<'_, Slot>, Error> {
        let definition = &self.topo.schema.definition;
        definition.get_scheme(id).ok_or(Error::UnknownScheme(id))?;
        self.store.lock(&self.topo, id)
    }
}

/// What a replay reached: each relation's cursor, the generation fresh
/// segments open at, and whether the directory held any history (a
/// snapshot or a record).
struct Replayed {
    cursors: Vec<Cursor>,
    next_gen: u64,
    history: bool,
}

/// Recovery's reading of a [`Store::follow`] refusal: the files
/// contradict themselves — a typed [`WalError::Corrupt`] on `root`.
fn corrupt(root: &Path, e: Error) -> Error {
    match e {
        Error::Replay { .. } | Error::BackfillViolation { .. } => WalError::Corrupt {
            path: root.to_path_buf(),
            detail: format!("the log does not replay cleanly: {e}"),
        }
        .into(),
        e => e,
    }
}

/// Where each relation of `old` sits in `next` — `old index → new id` —
/// by the relation identity rule ([`DatabaseSchema::remap_from`]);
/// `None` for a relation `next` drops.
fn survivors(old: &DatabaseSchema, next: &DatabaseSchema) -> Vec<Option<SchemeId>> {
    let mut remap = vec![None; old.len()];
    for (nid, from) in next.ids().zip(next.remap_from(old)) {
        if let Some(i) = from {
            remap[i.index()] = Some(nid);
        }
    }
    remap
}

/// The per-scheme enforcement covers `Fi` of an analysis verdict: a
/// dependent schema is refused with its witness, and an analysis of a
/// *different* schema is a typed error, not an index panic while
/// distributing covers (same guard as `LocalMaintainer::new`).
fn covers<'a>(
    schema: &DatabaseSchema,
    analysis: &'a IndependenceAnalysis,
) -> Result<&'a [FdSet], Error> {
    let enforcement = match &analysis.verdict {
        ids_core::Verdict::Independent { enforcement } => enforcement,
        ids_core::Verdict::NotIndependent { reason, witness } => {
            return Err(Error::NotIndependent {
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
        let err =
            Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap_err();
        let Error::NotIndependent { witness, .. } = err else {
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
        let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
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
        let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
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
        let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
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
        assert!(matches!(err, Error::Relational(_)));
        let err = store
            .apply_batch(vec![StoreOp::Insert {
                scheme: SchemeId(99),
                tuple: vec![v(1)],
            }])
            .unwrap_err();
        assert!(matches!(err, Error::UnknownScheme(_)));
        assert_eq!(store.snapshot().unwrap().total_tuples(), 0);
    }

    #[test]
    fn snapshot_is_a_barrier_over_prior_batches() {
        let (schema, fds) = independent_setup();
        let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
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
        let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
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
        let count = |id| store.era().unwrap().count(id, &all).unwrap();
        assert_eq!((count(ct), count(cs)), (2, 1));
    }

    /// One read path, gathering or counting: the tuples agree with the
    /// linear reference on a snapshot, the gathered values are those
    /// tuples flattened, the count is theirs, and foreign ids and
    /// predicate attributes are refused at the router, `out` untouched.
    #[test]
    fn every_read_gathers_or_counts_exactly_the_matches() {
        let (schema, fds) = independent_setup();
        let attr = |name| schema.universe().attr(name).unwrap();
        let (c, t, s) = (attr("C"), attr("T"), attr("S"));
        let ct = schema.scheme_by_name("CT").unwrap();
        let cs = schema.scheme_by_name("CS").unwrap();
        let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
        // CT is keyed by C; CS holds many students per course.
        for i in 0..20u64 {
            store.insert(ct, vec![v(i), v(100 + i)]).unwrap();
        }
        for course in 0..5u64 {
            for student in 0..10u64 {
                store.insert(cs, vec![v(course), v(100 + student)]).unwrap();
            }
        }
        let snap = store.snapshot().unwrap();
        // (relation, predicate, matches)
        let table = [
            (ct, Predicate::new(), 20),
            (ct, Predicate::new().and_eq(c, v(7)), 1), // key index hit
            (ct, Predicate::new().and_eq(t, v(107)), 1), // linear filter
            (ct, Predicate::new().and_eq(c, v(999)), 0), // miss
            (cs, Predicate::new(), 50),
            (cs, Predicate::new().and_eq(s, v(103)), 5),
            (cs, Predicate::new().and_eq(c, v(2)), 10),
        ];
        for (id, pred, matches) in table {
            let tuples = store.query(id, &pred).unwrap();
            assert_eq!(tuples, snap.relation(id).filter_tuples(&pred), "{pred:?}");
            assert_eq!(tuples.len(), matches);
            let era = store.era().unwrap();
            assert_eq!(era.count(id, &pred).unwrap(), matches, "{pred:?}");
            let mut gathered = Vec::new();
            assert_eq!(era.gather(id, &pred, &mut gathered).unwrap(), matches);
            assert_eq!(gathered, tuples.concat(), "{pred:?}");
        }
        assert!(matches!(
            store.query(SchemeId(99), &Predicate::new()),
            Err(Error::UnknownScheme(_))
        ));
        let era = store.era().unwrap();
        let mut untouched = Vec::new();
        let foreign = Predicate::new().and_eq(t, v(0));
        assert!(matches!(
            era.count(SchemeId(99), &Predicate::new()),
            Err(Error::UnknownScheme(_))
        ));
        assert!(matches!(
            era.gather(SchemeId(99), &Predicate::new(), &mut untouched),
            Err(Error::UnknownScheme(_))
        ));
        assert!(matches!(
            era.count(cs, &foreign),
            Err(Error::Relational(RelationalError::SchemaMismatch(_)))
        ));
        assert!(matches!(
            era.gather(cs, &foreign, &mut untouched),
            Err(Error::Relational(RelationalError::SchemaMismatch(_)))
        ));
        assert!(untouched.is_empty());
    }

    #[test]
    fn configured_ordered_indexes_serve_ranges_and_survive_recovery() {
        let (schema, fds) = independent_setup();
        let cs = schema.scheme_by_name("CS").unwrap();
        let s = schema.universe().attr("S").unwrap();
        let specs = vec![(cs, s)];
        // In-memory: the indexed path must agree with a linear filter.
        let store = Store::open(
            Schema::canonical(&schema, &fds),
            StoreConfig {
                initial_state: None,
                ordered_indexes: specs.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        // The configured index is part of the schema the store serves.
        assert_eq!(store.schema().ordered_indexes, [(cs, s)]);
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
        assert!(Store::open(
            Schema::canonical(&schema, &fds),
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
            let store = Store::open_at(
                &root,
                Schema::canonical(&schema, &fds),
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
        let store = Store::open_at(
            &root,
            Schema::canonical(&schema, &fds),
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
            Err(Error::Relational(RelationalError::SchemaMismatch(_)))
        ));

        // A dependent schema's stored verdict is surfaced unchanged.
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let dep = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let dep_fds = FdSet::parse(dep.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let dep_analysis = ids_core::analyze(&dep, &dep_fds);
        assert!(matches!(
            Store::from_analysis(&dep, &dep_analysis, StoreConfig::default()),
            Err(Error::NotIndependent { .. })
        ));
    }

    #[test]
    fn preloaded_state_is_enforced_and_invalid_preloads_refused() {
        let (schema, fds) = independent_setup();
        let ct = schema.scheme_by_name("CT").unwrap();
        let mut base = DatabaseState::empty(&schema);
        base.insert(ct, vec![v(9), v(90)]).unwrap();
        let store = Store::open(
            Schema::canonical(&schema, &fds),
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
        let err = Store::open(
            Schema::canonical(&schema, &fds),
            StoreConfig {
                initial_state: Some(base),
                ordered_indexes: Vec::new(),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidBaseState { scheme, .. } if scheme == ct
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
        let err = Store::open(
            Schema::canonical(&schema, &fds),
            StoreConfig {
                initial_state: Some(foreign),
                ordered_indexes: Vec::new(),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Relational(_)), "got {err}");
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
            let store = Store::open_at(
                &root,
                Schema::canonical(&schema, &fds),
                DurableConfig::default(),
            )
            .unwrap();
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
            let store = Store::open_at(
                &root,
                Schema::canonical(&schema, &fds),
                DurableConfig::default(),
            )
            .unwrap();
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
            let store = Store::open_at(
                &root,
                Schema::canonical(&schema, &fds),
                DurableConfig::default(),
            )
            .unwrap();
            let state = store.shutdown().unwrap();
            assert_eq!(state.relation(ct).len(), 1);
            assert!(state.relation(ct).contains(&[v(1), v(12)]));
            assert_eq!(state.relation(cs).len(), 2);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A recovered relation is filed under its shard's key — the lhs of
    /// its key FD, every column when it has none — so its point reads
    /// probe the key rather than pass over every row.
    /// Recovery defines every name the snapshot and each relation's
    /// records carry into the store's pool, and refuses two that rename
    /// one value as corruption.
    #[test]
    fn recovery_unions_definitions_and_types_a_conflict_as_corrupt() {
        let root = tmp_dir("definitions");
        let u = ids_relational::Universe::from_names(["C", "T", "S"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        let handle = || Schema::canonical(&schema, &fds);
        let dir = WalDir::create(&root, &schema, &fds, Vec::new()).unwrap();
        let snap = DatabaseState::empty(&schema);
        dir.write_snapshot(&snap, &[0, 0], 0, vec![(v(4), "old".into())], 6)
            .unwrap();
        let writer = |scheme: u16, gen: u64, last_seq: u64, names: &[(u64, &str)]| {
            let mut pool = ValuePool::new();
            for &(id, name) in names {
                pool.define(v(id), name).unwrap();
            }
            let mut w = dir.segment_writer(scheme, gen, last_seq).unwrap();
            w.set_names(Arc::new(Mutex::new(pool)));
            w
        };
        let abc = [(0, "a"), (1, "b"), (2, "c")];
        let (mut w0, mut w1) = (writer(0, 1, 0, &abc), writer(1, 1, 0, &abc));
        w0.append(WalOp::Insert(vec![v(0), v(2)])).unwrap();
        w1.append(WalOp::Insert(vec![v(0), v(1)])).unwrap();
        // A value with no name in the pool is not defined.
        w1.append(WalOp::Insert(vec![v(9), v(1)])).unwrap();
        drop((w0, w1));
        let (store, _) = Store::recover_from(&dir, handle()).unwrap();
        let pool = store.names().lock().unwrap();
        let names: Vec<(&str, u64)> = pool.iter().map(|(n, v)| (n, v.0)).collect();
        assert_eq!(names, [("a", 0), ("b", 1), ("c", 2), ("old", 4)]);
        assert_eq!(pool.len(), 6);

        // Relation 1's next segment names value 2 differently.
        let mut w1 = writer(1, 2, 2, &[(2, "not c")]);
        w1.append(WalOp::Insert(vec![v(2), v(2)])).unwrap();
        match Store::recover_from(&dir, handle()) {
            Err(Error::Wal(WalError::Corrupt { detail, .. })) => {
                assert!(
                    detail.contains("conflicting definitions of value 2"),
                    "{detail}"
                )
            }
            other => panic!("expected corruption, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovered_relations_are_filed_under_their_keys() {
        let root = tmp_dir("keys");
        let (schema, fds) = independent_setup();
        let ids = ["CT", "CS", "CHR"].map(|name| schema.scheme_by_name(name).unwrap());
        let keys: [&[usize]; 3] = [&[0], &[0, 1], &[0, 1]];
        {
            let store = Store::open_at(
                &root,
                Schema::canonical(&schema, &fds),
                DurableConfig::default(),
            )
            .unwrap();
            for (i, id) in ids.into_iter().enumerate() {
                let arity = schema.attrs(id).len() as u64;
                store
                    .insert(id, (0..arity).map(|c| v(c + i as u64)).collect())
                    .unwrap();
            }
            store.checkpoint().unwrap();
        }
        let canonical = Schema::canonical(&schema, &fds);
        let store = Store::open_at(&root, canonical, DurableConfig::default()).unwrap();
        let state = store.snapshot().unwrap();
        for (id, key) in ids.into_iter().zip(keys) {
            assert_eq!(state.relation(id).len(), 1);
            assert_eq!(state.relation(id).key(), key, "{id:?}");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn durable_store_refuses_foreign_logs_and_misuse() {
        let root = tmp_dir("mismatch");
        let (schema, fds) = independent_setup();
        {
            let store = Store::open_at(
                &root,
                Schema::canonical(&schema, &fds),
                DurableConfig::default(),
            )
            .unwrap();
            store
                .insert(schema.scheme_by_name("CT").unwrap(), vec![v(1), v(10)])
                .unwrap();
            store.shutdown().unwrap();
        }
        // Different FD set: typed mismatch, no replay.
        let other_fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        assert!(matches!(
            Store::open_at(
                &root,
                Schema::canonical(&schema, &other_fds),
                DurableConfig::default()
            ),
            Err(Error::Wal(ids_wal::WalError::SchemaMismatch { .. }))
        ));
        // Different schema: same refusal.
        let u2 = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema2 =
            DatabaseSchema::parse(u2, &[("CT", "CT"), ("CS", "CS"), ("CHRS", "CHRS")]).unwrap();
        assert!(matches!(
            Store::open_at(
                &root,
                Schema::canonical(&schema2, &fds),
                DurableConfig::default()
            ),
            Err(Error::Wal(ids_wal::WalError::SchemaMismatch { .. }))
        ));
        // Preloading an existing log is refused.
        assert!(Store::open_at(
            &root,
            Schema::canonical(&schema, &fds),
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
        let mem = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
        assert!(!mem.is_durable());
        assert!(matches!(mem.checkpoint(), Err(Error::NotDurable)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn generation_starts_at_one_and_moves_on_checkpoint_and_reopen() {
        let root = tmp_dir("generation");
        let (schema, fds) = independent_setup();
        let open = || {
            let schema = Schema::canonical(&schema, &fds);
            Store::open_at(&root, schema, DurableConfig::default()).unwrap()
        };
        let store = open();
        assert_eq!(store.generation(), Some(1));
        store.checkpoint().unwrap();
        assert_eq!(store.generation(), Some(2));
        drop(store);
        assert_eq!(open().generation(), Some(3));
        let mem = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
        assert_eq!(mem.generation(), None);
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
            Store::open_at(
                &root,
                Schema::canonical(&schema, &fds),
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
            let store = Store::open_at(
                &root,
                Schema::canonical(&schema, &fds),
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
        let store = Store::open_at(
            &root,
            Schema::canonical(&schema, &fds),
            DurableConfig::default(),
        )
        .unwrap();
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
        let store = Store::open(
            Schema::canonical(&inst.schema, &inst.fds),
            StoreConfig::default(),
        )
        .unwrap();
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
        let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
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

//! The [`Database`] handle: relation names and string values in, rendered
//! rows out — the interning [`ValuePool`] lives inside.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use ids_core::InsertOutcome;
use ids_relational::{
    AttrId, AttrSet, DatabaseState, Predicate, ReadPlan, ReadReply, ReadShape, Relation,
    RelationalError, SchemeId, Tuple, Value, ValuePool,
};
use ids_store::{DurableConfig, OpOutcome, Store, StoreConfig, StoreOp};

use crate::planner::execute_join;
use crate::query::{Cond, JoinQuery, JoinReport, Query, RowSink, Rows};
use crate::{Alter, Error, Schema};

/// The store configuration [`Database::open`] starts from.  Both
/// variants open the one engine, the concurrent [`Store`]; `Local` is
/// [`StoreConfig::default()`].  A shim kept for the pinned callers of
/// the old engine selector — it goes with [`crate::SharedDatabase`]
/// (ROADMAP item 1(a)).  The paper's baselines, which also serve
/// dependent schemas, are the maintainers in `ids-core`
/// ([`ids_core::ChaseMaintainer`], [`ids_core::FdOnlyMaintainer`],
/// [`ids_core::LocalMaintainer`]), driven directly.
#[derive(Debug, Default)]
pub enum EngineKind {
    /// The store with the default configuration.
    #[default]
    Local,
    /// The store with this configuration.
    Sharded(StoreConfig),
}

/// Interns a name; one the pool's arena has no room for is refused.
fn intern(pool: &mut ValuePool, name: &str) -> Result<Value, Error> {
    if let Some(v) = pool.get(name) {
        return Ok(v);
    }
    pool.room_for(name)?;
    Ok(pool.value(name))
}

/// A running database: the concurrent [`Store`], whose live [`Schema`]
/// it serves, and the interning [`ValuePool`] owned internally —
/// callers speak relation names and string values, never [`SchemeId`]s,
/// [`Value`]s or pools.
///
/// ```
/// use ids_api::{Database, EngineKind, Schema};
///
/// let schema = Schema::builder()
///     .relation("CT", ["course", "teacher"])
///     .relation("CS", ["course", "student"])
///     .fd("course -> teacher")
///     .build()?;
/// let db = Database::open(schema, EngineKind::Local)?;
///
/// db.insert("CT", ["CS402", "Jones"])?;
/// assert!(db.insert("CT", ["CS402", "Smith"])?.is_rejected()); // C → T
/// assert_eq!(db.rows("CT")?, vec![vec!["CS402".to_string(), "Jones".to_string()]]);
/// # Ok::<(), ids_api::Error>(())
/// ```
///
/// ## One handle, shared
///
/// Every operation takes `&self` and the type is `Send + Sync`, so one
/// `Database` (behind a reference or an `Arc`) serves as many threads
/// as you like — a network server's connection threads included:
///
/// ```
/// use ids_api::{Database, EngineKind, Schema};
/// use ids_store::StoreConfig;
///
/// let schema = Schema::builder()
///     .relation("CT", ["course", "teacher"])
///     .relation("CS", ["course", "student"])
///     .fd("course -> teacher")
///     .build()?;
/// let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default()))?;
///
/// std::thread::scope(|s| {
///     for i in 0..4 {
///         let db = &db;
///         s.spawn(move || db.insert("CS", [format!("CS{i}"), "Riley".into()]).unwrap());
///     }
/// });
/// assert_eq!(db.count("CS")?, 4);
/// # Ok::<(), ids_api::Error>(())
/// ```
///
/// Two callers on different relations share no enforcement state
/// (Theorem 3) and never wait on each other past name resolution.  The
/// schema must therefore be independent: a dependent one (from
/// [`crate::SchemaBuilder::build_any`]) is served by the chase
/// maintainers in `ids-core`, not by a `Database`.
///
/// ## Reading: `rows` vs `snapshot`
///
/// [`Database::rows`] / [`Database::read`] consult **one** relation
/// without a global barrier — only that relation's lock is taken, every
/// other keeps streaming.  Per relation the
/// result is exactly as fresh as a snapshot (operations that returned
/// before the read started are visible); what it does *not* give you is a
/// cross-relation cut: two `rows` calls may observe states no single
/// moment contained.  [`Database::snapshot`] is the barrier that does —
/// one globally-satisfying [`DatabaseState`] across all relations.
///
/// Every string-level read — [`Database::query`], [`Database::join`],
/// [`Database::rows`] — ends in one row visitor: the store copies the
/// matching tuples out of the relation once, and the visitor hands each
/// row's values, as names borrowed from the pool, to a [`RowSink`].
/// [`Rows`] is the sink that collects them as strings;
/// [`Database::query_into`] and [`Database::join_into`] take any other —
/// the wire server's writes reply bytes straight into its output buffer.
/// A join's fetched tuples are folded flat first (see
/// [`Database::join`]), so each joined row is built once.
///
/// ## Locks
///
/// Three pieces of shared state sit behind locks, always taken in this
/// order: the store's **topology** (read), a **relation**'s slot, then
/// the **names**.  The database keeps no schema of its own —
/// [`Database::schema`] is the store's live handle.
///
/// * **Topology** (the store's read-write lock, read side): every
///   name-addressed operation takes it exactly **once**, as one
///   [`ids_store::Era`], and inside it resolves name → [`SchemeId`] →
///   declared layout → slot, interns, and runs its slot operations; it is
///   released before anything is rendered.  So the name, layout, cover
///   and slot always come from one schema era, and one racing
///   [`Database::alter`] behaves exactly as if submitted before or after
///   the operation: the alter's switch waits for the era to end.  No
///   operation takes the guard a second time while holding it — std
///   readers queue behind a waiting writer, so a nested read would
///   deadlock against a pending switch.
/// * **Relations**: the store's own per-relation locks, one at a time.
/// * **Names** (a `Mutex` over the in-memory pool, shared with a durable
///   store's log writers): O(row) hash lookups, no I/O.  An operation
///   takes it inside the era and releases it before the slot is locked.
///   A durable slot takes it *inside* its own lock, and only to read the
///   names of values its current log segment has not defined yet, which
///   the record it appends then carries.  A read holds it twice,
///   briefly: to plan, and — after the era has ended — while the row
///   visitor renders the shipped rows into its sink, which renders into
///   memory only; no socket write runs under it.  Poison **propagates**
///   as a panic: a thread that died mid-intern may have left the arena
///   and its index out of step.
///
/// A string insert or remove therefore takes the topology guard once plus
/// `names`; a query or count takes one topology guard; a join takes one
/// topology guard for all of its relation reads.  Only the private lock
/// that serializes [`Database::alter`] callers spans any of these; it
/// guards no data, so its poison is recovered.
///
/// ## What `&mut` still means
///
/// [`Database::intern`], [`Database::define`] and
/// [`Database::replace_store`] need exclusive ownership.  A replication
/// follower's pool must hold exactly the primary's `value ↦ name` pairs:
/// it learns them from the shipped records through `define` on the
/// handle it owns, and lends readers only `&Database` — which can read,
/// and whose writes a follower's handle ([`Database::follower`]) refuses
/// **before** they intern anything.
pub struct Database {
    /// The one value pool; a durable store's log writers share it.
    names: Arc<Mutex<ValuePool>>,
    /// Serializes [`Database::alter`] callers end to end (build target
    /// → backfill → switch), so two concurrent alters cannot both
    /// derive their target from the same stale schema.
    alter_lock: Mutex<()>,
    store: Arc<Store>,
    /// Set on a follower's handle: every write is refused with
    /// [`Error::ReplicaReadOnly`].
    read_only: bool,
}

impl Database {
    /// The handle over `store`, interning into the pool the store brings
    /// — the one a durable or recovered store's logs name their values
    /// from ([`Store::names`]) — or into a fresh one.
    fn assemble(store: Arc<Store>) -> Self {
        Database {
            names: (store.names()).unwrap_or_else(|| Arc::new(Mutex::new(ValuePool::new()))),
            alter_lock: Mutex::new(()),
            store,
            read_only: false,
        }
    }

    /// Opens an in-memory database over a built [`Schema`].
    ///
    /// No analysis runs here: the handle carries the verdict from build
    /// time.  A dependent handle (reachable via
    /// [`crate::SchemaBuilder::build_any`]) is refused with
    /// [`Error::NotIndependent`].
    pub fn open(schema: Schema, kind: EngineKind) -> Result<Self, Error> {
        let config = match kind {
            EngineKind::Local => StoreConfig::default(),
            EngineKind::Sharded(config) => config,
        };
        // The handle becomes the store's live schema; the indexes it
        // declares ride along with any the caller already configured.
        let store = Store::from_schema(schema, config)?;
        Ok(Self::assemble(Arc::new(store)))
    }

    /// A replication follower's handle over the `store` it applies the
    /// primary's log to: reads are served from it, every write through
    /// the handle is refused with [`Error::ReplicaReadOnly`], and the
    /// pool starts as the one the store recovered ([`Store::names`]),
    /// or empty — the follower feeds it the primary's names through
    /// [`Database::define`].
    ///
    /// `schema` must be the schema `store` was built from (e.g. with
    /// [`Store::from_schema`] or [`Store::recover_from`]); the handle
    /// keeps no copy of it and serves the store's own.
    ///
    /// # Panics
    ///
    /// When the store serves a schema not equal to `schema` (other
    /// relations, declared columns, dependencies or indexes).
    pub fn follower(schema: Schema, store: Arc<Store>) -> Self {
        assert_serves(&store, &schema);
        Database {
            read_only: true,
            ..Self::assemble(store)
        }
    }

    /// Opens (or reopens) a **durable** database at `path`, always on
    /// the sharded store with a write-ahead log underneath.
    ///
    /// First open creates the directory: manifest (schema + FDs +
    /// declaration-order layouts) and one log per relation.  Each log is
    /// self-defining: the first record of a segment that uses a string
    /// carries the string, so a name is as durable as the record that
    /// carries it, under the same [`ids_wal::SyncPolicy`].  Every later
    /// open *recovers*: snapshot + log tails replay through the normal
    /// probe/commit path (so the recovered state provably satisfies
    /// every relation's cover), and the pool is rebuilt from the
    /// snapshot's and the records' definitions — the string-level
    /// surface comes back exactly as it was.  Reopening under a
    /// different schema or FD set is a typed
    /// [`Error::Wal`]`(`[`ids_wal::WalError::SchemaMismatch`]`)`, and a
    /// directory of the older format with a global `pool.log` is
    /// [`ids_wal::WalError::LegacyNameLog`].
    pub fn open_at(
        path: impl AsRef<Path>,
        schema: Schema,
        config: DurableConfig,
    ) -> Result<Self, Error> {
        // A created manifest records the schema's declared column order
        // and index declarations.
        let store = Store::open_durable_schema(path, schema, config)?;
        Ok(Self::assemble(Arc::new(store)))
    }

    /// Recovers a durable database from `path` alone: the schema (and
    /// its declared column order) is rebuilt from the manifest, then
    /// the store recovers as in [`Database::open_at`].  Use this when
    /// the caller has nothing but the directory — after a crash, on a
    /// fresh process, on another machine.
    pub fn recover(path: impl AsRef<Path>) -> Result<Self, Error> {
        Self::recover_with(path, DurableConfig::default())
    }

    /// [`Database::recover`] with an explicit store/sync configuration.
    pub fn recover_with(path: impl AsRef<Path>, config: DurableConfig) -> Result<Self, Error> {
        let dir = ids_wal::WalDir::open(path.as_ref())?;
        // The *latest* generation manifest is the schema the database
        // runs under after recovery, its declared layouts and indexes
        // included; older entries in the chain only direct per-era
        // replay inside the store.
        let schema = Schema::from_manifest(dir.latest_manifest())?;
        // The open directory handle is passed straight down, so the
        // manifest is read and decoded exactly once per recover.
        let store = Store::recover_durable(dir, schema, config)?;
        Ok(Self::assemble(Arc::new(store)))
    }

    /// Checkpoints a durable database: seals every relation's log
    /// segment, writes one snapshot, and truncates the covered log —
    /// see [`Store::checkpoint`].  A typed error
    /// ([`ids_store::StoreError::NotDurable`]) on an in-memory database.
    pub fn checkpoint(&self) -> Result<(), Error> {
        self.store.checkpoint().map_err(Into::into)
    }

    /// True when this database persists through a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.store.is_durable()
    }

    /// Applies one `ALTER`-class schema transition to a **running**
    /// durable database, without stopping service on unaffected
    /// relations.  Returns the new schema generation.
    ///
    /// The transition is validated *before* any engine state moves:
    ///
    /// 1. The target schema is built and its independence re-decided
    ///    incrementally ([`Schema::evolved`]).  A dependent target is
    ///    [`Error::NotIndependent`] with the `LSAT ∖ WSAT` witness; name
    ///    errors (duplicate relation, unknown FD, an uncoverable drop)
    ///    are [`Error::Evolve`].
    /// 2. For [`Alter::AddFd`], existing tuples are backfill-validated
    ///    through the same probe path recovery uses; a violation is
    ///    [`ids_store::StoreError::BackfillViolation`] (under
    ///    [`Error::Store`]) carrying a witness pair of tuples.
    /// 3. Only then is a generation manifest appended to the log — the
    ///    durability point — and the live topology switched.
    ///
    /// On any error *before* the durability point the current schema
    /// keeps serving, untouched.  A failure after it (an I/O error while
    /// the relations' logs switch onto the new generation) cannot be
    /// undone — recovery will load the new schema — so it poisons the
    /// store instead of forking it: the alter and every later operation
    /// report [`ids_store::StoreError::ShardPoisoned`] with the reason,
    /// and [`Database::recover`] lands on the new schema with every
    /// acknowledged write.  Concurrent traffic on unaffected relations
    /// keeps flowing throughout; concurrent `alter` calls serialize.
    /// Requires a log to append the generation to:
    /// [`ids_store::StoreError::NotDurable`] on an in-memory database.
    pub fn alter(&self, op: &Alter) -> Result<u64, Error> {
        let _serialized = self.alter_lock.lock().unwrap_or_else(|e| e.into_inner());
        let (next, _stats) = self.schema().evolved(op)?;
        Ok(self.store.apply_transition(next)?)
    }

    /// A typed snapshot of the store's metric families, event ring, and
    /// preserved poison reason — see [`Store::metrics`] — plus two
    /// gauges of the name pool, `api.names.count` (interned names) and
    /// `api.names.bytes` (their arena bytes), read under the name lock
    /// here rather than kept on the intern path.  Names are never
    /// reclaimed, so these show strings orphaned by removes.  Purely
    /// read-side: no relation is locked, works even after a poison.
    pub fn metrics(&self) -> ids_obs::MetricsSnapshot {
        let mut snapshot = self.store.metrics();
        let (count, bytes) = {
            // Two lengths are safe to read from a pool a panicking
            // thread left behind; the stats poll must still answer.
            let pool = self.names.lock().unwrap_or_else(|e| e.into_inner());
            (pool.len(), pool.name_bytes())
        };
        let gauge = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
        snapshot.merge(ids_obs::MetricsSnapshot {
            gauges: vec![
                ("api.names.bytes".to_string(), gauge(bytes)),
                ("api.names.count".to_string(), gauge(count)),
            ],
            ..ids_obs::MetricsSnapshot::default()
        });
        snapshot
    }

    /// Replaces the store — and with it the schema served — **in
    /// place**, keeping the value pool exactly as it is.
    ///
    /// This is the swap a replication follower performs when it applies
    /// a streamed schema transition: rebuilding the handle would sever
    /// every already-defined value from its name.  The caller owns the
    /// invariant that `store` holds state expressed in this pool's
    /// values.  `schema` must be the
    /// schema `store` was built from, as for [`Database::follower`]; the
    /// handle serves the store's own.
    ///
    /// # Panics
    ///
    /// When the store serves a schema not equal to `schema`, or brings a
    /// value pool of its own ([`Store::names`]) that is not this handle's
    /// — its log writers would define values from a pool the handle
    /// never interns into.
    pub fn replace_store(&mut self, schema: Schema, store: Arc<Store>) {
        assert_serves(&store, &schema);
        assert!(
            (store.names()).is_none_or(|pool| Arc::ptr_eq(&pool, &self.names)),
            "replace_store: the store logs its values from another value pool"
        );
        self.store = store;
    }

    /// The schema handle the database **currently** serves — the store's
    /// live one ([`Store::schema`]).  Cheap (one read lock, one `Arc`
    /// clone); the returned handle is a consistent view that stays valid
    /// — and stale — across any concurrent [`Database::alter`].
    pub fn schema(&self) -> Arc<Schema> {
        self.store.schema()
    }

    /// Locks the value pool (see the type-level docs for why a poisoned
    /// lock propagates).
    fn names(&self) -> MutexGuard<'_, ValuePool> {
        self.names
            .lock()
            .expect("name-state mutex poisoned: a thread panicked while interning")
    }

    /// Renders a raw [`Value`] a caller pulled out of
    /// [`Database::snapshot`] or [`Database::read`] back to its string.
    ///
    /// Note on mixing levels: raw values that were never interned render
    /// through their numeric id and are invisible to string-level
    /// [`Database::remove`].  Code that mixes the raw and string APIs on
    /// one database should obtain its values via [`Database::intern`].
    pub fn render(&self, value: Value) -> String {
        self.names().render(value)
    }

    /// The [`Value`] a string was interned as, if it ever was — the
    /// read-only half of [`Database::intern`].
    pub fn lookup(&self, name: &str) -> Option<Value> {
        self.names().get(name)
    }

    /// Renders interned tuples back through the live value pool — e.g.
    /// the violating-pair witness of a refused [`Database::alter`]
    /// backfill, so a front-end can ship the evidence as strings.
    pub fn render_tuples(&self, tuples: &[Tuple]) -> Vec<String> {
        let names = self.names();
        tuples
            .iter()
            .map(|t| {
                let vals: Vec<String> = t.iter().map(|&v| names.render(v)).collect();
                format!("({})", vals.join(", "))
            })
            .collect()
    }

    /// Interns a string value, returning the stable [`Value`] the
    /// string-level API uses for it — the bridge for callers mixing the
    /// raw paths ([`Database::insert_raw`], [`Database::apply_batch`],
    /// [`Database::store`]) with string-level reads and removes.
    ///
    /// Fallible because a name the pool's arena has no room for is
    /// refused.  Nothing is written: on a durable database the name
    /// reaches the log with the first record that uses its value.  Takes
    /// `&mut self` because interning assigns values (see the type-level
    /// docs).
    pub fn intern(&mut self, value: impl AsRef<str>) -> Result<Value, Error> {
        intern(&mut self.names(), value.as_ref())
    }

    /// Names `value` `name` in the pool, as a record shipped from a
    /// primary defined it — how a follower learns the primary's names
    /// under the primary's ids.  Idempotent; a definition that disagrees
    /// with the pool is a typed
    /// [`ids_relational::RelationalError::NameConflict`].
    pub fn define(&mut self, value: Value, name: &str) -> Result<(), Error> {
        Ok(self.names().define(value, name)?)
    }

    /// The underlying concurrent [`Store`] — for typed-level callers
    /// (batch submission, raw predicates) that bypass the name layer.
    /// On a follower's handle it is the applied state: a write through it
    /// bypasses the handle's read-only refusal and forks the follower.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The store, for a write: refused on a follower's handle.
    fn writable(&self) -> Result<&Store, Error> {
        if self.read_only {
            return Err(Error::ReplicaReadOnly);
        }
        Ok(&self.store)
    }

    /// Resolves a relation name and a declaration-order value row into
    /// `(id, canonical tuple)` under `schema` — the schema of the era the
    /// write then runs in.  With `intern: true` unknown values are added
    /// to the pool (writes) and the tuple is always `Some`; with `intern:
    /// false` a row mentioning a never-seen value resolves to `None` (it
    /// cannot name a stored tuple, so a remove of it is vacuously
    /// absent).
    fn resolve_row<S: AsRef<str>>(
        &self,
        schema: &Schema,
        relation: &str,
        values: impl IntoIterator<Item = S>,
        intern: bool,
    ) -> Result<(SchemeId, Option<Vec<Value>>), Error> {
        let id = schema.scheme_id(relation)?;
        let layout = schema.layout(id);
        let arity = layout.columns.len();
        // Arity before anything else: a refused row must not intern a
        // single name.
        let values: Vec<S> = values.into_iter().collect();
        if values.len() != arity {
            return Err(RelationalError::ArityMismatch {
                expected: arity,
                found: values.len(),
            }
            .into());
        }
        let mut tuple = vec![Value::int(0); arity];
        let mut all_known = true;
        let pool = &mut *self.names();
        for (j, value) in values.iter().enumerate() {
            let resolved = if intern {
                Some(self::intern(pool, value.as_ref())?)
            } else {
                pool.get(value.as_ref())
            };
            match resolved {
                Some(v) => tuple[layout.perm[j]] = v,
                None => all_known = false,
            }
        }
        Ok((id, all_known.then_some(tuple)))
    }

    /// Inserts a row into a relation, values in the column order the
    /// relation was declared with.  FD violations are outcomes
    /// ([`InsertOutcome::Rejected`]), not errors.  The relation is
    /// resolved and the row written in one era of the store's schema;
    /// names are interned under the name lock, and the FD probe and
    /// commit run after it is released.
    pub fn insert<S: AsRef<str>>(
        &self,
        relation: &str,
        values: impl IntoIterator<Item = S>,
    ) -> Result<InsertOutcome, Error> {
        // Refusing a follower's write here, first, keeps the refusal from
        // interning: one stray name would shift every later streamed name
        // onto a different `Value` — a silent fork from the primary.
        let era = self.writable()?.era()?;
        let (id, tuple) = self.resolve_row(era.schema(), relation, values, true)?;
        // `resolve_row` yields `None` only for a value it may not intern.
        let tuple = tuple.expect("interning resolves every value");
        era.insert(id, tuple).map_err(Into::into)
    }

    /// Removes a row; `Ok(true)` when it was present.  A row mentioning
    /// a value this database has never *interned* is simply absent
    /// (`false`) — string-level reasoning, sound for everything written
    /// through the string API.  Rows written through the raw escape
    /// hatches ([`Database::insert_raw`], [`Database::store`]) with
    /// values that were never interned are outside the string value
    /// space: remove them through the same raw paths (or bridge with
    /// [`Database::intern`]).
    pub fn remove<S: AsRef<str>>(
        &self,
        relation: &str,
        values: impl IntoIterator<Item = S>,
    ) -> Result<bool, Error> {
        let era = self.writable()?.era()?;
        match self.resolve_row(era.schema(), relation, values, false)? {
            (id, Some(tuple)) => era.remove(id, tuple).map_err(Into::into),
            (_, None) => Ok(false),
        }
    }

    /// Reads one relation's rows as strings, columns in declaration
    /// order, rows in insertion order — without a global barrier (see
    /// the type-level docs for the consistency model).  Routed through
    /// the query subsystem ([`Database::query`] with no filter), so
    /// every string-level read shares one execution path.
    pub fn rows(&self, relation: &str) -> Result<Vec<Vec<String>>, Error> {
        Ok(self.query(relation).run()?.into_string_rows())
    }

    /// Starts a fluent query against one relation:
    ///
    /// ```
    /// # use ids_api::{eq, Database, EngineKind, Schema};
    /// # let schema = Schema::builder()
    /// #     .relation("CT", ["course", "teacher"])
    /// #     .fd("course -> teacher").build()?;
    /// # let db = Database::open(schema, EngineKind::Local)?;
    /// # db.insert("CT", ["CS402", "Jones"])?;
    /// let rows = db.query("CT")
    ///     .filter("course", eq("CS402"))
    ///     .select(["teacher"])
    ///     .run()?;
    /// assert_eq!(rows.iter().next().unwrap().get("teacher"), Some("Jones"));
    /// # Ok::<(), ids_api::Error>(())
    /// ```
    ///
    /// Execution is **pushed down**: the filters become a typed
    /// [`Predicate`] the store evaluates where the tuples live: only the
    /// owning relation's shard runs it — a filter pinning a
    /// key column (an enforcement FD's left-hand side) is answered in
    /// O(1) from the hash index the shard already maintains, and only
    /// matching tuples are copied out.  Same barrier-free
    /// consistency model as [`Database::rows`].
    pub fn query(&self, relation: impl Into<String>) -> Query<'_> {
        Query {
            db: self,
            relation: relation.into(),
            filters: Vec::new(),
            select: None,
            order: None,
            limit: None,
        }
    }

    /// Executes a string-level query in one call and collects the
    /// [`Rows`] — what a built [`Query`] runs: [`Database::query_into`]
    /// with [`Rows`] as the sink.
    pub fn run_query(
        &self,
        relation: &str,
        filters: &[(String, Cond)],
        select: Option<Vec<String>>,
    ) -> Result<Rows, Error> {
        let mut rows = Rows::default();
        self.query_into(relation, filters, select, &mut rows)?;
        Ok(rows)
    }

    /// Executes a string-level query and hands the result to `sink` —
    /// what a front end holding already-parsed filters (the wire server)
    /// calls to render straight into its reply: resolve names once, push
    /// the predicate down, render only the shipped tuples.  `select`
    /// picks output columns (`None` = declaration order).  Planning and
    /// the store round trip run in one era of the store's schema, the
    /// round trip between two short name-lock sections (plan, then
    /// render, after the era) — tuples are shipped and filtered with no
    /// lock of the database's held.  On an error the sink is not called
    /// at all.
    pub fn query_into<S: RowSink>(
        &self,
        relation: &str,
        filters: &[(String, Cond)],
        select: Option<Vec<String>>,
        sink: &mut S,
    ) -> Result<(), Error> {
        let era = self.store.era()?;
        let plan = plan_query(era.schema(), &self.names(), relation, filters, select)?;
        let tuples = if plan.satisfiable {
            era.read(plan.id, &plan.read)?.rows
        } else {
            Vec::new()
        };
        drop(era);
        let rows = tuples.iter().map(|t| &t[..]);
        self.render_into(&plan.columns, &plan.positions, rows, sink);
        Ok(())
    }

    /// The one renderer every string-level read shares: hands `sink` the
    /// output `columns`, then each row's values — picked by `positions`,
    /// one per column — as names borrowed from the pool.  One name-lock
    /// section covers it all, and the sink renders into memory only.  A
    /// raw value that was never interned renders as its decimal id,
    /// exactly as [`Database::render`] prints it.
    fn render_into<'r, S: RowSink>(
        &self,
        columns: &[String],
        positions: &[usize],
        rows: impl ExactSizeIterator<Item = &'r [Value]>,
        sink: &mut S,
    ) {
        let names = self.names();
        sink.start(columns, rows.len());
        for row in rows {
            sink.row();
            for &p in positions {
                match names.name(row[p]) {
                    Some(name) => sink.value(name),
                    None => sink.value(&row[p].0.to_string()),
                }
            }
        }
    }

    /// Executes a built [`Query`]'s count: same planning as
    /// [`Database::run_query`], but only the integer comes back.
    pub(crate) fn run_count(
        &self,
        relation: &str,
        filters: &[(String, Cond)],
    ) -> Result<usize, Error> {
        let era = self.store.era()?;
        let mut plan = plan_query(era.schema(), &self.names(), relation, filters, None)?;
        if !plan.satisfiable {
            return Ok(0);
        }
        plan.read.shape = ReadShape::Count;
        Ok(era.read(plan.id, &plan.read)?.count)
    }

    /// Typed-level read for callers holding a canonical [`ReadPlan`] —
    /// the raw counterpart of [`Database::query`], returning the reply
    /// exactly as the store shipped it.  `id` is a position in the schema
    /// current when the call runs: a caller holding one across an
    /// [`Database::alter`] must re-resolve it by name
    /// ([`Schema::scheme_id`] on a fresh [`Database::schema`]).
    pub fn query_raw(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, Error> {
        self.store.read(id, plan).map_err(Into::into)
    }

    /// The natural join of the named relations, computed from
    /// **independent barrier-free per-relation reads** — no global
    /// barrier, no cross-shard coordination.
    ///
    /// ## Why this is sound without a barrier
    ///
    /// Each read returns its relation at some point of that relation's
    /// own history.  Because the schema is independent, relations share no
    /// enforcement state, so the combination of those per-relation cuts
    /// is a state some valid serialization of the submitted operations
    /// passes through — and every such state is **globally satisfying**
    /// (each relation satisfies its cover `Fi`, and `LSAT = WSAT` lifts
    /// that to the whole schema).  The join you get is therefore always
    /// the join of a consistent, satisfying database: you can *not*
    /// observe a locally-plausible-but-globally-contradictory
    /// combination, a torn single operation, or a row that violates any
    /// declared dependency.  What you *can* observe is cross-relation
    /// skew — relation `A` read after a client's insert, relation `B`
    /// from before it — i.e. the cut may be one no single barrier
    /// [`Database::snapshot`] took; use the snapshot when you need one
    /// global moment.
    ///
    /// ## Self-joins: one relation, one cut
    ///
    /// A relation listed more than once is read **exactly once** — the
    /// repeated mention joins that single cut with itself (a no-op for
    /// the natural join).  Reading a repeated relation once per mention
    /// would intersect two barrier-free cuts of the *same* history, a
    /// result corresponding to no cut of that relation's history; the
    /// per-relation soundness argument above covers only combinations
    /// of one cut per relation.
    ///
    /// ## Execution
    ///
    /// Acyclic relation sets (GYO-reducible, which includes every
    /// pairwise chain and star) run through the Yannakakis-style
    /// planner: per-relation filters are pushed down, relations ship
    /// distinct join-*keys* to narrow their join-tree neighbors before
    /// any tuples move, and the (already-reduced) tuples are folded
    /// client-side in tree order — one hash join per tree edge into one
    /// flat buffer, rows parent-major in fetch order, with no
    /// de-duplication needed (every read ships a set).  Cyclic sets fall
    /// back to the same fold over one filtered read per distinct
    /// relation, left to right.  Use
    /// [`Database::join_query`] to attach per-relation filters and to
    /// observe the planner's [`crate::JoinReport`].
    ///
    /// ## Column order
    ///
    /// Output columns follow the order relations were listed (first
    /// mention, for repeats); within each relation, its **declared**
    /// column order; a column whose attribute already appeared under an
    /// earlier relation is skipped.  An empty relation list is
    /// [`Error::EmptyJoin`].
    pub fn join<I, S>(&self, relations: I) -> Result<Rows, Error>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.join_query(relations).run()
    }

    /// Starts a fluent multi-relation join: [`Database::join`] plus
    /// per-relation filters and the planner's execution report.
    ///
    /// ```
    /// # use ids_api::{eq, Database, EngineKind, Schema};
    /// # let schema = Schema::builder()
    /// #     .relation("CT", ["course", "teacher"])
    /// #     .relation("CHR", ["course", "hour", "room"])
    /// #     .fd("course -> teacher")
    /// #     .fd("course hour -> room").build()?;
    /// # let db = Database::open(schema, EngineKind::Local)?;
    /// # db.insert("CT", ["CS402", "Jones"])?;
    /// # db.insert("CHR", ["CS402", "9am", "R128"])?;
    /// let rows = db.join_query(["CT", "CHR"])
    ///     .filter("CT", "teacher", eq("Jones"))
    ///     .run()?;
    /// assert_eq!(rows.len(), 1);
    /// # Ok::<(), ids_api::Error>(())
    /// ```
    pub fn join_query<I, S>(&self, relations: I) -> JoinQuery<'_>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        JoinQuery {
            db: self,
            relations: relations
                .into_iter()
                .map(|s| s.as_ref().to_string())
                .collect(),
            filters: Vec::new(),
        }
    }

    /// Executes a built [`JoinQuery`], collecting the [`Rows`]:
    /// [`Database::join_into`] with [`Rows`] as the sink.
    pub(crate) fn run_join(
        &self,
        relations: &[String],
        filters: &[(String, String, Cond)],
    ) -> Result<(Rows, JoinReport), Error> {
        let mut rows = Rows::default();
        let report = self.join_into(relations, filters, &mut rows)?;
        Ok((rows, report))
    }

    /// Executes a join — [`Database::join_query`]'s relations and
    /// per-relation filters — and hands the joined rows to `sink`, under
    /// the column contract of [`Database::join`]: compile the filters,
    /// run the planner, render.  Compiling and every one of the planner's
    /// store round trips run in one era of the store's schema, the round
    /// trips with no name lock held; the flat fold builds no row twice,
    /// and the rows reach the sink as pool names, in the fold's order,
    /// after the era.  On an error the sink is not called at all.
    pub fn join_into<S: RowSink>(
        &self,
        relations: &[String],
        filters: &[(String, String, Cond)],
        sink: &mut S,
    ) -> Result<JoinReport, Error> {
        let era = self.store.era()?;
        let plan = plan_join(era.schema(), &self.names(), relations, filters)?;
        if !plan.satisfiable {
            // Some filter names a never-interned value: nothing stored
            // can match, so the store is not consulted — but the output
            // columns still follow the contract.
            drop(era);
            self.render_into(&plan.columns, &[], std::iter::empty(), sink);
            return Ok(JoinReport::default());
        }
        let (joined, report) = execute_join(&era, &plan.ids, &plan.attrs, &plan.preds)?;
        drop(era);
        let positions: Vec<usize> = plan.order.iter().map(|&a| joined.attrs().rank(a)).collect();
        self.render_into(&plan.columns, &positions, joined.rows(), sink);
        Ok(report)
    }

    /// Reads one relation without a global barrier, as raw typed data.
    pub fn read(&self, relation: &str) -> Result<Relation, Error> {
        let era = self.store.era()?;
        let id = era.schema().scheme_id(relation)?;
        let mut rel = Relation::new(era.schema().definition().attrs(id));
        let rows = era.read(id, &ReadPlan::tuples(Predicate::new()))?.rows;
        drop(era);
        for t in rows {
            rel.insert(t.into_vec())?;
        }
        Ok(rel)
    }

    /// Number of rows currently in a relation (barrier-free, and cheap:
    /// no name lock, and no tuple is shipped to answer it).
    pub fn count(&self, relation: &str) -> Result<usize, Error> {
        let era = self.store.era()?;
        let id = era.schema().scheme_id(relation)?;
        Ok(era.read(id, &ReadPlan::count(Predicate::new()))?.count)
    }

    /// A consistent cut of the whole database — the barrier read.  On an
    /// independent schema the result is globally satisfying.
    pub fn snapshot(&self) -> Result<DatabaseState, Error> {
        self.store.snapshot().map_err(Into::into)
    }

    /// Typed-level insert for callers that already hold canonical
    /// tuples (trace replay, migration tools).  To keep such rows
    /// addressable by the string-level API, obtain the values through
    /// [`Database::intern`].  `id` is positional, as for
    /// [`Database::query_raw`]: re-resolve it by name after an
    /// [`Database::alter`].
    pub fn insert_raw(&self, id: SchemeId, tuple: Vec<Value>) -> Result<InsertOutcome, Error> {
        self.writable()?.insert(id, tuple).map_err(Into::into)
    }

    /// Typed-level batch application; outcomes align with the input and
    /// a *malformed* batch (bad scheme id or arity) mutates nothing.  See
    /// [`Store::apply_batch`] for the behavior on store-level errors
    /// mid-batch — batches are not transactions.  Scheme ids are
    /// positional, as for [`Database::insert_raw`].
    pub fn apply_batch(&self, ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, Error> {
        self.writable()?.apply_batch(ops).map_err(Into::into)
    }

    /// Wraps this database in the [`crate::SharedDatabase`] shim — a
    /// move, infallible.  New code shares `&Database`
    /// (or an `Arc<Database>`) directly; this survives only until the
    /// pinned callers of the old name are gone.
    pub fn into_shared(self) -> Result<crate::SharedDatabase, Error> {
        Ok(crate::SharedDatabase(self))
    }
}

/// Refuses to pair a handle with a store serving another schema: the
/// agreement [`Database::follower`] and [`Database::replace_store`]
/// promise, checked once per call.
fn assert_serves(store: &Store, schema: &Schema) {
    assert!(
        *store.schema() == *schema,
        "the store serves a different schema than the one handed in with it"
    );
}

/// A compiled string-level query: the pushed-down predicate plus the
/// output columns and where each one sits in a shipped tuple —
/// everything that needs the pool, computed up front, so the store
/// round trip itself can run without holding any name state.
struct QueryPlan {
    id: SchemeId,
    /// What the store is asked: the filters as a typed predicate, in
    /// the tuples shape (a count flips the shape, nothing else).
    read: ReadPlan,
    /// False when a filter names a value this database never interned:
    /// nothing stored can match, so the store is not consulted at all.
    satisfiable: bool,
    columns: Vec<String>,
    /// Per output column, its position in a tuple of the relation.
    positions: Vec<usize>,
}

/// Compiles a string-level query against the schema and pool — the
/// planning half of [`Database::run_query`].
fn plan_query(
    schema: &Schema,
    pool: &ValuePool,
    relation: &str,
    filters: &[(String, Cond)],
    select: Option<Vec<String>>,
) -> Result<QueryPlan, Error> {
    let id = schema.scheme_id(relation)?;
    let layout = schema.layout(id);
    let attrs = schema.definition().attrs(id);
    let attr_ids: Vec<AttrId> = attrs.iter().collect();
    // Declared column name → canonical attribute, via the layout.
    let attr_of = |column: &str| -> Result<AttrId, Error> {
        layout
            .columns
            .iter()
            .position(|c| c == column)
            .map(|j| attr_ids[layout.perm[j]])
            .ok_or_else(|| Error::UnknownColumn {
                relation: relation.to_string(),
                column: column.to_string(),
            })
    };
    // Filters → typed predicate.  A value this database never
    // interned cannot equal any stored value, so the query is
    // unsatisfiable — but names are still validated first.
    let mut predicate = Predicate::new();
    let mut satisfiable = true;
    for (column, cond) in filters {
        let attr = attr_of(column)?;
        predicate = apply_cond(pool, predicate, attr, cond, &mut satisfiable);
    }
    // Select list → projection (declaration order when omitted).
    let columns: Vec<String> = match select {
        Some(cols) => cols,
        None => layout.columns.clone(),
    };
    let mut positions = Vec::with_capacity(columns.len());
    for c in &columns {
        positions.push(attrs.rank(attr_of(c)?));
    }
    Ok(QueryPlan {
        id,
        read: ReadPlan::tuples(predicate),
        satisfiable,
        columns,
        positions,
    })
}

/// Compiles one string-level condition onto a typed predicate.
///
/// Conditions compare the *rendered* strings, but the store compares
/// typed values — so each condition is compiled against the pool.
/// Equality and membership on a never-interned value are unsatisfiable
/// (nothing stored can match); inequality on one is vacuously true.
/// Order conditions ([`Cond::Lt`] .. [`Cond::Range`]) enumerate the
/// pool once: the interned names satisfying the string comparison *are*
/// exactly the stored values the condition can admit, and become an
/// `In` guard the store (and its ordered indexes) understands.
fn apply_cond(
    pool: &ValuePool,
    predicate: Predicate,
    attr: AttrId,
    cond: &Cond,
    satisfiable: &mut bool,
) -> Predicate {
    let mut by_names = |admits: &dyn Fn(&str) -> bool, predicate: Predicate| -> Predicate {
        let set: Vec<Value> = pool
            .iter()
            .filter(|(name, _)| admits(name))
            .map(|(_, v)| v)
            .collect();
        if set.is_empty() {
            *satisfiable = false;
            predicate
        } else {
            predicate.and_in(attr, set)
        }
    };
    match cond {
        Cond::Eq(value) => match pool.get(value) {
            Some(v) => predicate.and_eq(attr, v),
            None => {
                *satisfiable = false;
                predicate
            }
        },
        Cond::Ne(value) => match pool.get(value) {
            Some(v) => predicate.and_ne(attr, v),
            // A value never stored differs from every stored value.
            None => predicate,
        },
        Cond::In(values) => {
            let known: Vec<Value> = values.iter().filter_map(|s| pool.get(s)).collect();
            if known.is_empty() {
                *satisfiable = false;
                predicate
            } else {
                predicate.and_in(attr, known)
            }
        }
        Cond::Lt(hi) => by_names(&|n| n < hi.as_str(), predicate),
        Cond::Le(hi) => by_names(&|n| n <= hi.as_str(), predicate),
        Cond::Gt(lo) => by_names(&|n| n > lo.as_str(), predicate),
        Cond::Ge(lo) => by_names(&|n| n >= lo.as_str(), predicate),
        Cond::Range(lo, hi) => by_names(&|n| lo.as_str() <= n && n <= hi.as_str(), predicate),
    }
}

/// A compiled multi-relation join: the deduped relations (first mention
/// wins — the self-join contract), their attribute sets, and the
/// pushed-down per-relation predicates, aligned by index; plus the
/// output columns under the declared-layout contract of
/// [`Database::join`] — relations in listed (deduped) order, each in its
/// declared column order, attributes already emitted skipped.
struct JoinPlan {
    ids: Vec<SchemeId>,
    attrs: Vec<AttrSet>,
    preds: Vec<Predicate>,
    /// False when some filter names a value this database never
    /// interned: the join is empty without consulting the store.
    satisfiable: bool,
    columns: Vec<String>,
    /// The attribute behind each of `columns`.
    order: Vec<AttrId>,
}

/// Compiles a string-level join against the schema and pool — the
/// planning half of [`Database::run_join`].  A filter naming a relation that is not
/// part of the join is [`Error::UnknownRelation`].
fn plan_join(
    schema: &Schema,
    pool: &ValuePool,
    relations: &[String],
    filters: &[(String, String, Cond)],
) -> Result<JoinPlan, Error> {
    if relations.is_empty() {
        return Err(Error::EmptyJoin);
    }
    let mut ids: Vec<SchemeId> = Vec::new();
    for name in relations {
        let id = schema.scheme_id(name)?;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let attrs: Vec<AttrSet> = ids
        .iter()
        .map(|&id| schema.definition().attrs(id))
        .collect();
    let mut preds = vec![Predicate::new(); ids.len()];
    let mut satisfiable = true;
    for (relation, column, cond) in filters {
        let id = schema.scheme_id(relation)?;
        let slot = ids
            .iter()
            .position(|&i| i == id)
            .ok_or_else(|| Error::UnknownRelation(relation.clone()))?;
        let layout = schema.layout(id);
        let attr_ids: Vec<AttrId> = attrs[slot].iter().collect();
        let attr = layout
            .columns
            .iter()
            .position(|c| c == column)
            .map(|j| attr_ids[layout.perm[j]])
            .ok_or_else(|| Error::UnknownColumn {
                relation: relation.clone(),
                column: column.clone(),
            })?;
        preds[slot] = apply_cond(
            pool,
            std::mem::take(&mut preds[slot]),
            attr,
            cond,
            &mut satisfiable,
        );
    }
    let mut seen = AttrSet::new();
    let mut columns: Vec<String> = Vec::new();
    let mut order: Vec<AttrId> = Vec::new();
    for (&id, &scheme) in ids.iter().zip(&attrs) {
        let layout = schema.layout(id);
        let attr_ids: Vec<AttrId> = scheme.iter().collect();
        for (j, col) in layout.columns.iter().enumerate() {
            let attr = attr_ids[layout.perm[j]];
            if seen.insert(attr) {
                columns.push(col.clone());
                order.push(attr);
            }
        }
    }
    Ok(JoinPlan {
        ids,
        attrs,
        preds,
        satisfiable,
        columns,
        order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eq;
    use ids_chase::ChaseConfig;
    use ids_core::ChaseMaintainer;

    fn example2() -> Schema {
        Schema::builder()
            .relation("CT", ["course", "teacher"])
            .relation("CS", ["course", "student"])
            .relation("CHR", ["course", "hour", "room"])
            .fd("course -> teacher")
            .fd("course hour -> room")
            .build()
            .unwrap()
    }

    /// Both variants of the selector shim; each opens the store.
    fn all_kinds() -> Vec<EngineKind> {
        vec![
            EngineKind::Local,
            EngineKind::Sharded(StoreConfig::default()),
        ]
    }

    #[test]
    fn string_level_roundtrip_on_every_engine() {
        for kind in all_kinds() {
            let label = format!("{kind:?}");
            let db = Database::open(example2(), kind).unwrap();
            assert_eq!(
                db.insert("CT", ["CS402", "Jones"]).unwrap(),
                InsertOutcome::Accepted,
                "{label}"
            );
            assert_eq!(
                db.insert("CT", ["CS402", "Jones"]).unwrap(),
                InsertOutcome::Duplicate,
                "{label}"
            );
            assert!(
                matches!(
                    db.insert("CT", ["CS402", "Smith"]).unwrap(),
                    InsertOutcome::Rejected { .. }
                ),
                "{label}: C → T must fire"
            );
            db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
            assert_eq!(
                db.rows("CT").unwrap(),
                vec![vec!["CS402".to_string(), "Jones".to_string()]],
                "{label}"
            );
            assert_eq!(db.count("CHR").unwrap(), 1, "{label}");
            assert_eq!(db.snapshot().unwrap().total_tuples(), 2, "{label}");
            assert!(db.remove("CT", ["CS402", "Jones"]).unwrap(), "{label}");
            assert!(!db.remove("CT", ["CS402", "Jones"]).unwrap(), "{label}");
            // A never-seen value cannot name a present row.
            assert!(!db.remove("CT", ["Nope", "Jones"]).unwrap(), "{label}");
        }
    }

    #[test]
    fn declaration_order_is_preserved_even_when_ids_invert() {
        // "TR" declares (room, teacher); canonical order is (teacher,
        // room).  The facade must hide that inversion completely.
        let schema = Schema::builder()
            .relation("CT", ["course", "teacher"])
            .relation("TR", ["room", "teacher"])
            .build()
            .unwrap();
        let db = Database::open(schema, EngineKind::Local).unwrap();
        db.insert("TR", ["R128", "Jones"]).unwrap();
        assert_eq!(
            db.rows("TR").unwrap(),
            vec![vec!["R128".to_string(), "Jones".to_string()]]
        );
        assert!(db.remove("TR", ["R128", "Jones"]).unwrap());
    }

    #[test]
    fn error_paths_are_typed_on_every_engine() {
        for kind in all_kinds() {
            let label = format!("{kind:?}");
            let db = Database::open(example2(), kind).unwrap();
            assert!(
                matches!(
                    db.insert("Enrollment", ["a", "b"]),
                    Err(Error::UnknownRelation(name)) if name == "Enrollment"
                ),
                "{label}"
            );
            assert!(
                matches!(
                    db.insert("CT", ["only-one"]),
                    Err(Error::Relational(RelationalError::ArityMismatch {
                        expected: 2,
                        found: 1,
                    }))
                ),
                "{label}"
            );
            assert!(
                matches!(
                    db.remove("CT", ["a", "b", "c"]),
                    Err(Error::Relational(RelationalError::ArityMismatch { .. }))
                ),
                "{label}"
            );
            assert!(
                matches!(
                    db.insert("CT", ["one", "two", "three"]),
                    Err(Error::Relational(RelationalError::ArityMismatch {
                        expected: 2,
                        found: 3,
                    }))
                ),
                "{label}"
            );
            // A refused row interned nothing.
            for name in ["only-one", "one", "two", "three"] {
                assert_eq!(db.lookup(name), None, "{label}: {name}");
            }
            assert!(
                matches!(db.rows("nope"), Err(Error::UnknownRelation(_))),
                "{label}"
            );
            assert_eq!(db.snapshot().unwrap().total_tuples(), 0, "{label}");
        }
    }

    #[test]
    fn dependent_schemas_refuse_independence_engines_but_serve_chase() {
        let schema = Schema::builder()
            .relation("CD", ["course", "dept"])
            .relation("CT", ["course", "teacher"])
            .relation("TD", ["teacher", "dept"])
            .fd("course -> dept")
            .fd("course -> teacher")
            .fd("teacher -> dept")
            .build_any()
            .unwrap();
        assert!(!schema.is_independent());
        assert!(matches!(
            Database::open(schema.clone(), EngineKind::Local),
            Err(Error::NotIndependent { .. })
        ));
        assert!(matches!(
            Database::open(schema.clone(), EngineKind::Sharded(StoreConfig::default())),
            Err(Error::NotIndependent { .. })
        ));
        // The chase maintainer serves it directly — and catches the
        // cross-relation contradiction no local check can see (the
        // paper's Example 1).
        let definition = schema.definition();
        let mut chase = ChaseMaintainer::new(
            definition,
            schema.fds(),
            DatabaseState::empty(definition),
            ChaseConfig::default(),
        );
        let id = |name| definition.scheme_by_name(name).unwrap();
        let (cs402, cs, jones, ee) = (Value(0), Value(1), Value(2), Value(3));
        // Tuples in canonical order; the universe is course, dept, teacher.
        chase.insert(id("CD"), vec![cs402, cs]).unwrap();
        chase.insert(id("CT"), vec![cs402, jones]).unwrap();
        let out = chase.insert(id("TD"), vec![ee, jones]).unwrap();
        assert!(matches!(out, InsertOutcome::Rejected { .. }));
        assert_eq!(chase.state().total_tuples(), 2);
    }

    #[test]
    fn interned_raw_rows_stay_addressable_from_the_string_level() {
        // The documented bridge: raw inserts made with `intern`ed values
        // are visible to — and removable through — the string API.
        let mut db = Database::open(example2(), EngineKind::Local).unwrap();
        let cs402 = db.intern("CS402").unwrap();
        let jones = db.intern("Jones").unwrap();
        let ct = db.schema().scheme_id("CT").unwrap();
        db.insert_raw(ct, vec![cs402, jones]).unwrap();
        assert_eq!(
            db.rows("CT").unwrap(),
            vec![vec!["CS402".to_string(), "Jones".to_string()]]
        );
        assert!(db.remove("CT", ["CS402", "Jones"]).unwrap());
        assert_eq!(db.count("CT").unwrap(), 0);
    }

    #[test]
    fn query_builder_filters_selects_and_errors_on_every_engine() {
        use crate::query::eq;
        for kind in all_kinds() {
            let label = format!("{kind:?}");
            let db = Database::open(example2(), kind).unwrap();
            db.insert("CT", ["CS402", "Jones"]).unwrap();
            db.insert("CT", ["CS500", "Curie"]).unwrap();
            db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();

            // Filter on the key column (pushed-down point lookup).
            let rows = db.query("CT").filter("course", eq("CS402")).run().unwrap();
            assert_eq!(rows.len(), 1, "{label}");
            assert_eq!(rows.columns(), ["course", "teacher"], "{label}");
            assert_eq!(rows.iter().next().unwrap().get("teacher"), Some("Jones"));

            // Select narrows and reorders the output columns.
            let rows = db
                .query("CT")
                .filter("teacher", eq("Curie"))
                .select(["teacher", "course"])
                .run()
                .unwrap();
            assert_eq!(rows.len(), 1, "{label}");
            assert_eq!(rows.iter().next().unwrap().values(), ["Curie", "CS500"]);

            // Unfiltered query ≡ rows().
            assert_eq!(
                db.query("CT").run().unwrap().into_string_rows(),
                db.rows("CT").unwrap(),
                "{label}"
            );

            // A never-interned value is unsatisfiable, not an error.
            assert!(db
                .query("CT")
                .filter("course", eq("nope"))
                .run()
                .unwrap()
                .is_empty());

            // Unknown names are typed errors before any engine runs.
            assert!(matches!(
                db.query("Enrollment").run(),
                Err(Error::UnknownRelation(_))
            ));
            assert!(matches!(
                db.query("CT").filter("room", eq("R128")).run(),
                Err(Error::UnknownColumn { relation, column })
                    if relation == "CT" && column == "room"
            ));
            assert!(matches!(
                db.query("CT").select(["hour"]).run(),
                Err(Error::UnknownColumn { .. })
            ));
        }
    }

    #[test]
    fn barrier_free_join_matches_the_snapshot_join() {
        for kind in all_kinds() {
            let label = format!("{kind:?}");
            let db = Database::open(example2(), kind).unwrap();
            db.insert("CT", ["CS402", "Jones"]).unwrap();
            db.insert("CT", ["CS500", "Curie"]).unwrap();
            db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
            db.insert("CHR", ["CS402", "10am", "R128"]).unwrap();

            let rows = db.join(["CT", "CHR"]).unwrap();
            assert_eq!(rows.columns(), ["course", "teacher", "hour", "room"]);
            // CS500 has no CHR row: it joins away; CS402 joins twice.
            assert_eq!(rows.len(), 2, "{label}");
            for row in &rows {
                assert_eq!(row.get("teacher"), Some("Jones"), "{label}");
                assert_eq!(row.get("room"), Some("R128"), "{label}");
            }
            // The barrier-free join equals the join of a snapshot here
            // (single-threaded: the cut is trivially a global moment) —
            // both at the typed level and through the rendered surface.
            let snap = db.snapshot().unwrap();
            let ct = db.schema().scheme_id("CT").unwrap();
            let chr = db.schema().scheme_id("CHR").unwrap();
            let expected = snap.relation(ct).natural_join(snap.relation(chr));
            let mut got = rows.into_string_rows();
            got.sort();
            let mut rendered: Vec<Vec<String>> = expected
                .iter()
                .map(|t| t.iter().map(|&v| db.render(v)).collect())
                .collect();
            rendered.sort();
            assert_eq!(got, rendered, "{label}");

            // Degenerate and error shapes.
            assert!(matches!(
                db.join(Vec::<String>::new()),
                Err(Error::EmptyJoin)
            ));
            assert!(matches!(
                db.join(["CT", "nope"]),
                Err(Error::UnknownRelation(_))
            ));
            // Single-relation join is just that relation.
            assert_eq!(db.join(["CT"]).unwrap().len(), 2, "{label}");
        }
    }

    /// The self-join contract: a repeated relation is read once, so the
    /// join equals that relation, and a repeat inside a larger join
    /// changes nothing.
    #[test]
    fn self_join_reads_one_cut() {
        for kind in all_kinds() {
            let label = format!("{kind:?}");
            let db = Database::open(example2(), kind).unwrap();
            db.insert("CT", ["CS402", "Jones"]).unwrap();
            db.insert("CT", ["CS500", "Curie"]).unwrap();
            db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();

            let rows = db.join(["CT", "CT"]).unwrap();
            assert_eq!(rows.columns(), ["course", "teacher"], "{label}");
            let mut got = rows.into_string_rows();
            got.sort();
            let mut plain = db.rows("CT").unwrap();
            plain.sort();
            assert_eq!(got, plain, "{label}");

            let repeated = db.join(["CT", "CHR", "CT"]).unwrap();
            let once = db.join(["CT", "CHR"]).unwrap();
            assert_eq!(repeated.columns(), once.columns(), "{label}");
            let mut a = repeated.into_string_rows();
            let mut b = once.into_string_rows();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{label}");
        }
    }

    /// Joined columns follow the *declared* layouts in listed-relation
    /// order, not the canonical universe order — pinned with a relation
    /// declared against canonical order.
    #[test]
    fn joined_columns_follow_declared_layouts() {
        for kind in all_kinds() {
            let label = format!("{kind:?}");
            // Universe encounter order: course, teacher, room — so TR's
            // canonical attribute order is (teacher, room), the reverse
            // of its declared (room, teacher).
            let schema = Schema::builder()
                .relation("CT", ["course", "teacher"])
                .relation("TR", ["room", "teacher"])
                .fd("course -> teacher")
                .build()
                .unwrap();
            let db = Database::open(schema, kind).unwrap();
            db.insert("CT", ["CS402", "Jones"]).unwrap();
            db.insert("TR", ["R128", "Jones"]).unwrap();

            // TR listed first: its declared columns lead; CT contributes
            // only the attribute not yet emitted.
            let rows = db.join(["TR", "CT"]).unwrap();
            assert_eq!(rows.columns(), ["room", "teacher", "course"], "{label}");
            let row = rows.iter().next().unwrap();
            assert_eq!(row.get("room"), Some("R128"), "{label}");
            assert_eq!(row.get("teacher"), Some("Jones"), "{label}");
            assert_eq!(row.get("course"), Some("CS402"), "{label}");
            assert_eq!(
                rows.into_string_rows(),
                vec![vec![
                    "R128".to_string(),
                    "Jones".to_string(),
                    "CS402".to_string()
                ]],
                "{label}"
            );

            let reversed = db.join(["CT", "TR"]).unwrap();
            assert_eq!(reversed.columns(), ["course", "teacher", "room"], "{label}");
        }
    }

    /// The fluent join: filters push down, the planner runs on acyclic
    /// sets, and name errors are typed before any engine round trip.
    #[test]
    fn join_query_pushes_filters_through_the_planner() {
        for kind in all_kinds() {
            let label = format!("{kind:?}");
            let db = Database::open(example2(), kind).unwrap();
            db.insert("CT", ["CS402", "Jones"]).unwrap();
            db.insert("CT", ["CS500", "Curie"]).unwrap();
            db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
            db.insert("CHR", ["CS500", "10am", "R200"]).unwrap();

            let (rows, report) = db
                .join_query(["CT", "CHR"])
                .filter("CT", "teacher", eq("Jones"))
                .run_with_report()
                .unwrap();
            assert!(report.planned, "{label}: CT/CHR share `course` — acyclic");
            assert_eq!(rows.len(), 1, "{label}");
            assert_eq!(rows.iter().next().unwrap().get("room"), Some("R128"));

            // A never-interned filter value: empty rows, correct shape,
            // no engine consulted.
            let (rows, report) = db
                .join_query(["CT", "CHR"])
                .filter("CT", "teacher", eq("Nobody"))
                .run_with_report()
                .unwrap();
            assert!(rows.is_empty(), "{label}");
            assert_eq!(rows.columns(), ["course", "teacher", "hour", "room"]);
            assert_eq!(report, JoinReport::default(), "{label}");

            // Filters validate names first: a relation outside the join
            // (even one the schema knows) and an unknown column are typed
            // errors.
            assert!(matches!(
                db.join_query(["CT", "CHR"])
                    .filter("CS", "student", eq("Riley"))
                    .run(),
                Err(Error::UnknownRelation(r)) if r == "CS"
            ));
            assert!(matches!(
                db.join_query(["CT", "CHR"])
                    .filter("CT", "room", eq("R128"))
                    .run(),
                Err(Error::UnknownColumn { relation, column })
                    if relation == "CT" && column == "room"
            ));
        }
    }

    /// Range/inequality/membership conditions compare rendered strings;
    /// ordering, limits, and aggregates ride on the same compiled plan.
    #[test]
    fn conditions_ordering_and_aggregates() {
        for kind in all_kinds() {
            let label = format!("{kind:?}");
            let db = Database::open(example2(), kind).unwrap();
            for (c, t) in [("101", "Ada"), ("205", "Ada"), ("309", "Curie")] {
                db.insert("CT", [c, t]).unwrap();
            }

            let courses = |rows: Rows| -> Vec<String> {
                let mut v: Vec<String> = rows
                    .iter()
                    .map(|r| r.get("course").unwrap().to_string())
                    .collect();
                v.sort();
                v
            };
            let run = |cond: Cond| courses(db.query("CT").filter("course", cond).run().unwrap());

            assert_eq!(run(crate::ne("205")), ["101", "309"], "{label}");
            assert_eq!(run(crate::lt("205")), ["101"], "{label}");
            assert_eq!(run(crate::le("205")), ["101", "205"], "{label}");
            assert_eq!(run(crate::gt("205")), ["309"], "{label}");
            assert_eq!(run(crate::ge("205")), ["205", "309"], "{label}");
            assert_eq!(run(crate::between("102", "309")), ["205", "309"], "{label}");
            assert_eq!(run(crate::one_of(["101", "309", "999"])), ["101", "309"]);
            // ne on a never-interned value is vacuously true; a range
            // admitting no interned name is unsatisfiable.
            assert_eq!(run(crate::ne("999")).len(), 3, "{label}");
            assert_eq!(run(crate::between("400", "500")).len(), 0, "{label}");
            assert_eq!(run(crate::one_of(["998", "999"])).len(), 0, "{label}");

            // Ordering and limit are applied to the rendered output.
            let top = db
                .query("CT")
                .order_by_desc("course")
                .limit(2)
                .run()
                .unwrap()
                .into_string_rows();
            assert_eq!(top[0][0], "309", "{label}");
            assert_eq!(top[1][0], "205", "{label}");
            assert!(matches!(
                db.query("CT").order_by("room").run(),
                Err(Error::UnknownColumn { .. })
            ));

            // Aggregates: count is pushed down, min/max are
            // lexicographic, sum parses integers and names the culprit.
            assert_eq!(
                db.query("CT").filter("teacher", eq("Ada")).count().unwrap(),
                2
            );
            assert_eq!(
                db.query("CT").min("course").unwrap().as_deref(),
                Some("101")
            );
            assert_eq!(
                db.query("CT").max("course").unwrap().as_deref(),
                Some("309")
            );
            assert_eq!(db.query("CT").sum("course").unwrap(), 101 + 205 + 309);
            assert!(matches!(
                db.query("CT").sum("teacher"),
                Err(Error::NonNumeric { column, value })
                    if column == "teacher" && (value == "Ada" || value == "Curie")
            ));
            assert_eq!(
                db.query("CT").filter("course", eq("nope")).count().unwrap(),
                0,
                "{label}: unsatisfiable count is 0 without an engine trip"
            );
        }
    }

    #[test]
    fn query_raw_agrees_with_the_string_level_query() {
        let mut db = Database::open(example2(), EngineKind::Local).unwrap();
        db.insert("CT", ["CS402", "Jones"]).unwrap();
        let ct = db.schema().scheme_id("CT").unwrap();
        let course = db.schema().definition().universe().attr("course").unwrap();
        let v = db.intern("CS402").unwrap();
        let pin = Predicate::new().and_eq(course, v);
        let tuples = db.query_raw(ct, &ReadPlan::tuples(pin.clone())).unwrap();
        assert_eq!(tuples.rows.len(), 1);
        assert_eq!(db.query_raw(ct, &ReadPlan::count(pin)).unwrap().count, 1);
        assert_eq!(
            db.query("CT")
                .filter("course", crate::eq("CS402"))
                .run()
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn sharded_store_stays_reachable_for_concurrent_clients() {
        for kind in all_kinds() {
            let db = Database::open(example2(), kind).unwrap();
            db.insert("CT", ["CS402", "Jones"]).unwrap();
            let store = db.store();
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert_eq!(store.snapshot().unwrap().total_tuples(), 1);
                });
            });
            assert!(!db.is_durable());
        }
    }

    /// One mistake, one typed error at the raw boundary: a bogus id, a
    /// foreign predicate attribute, a foreign projection column.
    #[test]
    fn raw_reads_and_writes_check_ids_and_attributes() {
        let db = Database::open(example2(), EngineKind::default()).unwrap();
        let schema = db.schema();
        let ct = schema.scheme_id("CT").unwrap();
        let u = schema.definition().universe();
        let (course, student) = (u.attr("course").unwrap(), u.attr("student").unwrap());
        let bogus = SchemeId(99);
        assert!(matches!(
            db.query_raw(bogus, &ReadPlan::count(Predicate::new())),
            Err(Error::UnknownScheme(id)) if id == bogus
        ));
        assert!(matches!(
            db.insert_raw(bogus, vec![Value(1)]),
            Err(Error::UnknownScheme(id)) if id == bogus
        ));
        for plan in [
            ReadPlan::tuples(Predicate::new().and_eq(student, Value(0))),
            ReadPlan::distinct_columns(Predicate::new(), vec![course, student]),
        ] {
            assert!(
                matches!(
                    db.query_raw(ct, &plan),
                    Err(Error::Relational(RelationalError::SchemaMismatch(_)))
                ),
                "{plan:?}"
            );
        }
    }

    /// A malformed batch is validated whole before anything applies.
    #[test]
    fn malformed_batches_mutate_nothing() {
        let db = Database::open(example2(), EngineKind::default()).unwrap();
        let ct = db.schema().scheme_id("CT").unwrap();
        let err = db
            .apply_batch(vec![
                StoreOp::Insert {
                    scheme: ct,
                    tuple: vec![Value(1), Value(10)],
                },
                StoreOp::Remove {
                    scheme: ct,
                    tuple: vec![Value(2)], // arity error — the whole batch is refused
                },
            ])
            .unwrap_err();
        assert!(matches!(err, Error::Relational(_)), "got {err}");
        assert_eq!(db.snapshot().unwrap().total_tuples(), 0);
    }

    /// A follower's handle refuses every write path with the typed error,
    /// before interning anything, and still reads its store.
    #[test]
    fn a_follower_handle_refuses_every_write() {
        let primary = Database::open(example2(), EngineKind::default()).unwrap();
        primary.insert("CT", ["CS402", "Jones"]).unwrap();
        let state = primary.snapshot().unwrap();
        let schema = example2();
        let config = StoreConfig {
            initial_state: Some(state),
            ..StoreConfig::default()
        };
        let store = Store::from_schema(schema.clone(), config).unwrap();
        let mut follower = Database::follower(schema, Arc::new(store));
        let ct = follower.schema().scheme_id("CT").unwrap();
        let refused = |r: Result<(), Error>| matches!(r, Err(Error::ReplicaReadOnly));
        assert!(refused(follower.insert("CT", ["CS500", "Curie"]).map(drop)));
        assert!(refused(follower.remove("CT", ["CS402", "Jones"]).map(drop)));
        let tuple = vec![Value(0), Value(1)];
        assert!(refused(follower.insert_raw(ct, tuple).map(drop)));
        // Even an empty batch is refused: batches exist to mutate.
        assert!(refused(follower.apply_batch(vec![]).map(drop)));
        assert_eq!(
            follower.lookup("CS500"),
            None,
            "a refused write interned nothing"
        );
        // The follower's own name feed renders the stored values.
        follower.intern("CS402").unwrap();
        follower.intern("Jones").unwrap();
        assert_eq!(
            follower.rows("CT").unwrap(),
            vec![vec!["CS402".to_string(), "Jones".to_string()]]
        );
        assert!(matches!(
            follower.query_raw(SchemeId(7), &ReadPlan::count(Predicate::new())),
            Err(Error::UnknownScheme(_))
        ));
    }

    /// The handle keeps no schema of its own, so it refuses to pair with
    /// a store that serves another one.
    #[test]
    #[should_panic(expected = "serves a different schema")]
    fn a_follower_refuses_a_store_built_from_another_schema() {
        let store = Store::from_schema(example2(), StoreConfig::default()).unwrap();
        let other = Schema::builder()
            .relation("CT", ["course", "teacher"])
            .relation("CS", ["course", "student"])
            .relation("CHR", ["course", "hour", "room"])
            .fd("course -> teacher")
            .build()
            .unwrap();
        let _ = Database::follower(other, Arc::new(store));
    }

    /// A durable store names its values from the pool it brought; a
    /// handle that swapped it in would intern into another one, and the
    /// logs would carry no names for its strings.
    #[test]
    #[should_panic(expected = "another value pool")]
    fn replace_store_refuses_a_store_with_its_own_pool() {
        let root = std::env::temp_dir().join(format!("ids-api-swap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open_durable_schema(&root, example2(), DurableConfig::default());
        let _ = std::fs::remove_dir_all(&root);
        let mut db = Database::open(example2(), EngineKind::default()).unwrap();
        db.replace_store(example2(), Arc::new(store.unwrap()));
    }
}

//! [`SharedDatabase`]: the `&self` front-end a server shares across
//! connection threads.
//!
//! [`crate::Database`]'s string-level writes need `&mut self` because
//! they intern names into the pool.  That is the right shape for a
//! single-owner embedded handle, but a network front-end has many
//! connection threads that all want to speak strings concurrently.
//! This type restores `&self` everywhere by moving the name state
//! (pool + durable name log) behind one mutex while the engine — the
//! concurrent sharded [`Store`], which is already `Sync` — is driven
//! directly, outside the lock.
//!
//! ## Why the lock does not serialize the database
//!
//! The mutex guards *name resolution only*: the string→[`ids_relational::Value`]
//! interning table and the rendering table back.  Every actual
//! operation — FD probe, commit, WAL append, query evaluation — runs
//! on the calling thread inside the one relation's own lock in the
//! store, **after the name lock is released**, so Theorem 3's
//! relation-by-relation concurrency is untouched: two clients writing
//! different relations still proceed with zero shared enforcement
//! state, and never wait on each other past name resolution.  The critical sections are O(row) hash lookups
//! (plus, on a durable database, the name-log append for a never-seen
//! string — the fsync that must precede any tuple referencing it).

use std::sync::{Arc, Mutex, RwLock};

use ids_core::InsertOutcome;
use ids_relational::{DatabaseState, Predicate, ReadPlan, ValuePool};
use ids_store::Store;
use ids_wal::NameLog;

use crate::database::{plan_join, plan_query, render_join_rows, render_rows, resolve_row};
use crate::error::Error;
use crate::planner::execute_join;
use crate::query::{Cond, Rows};
use crate::schema::{Alter, Schema};

/// The name state guarded by one mutex: the interning pool and, on a
/// durable database, the log that makes it crash-safe.
struct Names {
    pool: ValuePool,
    log: Option<NameLog>,
}

/// A thread-shared database: the string-level surface of
/// [`crate::Database`] with every method on `&self`, backed by the
/// concurrent sharded [`Store`].
///
/// Obtained via [`crate::Database::into_shared`] (sharded and durable
/// engines only — [`Error::NotSharded`] otherwise).  Wrap it in an
/// `Arc` and hand clones to as many threads as you like:
///
/// ```
/// use std::sync::Arc;
/// use ids_api::{Database, EngineKind, Schema};
/// use ids_store::StoreConfig;
///
/// let schema = Schema::builder()
///     .relation("CT", ["course", "teacher"])
///     .relation("CS", ["course", "student"])
///     .fd("course -> teacher")
///     .build()?;
/// let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default()))?;
/// let shared = Arc::new(db.into_shared()?);
///
/// let handles: Vec<_> = (0..4)
///     .map(|i| {
///         let shared = Arc::clone(&shared);
///         std::thread::spawn(move || {
///             shared.insert("CS", [format!("CS{i}"), "Riley".into()]).unwrap();
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(shared.count("CS")?, 4);
/// # Ok::<(), ids_api::Error>(())
/// ```
///
/// The consistency model is inherited unchanged: [`SharedDatabase::rows`]
/// / [`SharedDatabase::query`] are barrier-free per-relation reads,
/// [`SharedDatabase::snapshot`] is the one cross-relation barrier.
pub struct SharedDatabase {
    /// The current schema handle, swapped atomically by
    /// [`SharedDatabase::alter`].  Readers clone the `Arc` (one brief
    /// read lock) and plan against that consistent view; an operation
    /// racing an alter runs against whichever schema it captured —
    /// exactly the semantics of it having been submitted before or
    /// after the transition.
    schema: RwLock<Arc<Schema>>,
    store: Store,
    names: Mutex<Names>,
    /// Serializes [`SharedDatabase::alter`] callers end to end (build
    /// target → backfill → switch), so two concurrent alters cannot
    /// both derive their target from the same stale schema.
    alter_lock: Mutex<()>,
}

impl SharedDatabase {
    /// Crate-internal constructor — the public path is
    /// [`crate::Database::into_shared`].
    pub(crate) fn assemble(
        schema: Schema,
        store: Store,
        pool: ValuePool,
        log: Option<NameLog>,
    ) -> Self {
        SharedDatabase {
            schema: RwLock::new(Arc::new(schema)),
            store,
            names: Mutex::new(Names { pool, log }),
            alter_lock: Mutex::new(()),
        }
    }

    /// The schema handle the database **currently** serves.  Cheap (one
    /// read lock, one `Arc` clone); the returned handle is a consistent
    /// view that stays valid — and stale — across any concurrent
    /// [`SharedDatabase::alter`].
    pub fn schema(&self) -> Arc<Schema> {
        self.schema
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Applies one `ALTER`-class schema transition to the running
    /// database — the `&self` counterpart of [`crate::Database::alter`]
    /// (same validation ladder, same typed refusals, same guarantee
    /// that on any error before the durability point the current schema
    /// keeps serving, and that a failure after it poisons the store
    /// rather than forking it).  Concurrent
    /// traffic on unaffected relations keeps flowing throughout;
    /// concurrent `alter` calls serialize.
    pub fn alter(&self, op: &Alter) -> Result<u64, Error> {
        let _serialized = self.alter_lock.lock().unwrap_or_else(|e| e.into_inner());
        let current = self.schema();
        let (next, _stats) = current.evolved(op)?;
        let generation = self.store.apply_transition(
            &next.definition,
            &next.fds,
            &next.analysis,
            next.encode_layouts(),
        )?;
        *self.schema.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        Ok(generation)
    }

    /// The underlying concurrent [`Store`] — for typed-level callers
    /// (batch submission, raw predicates) that bypass the name layer.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// A typed snapshot of the store's metric families, event ring, and
    /// preserved poison reason — see [`Store::metrics`].  Purely
    /// read-side: no relation is locked, works even after a poison.
    pub fn metrics(&self) -> ids_obs::MetricsSnapshot {
        self.store.metrics()
    }

    /// Renders interned tuples back through the live value pool — e.g.
    /// the violating-pair witness of a refused [`SharedDatabase::alter`]
    /// backfill, so a front-end can ship the evidence as strings.
    pub fn render_tuples(&self, tuples: &[ids_relational::Tuple]) -> Vec<String> {
        let names = self.names();
        tuples
            .iter()
            .map(|t| {
                let vals: Vec<String> = t.iter().map(|&v| names.pool.render(v)).collect();
                format!("({})", vals.join(", "))
            })
            .collect()
    }

    /// Locks the name state; a poisoned mutex means a panic mid-intern
    /// on another thread, and continuing would risk logging tuples
    /// whose names were never made durable — so propagate the panic.
    fn names(&self) -> std::sync::MutexGuard<'_, Names> {
        self.names
            .lock()
            .expect("name-state mutex poisoned: a thread panicked while interning")
    }

    /// Inserts a row; see [`crate::Database::insert`].  Name interning
    /// happens under the name lock, the FD probe and commit on the
    /// owning shard after it is released.
    pub fn insert<S: AsRef<str>>(
        &self,
        relation: &str,
        values: impl IntoIterator<Item = S>,
    ) -> Result<InsertOutcome, Error> {
        let schema = self.schema();
        let (id, tuple) = {
            let names = &mut *self.names();
            resolve_row(
                &schema,
                &mut names.pool,
                &mut names.log,
                relation,
                values,
                true,
            )?
        };
        let tuple = tuple.expect("interning resolves every value");
        self.store.insert(id, tuple).map_err(Into::into)
    }

    /// Removes a row; see [`crate::Database::remove`] for the
    /// string-level semantics (a never-interned value is vacuously
    /// absent).
    pub fn remove<S: AsRef<str>>(
        &self,
        relation: &str,
        values: impl IntoIterator<Item = S>,
    ) -> Result<bool, Error> {
        let schema = self.schema();
        let resolved = {
            let names = &mut *self.names();
            resolve_row(
                &schema,
                &mut names.pool,
                &mut names.log,
                relation,
                values,
                false,
            )?
        };
        match resolved {
            (id, Some(tuple)) => self.store.remove(id, tuple).map_err(Into::into),
            (_, None) => Ok(false),
        }
    }

    /// Runs a string-level query: filters become a typed predicate the
    /// owning shard evaluates, `select` picks output columns (`None` =
    /// declaration order).  The engine round trip runs between two
    /// short name-lock sections (plan, then render) — tuples are
    /// shipped and filtered with no lock held.
    pub fn query(
        &self,
        relation: &str,
        filters: &[(String, Cond)],
        select: Option<Vec<String>>,
    ) -> Result<Rows, Error> {
        let schema = self.schema();
        let plan = plan_query(&schema, &self.names().pool, relation, filters, select)?;
        let tuples = if plan.satisfiable {
            self.store.read(plan.id, &plan.read)?.rows
        } else {
            Vec::new()
        };
        Ok(render_rows(&schema, &self.names().pool, &plan, &tuples))
    }

    /// Natural join over named relations — the `&self` counterpart of
    /// [`crate::Database::join`], same planner, same self-join
    /// (one-cut) and column-order contracts.  The planner's engine
    /// round trips all run with no name lock held.
    pub fn join<I, S>(&self, relations: I) -> Result<Rows, Error>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let relations: Vec<String> = relations
            .into_iter()
            .map(|s| s.as_ref().to_string())
            .collect();
        let schema = self.schema();
        let plan = plan_join(&schema, &self.names().pool, &relations, &[])?;
        let (joined, _report) = execute_join(&self.store, &plan.ids, &plan.attrs, &plan.preds)?;
        Ok(render_join_rows(
            &schema,
            &self.names().pool,
            &plan.ids,
            &joined,
        ))
    }

    /// Reads one relation's rows as strings — [`SharedDatabase::query`]
    /// with no filter; barrier-free.
    pub fn rows(&self, relation: &str) -> Result<Vec<Vec<String>>, Error> {
        Ok(self.query(relation, &[], None)?.into_string_rows())
    }

    /// Number of rows currently in a relation (barrier-free; no name
    /// lock, no tuples shipped).
    pub fn count(&self, relation: &str) -> Result<usize, Error> {
        let id = self.schema().scheme_id(relation)?;
        let all = ReadPlan::count(Predicate::new());
        Ok(self.store.read(id, &all)?.count)
    }

    /// A consistent cut of the whole database — the barrier read; see
    /// [`crate::Database::snapshot`].
    pub fn snapshot(&self) -> Result<DatabaseState, Error> {
        self.store.snapshot().map_err(Into::into)
    }

    /// Checkpoints a durable database; typed
    /// [`ids_store::StoreError::NotDurable`] on in-memory stores.
    pub fn checkpoint(&self) -> Result<(), Error> {
        self.store.checkpoint().map_err(Into::into)
    }
}

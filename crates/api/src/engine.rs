//! The unified [`Engine`] trait and the [`EngineKind`] selector.
//!
//! An engine is three things: apply a batch of writes, answer a
//! [`ReadPlan`] against one relation, take a snapshot.  Single-tuple
//! `insert`/`remove` are one-op batches; every per-relation read —
//! whole relation, filtered, distinct join keys, count — is one
//! [`Engine::read`] with the shape the caller chose.

use ids_core::{ChaseMaintainer, FdOnlyMaintainer, InsertOutcome, LocalMaintainer, Maintainer};
use ids_relational::{DatabaseState, ReadPlan, ReadReply, SchemeId, Value};
use ids_store::{OpOutcome, Store, StoreConfig, StoreOp};

use crate::error::Error;

/// Which maintenance engine a [`crate::Database`] runs on.
///
/// All four speak the same [`Engine`] interface; they differ in *how*
/// an insert is validated and what the schema must satisfy:
///
/// | kind | validation | requires independence |
/// |---|---|---|
/// | `Local` | touched relation's cover `Fi`, O(1) hash probes | yes |
/// | `Chase` | whole-state re-chase under `F ∪ {*D}` | no |
/// | `FdOnly` | FD-only chase (sound, incomplete \[H\]) | no |
/// | `Sharded` | `Fi` under the touched relation's own lock | yes |
#[derive(Debug, Default)]
pub enum EngineKind {
    /// The independent-schema fast path ([`LocalMaintainer`]).
    #[default]
    Local,
    /// The honest general baseline ([`ChaseMaintainer`]).
    Chase,
    /// Honeyman's FD-only middle ground ([`FdOnlyMaintainer`]).
    FdOnly,
    /// The concurrent sharded store ([`Store`]), with its configuration.
    Sharded(StoreConfig),
}

/// The one interface every maintenance engine speaks — three required
/// methods, uniformly fallible, so no engine swallows errors another
/// surfaces:
///
/// * [`apply_batch`](Engine::apply_batch) — the write path; the whole
///   batch is validated before anything is applied, so a malformed batch
///   mutates nothing.  FD violations are *outcomes*
///   ([`InsertOutcome::Rejected`]), malformed operations are errors.
///   The sharded engine runs each touched relation's part inside that
///   relation's own lock.  [`insert`](Engine::insert) /
///   [`remove`](Engine::remove) are provided one-op batches.
/// * [`read`](Engine::read) — the read path: one relation, **without** a
///   global barrier (freshness per relation, no cross-relation cut).
///   The [`ReadPlan`]'s predicate travels down to whatever owns the
///   tuples; only its shape of the matches travels back.
/// * [`snapshot`](Engine::snapshot) — the whole state as one consistent
///   (and, on an independent schema, globally satisfying) cut.
///
/// Implemented for [`LocalMaintainer`], [`ChaseMaintainer`],
/// [`FdOnlyMaintainer`] and [`Store`]; custom engines can implement it
/// and plug into [`crate::Database::with_engine`].
pub trait Engine: Send {
    /// Applies a batch, outcomes aligned with the input.  Scheme ids and
    /// arities are validated up front, so a *malformed* batch mutates
    /// nothing on any engine.  An engine-level error mid-batch (e.g. the
    /// chase baseline exceeding its budget) aborts the batch with the
    /// failing operation rolled back, but operations already applied
    /// remain applied — batches are not transactions.
    fn apply_batch(&mut self, ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, Error>;

    /// Answers a [`ReadPlan`] against relation `id` without a global
    /// barrier.  The id and the plan are checked once, at this boundary:
    /// a foreign id is [`Error::UnknownScheme`], a predicate attribute or
    /// projection column outside the scheme is
    /// [`ids_relational::RelationalError::SchemaMismatch`] under
    /// [`Error::Relational`] — on every engine.  The reply must equal
    /// [`ids_relational::Relation::read`] on the relation's current
    /// contents; engines differ only in how little work that takes (the
    /// local engine and the store answer key point lookups in O(1) from
    /// their enforcement indexes, and the store builds only the shaped
    /// reply under the relation's lock).
    fn read(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, Error>;

    /// The whole state as one consistent cut.
    fn snapshot(&self) -> Result<DatabaseState, Error>;

    /// True for an engine that refuses every write with
    /// [`Error::ReplicaReadOnly`] (a replication follower's).
    /// [`crate::Database`] asks before it resolves a write's names, so a
    /// refused write interns nothing.
    fn read_only(&self) -> bool {
        false
    }

    /// Attempts to insert `tuple` (canonical scheme order) into `id` — a
    /// one-op [`Engine::apply_batch`].
    fn insert(&mut self, id: SchemeId, tuple: Vec<Value>) -> Result<InsertOutcome, Error> {
        match self
            .apply_batch(vec![StoreOp::Insert { scheme: id, tuple }])?
            .pop()
        {
            Some(OpOutcome::Insert(outcome)) => Ok(outcome),
            // The trait's contract: outcomes align with the input.
            other => unreachable!("apply_batch answered one insert with {other:?}"),
        }
    }

    /// Removes a tuple; `Ok(true)` when it was present.  Always
    /// satisfaction-preserving under weak-instance semantics — a one-op
    /// [`Engine::apply_batch`].
    fn remove(&mut self, id: SchemeId, tuple: &[Value]) -> Result<bool, Error> {
        let tuple = tuple.to_vec();
        match self
            .apply_batch(vec![StoreOp::Remove { scheme: id, tuple }])?
            .pop()
        {
            Some(OpOutcome::Remove(present)) => Ok(present),
            // As above: one remove in, one remove outcome out.
            other => unreachable!("apply_batch answered one remove with {other:?}"),
        }
    }
}

/// Implements [`Engine`] for a sequential [`Maintainer`]: batches
/// validate (via the shared [`ids_core::validate_op`] contract, so a
/// malformed batch is rejected exactly like the store's router does:
/// before any op is applied) then loop; reads and snapshots come from
/// the owned state (trivially barrier-free — there is only one thread).
macro_rules! impl_engine_for_maintainer {
    ($($engine:ty),+ $(,)?) => {$(
        impl Engine for $engine {
            fn apply_batch(&mut self, ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, Error> {
                for op in &ops {
                    let (StoreOp::Insert { scheme, tuple } | StoreOp::Remove { scheme, tuple }) = op;
                    ids_core::validate_op(self.schema(), *scheme, tuple)?;
                }
                ops.into_iter()
                    .map(|op| match op {
                        StoreOp::Insert { scheme, tuple } => Maintainer::insert(self, scheme, tuple)
                            .map(OpOutcome::Insert)
                            .map_err(Into::into),
                        StoreOp::Remove { scheme, tuple } => {
                            Maintainer::remove(self, scheme, &tuple)
                                .map(OpOutcome::Remove)
                                .map_err(Into::into)
                        }
                    })
                    .collect()
            }

            fn read(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, Error> {
                Maintainer::read(self, id, plan).map_err(Into::into)
            }

            fn snapshot(&self) -> Result<DatabaseState, Error> {
                Ok(self.state().clone())
            }
        }
    )+};
}

impl_engine_for_maintainer!(LocalMaintainer, ChaseMaintainer, FdOnlyMaintainer);

impl Engine for Store {
    fn apply_batch(&mut self, ops: Vec<StoreOp>) -> Result<Vec<OpOutcome>, Error> {
        Store::apply_batch(self, ops).map_err(Into::into)
    }

    fn read(&self, id: SchemeId, plan: &ReadPlan) -> Result<ReadReply, Error> {
        Store::read(self, id, plan).map_err(Into::into)
    }

    fn snapshot(&self) -> Result<DatabaseState, Error> {
        Store::snapshot(self).map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_chase::ChaseConfig;
    use ids_core::analyze;
    use ids_deps::FdSet;
    use ids_relational::{DatabaseSchema, Predicate, RelationalError, Universe};

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn setup() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "S"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        (schema, fds)
    }

    /// Every engine behind the one trait: identical outcomes on a shared
    /// script, including the batch path and the two read paths.
    #[test]
    fn all_four_engines_agree_behind_the_trait() {
        let (schema, fds) = setup();
        let analysis = analyze(&schema, &fds);
        let empty = || DatabaseState::empty(&schema);
        let mut engines: Vec<(&str, Box<dyn Engine>)> = vec![
            (
                "local",
                Box::new(LocalMaintainer::from_analysis(&schema, &analysis, empty()).unwrap()),
            ),
            (
                "chase",
                Box::new(ChaseMaintainer::new(
                    &schema,
                    &fds,
                    empty(),
                    ChaseConfig::default(),
                )),
            ),
            (
                "fd-only",
                Box::new(FdOnlyMaintainer::new(&schema, &fds, empty())),
            ),
            (
                "sharded",
                Box::new(Store::from_analysis(&schema, &analysis, StoreConfig::default()).unwrap()),
            ),
        ];
        let ct = schema.scheme_by_name("CT").unwrap();
        let cs = schema.scheme_by_name("CS").unwrap();
        for (name, engine) in &mut engines {
            assert_eq!(
                engine.insert(ct, vec![v(1), v(10)]).unwrap(),
                InsertOutcome::Accepted,
                "{name}"
            );
            let outcomes = engine
                .apply_batch(vec![
                    StoreOp::Insert {
                        scheme: ct,
                        tuple: vec![v(1), v(11)], // violates C→T
                    },
                    StoreOp::Insert {
                        scheme: cs,
                        tuple: vec![v(1), v(50)],
                    },
                    StoreOp::Remove {
                        scheme: cs,
                        tuple: vec![v(1), v(50)],
                    },
                ])
                .unwrap();
            assert!(
                matches!(
                    outcomes[0],
                    OpOutcome::Insert(InsertOutcome::Rejected { .. })
                ),
                "{name}: {:?}",
                outcomes[0]
            );
            assert_eq!(
                outcomes[1],
                OpOutcome::Insert(InsertOutcome::Accepted),
                "{name}"
            );
            assert_eq!(outcomes[2], OpOutcome::Remove(true), "{name}");
            // One read entry, every shape; C is CT's key, so the pin
            // takes each engine's fast path.
            let u = schema.universe();
            let (c, s) = (u.attr("C").unwrap(), u.attr("S").unwrap());
            let pin = |n| Predicate::new().and_eq(c, v(n));
            let hit = engine.read(ct, &ReadPlan::tuples(pin(1))).unwrap();
            assert_eq!(hit.count, 1, "{name}");
            assert_eq!(&*hit.rows[0], &[v(1), v(10)], "{name}");
            for plan in [
                ReadPlan::tuples(pin(9)),
                ReadPlan::distinct_columns(pin(9), vec![c]),
                ReadPlan::count(pin(9)),
            ] {
                assert_eq!(
                    engine.read(ct, &plan).unwrap(),
                    ReadReply::default(),
                    "{name}"
                );
            }
            let counted = engine.read(ct, &ReadPlan::count(Predicate::new())).unwrap();
            assert_eq!((counted.rows.len(), counted.count), (0, 1), "{name}");
            let keys = engine
                .read(ct, &ReadPlan::distinct_columns(Predicate::new(), vec![c]))
                .unwrap();
            assert_eq!(keys.rows, vec![vec![v(1)].into_boxed_slice()], "{name}");
            // One mistake, one typed error, whichever engine is asked: a
            // bogus id, a foreign predicate attribute, a foreign
            // projection column.
            let bogus = SchemeId(99);
            assert!(
                matches!(
                    engine.read(bogus, &ReadPlan::count(Predicate::new())),
                    Err(Error::UnknownScheme(id)) if id == bogus
                ),
                "{name}"
            );
            assert!(
                matches!(
                    engine.insert(bogus, vec![v(1)]),
                    Err(Error::UnknownScheme(id)) if id == bogus
                ),
                "{name}"
            );
            for plan in [
                ReadPlan::tuples(Predicate::new().and_eq(s, v(0))),
                ReadPlan::distinct_columns(Predicate::new(), vec![c, s]),
            ] {
                assert!(
                    matches!(
                        engine.read(ct, &plan),
                        Err(Error::Relational(RelationalError::SchemaMismatch(_)))
                    ),
                    "{name}: {plan:?}"
                );
            }
            assert!(engine.remove(ct, &[v(1), v(10)]).unwrap(), "{name}");
            // Both read paths agree on the final (empty) state.
            let all = engine
                .read(ct, &ReadPlan::tuples(Predicate::new()))
                .unwrap();
            assert_eq!(all, ReadReply::default(), "{name}");
            assert_eq!(engine.snapshot().unwrap().total_tuples(), 0, "{name}");
        }
    }

    /// The store's malformed-batch atomicity holds for the sequential
    /// engines too: validation precedes application.
    #[test]
    fn malformed_batches_mutate_nothing_on_sequential_engines() {
        let (schema, fds) = setup();
        let analysis = analyze(&schema, &fds);
        let mut m =
            LocalMaintainer::from_analysis(&schema, &analysis, DatabaseState::empty(&schema))
                .unwrap();
        let engine: &mut dyn Engine = &mut m;
        let ct = schema.scheme_by_name("CT").unwrap();
        let err = engine
            .apply_batch(vec![
                StoreOp::Insert {
                    scheme: ct,
                    tuple: vec![v(1), v(10)],
                },
                StoreOp::Remove {
                    scheme: ct,
                    tuple: vec![v(2)], // arity error — batch must be rejected whole
                },
            ])
            .unwrap_err();
        assert!(matches!(err, Error::Relational(_)), "got {err}");
        assert_eq!(engine.snapshot().unwrap().total_tuples(), 0);
    }
}

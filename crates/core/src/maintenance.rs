//! The maintenance problem (Theorem 1 and Section 3's payoff).
//!
//! After a single-tuple insert, is the new state still satisfying?
//! Theorem 1 makes this coNP-hard in general; for **independent** schemas
//! Theorem 3 reduces it to checking the per-scheme cover `Fi` on the one
//! touched relation — constant work per insert with hash indexes.
//!
//! Two engines share the [`Maintainer`] interface:
//! * [`LocalMaintainer`] — the independent-schema fast path;
//! * [`ChaseMaintainer`] — the honest general baseline: re-chase the whole
//!   state after every modification.
//!
//! Deletions are always safe under weak-instance semantics (a weak instance
//! for `p` is one for any `p' ⊆ p`), so both engines accept them outright.

use ids_chase::{ChaseConfig, ChaseError};
use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState, RelationalError, SchemeId, Value};

use crate::shard::RelationShard;

/// Outcome of an attempted insert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The tuple is compatible; the state was updated.
    Accepted,
    /// The tuple was already present (state unchanged).
    Duplicate,
    /// The tuple would make the state unsatisfying; state unchanged.
    Rejected {
        /// The violated FD, when a specific one is known (local engine).
        violated: Option<ids_deps::Fd>,
    },
}

impl InsertOutcome {
    /// True for [`InsertOutcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, InsertOutcome::Accepted)
    }

    /// True for [`InsertOutcome::Duplicate`].
    pub fn is_duplicate(&self) -> bool {
        matches!(self, InsertOutcome::Duplicate)
    }

    /// True for [`InsertOutcome::Rejected`].
    pub fn is_rejected(&self) -> bool {
        matches!(self, InsertOutcome::Rejected { .. })
    }
}

/// Common interface of the sequential maintenance engines.
///
/// Every operation is *uniformly fallible*: a tuple of the wrong arity
/// or an id outside the schema is a typed error from `remove` exactly
/// as it is from `insert` — no engine silently swallows a
/// malformed operation.  FD violations remain *outcomes*
/// ([`InsertOutcome::Rejected`]), never errors.
pub trait Maintainer {
    /// Attempts to insert `tuple` (scheme order) into relation `id`.
    fn insert(
        &mut self,
        id: SchemeId,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError>;

    /// Removes a tuple; always satisfaction-preserving.  `Ok(true)` when
    /// the tuple was present; arity/scheme mismatches are typed errors.
    fn remove(&mut self, id: SchemeId, tuple: &[Value]) -> Result<bool, MaintenanceError>;

    /// The schema handle the engine serves.
    fn schema(&self) -> &DatabaseSchema;

    /// The current state.
    fn state(&self) -> &DatabaseState;
}

/// Errors of the maintenance engines.
#[derive(Debug)]
pub enum MaintenanceError {
    /// Tuple arity or scheme mismatch.
    Relational(RelationalError),
    /// An operation referenced a scheme id outside the schema.
    UnknownScheme(SchemeId),
    /// The chase baseline exceeded its budget.
    Chase(ChaseError),
    /// The schema is not independent, so the local engine would be
    /// unsound.  Carries the analysis's diagnosis and its machine-checkable
    /// `LSAT ∖ WSAT` counterexample state.
    NotIndependent {
        /// Which condition of the decision procedure failed.
        reason: crate::NotIndependentReason,
        /// A state that is locally satisfying but not globally satisfying.
        witness: Box<crate::Witness>,
    },
    /// The supplied base state violates a relation's enforcement cover
    /// `Fi`; the engine refuses to start from unsatisfying data.
    BaseStateViolation {
        /// The offending relation.
        scheme: SchemeId,
        /// The FD of `Fi` the base state violates.
        violated: ids_deps::Fd,
    },
}

impl std::fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Relational(e) => write!(f, "{e}"),
            Self::UnknownScheme(id) => write!(f, "operation references unknown scheme {id:?}"),
            Self::Chase(e) => write!(f, "{e}"),
            Self::NotIndependent { reason, .. } => write!(
                f,
                "schema is not independent (local maintenance unsound): {reason:?}"
            ),
            Self::BaseStateViolation { scheme, .. } => write!(
                f,
                "base state violates the enforcement cover of scheme {scheme:?}"
            ),
        }
    }
}

impl std::error::Error for MaintenanceError {}

impl From<RelationalError> for MaintenanceError {
    fn from(e: RelationalError) -> Self {
        Self::Relational(e)
    }
}

impl From<ChaseError> for MaintenanceError {
    fn from(e: ChaseError) -> Self {
        Self::Chase(e)
    }
}

/// The independent-schema fast path: each insert checks only the touched
/// relation's enforcement cover `Fi`, in O(|Fi|) hash probes.
///
/// Internally one [`RelationShard`] per scheme does the probing and
/// committing — the same machinery the concurrent `ids-store` workers
/// run, here driven sequentially against a single [`DatabaseState`].
///
/// Sound and complete **only** when the schema is independent w.r.t. the
/// dependencies — construct it from a successful
/// [`crate::analyze`] via [`LocalMaintainer::from_analysis`].
#[derive(Debug)]
pub struct LocalMaintainer {
    schema: DatabaseSchema,
    shards: Vec<RelationShard>,
    state: DatabaseState,
}

impl LocalMaintainer {
    /// Builds the engine from per-scheme enforcement covers, starting from
    /// an existing state, which every cover must accept
    /// ([`MaintenanceError::BaseStateViolation`] otherwise).  The cover
    /// vector must have exactly one entry per scheme — a mismatch is a
    /// typed error, never a silently under-enforced engine.
    pub fn new(
        schema: &DatabaseSchema,
        enforcement: Vec<FdSet>,
        mut state: DatabaseState,
    ) -> Result<Self, MaintenanceError> {
        if enforcement.len() != schema.len() {
            return Err(RelationalError::SchemaMismatch("enforcement covers").into());
        }
        let shards = (schema.ids().zip(enforcement))
            .map(|(id, fi)| RelationShard::with_relation(schema, id, fi, state.relation_mut(id)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LocalMaintainer {
            schema: schema.clone(),
            shards,
            state,
        })
    }

    /// Builds the engine from an independence analysis.
    ///
    /// Fails with [`MaintenanceError::NotIndependent`] — carrying the
    /// analysis's diagnosis and counterexample — when the schema is not
    /// independent (local maintenance would be unsound).
    pub fn from_analysis(
        schema: &DatabaseSchema,
        analysis: &crate::IndependenceAnalysis,
        state: DatabaseState,
    ) -> Result<Self, MaintenanceError> {
        match &analysis.verdict {
            crate::Verdict::Independent { enforcement } => {
                Self::new(schema, enforcement.clone(), state)
            }
            crate::Verdict::NotIndependent { reason, witness } => {
                Err(MaintenanceError::NotIndependent {
                    reason: reason.clone(),
                    witness: Box::new(witness.clone()),
                })
            }
        }
    }

    /// The schema handle the engine carries.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Attempts to insert `tuple` (scheme order) into relation `id`.
    pub fn insert(
        &mut self,
        id: SchemeId,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError> {
        // Split borrow: the shard (indexes) and the state (tuples) are
        // disjoint fields, so nothing is cloned per operation.
        let shard = self
            .shards
            .get_mut(id.index())
            .ok_or(MaintenanceError::UnknownScheme(id))?;
        shard.insert(self.state.relation_mut(id), tuple)
    }

    /// Removes a tuple; `Ok(true)` when it was present.
    pub fn remove(&mut self, id: SchemeId, tuple: &[Value]) -> Result<bool, MaintenanceError> {
        let shard = self
            .shards
            .get_mut(id.index())
            .ok_or(MaintenanceError::UnknownScheme(id))?;
        shard.remove(self.state.relation_mut(id), tuple)
    }

    /// The current state.
    pub fn state(&self) -> &DatabaseState {
        &self.state
    }
}

// The operations live as inherent methods (so callers never need a trait
// in scope, and the `Maintainer`/`Engine` traits can coexist without
// method-resolution ambiguity); the trait impl just delegates.
impl Maintainer for LocalMaintainer {
    fn insert(
        &mut self,
        id: SchemeId,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError> {
        LocalMaintainer::insert(self, id, tuple)
    }

    fn remove(&mut self, id: SchemeId, tuple: &[Value]) -> Result<bool, MaintenanceError> {
        LocalMaintainer::remove(self, id, tuple)
    }

    fn schema(&self) -> &DatabaseSchema {
        LocalMaintainer::schema(self)
    }

    fn state(&self) -> &DatabaseState {
        LocalMaintainer::state(self)
    }
}

/// Validates an operation against a schema before an engine touches any
/// state: the id must name a scheme ([`MaintenanceError::UnknownScheme`]
/// otherwise) and the tuple must match its arity
/// ([`RelationalError::ArityMismatch`] otherwise).
///
/// This is *the* validation contract of the uniform engine interface —
/// the whole-state engines here, the `ids-store` router, and the
/// `ids-api` batch path all call it, so every engine rejects malformed
/// operations identically.
pub fn validate_op(
    schema: &DatabaseSchema,
    id: SchemeId,
    tuple: &[Value],
) -> Result<(), MaintenanceError> {
    let scheme = schema
        .get_scheme(id)
        .ok_or(MaintenanceError::UnknownScheme(id))?;
    if tuple.len() != scheme.attrs.len() {
        return Err(RelationalError::ArityMismatch {
            expected: scheme.attrs.len(),
            found: tuple.len(),
        }
        .into());
    }
    Ok(())
}

/// The general baseline: validate every insert by re-chasing the whole
/// state under `F ∪ {*D}`.
///
/// Owns cheap handles to its schema and a clone of the dependencies, so
/// the engine can move freely (into a `Database` facade, across threads)
/// without borrowing the caller's analysis inputs.
pub struct ChaseMaintainer {
    schema: DatabaseSchema,
    fds: FdSet,
    state: DatabaseState,
    config: ChaseConfig,
}

impl ChaseMaintainer {
    /// Builds the baseline engine over an existing satisfying state.
    pub fn new(
        schema: &DatabaseSchema,
        fds: &FdSet,
        state: DatabaseState,
        config: ChaseConfig,
    ) -> Self {
        ChaseMaintainer {
            schema: schema.clone(),
            fds: fds.clone(),
            state,
            config,
        }
    }

    /// Attempts to insert `tuple` (scheme order) into relation `id`,
    /// validating by a whole-state re-chase.
    pub fn insert(
        &mut self,
        id: SchemeId,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError> {
        validate_op(&self.schema, id, &tuple)?;
        if self.state.relation(id).contains(&tuple) {
            return Ok(InsertOutcome::Duplicate);
        }
        self.state.insert(id, tuple.clone())?;
        // Roll the tentative tuple back on *any* non-accepting outcome —
        // including a chase budget error: an unvalidated tuple must never
        // survive in the state.
        let sat = match ids_chase::satisfies(&self.schema, &self.fds, &self.state, &self.config) {
            Ok(sat) => sat,
            Err(e) => {
                self.state.relation_mut(id).remove(&tuple);
                return Err(e.into());
            }
        };
        if sat.is_satisfying() {
            Ok(InsertOutcome::Accepted)
        } else {
            self.state.relation_mut(id).remove(&tuple);
            Ok(InsertOutcome::Rejected { violated: None })
        }
    }

    /// Removes a tuple; `Ok(true)` when it was present.
    pub fn remove(&mut self, id: SchemeId, tuple: &[Value]) -> Result<bool, MaintenanceError> {
        validate_op(&self.schema, id, tuple)?;
        Ok(self.state.relation_mut(id).remove(tuple))
    }

    /// The schema handle the engine carries.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The current state.
    pub fn state(&self) -> &DatabaseState {
        &self.state
    }
}

impl Maintainer for ChaseMaintainer {
    fn insert(
        &mut self,
        id: SchemeId,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError> {
        ChaseMaintainer::insert(self, id, tuple)
    }

    fn remove(&mut self, id: SchemeId, tuple: &[Value]) -> Result<bool, MaintenanceError> {
        ChaseMaintainer::remove(self, id, tuple)
    }

    fn schema(&self) -> &DatabaseSchema {
        ChaseMaintainer::schema(self)
    }

    fn state(&self) -> &DatabaseState {
        ChaseMaintainer::state(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use ids_relational::Universe;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn independent_setup() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema =
            DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R"]).unwrap();
        (schema, fds)
    }

    #[test]
    fn local_maintainer_enforces_fi() {
        let (schema, fds) = independent_setup();
        let analysis = analyze(&schema, &fds);
        let mut m =
            LocalMaintainer::from_analysis(&schema, &analysis, DatabaseState::empty(&schema))
                .unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        assert_eq!(
            m.insert(ct, vec![v(1), v(10)]).unwrap(),
            InsertOutcome::Accepted
        );
        assert_eq!(
            m.insert(ct, vec![v(1), v(10)]).unwrap(),
            InsertOutcome::Duplicate
        );
        // Second teacher for course 1: violates C→T.
        let out = m.insert(ct, vec![v(1), v(11)]).unwrap();
        assert!(matches!(out, InsertOutcome::Rejected { violated: Some(_) }));
        // Remove and retry: accepted.
        assert!(m.remove(ct, &[v(1), v(10)]).unwrap());
        assert_eq!(
            m.insert(ct, vec![v(1), v(11)]).unwrap(),
            InsertOutcome::Accepted
        );
    }

    #[test]
    fn local_and_chase_engines_agree_on_independent_schema() {
        let (schema, fds) = independent_setup();
        let analysis = analyze(&schema, &fds);
        let mut local =
            LocalMaintainer::from_analysis(&schema, &analysis, DatabaseState::empty(&schema))
                .unwrap();
        let mut chase = ChaseMaintainer::new(
            &schema,
            &fds,
            DatabaseState::empty(&schema),
            ChaseConfig::default(),
        );
        let chr = schema.scheme_by_name("CHR").unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        let cs = schema.scheme_by_name("CS").unwrap();
        let script: Vec<(SchemeId, Vec<Value>)> = vec![
            (ct, vec![v(1), v(20)]),
            (chr, vec![v(1), v(30), v(40)]),
            (chr, vec![v(1), v(30), v(41)]), // violates CH→R
            (chr, vec![v(1), v(31), v(41)]),
            (cs, vec![v(1), v(50)]),
            (cs, vec![v(1), v(51)]), // CS has no FDs: fine
            (ct, vec![v(1), v(21)]), // violates C→T
        ];
        for (id, tuple) in script {
            let a = local.insert(id, tuple.clone()).unwrap();
            let b = chase.insert(id, tuple).unwrap();
            let same = matches!(
                (&a, &b),
                (InsertOutcome::Accepted, InsertOutcome::Accepted)
                    | (InsertOutcome::Duplicate, InsertOutcome::Duplicate)
                    | (
                        InsertOutcome::Rejected { .. },
                        InsertOutcome::Rejected { .. }
                    )
            );
            assert!(same, "engines disagree: {a:?} vs {b:?}");
        }
        assert_eq!(local.state().total_tuples(), chase.state().total_tuples());
    }

    #[test]
    fn chase_engine_catches_cross_relation_violation_local_would_miss() {
        // Example 1 (not independent): the cross-relation contradiction is
        // invisible to per-relation FD checks, visible to the chase.
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let mut chase = ChaseMaintainer::new(
            &schema,
            &fds,
            DatabaseState::empty(&schema),
            ChaseConfig::default(),
        );
        let cd = schema.scheme_by_name("CD").unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        let td = schema.scheme_by_name("TD").unwrap();
        assert_eq!(
            chase.insert(cd, vec![v(1), v(2)]).unwrap(),
            InsertOutcome::Accepted
        );
        assert_eq!(
            chase.insert(ct, vec![v(1), v(3)]).unwrap(),
            InsertOutcome::Accepted
        );
        // (T=3, D=4) forces course 1's department to be 4, contradicting 2.
        let out = chase.insert(td, vec![v(4), v(3)]).unwrap();
        assert_eq!(out, InsertOutcome::Rejected { violated: None });
        // State rolled back.
        assert_eq!(chase.state().total_tuples(), 2);
        // LocalMaintainer cannot even be constructed for this schema; the
        // error carries the diagnosis and a verifiable counterexample.
        let analysis = analyze(&schema, &fds);
        let err = LocalMaintainer::from_analysis(&schema, &analysis, DatabaseState::empty(&schema))
            .unwrap_err();
        let MaintenanceError::NotIndependent { witness, .. } = err else {
            panic!("expected NotIndependent, got {err}");
        };
        assert!(
            crate::verify_witness(&schema, &fds, &witness.state, &ChaseConfig::default()).unwrap()
        );
    }

    #[test]
    fn malformed_ops_are_typed_errors_on_every_engine() {
        // The remove/insert asymmetry is gone: a bad arity or a foreign
        // scheme id is a typed error from all three engines, both ways.
        let (schema, fds) = independent_setup();
        let analysis = analyze(&schema, &fds);
        let ct = schema.scheme_by_name("CT").unwrap();
        let bogus = SchemeId(99);

        let mut local =
            LocalMaintainer::from_analysis(&schema, &analysis, DatabaseState::empty(&schema))
                .unwrap();
        let mut chase = ChaseMaintainer::new(
            &schema,
            &fds,
            DatabaseState::empty(&schema),
            ChaseConfig::default(),
        );
        let mut fd_only = FdOnlyMaintainer::new(&schema, &fds, DatabaseState::empty(&schema));
        let engines: [&mut dyn Maintainer; 3] = [&mut local, &mut chase, &mut fd_only];
        for m in engines {
            assert!(matches!(
                m.remove(ct, &[v(1)]),
                Err(MaintenanceError::Relational(
                    RelationalError::ArityMismatch { .. }
                ))
            ));
            assert!(matches!(
                m.remove(bogus, &[v(1)]),
                Err(MaintenanceError::UnknownScheme(id)) if id == bogus
            ));
            assert!(matches!(
                m.insert(bogus, vec![v(1)]),
                Err(MaintenanceError::UnknownScheme(id)) if id == bogus
            ));
            assert_eq!(m.state().total_tuples(), 0, "errors must not mutate");
        }
    }

    #[test]
    fn chase_budget_error_rolls_back_the_tentative_tuple() {
        // A starved chase budget must surface as an error *without*
        // leaving the unvalidated tuple behind: retrying after the error
        // must not claim Duplicate for a tuple that was never accepted.
        let (schema, fds) = independent_setup();
        let ct = schema.scheme_by_name("CT").unwrap();
        let chr = schema.scheme_by_name("CHR").unwrap();
        let mut m = ChaseMaintainer::new(
            &schema,
            &fds,
            DatabaseState::empty(&schema),
            ChaseConfig {
                max_rows: 1,
                max_passes: 10,
            },
        );
        // Force enough rows that the padded tableau blows the budget.
        let mut errored = false;
        for (id, tuple) in [
            (ct, vec![v(1), v(10)]),
            (chr, vec![v(1), v(2), v(3)]),
            (chr, vec![v(2), v(2), v(3)]),
        ] {
            let before = m.state().total_tuples();
            match m.insert(id, tuple.clone()) {
                Ok(_) => {}
                Err(MaintenanceError::Chase(_)) => {
                    errored = true;
                    assert_eq!(m.state().total_tuples(), before, "no tuple left behind");
                    assert!(!m.state().relation(id).contains(&tuple));
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(errored, "budget of 1 row must starve the chase");
    }

    #[test]
    fn invalid_base_state_is_refused() {
        let (schema, fds) = independent_setup();
        let analysis = analyze(&schema, &fds);
        let ct = schema.scheme_by_name("CT").unwrap();
        let mut base = DatabaseState::empty(&schema);
        base.insert(ct, vec![v(1), v(10)]).unwrap();
        base.insert(ct, vec![v(1), v(11)]).unwrap(); // violates C→T
        let err = LocalMaintainer::from_analysis(&schema, &analysis, base).unwrap_err();
        assert!(matches!(
            err,
            MaintenanceError::BaseStateViolation { scheme, .. } if scheme == ct
        ));
    }

    #[test]
    fn rebuilding_from_existing_state_indexes_correctly() {
        let (schema, fds) = independent_setup();
        let analysis = analyze(&schema, &fds);
        let ct = schema.scheme_by_name("CT").unwrap();
        let mut base = DatabaseState::empty(&schema);
        base.insert(ct, vec![v(9), v(90)]).unwrap();
        let mut m = LocalMaintainer::from_analysis(&schema, &analysis, base).unwrap();
        let out = m.insert(ct, vec![v(9), v(91)]).unwrap();
        assert!(matches!(out, InsertOutcome::Rejected { .. }));
    }
}

/// The Honeyman middle ground: validate inserts by chasing the FDs
/// **without** the join dependency (polynomial, \[H\]).
///
/// Sound for rejection (an FD-only contradiction already kills every weak
/// instance) but *incomplete*: states whose violation needs `*D` to
/// surface are accepted.  On independent schemas it coincides with the
/// full chase; on dependent schemas it sits strictly between the local
/// and full engines — the E2/E3 benches use it as the middle line.
///
/// Owns its schema handle and dependencies, like [`ChaseMaintainer`].
pub struct FdOnlyMaintainer {
    schema: DatabaseSchema,
    fds: FdSet,
    state: DatabaseState,
}

impl FdOnlyMaintainer {
    /// Builds the engine over an existing state.
    pub fn new(schema: &DatabaseSchema, fds: &FdSet, state: DatabaseState) -> Self {
        FdOnlyMaintainer {
            schema: schema.clone(),
            fds: fds.clone(),
            state,
        }
    }

    /// Attempts to insert `tuple` (scheme order) into relation `id`,
    /// validating by the FD-only chase.
    pub fn insert(
        &mut self,
        id: SchemeId,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError> {
        validate_op(&self.schema, id, &tuple)?;
        if self.state.relation(id).contains(&tuple) {
            return Ok(InsertOutcome::Duplicate);
        }
        self.state.insert(id, tuple.clone())?;
        let sat = ids_chase::satisfies_fds_only(&self.schema, &self.fds, &self.state);
        if sat.is_satisfying() {
            Ok(InsertOutcome::Accepted)
        } else {
            self.state.relation_mut(id).remove(&tuple);
            Ok(InsertOutcome::Rejected { violated: None })
        }
    }

    /// Removes a tuple; `Ok(true)` when it was present.
    pub fn remove(&mut self, id: SchemeId, tuple: &[Value]) -> Result<bool, MaintenanceError> {
        validate_op(&self.schema, id, tuple)?;
        Ok(self.state.relation_mut(id).remove(tuple))
    }

    /// The schema handle the engine carries.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The current state.
    pub fn state(&self) -> &DatabaseState {
        &self.state
    }
}

impl Maintainer for FdOnlyMaintainer {
    fn insert(
        &mut self,
        id: SchemeId,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError> {
        FdOnlyMaintainer::insert(self, id, tuple)
    }

    fn remove(&mut self, id: SchemeId, tuple: &[Value]) -> Result<bool, MaintenanceError> {
        FdOnlyMaintainer::remove(self, id, tuple)
    }

    fn schema(&self) -> &DatabaseSchema {
        FdOnlyMaintainer::schema(self)
    }

    fn state(&self) -> &DatabaseState {
        FdOnlyMaintainer::state(self)
    }
}

#[cfg(test)]
mod fd_only_tests {
    use super::*;
    use ids_relational::Universe;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    #[test]
    fn fd_only_catches_example1_style_violations() {
        // Example 1's contradiction is FD-only reachable (padding + FDs);
        // the middle engine rejects it just like the full chase.
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let mut m = FdOnlyMaintainer::new(&schema, &fds, DatabaseState::empty(&schema));
        let cd = schema.scheme_by_name("CD").unwrap();
        let ct = schema.scheme_by_name("CT").unwrap();
        let td = schema.scheme_by_name("TD").unwrap();
        assert_eq!(
            m.insert(cd, vec![v(1), v(2)]).unwrap(),
            InsertOutcome::Accepted
        );
        assert_eq!(
            m.insert(ct, vec![v(1), v(3)]).unwrap(),
            InsertOutcome::Accepted
        );
        let out = m.insert(td, vec![v(4), v(3)]).unwrap();
        assert_eq!(out, InsertOutcome::Rejected { violated: None });
    }

    #[test]
    fn fd_only_misses_jd_induced_violations() {
        // {AB, BC} with A→C: the violation needs the join dependency to
        // reassemble tuples; the FD-only engine accepts what the full
        // chase rejects — the documented incompleteness.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> C"]).unwrap();

        let script: Vec<(SchemeId, Vec<Value>)> = vec![
            (SchemeId(0), vec![v(1), v(2)]),
            (SchemeId(1), vec![v(2), v(3)]),
            (SchemeId(1), vec![v(2), v(4)]),
        ];
        let mut fd_only = FdOnlyMaintainer::new(&schema, &fds, DatabaseState::empty(&schema));
        let mut full = ChaseMaintainer::new(
            &schema,
            &fds,
            DatabaseState::empty(&schema),
            ChaseConfig::default(),
        );
        let mut fd_only_outcomes = Vec::new();
        let mut full_outcomes = Vec::new();
        for (id, t) in script {
            fd_only_outcomes.push(fd_only.insert(id, t.clone()).unwrap());
            full_outcomes.push(full.insert(id, t).unwrap());
        }
        // FD-only accepts all three; the full chase rejects the last.
        assert!(fd_only_outcomes
            .iter()
            .all(|o| *o == InsertOutcome::Accepted));
        assert_eq!(
            *full_outcomes.last().unwrap(),
            InsertOutcome::Rejected { violated: None }
        );
    }

    #[test]
    fn engines_coincide_on_independent_schema() {
        let u = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema =
            DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R"]).unwrap();
        let mut fd_only = FdOnlyMaintainer::new(&schema, &fds, DatabaseState::empty(&schema));
        let mut full = ChaseMaintainer::new(
            &schema,
            &fds,
            DatabaseState::empty(&schema),
            ChaseConfig::default(),
        );
        let ct = schema.scheme_by_name("CT").unwrap();
        let chr = schema.scheme_by_name("CHR").unwrap();
        for (id, t) in [
            (ct, vec![v(1), v(2)]),
            (ct, vec![v(1), v(3)]),
            (chr, vec![v(1), v(5), v(6)]),
            (chr, vec![v(1), v(5), v(7)]),
        ] {
            let a = fd_only.insert(id, t.clone()).unwrap();
            let b = full.insert(id, t).unwrap();
            assert_eq!(a, b);
        }
    }
}

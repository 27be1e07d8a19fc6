//! Weak instances and global satisfaction (`WSAT`).
//!
//! A state `p` *satisfies* `Σ` when a **weak instance** exists: a universal
//! instance containing every `ri` in its projections and satisfying `Σ`
//! (Honeyman / Vassiliou).  The paper tests this with the chase of `I(p)`.

use ids_deps::{Fd, FdSet, JoinDependency};
use ids_relational::{DatabaseSchema, DatabaseState, Relation};

use crate::engine::{ChaseConfig, ChaseError, ChaseInstance, ChaseVerdict};

/// Builds the padded universal tableau `I(p)` for a state.
pub fn universal_tableau(schema: &DatabaseSchema, state: &DatabaseState) -> ChaseInstance {
    let mut inst = ChaseInstance::new(schema.universe().len());
    for (id, rel) in state.iter() {
        let attrs = schema.attrs(id);
        for t in rel.iter() {
            inst.add_padded_tuple(attrs, t);
        }
    }
    inst
}

/// Result of a satisfaction test.
#[derive(Clone, Debug)]
pub enum Satisfaction {
    /// A weak instance exists; it is returned as a witness.
    Satisfying(Box<Relation>),
    /// The chase found a contradiction.
    NotSatisfying(crate::engine::ContradictionInfo),
}

impl Satisfaction {
    /// True when the state satisfies the dependencies.
    pub fn is_satisfying(&self) -> bool {
        matches!(self, Satisfaction::Satisfying(_))
    }
}

/// Tests whether `state ∈ WSAT(D, F ∪ {*D})`: chases `I(p)` under the FDs
/// and the schema's join dependency.
///
/// NP-hard in general (\[Y\]); the budget in `config` bounds the work.
pub fn satisfies(
    schema: &DatabaseSchema,
    fds: &FdSet,
    state: &DatabaseState,
    config: &ChaseConfig,
) -> Result<Satisfaction, ChaseError> {
    let jd = JoinDependency::of_schema(schema);
    satisfies_with(schema, fds.as_slice(), Some(&jd), state, config)
}

/// Tests satisfaction of the FDs **alone** (no join dependency): the
/// polynomial test of Honeyman.
pub fn satisfies_fds_only(
    schema: &DatabaseSchema,
    fds: &FdSet,
    state: &DatabaseState,
) -> Satisfaction {
    satisfies_with(schema, fds.as_slice(), None, state, &ChaseConfig::default())
        .expect("FD-only chase needs no row budget")
}

/// General entry point: chase `I(p)` under `fds` and an optional JD.
pub(crate) fn satisfies_with(
    schema: &DatabaseSchema,
    fds: &[Fd],
    jd: Option<&JoinDependency>,
    state: &DatabaseState,
    config: &ChaseConfig,
) -> Result<Satisfaction, ChaseError> {
    let mut inst = universal_tableau(schema, state);
    match inst.chase(fds, jd, config)? {
        ChaseVerdict::Consistent => Ok(Satisfaction::Satisfying(Box::new(inst.materialize()))),
        ChaseVerdict::Inconsistent(c) => Ok(Satisfaction::NotSatisfying(c)),
    }
}

/// Checks that `witness` really is a weak instance for `state` w.r.t.
/// `fds ∪ {*D}`: containment of every projection and satisfaction of all
/// dependencies.  Used to validate chase output in tests.
pub fn is_weak_instance(
    schema: &DatabaseSchema,
    fds: &FdSet,
    state: &DatabaseState,
    witness: &Relation,
) -> bool {
    // (i) containing instance: π_Ri(witness) ⊇ ri.
    for (id, rel) in state.iter() {
        let proj = witness.project(schema.attrs(id));
        for t in rel.iter() {
            if !proj.contains(t) {
                return false;
            }
        }
    }
    // (ii) satisfies the FDs…
    for fd in fds.iter() {
        if !witness.satisfies_fd(fd.lhs, fd.rhs) {
            return false;
        }
    }
    // …and the join dependency *D.
    let joined = ids_relational::join_all(
        schema
            .join_dependency_components()
            .iter()
            .map(|c| witness.project(*c))
            .collect::<Vec<_>>()
            .iter(),
    )
    .expect("schema has at least one scheme");
    joined.set_eq(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::{SchemeId, Universe, Value};

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    /// Example 1 of the paper as schema + FDs + state.
    fn example1() -> (DatabaseSchema, FdSet, DatabaseState) {
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let mut p = DatabaseState::empty(&schema);
        // (CS402, CS) ∈ CD, (CS402, Jones) ∈ CT, (Jones, EE) ∈ TD.
        let (cs402, cs, jones, ee) = (v(1), v(2), v(3), v(4));
        p.insert(SchemeId(0), vec![cs402, cs]).unwrap();
        p.insert(SchemeId(1), vec![cs402, jones]).unwrap();
        p.insert(SchemeId(2), vec![ee, jones]).unwrap(); // order: D, T
        (schema, fds, p)
    }

    #[test]
    fn example1_state_is_not_satisfying() {
        let (schema, fds, p) = example1();
        let sat = satisfies(&schema, &fds, &p, &ChaseConfig::default()).unwrap();
        assert!(!sat.is_satisfying());
        // But every relation satisfies the FDs embedded in its scheme
        // (the paper's point: local checks miss the contradiction).
        for (id, rel) in p.iter() {
            for fd in fds.embedded_in(schema.attrs(id)).iter() {
                assert!(rel.satisfies_fd(fd.lhs, fd.rhs));
            }
        }
    }

    #[test]
    fn example1_consistent_variant_yields_verified_weak_instance() {
        let (schema, fds, _) = example1();
        let mut p = DatabaseState::empty(&schema);
        // Jones teaches CS402 in CS; department of Jones is CS: consistent.
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        p.insert(SchemeId(1), vec![v(1), v(3)]).unwrap();
        p.insert(SchemeId(2), vec![v(2), v(3)]).unwrap();
        let sat = satisfies(&schema, &fds, &p, &ChaseConfig::default()).unwrap();
        let Satisfaction::Satisfying(w) = sat else {
            panic!("expected satisfying");
        };
        assert!(is_weak_instance(&schema, &fds, &p, &w));
    }

    #[test]
    fn empty_state_is_satisfying() {
        let (schema, fds, _) = example1();
        let p = DatabaseState::empty(&schema);
        let sat = satisfies(&schema, &fds, &p, &ChaseConfig::default()).unwrap();
        assert!(sat.is_satisfying());
    }

    #[test]
    fn dangling_but_consistent_state_satisfies() {
        // Weak-instance semantics tolerates dangling tuples: join
        // consistency is NOT required, only embeddability.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC")]).unwrap();
        let fds = FdSet::new();
        let mut p = DatabaseState::empty(&schema);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        p.insert(SchemeId(1), vec![v(9), v(3)]).unwrap(); // joins nothing
        assert!(!p.is_join_consistent());
        let sat = satisfies(&schema, &fds, &p, &ChaseConfig::default()).unwrap();
        assert!(sat.is_satisfying());
    }

    #[test]
    fn fd_only_satisfaction_is_weaker_than_full() {
        // A state can satisfy F alone but violate F ∪ {*D}: the join
        // dependency reassembles tuples that then break an FD.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> C"]).unwrap();
        let mut p = DatabaseState::empty(&schema);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        p.insert(SchemeId(1), vec![v(2), v(3)]).unwrap();
        p.insert(SchemeId(1), vec![v(2), v(4)]).unwrap();
        // FD-only: A→C never fires (A and C never co-occur in a padded row
        // with shared symbols) — satisfying.
        assert!(satisfies_fds_only(&schema, &fds, &p).is_satisfying());
        // With *D the two mixes (1,2,3), (1,2,4) violate A→C.
        let sat = satisfies(&schema, &fds, &p, &ChaseConfig::default()).unwrap();
        assert!(!sat.is_satisfying());
    }
}

//! Local satisfaction (`LSAT`).
//!
//! The constraints `Σi` implied for a single scheme `Ri` are defined
//! semantically: `ri` satisfies `Σi` iff the state `{∅, .., ri, .., ∅}`
//! satisfies `Σ` (paper, footnote 1).  That makes local satisfaction
//! directly testable with the same chase as global satisfaction, run on a
//! one-relation state.

use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState, Relation, SchemeId};

use crate::engine::{ChaseConfig, ChaseError};
use crate::weak_instance::satisfies;

/// Tests whether a single relation satisfies its implied constraints `Σi`.
pub(crate) fn relation_locally_satisfies(
    schema: &DatabaseSchema,
    fds: &FdSet,
    id: SchemeId,
    rel: &Relation,
    config: &ChaseConfig,
) -> Result<bool, ChaseError> {
    let mut lone = DatabaseState::empty(schema);
    for t in rel.iter() {
        lone.insert(id, t.to_vec()).expect("same scheme");
    }
    Ok(satisfies(schema, fds, &lone, config)?.is_satisfying())
}

/// Tests `state ∈ LSAT(D, Σ)`: every relation individually consistent.
pub fn locally_satisfies(
    schema: &DatabaseSchema,
    fds: &FdSet,
    state: &DatabaseState,
    config: &ChaseConfig,
) -> Result<bool, ChaseError> {
    for (id, rel) in state.iter() {
        if !relation_locally_satisfies(schema, fds, id, rel, config)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::{Universe, Value};

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn setup() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T", "H", "R"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "TH -> R"]).unwrap();
        (schema, fds)
    }

    #[test]
    fn implied_fd_ch_to_r_caught_locally() {
        // C→T, TH→R imply CH→R on CHR.  A CHR relation violating CH→R is
        // locally inconsistent even though no *given* FD is embedded whole.
        let (schema, fds, id) = {
            let (s, f) = setup();
            let id = s.scheme_by_name("CHR").unwrap();
            (s, f, id)
        };
        let mut rel = Relation::new(schema.attrs(id));
        rel.insert(vec![v(1), v(2), v(3)]).unwrap();
        rel.insert(vec![v(1), v(2), v(4)]).unwrap(); // same C,H, different R
        assert!(
            !relation_locally_satisfies(&schema, &fds, id, &rel, &ChaseConfig::default()).unwrap()
        );
    }

    #[test]
    fn consistent_relation_locally_satisfies() {
        let (schema, fds) = setup();
        let id = schema.scheme_by_name("CHR").unwrap();
        let mut rel = Relation::new(schema.attrs(id));
        rel.insert(vec![v(1), v(2), v(3)]).unwrap();
        rel.insert(vec![v(1), v(5), v(6)]).unwrap();
        assert!(
            relation_locally_satisfies(&schema, &fds, id, &rel, &ChaseConfig::default()).unwrap()
        );
    }

    #[test]
    fn lsat_is_weaker_than_wsat() {
        // Example 1 shape: locally satisfying, globally not.
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let mut p = DatabaseState::empty(&schema);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        p.insert(SchemeId(1), vec![v(1), v(3)]).unwrap();
        p.insert(SchemeId(2), vec![v(4), v(3)]).unwrap();
        let cfg = ChaseConfig::default();
        assert!(locally_satisfies(&schema, &fds, &p, &cfg).unwrap());
        assert!(!satisfies(&schema, &fds, &p, &cfg).unwrap().is_satisfying());
    }
}

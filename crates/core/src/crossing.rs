//! Lemma 7: cross-component derivations.
//!
//! Lemma 7 states that `D` is not independent whenever some FD embedded in
//! `Ri` has a nonredundant derivation using an FD from another `Fj`.  The
//! proof reduces any such derivation to one of `Ri − A → A` that uses **no**
//! FD of `Fi` at all, which yields the polynomial detection criterion
//! implemented here:
//!
//! ```text
//! ∃ Ri ∈ D, A ∈ Ri :  A ∈ cl_{F ∖ Fi}(Ri − A)
//! ```
//!
//! The corollary follows: if `Fi` fails to cover `F⁺|Ri` for some `i`, a
//! crossing derivation exists and `D` is not independent.

use ids_deps::{closure_of, derive, Derivation, Fd, FdSet};
use ids_relational::{AttrId, AttrSet, DatabaseSchema, SchemeId};

/// A detected crossing derivation: `Ri − A → A` derivable entirely from
/// FDs outside `Fi`.
#[derive(Clone, Debug)]
pub struct CrossingDerivation {
    /// The scheme `Ri` the derived FD is embedded in.
    pub scheme: SchemeId,
    /// The derived attribute `A ∈ Ri`.
    pub attr: AttrId,
    /// A nonredundant derivation of `Ri − A → A` from `F ∖ Fi`.
    pub derivation: Derivation,
    /// Home scheme of each derivation step (the `Fj` its FD belongs to).
    pub step_homes: Vec<SchemeId>,
}

/// Searches for a crossing derivation given the per-scheme partition
/// `F = ∪ Fi`.  Returns the first one found (deterministic order).
pub fn find_crossing(schema: &DatabaseSchema, partition: &[FdSet]) -> Option<CrossingDerivation> {
    debug_assert_eq!(partition.len(), schema.len());
    for (id, scheme) in schema.iter() {
        // FDs outside Fi, with their home schemes.
        let mut others: Vec<Fd> = Vec::new();
        let mut homes: Vec<SchemeId> = Vec::new();
        for (jd, fj) in schema.ids().zip(partition.iter()) {
            if jd == id {
                continue;
            }
            for fd in fj.iter() {
                others.push(*fd);
                homes.push(jd);
            }
        }
        if others.is_empty() {
            continue;
        }
        for a in scheme.attrs {
            let mut x = scheme.attrs;
            x.remove(a);
            if !closure_of(&others, x).contains(a) {
                continue;
            }
            let derivation = derive(&others, x, a).expect("closure said A is derivable");
            let step_homes = derivation
                .steps
                .iter()
                .map(|(idx, _)| homes[*idx])
                .collect();
            return Some(CrossingDerivation {
                scheme: id,
                attr: a,
                derivation,
                step_homes,
            });
        }
    }
    None
}

/// All attributes of `x` as a set difference helper (tiny utility shared
/// with the witness builder).
pub fn without(x: AttrSet, a: AttrId) -> AttrSet {
    let mut y = x;
    y.remove(a);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_deps::partition_embedded;
    use ids_relational::Universe;

    /// Example 1 of the paper: CD, CT, TD with C→D, C→T, T→D.
    fn example1() -> (DatabaseSchema, Vec<FdSet>) {
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let partition = partition_embedded(&fds, &schema.join_dependency_components()).unwrap();
        (schema, partition)
    }

    #[test]
    fn example1_has_crossing_derivation() {
        // C→T (in CT) and T→D (in TD) derive C→D, embedded in CD but using
        // FDs outside F_CD: the "two functions from courses to departments".
        let (schema, partition) = example1();
        let crossing = find_crossing(&schema, &partition).expect("must cross");
        let cd = schema.scheme_by_name("CD").unwrap();
        assert_eq!(crossing.scheme, cd);
        assert_eq!(crossing.attr, schema.universe().attr("D").unwrap());
        assert_eq!(crossing.derivation.steps.len(), 2);
        assert!(crossing.derivation.is_nonredundant());
    }

    #[test]
    fn independent_example_has_no_crossing() {
        let u = Universe::from_names(["C", "T", "H", "R", "S"]).unwrap();
        let schema =
            DatabaseSchema::parse(u, &[("CT", "CT"), ("CS", "CS"), ("CHR", "CHR")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T", "CH -> R"]).unwrap();
        let partition = partition_embedded(&fds, &schema.join_dependency_components()).unwrap();
        assert!(find_crossing(&schema, &partition).is_none());
    }

    #[test]
    fn duplicate_schemes_with_shared_fd_cross() {
        // The footnote case: an FD embedded in two schemes, assigned to one
        // — the other scheme sees a crossing derivation (single step).
        let u = Universe::from_names(["A", "B"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("R1", "AB"), ("R2", "AB")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> B"]).unwrap();
        let partition = partition_embedded(&fds, &schema.join_dependency_components()).unwrap();
        // A→B lives in F1; R2 sees it as crossing.
        let crossing = find_crossing(&schema, &partition).expect("must cross");
        assert_eq!(crossing.scheme, schema.scheme_by_name("R2").unwrap());
        assert_eq!(crossing.derivation.steps.len(), 1);
    }

    #[test]
    fn crossing_requires_derivability() {
        // FDs in separate components with no chain: no crossing.
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("AB", "AB"), ("CD", "CD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> B", "C -> D"]).unwrap();
        let partition = partition_embedded(&fds, &schema.join_dependency_components()).unwrap();
        assert!(find_crossing(&schema, &partition).is_none());
    }
}

//! Dependency implication via the chase.
//!
//! * [`fd_implied_explicit`] — the textbook two-row chase deciding
//!   `F ∪ J ⊨ X → A` for FDs `F` and arbitrary JDs `J`.  Exponential in the
//!   worst case; serves as ground truth for the polynomial block-closure of
//!   `ids-deps::closure_with_jd` (single-JD case).
//! * [`jd_implied_by_fds`] — the Aho–Beeri–Ullman tableau test deciding
//!   whether a set of FDs implies a join dependency (lossless join).

use ids_deps::{Fd, FdSet, JoinDependency};
use ids_relational::AttrId;

use crate::engine::{ChaseConfig, ChaseError, ChaseInstance};
use crate::symbol::SymId;

/// Decides `fds ∪ jds ⊨ target` by chasing the two-row tableau whose rows
/// agree exactly on `target.lhs`.
///
/// `width` is `|U|`.  All symbols are variables, so the FD-rule can never
/// find a contradiction; the JD-rule may exhaust the row budget, reported
/// as an error.
pub fn fd_implied_explicit(
    fds: &[Fd],
    jds: &[JoinDependency],
    target: Fd,
    width: usize,
    config: &ChaseConfig,
) -> Result<bool, ChaseError> {
    if target.rhs.is_empty() {
        return Ok(true); // trivial
    }
    let mut inst = ChaseInstance::new(width);
    let mut u_row: Vec<SymId> = Vec::with_capacity(width);
    let mut v_row: Vec<SymId> = Vec::with_capacity(width);
    for col in 0..width {
        let s = inst.fresh_var();
        u_row.push(s);
        if target.lhs.contains(AttrId::from_index(col)) {
            v_row.push(s);
        } else {
            v_row.push(inst.fresh_var());
        }
    }
    let (u_syms, v_syms) = (u_row.clone(), v_row.clone());
    inst.add_raw_row(u_row);
    inst.add_raw_row(v_row);

    let agree = |inst: &mut ChaseInstance| -> bool {
        target
            .rhs
            .iter()
            .all(|a| inst.resolve_sym(u_syms[a.index()]) == inst.resolve_sym(v_syms[a.index()]))
    };

    for _ in 0..config.max_passes {
        inst.fd_fixpoint(fds)
            .expect("no constants, no contradiction");
        if agree(&mut inst) {
            return Ok(true);
        }
        let mut any_added = false;
        for jd in jds {
            if inst.jd_round(jd, config)? {
                any_added = true;
            }
        }
        if !any_added {
            // One more FD pass in case the final JD round enabled firings.
            inst.fd_fixpoint(fds)
                .expect("no constants, no contradiction");
            return Ok(agree(&mut inst));
        }
    }
    Err(ChaseError::PassBudget {
        limit: config.max_passes,
    })
}

/// Decides `fds ⊨ *[S1..Sn]` (Aho–Beeri–Ullman): chase the tableau with one
/// row per component — distinguished variables on `Si`, fresh elsewhere —
/// and accept iff some row becomes all-distinguished.
pub fn jd_implied_by_fds(fds: &FdSet, jd: &JoinDependency, width: usize) -> bool {
    let mut inst = ChaseInstance::new(width);
    // One distinguished variable per column.
    let dvs: Vec<SymId> = (0..width).map(|_| inst.fresh_var()).collect();
    for comp in jd.components() {
        let mut row = Vec::with_capacity(width);
        for (col, dv) in dvs.iter().enumerate() {
            if comp.contains(AttrId::from_index(col)) {
                row.push(*dv);
            } else {
                row.push(inst.fresh_var());
            }
        }
        inst.add_raw_row(row);
    }
    inst.fd_fixpoint(fds.as_slice())
        .expect("no constants, no contradiction");
    let dv_roots: Vec<SymId> = dvs.iter().map(|s| inst.resolve_sym(*s)).collect();
    (0..inst.row_count()).any(|r| (0..width).all(|c| inst.resolved(r, c) == dv_roots[c]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_deps::closure_with_jd;
    use ids_relational::Universe;

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn plain_fd_implication_matches_closure() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let f = FdSet::parse(&u, &["A -> B", "B -> C"]).unwrap();
        let yes = Fd::parse(&u, "A -> C").unwrap();
        let no = Fd::parse(&u, "C -> A").unwrap();
        assert!(fd_implied_explicit(f.as_slice(), &[], yes, 4, &cfg()).unwrap());
        assert!(!fd_implied_explicit(f.as_slice(), &[], no, 4, &cfg()).unwrap());
    }

    #[test]
    fn jd_enables_new_fd_inference() {
        // *[AB, BC] + A→C ⊨ B→C but not B→A (cf. jd_closure tests).
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let jd = JoinDependency::new([u.parse_set("AB").unwrap(), u.parse_set("BC").unwrap()]);
        let f = FdSet::parse(&u, &["A -> C"]).unwrap();
        assert!(fd_implied_explicit(
            f.as_slice(),
            std::slice::from_ref(&jd),
            Fd::parse(&u, "B -> C").unwrap(),
            3,
            &cfg()
        )
        .unwrap());
        assert!(!fd_implied_explicit(
            f.as_slice(),
            std::slice::from_ref(&jd),
            Fd::parse(&u, "B -> A").unwrap(),
            3,
            &cfg()
        )
        .unwrap());
    }

    #[test]
    fn explicit_chase_agrees_with_block_closure() {
        // Cross-validation of the [MSY] block-closure on a cyclic JD.
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let jd = JoinDependency::new([
            u.parse_set("AB").unwrap(),
            u.parse_set("BC").unwrap(),
            u.parse_set("CD").unwrap(),
            u.parse_set("DA").unwrap(),
        ]);
        let f = FdSet::parse(&u, &["A -> C", "B -> D"]).unwrap();
        for lhs_spec in ["A", "B", "AB", "AC", "D", "BD"] {
            let lhs = u.parse_set(lhs_spec).unwrap();
            let cl = closure_with_jd(f.as_slice(), &jd, lhs);
            for a in u.all() {
                let target = Fd::new(lhs, ids_relational::AttrSet::singleton(a));
                let explicit =
                    fd_implied_explicit(f.as_slice(), std::slice::from_ref(&jd), target, 4, &cfg())
                        .unwrap();
                assert_eq!(
                    explicit,
                    cl.contains(a),
                    "mismatch at lhs={lhs_spec}, attr={}",
                    u.name(a)
                );
            }
        }
    }

    #[test]
    fn abu_lossless_join_test() {
        let u = Universe::from_names(["C", "T", "H", "R"]).unwrap();
        let f = FdSet::parse(&u, &["C -> T"]).unwrap();
        // {CT, CHR} is lossless: C→T makes C a key of the overlap.
        let jd = JoinDependency::new([u.parse_set("CT").unwrap(), u.parse_set("CHR").unwrap()]);
        assert!(jd_implied_by_fds(&f, &jd, 4));
        // {TH, CHR} is lossy: overlap H determines neither side.
        let lossy = JoinDependency::new([u.parse_set("TH").unwrap(), u.parse_set("CHR").unwrap()]);
        assert!(!jd_implied_by_fds(&f, &lossy, 4));
    }

    #[test]
    fn binary_lossless_agrees_with_abu() {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let f = FdSet::parse(&u, &["B -> C"]).unwrap();
        let r1 = u.parse_set("AB").unwrap();
        let r2 = u.parse_set("BC").unwrap();
        assert!(jd_implied_by_fds(&f, &JoinDependency::new([r1, r2]), 3));
        let g = FdSet::new();
        assert!(!jd_implied_by_fds(&g, &JoinDependency::new([r1, r2]), 3));
    }

    #[test]
    fn trivial_jd_always_implied() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let jd = JoinDependency::new([u.all()]);
        assert!(jd_implied_by_fds(&FdSet::new(), &jd, 2));
    }
}

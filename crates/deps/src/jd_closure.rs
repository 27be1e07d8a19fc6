//! FD inference from FDs plus a single join dependency — the \[MSY\]
//! primitive needed by Section 3 of the paper.
//!
//! Section 3's cover-embedding test computes attribute closures under
//! `Σ = F ∪ {*D}`.  The paper delegates to Maier–Sagiv–Yannakakis ("On the
//! complexity of testing implications of functional and join dependencies",
//! JACM 1981) for a polynomial algorithm.  For a *single* JD the two-row
//! chase admits a compact characterization which we implement here:
//!
//! Consider chasing the two-row tableau for `X → A` (rows agree exactly on
//! `X`) with `F ∪ {*D}`.  Every symbol in every generated row originates in
//! one of the two initial rows, so a row is described by its *u-part*
//! `W = {B : t[B] = u[B]}` relative to the current agreement set
//! `E = {B : u[B] = v[B]}`.  Define the **blocks** of `E` as the connected
//! components of the hypergraph `{S − E : S ∈ D}` on `U − E`.  Then:
//!
//! 1. every reachable row has `W = E ∪ (union of blocks)`, and every such
//!    union is reachable in one JD step (each component's non-`E` part lies
//!    entirely inside one block, so sources can be chosen per block); and
//! 2. an FD `Y → B` of `F` can merge the two symbols of column `B`
//!    (`B` joins `E`) iff some pair of reachable rows agrees on `Y` and
//!    differs at `B`, which happens iff `(Y − E)` is disjoint from the block
//!    containing `B`.
//!
//! Iterating (2) until fixpoint yields `cl_Σ(X)` in `O(|U| · (|D|·|U| +
//! |F|))` per round, `≤ |U|` rounds.  The test suite cross-validates this
//! closure against an explicit (exponential) FD+JD chase in `ids-chase` and
//! against Lemma 1 of the paper (for embedded FDs the JD adds no FD power).

use ids_relational::{AttrId, AttrSet};

use crate::fd::Fd;
use crate::jd::JoinDependency;

/// Computes the blocks of `U − e` w.r.t. the JD's components: connected
/// components of the hypergraph `{S − e : S ∈ D}`.
///
/// Attributes of `U − e` not mentioned by any component (impossible for a
/// schema JD, which covers `U`) form singleton blocks.
pub fn jd_blocks(jd: &JoinDependency, e: AttrSet) -> Vec<AttrSet> {
    let universe = jd.attrs();
    let free = universe.difference(e);
    // Union-find over attribute ids.
    let mut parent: Vec<u16> = (0..ids_relational::MAX_ATTRS as u16).collect();
    fn find(parent: &mut [u16], i: u16) -> u16 {
        let mut root = i;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = i;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for comp in jd.components() {
        let live = comp.difference(e);
        let mut iter = live.iter();
        let Some(first) = iter.next() else { continue };
        let r0 = find(&mut parent, first.0);
        for a in iter {
            let r = find(&mut parent, a.0);
            parent[r as usize] = r0;
        }
    }
    let mut blocks: Vec<(u16, AttrSet)> = Vec::new();
    for a in free {
        let root = find(&mut parent, a.0);
        match blocks.iter_mut().find(|(r, _)| *r == root) {
            Some((_, set)) => {
                set.insert(a);
            }
            None => blocks.push((root, AttrSet::singleton(a))),
        }
    }
    blocks.into_iter().map(|(_, s)| s).collect()
}

/// The closure `cl_Σ(x)` of `x` under `Σ = fds ∪ {jd}`: all attributes `A`
/// with `Σ ⊨ X → A`.
pub fn closure_with_jd(fds: &[Fd], jd: &JoinDependency, x: AttrSet) -> AttrSet {
    let mut e = x;
    loop {
        let blocks = jd_blocks(jd, e);
        let block_containing = |b: AttrId| blocks.iter().copied().find(|blk| blk.contains(b));
        let mut changed = false;
        for fd in fds {
            let pending = fd.rhs.difference(e);
            if pending.is_empty() {
                continue;
            }
            let live_lhs = fd.lhs.difference(e);
            for b in pending {
                let Some(blk) = block_containing(b) else {
                    // b outside every component: unreachable for schema JDs.
                    continue;
                };
                // The FD can fire between two reachable rows that agree on
                // `Y` and differ at `b` iff (Y − E) avoids b's block.
                if live_lhs.is_disjoint(blk) {
                    e.insert(b);
                    changed = true;
                }
            }
        }
        if !changed {
            return e;
        }
    }
}

/// True when `Σ = fds ∪ {jd}` implies the FD `fd`.
pub fn implies_with_jd(fds: &[Fd], jd: &JoinDependency, fd: Fd) -> bool {
    fd.rhs.is_subset(closure_with_jd(fds, jd, fd.lhs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdset::FdSet;
    use ids_relational::Universe;

    fn universe() -> Universe {
        Universe::from_names(["A", "B", "C", "D", "E"]).unwrap()
    }

    fn jd(u: &Universe, comps: &[&str]) -> JoinDependency {
        JoinDependency::new(comps.iter().map(|c| u.parse_set(c).unwrap()))
    }

    #[test]
    fn blocks_are_connected_components() {
        let u = universe();
        let j = jd(&u, &["AB", "BC", "DE"]);
        let e = AttrSet::EMPTY;
        let mut blocks = jd_blocks(&j, e);
        blocks.sort();
        assert_eq!(blocks.len(), 2);
        assert_eq!(u.render(blocks[0]), "ABC");
        assert_eq!(u.render(blocks[1]), "DE");
    }

    #[test]
    fn blocks_split_when_agreement_grows() {
        let u = universe();
        let j = jd(&u, &["AB", "BC", "DE"]);
        let e = u.parse_set("B").unwrap();
        let mut blocks = jd_blocks(&j, e);
        blocks.sort();
        // Removing B disconnects A from C.
        assert_eq!(blocks.len(), 3);
        assert_eq!(u.render(blocks[0]), "A");
        assert_eq!(u.render(blocks[1]), "C");
        assert_eq!(u.render(blocks[2]), "DE");
    }

    #[test]
    fn classic_mvd_fd_interaction() {
        // *[AB, BC] gives B →→ A|C; with A → C this implies B → C
        // (the standard mixed MVD/FD inference the JD makes possible).
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let j = jd(&u, &["AB", "BC"]);
        let f = FdSet::parse(&u, &["A -> C"]).unwrap();
        let cl = closure_with_jd(f.as_slice(), &j, u.parse_set("B").unwrap());
        assert_eq!(u.render(cl), "BC");
        assert!(implies_with_jd(
            f.as_slice(),
            &j,
            Fd::parse(&u, "B -> C").unwrap()
        ));
        // ...but not B → A.
        assert!(!implies_with_jd(
            f.as_slice(),
            &j,
            Fd::parse(&u, "B -> A").unwrap()
        ));
    }

    #[test]
    fn lemma_1_embedded_fds_gain_nothing() {
        // Lemma 1: for FDs embedded in D, F ⊨ f iff F ∪ {*D} ⊨ f.
        let u = universe();
        let j = jd(&u, &["ABC", "CDE"]);
        let f = FdSet::parse(&u, &["A -> B", "C -> D"]).unwrap(); // embedded
        for x in [
            u.parse_set("A").unwrap(),
            u.parse_set("C").unwrap(),
            u.parse_set("AC").unwrap(),
            u.parse_set("E").unwrap(),
        ] {
            assert_eq!(closure_with_jd(f.as_slice(), &j, x), f.closure(x));
        }
    }

    #[test]
    fn closure_with_jd_is_extensive_and_contains_fd_closure() {
        let u = universe();
        let j = jd(&u, &["AB", "BC", "CD", "DE"]);
        let f = FdSet::parse(&u, &["A -> E", "B -> D"]).unwrap(); // not embedded
        let x = u.parse_set("B").unwrap();
        let cl = closure_with_jd(f.as_slice(), &j, x);
        assert!(x.is_subset(cl));
        assert!(f.closure(x).is_subset(cl));
    }

    #[test]
    fn cascading_rounds() {
        // Firing one FD must re-split blocks and enable the next.
        // *[AB, BC]: B →→ A|C. With A→C derive B→C; then with C→...
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let j = jd(&u, &["AB", "BCD"]);
        let f = FdSet::parse(&u, &["A -> C", "C -> D"]).unwrap();
        // B: block(C) = {A? no: components minus B: {A}, {C,D}} wait A,B in AB.
        let cl = closure_with_jd(f.as_slice(), &j, u.parse_set("B").unwrap());
        // Round 1: blocks of U−B: {A} (from AB), {C,D} (from BCD) — A→C has
        // live lhs {A}, disjoint from block {C,D} ∋ C ⇒ B→C. Then C→D fires
        // inside E-extension: after C ∈ E, blocks {A},{D}; lhs {C}−E = ∅ ⇒ D.
        assert_eq!(u.render(cl), "BCD");
    }

    #[test]
    fn single_component_jd_adds_nothing() {
        // *[U] is the trivial JD: closure must equal the plain FD closure.
        let u = universe();
        let j = jd(&u, &["ABCDE"]);
        let f = FdSet::parse(&u, &["A -> B", "C -> D"]).unwrap();
        for spec in ["A", "C", "AC", "B"] {
            let x = u.parse_set(spec).unwrap();
            assert_eq!(closure_with_jd(f.as_slice(), &j, x), f.closure(x));
        }
    }
}

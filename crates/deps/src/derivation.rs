//! FD derivations.
//!
//! A *derivation* of `X → A` from `F` is a sequence `f1, .., fn` of FDs of
//! `F` such that each `fi`'s left-hand side is contained in `X` plus the
//! right-hand sides of earlier steps, and `fn`'s right-hand side is `A`
//! (paper, Section 4).  A derivation is *nonredundant* when no step can be
//! deleted.  Lemma 7 builds non-independence witnesses directly from
//! nonredundant derivations, so the construction here is load-bearing for
//! witness generation.

use ids_relational::{AttrSet, Universe};

use crate::fd::Fd;
use crate::fdset::closure_of;

/// A derivation of `target` from an FD list, as indexes into that list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// The derived dependency `X → A` (single-attribute rhs).
    pub target: Fd,
    /// The steps, in firing order, as `(index, fd)` pairs over the source
    /// list supplied to [`derive()`].
    pub steps: Vec<(usize, Fd)>,
}

impl Derivation {
    /// True when the sequence is a valid derivation of `target`.
    fn is_valid(&self) -> bool {
        let mut have = self.target.lhs;
        for (_, fd) in &self.steps {
            if !fd.lhs.is_subset(have) {
                return false;
            }
            have.union_in_place(fd.rhs);
        }
        self.target.rhs.is_subset(have)
    }

    /// True when no step can be removed while keeping a valid derivation.
    pub fn is_nonredundant(&self) -> bool {
        (0..self.steps.len()).all(|i| {
            let mut pruned = self.clone();
            pruned.steps.remove(i);
            !pruned.is_valid()
        })
    }

    /// Renders the steps with a universe's names.
    pub fn render(&self, universe: &Universe) -> String {
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|(_, fd)| fd.render(universe))
            .collect();
        format!(
            "{} via [{}]",
            self.target.render(universe),
            steps.join("; ")
        )
    }
}

/// Derives `x → a` from `fds` when possible, returning a **nonredundant**
/// derivation.
///
/// The closure of `x` is computed recording which FD first contributed each
/// attribute; the firing sequence is then pruned greedily (earliest-first)
/// until no step is removable.
pub fn derive(fds: &[Fd], x: AttrSet, a: ids_relational::AttrId) -> Option<Derivation> {
    let target = Fd::new(x, AttrSet::singleton(a));
    if target.is_trivial() {
        return None; // a ∈ x: nothing to derive
    }
    if !AttrSet::singleton(a).is_subset(closure_of(fds, x)) {
        return None;
    }

    // Record the firing order during a closure run.
    let mut have = x;
    let mut fired: Vec<(usize, Fd)> = Vec::new();
    let mut used = vec![false; fds.len()];
    let mut changed = true;
    while changed && !have.contains(a) {
        changed = false;
        for (i, fd) in fds.iter().enumerate() {
            if !used[i] && fd.lhs.is_subset(have) {
                used[i] = true;
                fired.push((i, *fd));
                if have.union_in_place(fd.rhs) {
                    changed = true;
                }
                if have.contains(a) {
                    break;
                }
            }
        }
    }
    debug_assert!(have.contains(a));

    let mut d = Derivation {
        target,
        steps: fired,
    };
    // Greedy pruning to nonredundancy; iterate until a fixpoint because
    // removing a later step can make an earlier one removable.
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < d.steps.len() {
            let mut candidate = d.clone();
            candidate.steps.remove(i);
            if candidate.is_valid() {
                d = candidate;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    debug_assert!(d.is_valid() && d.is_nonredundant());
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdset::FdSet;

    fn setup() -> (Universe, FdSet) {
        let u = Universe::from_names(["A", "B", "C", "D", "E"]).unwrap();
        let f = FdSet::parse(&u, &["A -> B", "B -> C", "C -> D", "A -> D"]).unwrap();
        (u, f)
    }

    #[test]
    fn derive_finds_chain() {
        let (u, f) = setup();
        let x = u.parse_set("B").unwrap();
        let d = derive(f.as_slice(), x, u.attr("D").unwrap()).unwrap();
        assert!(d.is_valid());
        assert!(d.is_nonredundant());
        // B → D must go through B→C, C→D (A→D unusable: A not derivable).
        assert_eq!(d.steps.len(), 2);
    }

    #[test]
    fn derive_prefers_pruned_sequences() {
        let (u, f) = setup();
        let x = u.parse_set("A").unwrap();
        let d = derive(f.as_slice(), x, u.attr("D").unwrap()).unwrap();
        assert!(d.is_nonredundant());
        // Either the direct A→D or the chain is acceptable, but the greedy
        // pruner must not keep both.
        assert!(d.steps.len() == 1 || d.steps.len() == 3);
    }

    #[test]
    fn underivable_returns_none() {
        let (u, f) = setup();
        let x = u.parse_set("D").unwrap();
        assert!(derive(f.as_slice(), x, u.attr("A").unwrap()).is_none());
    }

    #[test]
    fn trivial_target_returns_none() {
        let (u, f) = setup();
        let x = u.parse_set("AD").unwrap();
        assert!(derive(f.as_slice(), x, u.attr("A").unwrap()).is_none());
    }

    #[test]
    fn validity_detects_broken_sequences() {
        let (u, f) = setup();
        let fd_bc = *f.iter().nth(1).unwrap(); // B -> C
        let bad = Derivation {
            target: Fd::parse(&u, "E -> C").unwrap(),
            steps: vec![(1, fd_bc)],
        };
        assert!(!bad.is_valid());
    }
}

//! Sets of functional dependencies and attribute-set closures.

use ids_relational::{AttrSet, RelationalError, Universe};

use crate::fd::Fd;

/// An ordered set of functional dependencies.
///
/// Order is preserved (deterministic algorithms and reproducible traces);
/// duplicates are dropped.  Trivial FDs are kept out of the set — they carry
/// no information and would create degenerate left-hand sides in the
/// Section 4 algorithm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from FDs, normalizing and dropping trivial/duplicate
    /// entries.
    pub fn from_fds(fds: impl IntoIterator<Item = Fd>) -> Self {
        let mut s = Self::new();
        for fd in fds {
            s.insert(fd);
        }
        s
    }

    /// Parses a list of `"X -> Y"` specs.
    pub fn parse(universe: &Universe, specs: &[&str]) -> Result<Self, RelationalError> {
        let mut s = Self::new();
        for spec in specs {
            s.insert(Fd::parse(universe, spec)?);
        }
        Ok(s)
    }

    /// Inserts an FD; returns `true` when it was added (nontrivial and not
    /// already present).
    pub fn insert(&mut self, fd: Fd) -> bool {
        if fd.is_trivial() || self.fds.contains(&fd) {
            return false;
        }
        self.fds.push(fd);
        true
    }

    /// Number of FDs.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Iterates in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Fd> {
        self.fds.iter()
    }

    /// The FDs as a slice.
    pub fn as_slice(&self) -> &[Fd] {
        &self.fds
    }

    /// All attributes mentioned by any FD.
    pub fn attrs(&self) -> AttrSet {
        self.fds
            .iter()
            .fold(AttrSet::EMPTY, |acc, fd| acc.union(fd.attrs()))
    }

    /// The closure `X⁺` of `x` under this FD set (Armstrong).
    ///
    /// Standard fixpoint with used-flags; `O(|F|²)` worst case, linear in
    /// practice.
    pub fn closure(&self, x: AttrSet) -> AttrSet {
        closure_of(&self.fds, x)
    }

    /// True when this set implies `fd` (membership test via closure).
    pub fn implies(&self, fd: Fd) -> bool {
        fd.rhs.is_subset(self.closure(fd.lhs))
    }

    /// True when this set implies every FD of `other`.
    pub fn implies_all(&self, other: &FdSet) -> bool {
        other.iter().all(|fd| self.implies(*fd))
    }

    /// True when the two sets are equivalent (mutual implication): they are
    /// covers of each other.
    pub fn equivalent(&self, other: &FdSet) -> bool {
        self.implies_all(other) && other.implies_all(self)
    }

    /// The subset of FDs embedded in scheme `r`.
    pub fn embedded_in(&self, r: AttrSet) -> FdSet {
        FdSet::from_fds(self.fds.iter().copied().filter(|fd| fd.embedded_in(r)))
    }

    /// Splits every FD into single-attribute right-hand sides.
    pub fn split(&self) -> FdSet {
        FdSet::from_fds(self.fds.iter().flat_map(|fd| fd.split()))
    }

    /// Renders one FD per line.
    pub fn render(&self, universe: &Universe) -> String {
        self.fds
            .iter()
            .map(|fd| fd.render(universe))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Serializes the set: `u32` count + per FD its lhs and rhs
    /// attribute sets, in insertion order.
    pub fn encode(&self, e: &mut ids_relational::codec::Encoder) {
        e.put_u32(self.fds.len() as u32);
        for fd in &self.fds {
            e.put_attr_set(fd.lhs);
            e.put_attr_set(fd.rhs);
        }
    }

    /// Deserializes a set written by [`FdSet::encode`], re-normalizing
    /// each FD (so arbitrary bytes cannot smuggle in trivial or
    /// duplicate entries).
    pub fn decode(d: &mut ids_relational::codec::Decoder<'_>) -> Result<Self, RelationalError> {
        let n = d.get_u32()? as usize;
        let mut set = FdSet::new();
        for _ in 0..n {
            let lhs = d.get_attr_set()?;
            let rhs = d.get_attr_set()?;
            set.insert(Fd::new(lhs, rhs));
        }
        Ok(set)
    }

    /// True when the two sets hold exactly the same FDs, order
    /// ignored — the *syntactic* comparison durability layers use to
    /// detect a log written under different dependencies (cheap, and
    /// stricter than [`FdSet::equivalent`] on purpose: a semantically
    /// equivalent but rewritten `F` still changes the enforcement
    /// covers an operator reasons about).
    pub fn same_fds(&self, other: &FdSet) -> bool {
        self.fds.len() == other.fds.len() && self.fds.iter().all(|fd| other.fds.contains(fd))
    }
}

impl FromIterator<Fd> for FdSet {
    fn from_iter<T: IntoIterator<Item = Fd>>(iter: T) -> Self {
        Self::from_fds(iter)
    }
}

impl<'a> IntoIterator for &'a FdSet {
    type Item = &'a Fd;
    type IntoIter = std::slice::Iter<'a, Fd>;
    fn into_iter(self) -> Self::IntoIter {
        self.fds.iter()
    }
}

/// Closure of `x` under a raw FD slice (shared by [`FdSet::closure`] and the
/// derivation machinery, which works on filtered slices).
pub fn closure_of(fds: &[Fd], x: AttrSet) -> AttrSet {
    let mut closed = x;
    let mut used = vec![false; fds.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for (i, fd) in fds.iter().enumerate() {
            if !used[i] && fd.lhs.is_subset(closed) {
                used[i] = true;
                if closed.union_in_place(fd.rhs) {
                    changed = true;
                }
            }
        }
    }
    closed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u() -> Universe {
        Universe::from_names(["C", "T", "H", "R", "S"]).unwrap()
    }

    #[test]
    fn closure_basic() {
        let u = u();
        let f = FdSet::parse(&u, &["C -> T", "TH -> R"]).unwrap();
        let ch = u.parse_set("CH").unwrap();
        // CH⁺ = CHTR (the paper's "C→T, TH→R imply CH→R").
        assert_eq!(u.render(f.closure(ch)), "CTHR");
        assert!(f.implies(Fd::parse(&u, "CH -> R").unwrap()));
        assert!(!f.implies(Fd::parse(&u, "H -> R").unwrap()));
    }

    #[test]
    fn closure_is_extensive_monotone_idempotent() {
        let u = u();
        let f = FdSet::parse(&u, &["C -> T", "T -> H", "CH -> R"]).unwrap();
        let x = u.parse_set("C").unwrap();
        let y = u.parse_set("CS").unwrap();
        let cx = f.closure(x);
        assert!(x.is_subset(cx)); // extensive
        assert!(cx.is_subset(f.closure(y))); // monotone
        assert_eq!(f.closure(cx), cx); // idempotent
    }

    #[test]
    fn trivial_and_duplicate_fds_dropped() {
        let u = u();
        let mut f = FdSet::new();
        assert!(f.insert(Fd::parse(&u, "C -> T").unwrap()));
        assert!(!f.insert(Fd::parse(&u, "C -> T").unwrap()));
        assert!(!f.insert(Fd::parse(&u, "CT -> T").unwrap()));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn equivalence_of_covers() {
        let u = u();
        let f1 = FdSet::parse(&u, &["C -> T", "C -> H"]).unwrap();
        let f2 = FdSet::parse(&u, &["C -> TH"]).unwrap();
        assert!(f1.equivalent(&f2));
        let f3 = FdSet::parse(&u, &["C -> T"]).unwrap();
        assert!(!f1.equivalent(&f3));
        assert!(f1.implies_all(&f3));
        assert!(!f3.implies_all(&f1));
    }

    #[test]
    fn embedded_filter() {
        let u = u();
        let f = FdSet::parse(&u, &["C -> T", "TH -> R", "S -> C"]).unwrap();
        let r = u.parse_set("CTS").unwrap();
        let e = f.embedded_in(r);
        assert_eq!(e.len(), 2);
        assert!(e.implies(Fd::parse(&u, "S -> T").unwrap()));
    }

    #[test]
    fn split_produces_single_rhs() {
        let u = u();
        let f = FdSet::parse(&u, &["C -> TH", "S -> C"]).unwrap();
        let s = f.split();
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|fd| fd.rhs.len() == 1));
        assert!(s.equivalent(&f));
    }
}

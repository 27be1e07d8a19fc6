//! Functional dependencies.

use ids_relational::{AttrSet, RelationalError, Universe};

/// A functional dependency `X → Y`.
///
/// Stored in *normalized* form: the right-hand side never overlaps the
/// left-hand side (trivial parts are dropped at construction).  An FD whose
/// normalized right-hand side is empty is *trivial*.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fd {
    /// Left-hand side `X`.
    pub lhs: AttrSet,
    /// Right-hand side `Y − X` (normalized).
    pub rhs: AttrSet,
}

impl Fd {
    /// Creates a normalized FD `lhs → rhs − lhs`.
    pub fn new(lhs: AttrSet, rhs: AttrSet) -> Self {
        Fd {
            lhs,
            rhs: rhs.difference(lhs),
        }
    }

    /// Parses `"C T -> H R"` (or the single-letter concatenation style
    /// `"CT -> HR"`) against a universe.
    pub fn parse(universe: &Universe, spec: &str) -> Result<Self, RelationalError> {
        let (l, r) = spec
            .split_once("->")
            .ok_or_else(|| RelationalError::UnknownAttribute(spec.to_string()))?;
        Ok(Fd::new(universe.parse_set(l)?, universe.parse_set(r)?))
    }

    /// True when the FD asserts nothing (`rhs ⊆ lhs` before normalization).
    pub(crate) fn is_trivial(self) -> bool {
        self.rhs.is_empty()
    }

    /// All attributes mentioned by the FD.
    pub fn attrs(self) -> AttrSet {
        self.lhs.union(self.rhs)
    }

    /// True when the FD is *embedded* in the scheme `r`, i.e. `XY ⊆ R`.
    pub fn embedded_in(self, r: AttrSet) -> bool {
        self.attrs().is_subset(r)
    }

    /// Splits into single-attribute right-hand sides `X → A`, one per
    /// `A ∈ rhs`.
    pub fn split(self) -> impl Iterator<Item = Fd> {
        self.rhs.iter().map(move |a| Fd {
            lhs: self.lhs,
            rhs: AttrSet::singleton(a),
        })
    }

    /// Renders with a universe's attribute names.
    pub fn render(self, universe: &Universe) -> String {
        format!(
            "{} -> {}",
            universe.render(self.lhs),
            universe.render(self.rhs)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u() -> Universe {
        Universe::from_names(["C", "T", "H", "R"]).unwrap()
    }

    #[test]
    fn parse_and_normalize() {
        let u = u();
        let fd = Fd::parse(&u, "C T -> T H").unwrap();
        assert_eq!(u.render(fd.lhs), "CT");
        assert_eq!(u.render(fd.rhs), "H"); // T dropped from rhs
        assert!(!fd.is_trivial());
    }

    #[test]
    fn concatenated_syntax() {
        let u = u();
        let a = Fd::parse(&u, "CT -> HR").unwrap();
        let b = Fd::parse(&u, "C T -> H R").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trivial_fd() {
        let u = u();
        let fd = Fd::parse(&u, "C T -> C").unwrap();
        assert!(fd.is_trivial());
    }

    #[test]
    fn embedded_check() {
        let u = u();
        let fd = Fd::parse(&u, "C -> T").unwrap();
        assert!(fd.embedded_in(u.parse_set("CTH").unwrap()));
        assert!(!fd.embedded_in(u.parse_set("CH").unwrap()));
    }

    #[test]
    fn split_to_single_rhs() {
        let u = u();
        let fd = Fd::parse(&u, "C -> T H").unwrap();
        let parts: Vec<Fd> = fd.split().collect();
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|f| f.rhs.len() == 1 && f.lhs == fd.lhs));
    }

    #[test]
    fn render_round_trip() {
        let u = u();
        let fd = Fd::parse(&u, "CH -> R").unwrap();
        assert_eq!(fd.render(&u), "CH -> R");
    }

    #[test]
    fn parse_rejects_garbage() {
        let u = u();
        assert!(Fd::parse(&u, "C T H").is_err());
        assert!(Fd::parse(&u, "C -> Z").is_err());
    }
}

//! Query pushdown primitives: predicates over one scheme.
//!
//! The paper's independence result is usually read as a *write-side*
//! statement (per-relation enforcement suffices), but it is equally a
//! *read-side* one: every per-relation read of an accepted state is part
//! of some globally satisfying state, so filtered reads — and even
//! multi-relation joins of independent reads — need no barrier.  A
//! [`Predicate`] is the wire-level representation of such a read: it
//! travels *down* to whatever owns the relation's tuples (a relation's
//! lock holder, a sequential engine's state) so that only matching
//! tuples travel back *up*.  [`Relation::filter_tuples`] is the linear
//! reference every pushed-down read must agree with.
//!
//! The types are deliberately tiny and engine-agnostic: an equality
//! conjunction plus per-column guards covers point lookups, ranges and
//! semijoin reducers, while staying cheap to evaluate per tuple and
//! trivially safe to hand across threads.

use crate::attr::AttrId;
use crate::attrset::AttrSet;
use crate::error::RelationalError;
use crate::relation::{Relation, Tuple};
use crate::value::Value;

/// A non-equality constraint on one attribute, carried alongside the
/// equality conjuncts of a [`Predicate`].
///
/// Order-based guards (`Lt`/`Le`/`Gt`/`Ge`/`Range`) compare by
/// [`Value`]'s underlying `u64` order — meaningful for values built with
/// [`Value::int`], arbitrary (but total and stable) for interned names.
/// `Range` is inclusive at both ends.  `In` holds a sorted, deduplicated
/// value set; it *is* a semijoin reducer on the wire: "this attribute's
/// value appears in a neighbor relation's projected join-key set".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Guard {
    /// The attribute's value differs from the given one.
    Ne(Value),
    /// The attribute's value is a member of the set (kept sorted and
    /// deduplicated by [`Predicate::and_in`]).
    In(Vec<Value>),
    /// Strictly less than, by `Value`'s numeric order.
    Lt(Value),
    /// Less than or equal, by `Value`'s numeric order.
    Le(Value),
    /// Strictly greater than, by `Value`'s numeric order.
    Gt(Value),
    /// Greater than or equal, by `Value`'s numeric order.
    Ge(Value),
    /// Inclusive range `lo ≤ v ≤ hi`, by `Value`'s numeric order.
    Range(Value, Value),
}

impl Guard {
    /// Does a single value satisfy this guard?
    pub fn admits(&self, v: Value) -> bool {
        match self {
            Guard::Ne(x) => v != *x,
            Guard::In(set) => set.binary_search(&v).is_ok(),
            Guard::Lt(x) => v < *x,
            Guard::Le(x) => v <= *x,
            Guard::Gt(x) => v > *x,
            Guard::Ge(x) => v >= *x,
            Guard::Range(lo, hi) => *lo <= v && v <= *hi,
        }
    }
}

/// A conjunction of equality constraints over one scheme's attributes
/// (`attr₁ = v₁ ∧ attr₂ = v₂ ∧ …`) plus optional non-equality
/// [`Guard`]s (`≠`, set membership, ranges).  The empty conjunction is
/// *true* (matches every tuple) — the representation of an unfiltered
/// read.
///
/// Built with [`Predicate::new`] + [`Predicate::and_eq`] and the
/// `and_*` guard builders; evaluated against tuples in scheme order
/// with [`Predicate::matches`].  Engines validate a predicate against
/// the target scheme once, at their router boundary, via
/// [`Predicate::validate_against`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Predicate {
    conjuncts: Vec<(AttrId, Value)>,
    guards: Vec<(AttrId, Guard)>,
}

impl Predicate {
    /// The always-true predicate (no conjuncts).
    pub fn new() -> Self {
        Predicate::default()
    }

    /// Adds the conjunct `attr = value`.  Repeating an attribute with a
    /// different value makes the predicate unsatisfiable (both conjuncts
    /// are checked), never a panic.
    pub fn and_eq(mut self, attr: AttrId, value: Value) -> Self {
        self.conjuncts.push((attr, value));
        self
    }

    /// Adds the guard `attr ≠ value`.
    pub fn and_ne(self, attr: AttrId, value: Value) -> Self {
        self.and_guard(attr, Guard::Ne(value))
    }

    /// Adds the guard `attr ∈ values`.  The set is sorted and
    /// deduplicated here so membership checks are binary searches; an
    /// empty set makes the predicate unsatisfiable, never a panic.
    pub fn and_in(self, attr: AttrId, mut values: Vec<Value>) -> Self {
        values.sort_unstable();
        values.dedup();
        self.and_guard(attr, Guard::In(values))
    }

    /// Adds the guard `attr < value` (numeric `Value` order).
    pub fn and_lt(self, attr: AttrId, value: Value) -> Self {
        self.and_guard(attr, Guard::Lt(value))
    }

    /// Adds the guard `attr ≤ value` (numeric `Value` order).
    pub fn and_le(self, attr: AttrId, value: Value) -> Self {
        self.and_guard(attr, Guard::Le(value))
    }

    /// Adds the guard `attr > value` (numeric `Value` order).
    pub fn and_gt(self, attr: AttrId, value: Value) -> Self {
        self.and_guard(attr, Guard::Gt(value))
    }

    /// Adds the guard `attr ≥ value` (numeric `Value` order).
    pub fn and_ge(self, attr: AttrId, value: Value) -> Self {
        self.and_guard(attr, Guard::Ge(value))
    }

    /// Adds the guard `lo ≤ attr ≤ hi` (inclusive both ends, numeric
    /// `Value` order).  An empty range (`lo > hi`) is unsatisfiable,
    /// never a panic.
    pub fn and_range(self, attr: AttrId, lo: Value, hi: Value) -> Self {
        self.and_guard(attr, Guard::Range(lo, hi))
    }

    /// Adds an arbitrary guard on `attr`.
    fn and_guard(mut self, attr: AttrId, guard: Guard) -> Self {
        self.guards.push((attr, guard));
        self
    }

    /// Empties the predicate back to *true*, keeping its conjunct and
    /// guard buffers for the next read built in it (an `In` guard's set
    /// is freed with the guard).
    pub fn clear(&mut self) {
        self.conjuncts.clear();
        self.guards.clear();
    }

    /// True when the predicate has no conjuncts and no guards (matches
    /// everything).
    pub fn is_true(&self) -> bool {
        self.conjuncts.is_empty() && self.guards.is_empty()
    }

    /// The equality conjuncts, in insertion order.
    pub fn conjuncts(&self) -> &[(AttrId, Value)] {
        &self.conjuncts
    }

    /// The non-equality guards, in insertion order.
    pub fn guards(&self) -> &[(AttrId, Guard)] {
        &self.guards
    }

    /// The set of attributes the predicate constrains (equalities and
    /// guards alike).
    pub fn attrs(&self) -> AttrSet {
        self.conjuncts
            .iter()
            .map(|&(a, _)| a)
            .chain(self.guards.iter().map(|&(a, _)| a))
            .collect()
    }

    /// The pinned value of `attr`, when an *equality* conjunct pins it
    /// (guards never pin a single value).  With contradictory duplicate
    /// conjuncts the first wins here; [`Predicate::matches`] still
    /// checks them all.
    pub fn value_of(&self, attr: AttrId) -> Option<Value> {
        self.conjuncts
            .iter()
            .find(|&&(a, _)| a == attr)
            .map(|&(_, v)| v)
    }

    /// Checks that every constrained attribute belongs to the scheme
    /// `attrs` — the one validation contract every engine applies at its
    /// boundary before evaluating (or shipping) the predicate.
    pub fn validate_against(&self, attrs: AttrSet) -> Result<(), RelationalError> {
        if self.attrs().is_subset(attrs) {
            Ok(())
        } else {
            Err(RelationalError::SchemaMismatch(
                "predicate attributes outside the relation scheme",
            ))
        }
    }

    /// Evaluates the predicate against a tuple laid out in the scheme
    /// order of `attrs` (ascending attribute id).  The predicate must be
    /// valid against `attrs` (see [`Predicate::validate_against`]).
    ///
    /// Ranks every constrained attribute afresh: the one-tuple check and
    /// the linear reference.  A read that tests many rows compiles the
    /// predicate once instead ([`Predicate::compile`]).
    pub fn matches(&self, attrs: AttrSet, tuple: &[Value]) -> bool {
        self.conjuncts
            .iter()
            .all(|&(a, v)| tuple[attrs.rank(a)] == v)
            && self
                .guards
                .iter()
                .all(|(a, g)| g.admits(tuple[attrs.rank(*a)]))
    }

    /// The predicate over rows laid out in the scheme order of `attrs`,
    /// every conjunct and guard paired with its column position: ranked
    /// once here, not once per row.  The predicate must be valid against
    /// `attrs` (see [`Predicate::validate_against`]).  Up to four tests
    /// are held inline, so compiling an ordinary read's filter allocates
    /// nothing.
    pub fn compile(&self, attrs: AttrSet) -> CompiledPredicate<'_> {
        let pins = self
            .conjuncts
            .iter()
            .map(|&(a, v)| (attrs.rank(a), Test::Eq(v)));
        let guards = (self.guards.iter()).map(|(a, g)| (attrs.rank(*a), Test::Guard(g)));
        let mut tests = pins.chain(guards);
        let n = self.conjuncts.len() + self.guards.len();
        let tests = if n > INLINE_TESTS {
            Tests::Spilled(tests.collect())
        } else {
            let unused = (0, Test::Eq(Value(0)));
            Tests::Inline(n, std::array::from_fn(|_| tests.next().unwrap_or(unused)))
        };
        CompiledPredicate { tests }
    }
}

/// Tests a [`CompiledPredicate`] holds without allocating.
const INLINE_TESTS: usize = 4;

/// A [`Predicate`] compiled against one scheme ([`Predicate::compile`]):
/// its equalities first, then its guards, each with the column it tests.
#[derive(Clone, Debug)]
pub struct CompiledPredicate<'p> {
    tests: Tests<'p>,
}

/// A [`CompiledPredicate`]'s tests, inline when they fit.
#[derive(Clone, Debug)]
enum Tests<'p> {
    /// The first `.0` entries are the tests.
    Inline(usize, [(usize, Test<'p>); INLINE_TESTS]),
    Spilled(Vec<(usize, Test<'p>)>),
}

/// One test of a [`CompiledPredicate`].
#[derive(Clone, Copy, Debug)]
enum Test<'p> {
    Eq(Value),
    Guard(&'p Guard),
}

impl CompiledPredicate<'_> {
    /// Whether `row`, laid out as the scheme the predicate was compiled
    /// against, satisfies it: [`Predicate::matches`] without the ranking.
    pub fn matches(&self, row: &[Value]) -> bool {
        let tests = match &self.tests {
            Tests::Inline(n, tests) => &tests[..*n],
            Tests::Spilled(tests) => &tests[..],
        };
        tests.iter().all(|&(p, test)| match test {
            Test::Eq(v) => row[p] == v,
            Test::Guard(g) => g.admits(row[p]),
        })
    }
}

impl std::iter::FromIterator<(AttrId, Value)> for Predicate {
    fn from_iter<I: IntoIterator<Item = (AttrId, Value)>>(iter: I) -> Self {
        Predicate {
            conjuncts: iter.into_iter().collect(),
            guards: Vec::new(),
        }
    }
}

impl Relation {
    /// The tuples of this instance matching `pred`, cloned in insertion
    /// order — the client-side evaluation every pushed-down path must
    /// agree with (differential tests compare against exactly this).
    pub fn filter_tuples(&self, pred: &Predicate) -> Vec<Tuple> {
        let attrs = self.attrs();
        self.iter()
            .filter(|t| pred.matches(attrs, t))
            .map(Tuple::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn setup() -> (Universe, Relation) {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let mut r = Relation::new(u.all());
        r.insert(vec![v(1), v(10), v(100)]).unwrap();
        r.insert(vec![v(1), v(11), v(101)]).unwrap();
        r.insert(vec![v(2), v(10), v(102)]).unwrap();
        (u, r)
    }

    #[test]
    fn empty_predicate_matches_everything() {
        let (u, r) = setup();
        let p = Predicate::new();
        assert!(p.is_true());
        assert_eq!(r.filter_tuples(&p).len(), 3);
        assert!(p.validate_against(u.all()).is_ok());
    }

    #[test]
    fn conjuncts_narrow_the_result() {
        let (u, r) = setup();
        let a = u.attr("A").unwrap();
        let b = u.attr("B").unwrap();
        let p = Predicate::new().and_eq(a, v(1));
        assert_eq!(r.filter_tuples(&p).len(), 2);
        let p = p.and_eq(b, v(10));
        let hits = r.filter_tuples(&p);
        assert_eq!(hits.len(), 1);
        assert_eq!(&*hits[0], &[v(1), v(10), v(100)]);
        assert_eq!(p.value_of(a), Some(v(1)));
        assert_eq!(p.value_of(u.attr("C").unwrap()), None);
        assert_eq!(p.attrs().len(), 2);
    }

    #[test]
    fn contradictory_duplicates_are_unsatisfiable_not_panics() {
        let (u, r) = setup();
        let a = u.attr("A").unwrap();
        let p = Predicate::new().and_eq(a, v(1)).and_eq(a, v(2));
        assert!(r.filter_tuples(&p).is_empty());
    }

    #[test]
    fn validation_catches_foreign_attributes() {
        let (u, _) = setup();
        let ab = u.parse_set("A B").unwrap();
        let c = u.attr("C").unwrap();
        let p = Predicate::new().and_eq(c, v(1));
        assert!(matches!(
            p.validate_against(ab),
            Err(RelationalError::SchemaMismatch(_))
        ));
        assert!(p.validate_against(u.all()).is_ok());
    }

    #[test]
    fn guards_narrow_like_their_mathematical_definitions() {
        let (u, r) = setup();
        let b = u.attr("B").unwrap();
        let c = u.attr("C").unwrap();

        let ne = Predicate::new().and_ne(b, v(10));
        assert_eq!(r.filter_tuples(&ne).len(), 1);

        let lt = Predicate::new().and_lt(c, v(102));
        assert_eq!(lt.guards().len(), 1);
        assert_eq!(r.filter_tuples(&lt).len(), 2);
        let le = Predicate::new().and_le(c, v(101));
        assert_eq!(r.filter_tuples(&le).len(), 2);
        let gt = Predicate::new().and_gt(c, v(100));
        assert_eq!(r.filter_tuples(&gt).len(), 2);
        let ge = Predicate::new().and_ge(c, v(101));
        assert_eq!(r.filter_tuples(&ge).len(), 2);

        // Range is inclusive at both ends.
        let range = Predicate::new().and_range(c, v(100), v(101));
        assert_eq!(r.filter_tuples(&range).len(), 2);
        // Inverted bounds: unsatisfiable, not a panic.
        let empty = Predicate::new().and_range(c, v(101), v(100));
        assert!(r.filter_tuples(&empty).is_empty());
    }

    #[test]
    fn in_guard_is_set_membership_sorted_and_deduped() {
        let (u, r) = setup();
        let b = u.attr("B").unwrap();
        // Unsorted input with duplicates; membership still works.
        let p = Predicate::new().and_in(b, vec![v(11), v(10), v(11)]);
        assert_eq!(r.filter_tuples(&p).len(), 3);
        match &p.guards()[0].1 {
            Guard::In(set) => assert_eq!(set, &vec![v(10), v(11)]),
            other => panic!("expected In, got {other:?}"),
        }
        // The empty set is unsatisfiable, not a panic.
        let none = Predicate::new().and_in(b, Vec::new());
        assert!(r.filter_tuples(&none).is_empty());
    }

    #[test]
    fn guards_compose_with_equalities_and_count_as_constrained_attrs() {
        let (u, r) = setup();
        let a = u.attr("A").unwrap();
        let b = u.attr("B").unwrap();
        let p = Predicate::new().and_eq(a, v(1)).and_ne(b, v(11));
        assert!(!p.is_true());
        assert_eq!(p.attrs().len(), 2);
        let hits = r.filter_tuples(&p);
        assert_eq!(hits.len(), 1);
        assert_eq!(&*hits[0], &[v(1), v(10), v(100)]);
        // Guards never pin a value (only equalities do).
        assert_eq!(p.value_of(b), None);
    }

    #[test]
    fn guard_validation_catches_foreign_attributes() {
        let (u, _) = setup();
        let ab = u.parse_set("A B").unwrap();
        let c = u.attr("C").unwrap();
        let p = Predicate::new().and_ge(c, v(5));
        assert!(matches!(
            p.validate_against(ab),
            Err(RelationalError::SchemaMismatch(_))
        ));
    }
}

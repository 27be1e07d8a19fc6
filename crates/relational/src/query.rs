//! Query pushdown primitives: predicates and projections over one scheme.
//!
//! The paper's independence result is usually read as a *write-side*
//! statement (per-relation enforcement suffices), but it is equally a
//! *read-side* one: every per-relation read of an accepted state is part
//! of some globally satisfying state, so filtered reads — and even
//! multi-relation joins of independent reads — need no barrier.  The
//! types here are the wire-level representation of such reads: a
//! [`Predicate`] travels *down* to whatever owns the relation's tuples
//! (a relation's lock holder, a sequential engine's state) so that only matching
//! tuples travel back *up*, and a [`Projection`] names the columns the
//! caller wants of them.  A [`ReadPlan`] pairs the predicate with the
//! [`ReadShape`] of the answer (tuples, distinct join keys, or a count)
//! — the one read every engine answers, validated and shaped here and
//! nowhere else.
//!
//! The types are deliberately tiny and engine-agnostic: an equality
//! conjunction plus a column list covers point lookups, filtered scans
//! and select-lists, while staying cheap to evaluate per tuple and
//! trivially safe to hand across threads.

use std::collections::HashSet;

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
    /// `attrs` (see [`Predicate::validate_against`]).
    pub fn compile(&self, attrs: AttrSet) -> CompiledPredicate<'_> {
        let pins = self
            .conjuncts
            .iter()
            .map(|&(a, v)| (attrs.rank(a), Test::Eq(v)));
        let guards = (self.guards.iter()).map(|(a, g)| (attrs.rank(*a), Test::Guard(g)));
        CompiledPredicate {
            tests: pins.chain(guards).collect(),
        }
    }
}

/// A [`Predicate`] compiled against one scheme ([`Predicate::compile`]):
/// its equalities first, then its guards, each with the column it tests.
#[derive(Clone, Debug)]
pub struct CompiledPredicate<'p> {
    tests: Vec<(usize, Test<'p>)>,
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
        self.tests.iter().all(|&(p, test)| match test {
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

/// Which columns of a matching tuple the caller wants back.
///
/// Unlike relational projection (`π`, which dedups), a `Projection` is a
/// *select list*: column order is caller-chosen, duplicates are allowed,
/// and applying it to a list of rows preserves the row count — the shape
/// query surfaces need.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Projection {
    /// Every column, in scheme order.
    #[default]
    All,
    /// The named columns, in the given order (duplicates allowed).
    Columns(Vec<AttrId>),
}

impl Projection {
    /// Checks that every selected column belongs to the scheme `attrs`.
    pub fn validate_against(&self, attrs: AttrSet) -> Result<(), RelationalError> {
        match self {
            Projection::All => Ok(()),
            Projection::Columns(cols) => validate_columns(cols, attrs),
        }
    }

    /// Applies the select list to a tuple in the scheme order of `attrs`.
    pub fn apply(&self, attrs: AttrSet, tuple: &[Value]) -> Vec<Value> {
        match self {
            Projection::All => tuple.to_vec(),
            Projection::Columns(cols) => cols.iter().map(|&a| tuple[attrs.rank(a)]).collect(),
        }
    }

    /// Output width against a scheme of the given attributes.
    pub fn width(&self, attrs: AttrSet) -> usize {
        match self {
            Projection::All => attrs.len(),
            Projection::Columns(cols) => cols.len(),
        }
    }
}

/// Checks that every selected column belongs to the scheme `attrs`.
fn validate_columns(cols: &[AttrId], attrs: AttrSet) -> Result<(), RelationalError> {
    if cols.iter().all(|&a| attrs.contains(a)) {
        Ok(())
    } else {
        Err(RelationalError::SchemaMismatch(
            "projection columns outside the relation scheme",
        ))
    }
}

/// What a read ships back of the tuples matching its predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadShape {
    /// The matching tuples themselves, in insertion order.
    Tuples,
    /// The distinct projections of the matching tuples onto the given
    /// columns (select-list order), first occurrence first — the
    /// semijoin-reducer shape: join keys travel, never whole tuples.
    Distinct(Vec<AttrId>),
    /// Only the number of matching tuples.
    Count,
}

/// The one read every engine answers: evaluate `predicate` against one
/// relation, wherever its tuples live, and ship back `shape` of the
/// matches.  A whole-relation read is `Tuples` under the true predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadPlan {
    /// Which tuples match.
    pub predicate: Predicate,
    /// What travels back of them.
    pub shape: ReadShape,
}

/// The reply to a [`ReadPlan`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadReply {
    /// The shipped rows: the matches for [`ReadShape::Tuples`], their
    /// distinct projections for [`ReadShape::Distinct`], nothing for
    /// [`ReadShape::Count`].
    pub rows: Vec<Tuple>,
    /// How many tuples matched the predicate, whatever the shape.
    pub count: usize,
}

impl ReadPlan {
    /// The matching tuples.
    pub fn tuples(predicate: Predicate) -> Self {
        ReadPlan {
            predicate,
            shape: ReadShape::Tuples,
        }
    }

    /// The distinct projections of the matching tuples onto `columns`.
    pub fn distinct_columns(predicate: Predicate, columns: Vec<AttrId>) -> Self {
        ReadPlan {
            predicate,
            shape: ReadShape::Distinct(columns),
        }
    }

    /// The number of matching tuples.
    pub fn count(predicate: Predicate) -> Self {
        ReadPlan {
            predicate,
            shape: ReadShape::Count,
        }
    }

    /// Checks the predicate's attributes and the shape's columns against
    /// the scheme `attrs` — the one validation every engine applies at
    /// its boundary before evaluating (or shipping) the plan.
    pub fn validate_against(&self, attrs: AttrSet) -> Result<(), RelationalError> {
        self.predicate.validate_against(attrs)?;
        match &self.shape {
            ReadShape::Distinct(cols) => validate_columns(cols, attrs),
            ReadShape::Tuples | ReadShape::Count => Ok(()),
        }
    }

    /// A [`Shaper`] that builds this plan's reply from the matches of
    /// its predicate, pushed one row at a time in the scheme order of
    /// `attrs`.
    pub fn shaper(&self, attrs: AttrSet) -> Shaper<'_> {
        let ranks = match &self.shape {
            ReadShape::Distinct(cols) => cols.iter().map(|&a| attrs.rank(a)).collect(),
            ReadShape::Tuples | ReadShape::Count => Vec::new(),
        };
        Shaper {
            shape: &self.shape,
            ranks,
            seen: HashSet::new(),
            reply: ReadReply::default(),
        }
    }
}

/// Builds the [`ReadReply`] of one [`ReadPlan`] from its matches, one
/// row at a time ([`ReadPlan::shaper`]): a row is copied only when the
/// shape ships it.
#[derive(Debug)]
pub struct Shaper<'p> {
    shape: &'p ReadShape,
    /// The scheme positions of a `Distinct` shape's columns.
    ranks: Vec<usize>,
    /// The projections a `Distinct` shape has shipped.
    seen: HashSet<Tuple>,
    reply: ReadReply,
}

impl Shaper<'_> {
    /// Takes the next match.
    pub fn push(&mut self, row: &[Value]) {
        self.reply.count += 1;
        match self.shape {
            ReadShape::Tuples => self.reply.rows.push(Tuple::from(row)),
            ReadShape::Distinct(_) => {
                let key: Tuple = self.ranks.iter().map(|&p| row[p]).collect();
                if self.seen.insert(key.clone()) {
                    self.reply.rows.push(key);
                }
            }
            ReadShape::Count => {}
        }
    }

    /// The reply to every match pushed, in push order.
    pub fn finish(self) -> ReadReply {
        self.reply
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

    /// Answers a plan by one linear pass — the unindexed read path, and
    /// the reference every engine's `read` must agree with.  The plan
    /// must be valid against this relation's attributes (see
    /// [`ReadPlan::validate_against`]).  Counting under the true
    /// predicate is the O(1) cardinality.
    pub fn read(&self, plan: &ReadPlan) -> ReadReply {
        if plan.shape == ReadShape::Count && plan.predicate.is_true() {
            return ReadReply {
                rows: Vec::new(),
                count: self.len(),
            };
        }
        let attrs = self.attrs();
        let mut shaper = plan.shaper(attrs);
        for t in self.iter().filter(|t| plan.predicate.matches(attrs, t)) {
            shaper.push(t);
        }
        shaper.finish()
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
        assert!(matches!(
            Projection::Columns(vec![c]).validate_against(ab),
            Err(RelationalError::SchemaMismatch(_))
        ));
        assert!(Projection::All.validate_against(ab).is_ok());
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

    #[test]
    fn read_plans_shape_the_matches_and_validate_both_halves() {
        let (u, r) = setup();
        let (a, b, c) = (
            u.attr("A").unwrap(),
            u.attr("B").unwrap(),
            u.attr("C").unwrap(),
        );
        let a1 = Predicate::new().and_eq(a, v(1));
        let tuples = r.read(&ReadPlan::tuples(a1.clone()));
        assert_eq!(tuples.rows, r.filter_tuples(&a1));
        assert_eq!(tuples.count, 2);
        // Select-list order, first occurrence first; count is of matches.
        let keys = r.read(&ReadPlan::distinct_columns(Predicate::new(), vec![b, a]));
        let rows: Vec<&[Value]> = keys.rows.iter().map(|t| &**t).collect();
        assert_eq!(
            rows,
            [&[v(10), v(1)][..], &[v(11), v(1)][..], &[v(10), v(2)][..]]
        );
        let by_b = r.read(&ReadPlan::distinct_columns(Predicate::new(), vec![b]));
        assert_eq!((by_b.rows.len(), by_b.count), (2, 3));
        for pred in [Predicate::new(), a1] {
            let n = r.read(&ReadPlan::count(pred.clone()));
            assert!(n.rows.is_empty());
            assert_eq!(n.count, r.filter_tuples(&pred).len());
        }
        // A foreign attribute in either half is the same typed error.
        let ab = u.parse_set("A B").unwrap();
        for plan in [
            ReadPlan::count(Predicate::new().and_eq(c, v(1))),
            ReadPlan::distinct_columns(Predicate::new(), vec![a, c]),
        ] {
            assert!(matches!(
                plan.validate_against(ab),
                Err(RelationalError::SchemaMismatch(_))
            ));
            assert!(plan.validate_against(u.all()).is_ok());
        }
    }

    #[test]
    fn projection_is_a_select_list_not_relational_pi() {
        let (u, _) = setup();
        let a = u.attr("A").unwrap();
        let c = u.attr("C").unwrap();
        let all = u.all();
        let t = [v(1), v(10), v(100)];
        assert_eq!(Projection::All.apply(all, &t), t.to_vec());
        // Caller-chosen order and duplicates both survive.
        let sel = Projection::Columns(vec![c, a, a]);
        assert_eq!(sel.apply(all, &t), vec![v(100), v(1), v(1)]);
        assert_eq!(sel.width(all), 3);
        assert_eq!(Projection::All.width(all), 3);
    }
}

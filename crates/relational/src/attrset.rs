//! Compact attribute sets.
//!
//! Every algorithm in this workspace manipulates sets of attributes — FD
//! closures, scheme intersections, tableau distinguished-variable patterns.
//! [`AttrSet`] is a fixed-width bitset (`4 × u64`, up to [`MAX_ATTRS`]
//! attributes) so all of these are branch-free word operations and the type
//! stays `Copy`.

use std::fmt;

use crate::attr::AttrId;

/// Maximum number of attributes a [`crate::Universe`] may hold.
pub const MAX_ATTRS: usize = 256;

const WORDS: usize = MAX_ATTRS / 64;

/// A set of attributes of a universe, represented as a 256-bit bitset.
///
/// `AttrSet` is deliberately `Copy`: closure computations perform millions of
/// unions/intersections and must not allocate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AttrSet {
    words: [u64; WORDS],
}

impl AttrSet {
    /// The empty attribute set.
    pub const EMPTY: AttrSet = AttrSet { words: [0; WORDS] };

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a singleton set.
    pub fn singleton(attr: AttrId) -> Self {
        let mut s = Self::EMPTY;
        s.insert(attr);
        s
    }

    /// The set `{0, 1, .., n-1}` of the first `n` attribute ids.
    ///
    /// # Panics
    /// Panics if `n > MAX_ATTRS`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_ATTRS, "universe limited to {MAX_ATTRS} attributes");
        let mut s = Self::EMPTY;
        for w in 0..WORDS {
            let lo = w * 64;
            if n >= lo + 64 {
                s.words[w] = u64::MAX;
            } else if n > lo {
                s.words[w] = (1u64 << (n - lo)) - 1;
            }
        }
        s
    }

    /// Number of attributes in the set.
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set contains no attribute.
    pub fn is_empty(self) -> bool {
        self.words == [0; WORDS]
    }

    /// Membership test.
    pub fn contains(self, attr: AttrId) -> bool {
        let i = attr.index();
        debug_assert!(i < MAX_ATTRS);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Inserts an attribute; returns `true` when it was newly added.
    pub fn insert(&mut self, attr: AttrId) -> bool {
        let i = attr.index();
        assert!(i < MAX_ATTRS, "attribute id {i} exceeds MAX_ATTRS");
        let bit = 1u64 << (i % 64);
        let newly = self.words[i / 64] & bit == 0;
        self.words[i / 64] |= bit;
        newly
    }

    /// Removes an attribute; returns `true` when it was present.
    pub fn remove(&mut self, attr: AttrId) -> bool {
        let i = attr.index();
        let bit = 1u64 << (i % 64);
        let had = self.words[i / 64] & bit != 0;
        self.words[i / 64] &= !bit;
        had
    }

    /// Set union `self ∪ other`.
    pub fn union(self, other: Self) -> Self {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(other.words) {
            *a |= b;
        }
        AttrSet { words: w }
    }

    /// Set intersection `self ∩ other`.
    pub fn intersect(self, other: Self) -> Self {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(other.words) {
            *a &= b;
        }
        AttrSet { words: w }
    }

    /// Set difference `self − other`.
    pub fn difference(self, other: Self) -> Self {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(other.words) {
            *a &= !b;
        }
        AttrSet { words: w }
    }

    /// In-place union; returns `true` when `self` changed.
    pub fn union_in_place(&mut self, other: Self) -> bool {
        let before = self.words;
        for (a, b) in self.words.iter_mut().zip(other.words) {
            *a |= b;
        }
        before != self.words
    }

    /// Subset test `self ⊆ other`.
    pub fn is_subset(self, other: Self) -> bool {
        self.words.iter().zip(other.words).all(|(a, b)| a & !b == 0)
    }

    /// True when `self ∩ other = ∅`.
    pub fn is_disjoint(self, other: Self) -> bool {
        self.words.iter().zip(other.words).all(|(a, b)| a & b == 0)
    }

    /// True when `self ∩ other ≠ ∅`.
    pub fn intersects(self, other: Self) -> bool {
        !self.is_disjoint(other)
    }

    /// An arbitrary element (the smallest id), if any.
    pub fn first(self) -> Option<AttrId> {
        for (w, word) in self.words.iter().enumerate() {
            if *word != 0 {
                return Some(AttrId::from_index(w * 64 + word.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Iterates over members in increasing id order.
    pub fn iter(self) -> AttrSetIter {
        AttrSetIter { set: self, word: 0 }
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<T: IntoIterator<Item = AttrId>>(iter: T) -> Self {
        let mut s = AttrSet::EMPTY;
        for a in iter {
            s.insert(a);
        }
        s
    }
}

impl IntoIterator for AttrSet {
    type Item = AttrId;
    type IntoIter = AttrSetIter;
    fn into_iter(self) -> AttrSetIter {
        self.iter()
    }
}

impl Extend<AttrId> for AttrSet {
    fn extend<T: IntoIterator<Item = AttrId>>(&mut self, iter: T) {
        for a in iter {
            self.insert(a);
        }
    }
}

/// Iterator over the members of an [`AttrSet`] in increasing order.
#[derive(Clone)]
pub struct AttrSetIter {
    set: AttrSet,
    word: usize,
}

impl Iterator for AttrSetIter {
    type Item = AttrId;

    fn next(&mut self) -> Option<AttrId> {
        while self.word < WORDS {
            let w = self.set.words[self.word];
            if w == 0 {
                self.word += 1;
                continue;
            }
            let bit = w.trailing_zeros() as usize;
            self.set.words[self.word] &= w - 1; // clear lowest set bit
            return Some(AttrId::from_index(self.word * 64 + bit));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.set.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for AttrSetIter {}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", a.index())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AttrId {
        AttrId::from_index(i)
    }

    fn set(ids: &[usize]) -> AttrSet {
        ids.iter().map(|&i| a(i)).collect()
    }

    #[test]
    fn empty_set_has_no_members() {
        assert!(AttrSet::EMPTY.is_empty());
        assert_eq!(AttrSet::EMPTY.len(), 0);
        assert_eq!(AttrSet::EMPTY.first(), None);
        assert!(!AttrSet::EMPTY.contains(a(0)));
    }

    #[test]
    fn insert_and_remove_round_trip() {
        let mut s = AttrSet::new();
        assert!(s.insert(a(3)));
        assert!(!s.insert(a(3)));
        assert!(s.contains(a(3)));
        assert!(s.remove(a(3)));
        assert!(!s.remove(a(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn works_across_word_boundaries() {
        let s = set(&[0, 63, 64, 127, 128, 255]);
        assert_eq!(s.len(), 6);
        let collected: Vec<usize> = s.iter().map(|x| x.index()).collect();
        assert_eq!(collected, vec![0, 63, 64, 127, 128, 255]);
    }

    #[test]
    fn boolean_algebra() {
        let x = set(&[1, 2, 3, 70]);
        let y = set(&[3, 4, 70, 200]);
        assert_eq!(x.union(y), set(&[1, 2, 3, 4, 70, 200]));
        assert_eq!(x.intersect(y), set(&[3, 70]));
        assert_eq!(x.difference(y), set(&[1, 2]));
    }

    #[test]
    fn subset_relations() {
        let x = set(&[1, 2]);
        let y = set(&[1, 2, 3]);
        assert!(x.is_subset(y));
        assert!(!y.is_subset(x));
        assert!(x.is_subset(x));
        assert!(x.is_disjoint(set(&[4, 5])));
        assert!(x.intersects(y));
    }

    #[test]
    fn first_n_prefix() {
        assert_eq!(AttrSet::first_n(0), AttrSet::EMPTY);
        assert_eq!(AttrSet::first_n(5), set(&[0, 1, 2, 3, 4]));
        assert_eq!(AttrSet::first_n(64).len(), 64);
        assert_eq!(AttrSet::first_n(65).len(), 65);
        assert_eq!(AttrSet::first_n(256).len(), 256);
    }

    #[test]
    fn union_in_place_reports_change() {
        let mut s = set(&[1]);
        assert!(s.union_in_place(set(&[2])));
        assert!(!s.union_in_place(set(&[1, 2])));
        assert_eq!(s, set(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "MAX_ATTRS")]
    fn insert_beyond_capacity_panics() {
        let mut s = AttrSet::new();
        s.insert(AttrId::from_index(256));
    }
}

impl AttrSet {
    /// Number of members strictly smaller than `attr` — the position of
    /// `attr`'s column in a tuple laid out in ascending attribute order.
    pub fn rank(self, attr: AttrId) -> usize {
        let i = attr.index();
        let mut count = 0usize;
        for w in 0..i / 64 {
            count += self.words[w].count_ones() as usize;
        }
        let mask = (1u64 << (i % 64)) - 1;
        count + (self.words[i / 64] & mask).count_ones() as usize
    }
}

#[cfg(test)]
mod rank_tests {
    use super::*;

    #[test]
    fn rank_matches_iteration_order() {
        let s: AttrSet = [1usize, 5, 64, 130]
            .iter()
            .map(|&i| AttrId::from_index(i))
            .collect();
        for (pos, a) in s.iter().enumerate() {
            assert_eq!(s.rank(a), pos);
        }
        // Rank of a non-member is where it would be inserted.
        assert_eq!(s.rank(AttrId::from_index(0)), 0);
        assert_eq!(s.rank(AttrId::from_index(66)), 3);
    }
}

//! Chase symbols: constants and variables with union-find equating.
//!
//! The chase of \[MMS\] pads tuples with distinct variables and then *equates*
//! symbols: the FD-rule replaces one symbol by another, preferring constants
//! over variables, and declares a contradiction when two distinct constants
//! collide.  A union-find with constant-priority representatives implements
//! exactly this replacement semantics in near-constant time per operation.

use ids_relational::Value;

/// Dense id of a chase symbol.
pub type SymId = u32;

/// A symbol table with union-find semantics.
///
/// Each symbol is either a *constant* (carries a [`Value`] from the database
/// state) or a *variable* (a padded null).  [`SymbolTable::union`] merges
/// two classes; merging classes holding distinct constants is the paper's
/// "contradiction has been found".
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    parent: Vec<SymId>,
    rank: Vec<u8>,
    constant: Vec<Option<Value>>,
}

/// Two distinct constants were equated — the chased state is inconsistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contradiction {
    /// First constant involved.
    pub left: Value,
    /// Second constant involved.
    pub right: Value,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of symbols allocated (not classes).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when no symbol has been allocated.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Allocates a fresh variable symbol.
    pub(crate) fn fresh_var(&mut self) -> SymId {
        self.push(None)
    }

    /// Allocates a fresh constant symbol carrying `v`.
    ///
    /// Distinct calls with the same value produce distinct symbols; callers
    /// that want value-identified constants should intern (see
    /// [`crate::engine::ChaseInstance`]).
    pub(crate) fn fresh_const(&mut self, v: Value) -> SymId {
        self.push(Some(v))
    }

    fn push(&mut self, c: Option<Value>) -> SymId {
        let id = self.parent.len() as SymId;
        self.parent.push(id);
        self.rank.push(0);
        self.constant.push(c);
        id
    }

    /// Canonical representative of `s`'s class (path-halving find).
    pub fn find(&mut self, mut s: SymId) -> SymId {
        while self.parent[s as usize] != s {
            let gp = self.parent[self.parent[s as usize] as usize];
            self.parent[s as usize] = gp;
            s = gp;
        }
        s
    }

    /// The constant carried by `s`'s class, if any.
    pub(crate) fn constant_of(&mut self, s: SymId) -> Option<Value> {
        let r = self.find(s);
        self.constant[r as usize]
    }

    /// Equates two symbols.
    ///
    /// Returns `Ok(true)` when the classes were merged, `Ok(false)` when
    /// they already coincided, and `Err` when both classes carry distinct
    /// constants (the FD-rule's contradiction case).
    pub fn union(&mut self, a: SymId, b: SymId) -> Result<bool, Contradiction> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(false);
        }
        let ca = self.constant[ra as usize];
        let cb = self.constant[rb as usize];
        let merged_const = match (ca, cb) {
            (Some(x), Some(y)) if x != y => return Err(Contradiction { left: x, right: y }),
            (Some(x), _) => Some(x),
            (_, Some(y)) => Some(y),
            (None, None) => None,
        };
        // Union by rank; the representative inherits the constant.
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.constant[hi as usize] = merged_const;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    #[test]
    fn fresh_symbols_are_distinct_classes() {
        let mut t = SymbolTable::new();
        let a = t.fresh_var();
        let b = t.fresh_var();
        assert_ne!(t.find(a), t.find(b));
    }

    #[test]
    fn union_var_with_const_promotes() {
        let mut t = SymbolTable::new();
        let x = t.fresh_var();
        let c = t.fresh_const(v(7));
        assert!(t.union(x, c).unwrap());
        assert_eq!(t.constant_of(x), Some(v(7)));
        assert_eq!(t.find(x), t.find(c));
        assert!(!t.union(x, c).unwrap()); // already merged
    }

    #[test]
    fn distinct_constants_contradict() {
        let mut t = SymbolTable::new();
        let a = t.fresh_const(v(1));
        let b = t.fresh_const(v(2));
        let err = t.union(a, b).unwrap_err();
        assert!((err.left, err.right) == (v(1), v(2)) || (err.left, err.right) == (v(2), v(1)));
        // Same constants in different symbols merge fine.
        let c = t.fresh_const(v(1));
        assert!(t.union(a, c).unwrap());
    }

    #[test]
    fn transitive_merging_propagates_constants() {
        let mut t = SymbolTable::new();
        let x = t.fresh_var();
        let y = t.fresh_var();
        let z = t.fresh_var();
        let c = t.fresh_const(v(3));
        t.union(x, y).unwrap();
        t.union(y, z).unwrap();
        t.union(z, c).unwrap();
        for s in [x, y, z] {
            assert_eq!(t.constant_of(s), Some(v(3)));
        }
        // Now a different constant through any alias must contradict.
        let d = t.fresh_const(v(4));
        assert!(t.union(x, d).is_err());
    }
}

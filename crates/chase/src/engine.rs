//! The chase engine: FD-rule and JD-rule over padded universal tableaux.

use std::collections::{HashMap, HashSet};

use ids_deps::{Fd, JoinDependency};
use ids_relational::{AttrId, AttrSet, Relation, Value};

use crate::symbol::{Contradiction, SymId, SymbolTable};

/// Resource limits for the chase.
///
/// With a join dependency the chase can add exponentially many rows
/// (\[Y\] proves the underlying decision problem NP-hard), so the engine is
/// budgeted: exceeding the budget is reported as an *error*, distinct from
/// both verdicts.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// Maximum number of rows the tableau (or a join intermediate) may hold.
    pub max_rows: usize,
    /// Maximum number of FD-fixpoint + JD-round alternations.
    pub max_passes: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rows: 200_000,
            max_passes: 10_000,
        }
    }
}

/// The chase exceeded its configured budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseError {
    /// Too many rows were produced.
    RowBudget {
        /// The configured limit.
        limit: usize,
    },
    /// Too many passes were executed.
    PassBudget {
        /// The configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for ChaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaseError::RowBudget { limit } => {
                write!(f, "chase exceeded the row budget of {limit}")
            }
            ChaseError::PassBudget { limit } => {
                write!(f, "chase exceeded the pass budget of {limit}")
            }
        }
    }
}

impl std::error::Error for ChaseError {}

/// Why the chase declared the input inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContradictionInfo {
    /// The functional dependency whose FD-rule found the contradiction.
    pub fd: Fd,
    /// The attribute (column) on which two constants collided.
    pub attr: AttrId,
    /// The colliding constants.
    pub left: Value,
    /// The colliding constants.
    pub right: Value,
}

/// Outcome of a completed chase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseVerdict {
    /// A fixpoint was reached with no contradiction; the final tableau is a
    /// weak instance witness.
    Consistent,
    /// Two distinct constants were equated.
    Inconsistent(ContradictionInfo),
}

/// A chase tableau: rows of symbols over the columns of the universe.
#[derive(Clone, Debug)]
pub struct ChaseInstance {
    width: usize,
    symbols: SymbolTable,
    rows: Vec<Box<[SymId]>>,
    interned: HashMap<Value, SymId>,
    max_const: u64,
}

impl ChaseInstance {
    /// Creates an empty tableau over `width` columns (`|U|`).
    pub fn new(width: usize) -> Self {
        ChaseInstance {
            width,
            symbols: SymbolTable::new(),
            rows: Vec::new(),
            interned: HashMap::new(),
            max_const: 0,
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows currently in the tableau.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Interns a constant: the same [`Value`] always yields the same symbol.
    fn const_sym(&mut self, v: Value) -> SymId {
        if let Some(s) = self.interned.get(&v) {
            return *s;
        }
        let s = self.symbols.fresh_const(v);
        self.interned.insert(v, s);
        self.max_const = self.max_const.max(v.0);
        s
    }

    /// Adds the padded universal row for a tuple of scheme `attrs` (values
    /// in scheme order): constants at the scheme's columns, fresh variables
    /// elsewhere — the `I(p)` construction of the paper.
    pub(crate) fn add_padded_tuple(&mut self, attrs: AttrSet, values: &[Value]) {
        debug_assert_eq!(attrs.len(), values.len());
        let mut row = Vec::with_capacity(self.width);
        for col in 0..self.width {
            let a = AttrId::from_index(col);
            if attrs.contains(a) {
                row.push(self.const_sym(values[attrs.rank(a)]));
            } else {
                row.push(self.symbols.fresh_var());
            }
        }
        self.rows.push(row.into_boxed_slice());
    }

    /// Adds a row of raw symbols (used by the implication chases).
    pub(crate) fn add_raw_row(&mut self, row: Vec<SymId>) {
        debug_assert_eq!(row.len(), self.width);
        self.rows.push(row.into_boxed_slice());
    }

    /// Allocates a fresh variable.
    pub(crate) fn fresh_var(&mut self) -> SymId {
        self.symbols.fresh_var()
    }

    /// Canonical symbol currently at `(row, col)`.
    pub fn resolved(&mut self, row: usize, col: usize) -> SymId {
        self.symbols.find(self.rows[row][col])
    }

    /// Canonical representative of a symbol.
    pub(crate) fn resolve_sym(&mut self, s: SymId) -> SymId {
        self.symbols.find(s)
    }

    /// Equates two symbols directly (exposed for the implication chases).
    pub fn union(&mut self, a: SymId, b: SymId) -> Result<bool, Contradiction> {
        self.symbols.union(a, b)
    }

    /// Rewrites every row to canonical symbols and removes duplicates.
    pub fn canonicalize(&mut self) {
        let mut seen: HashSet<Box<[SymId]>> = HashSet::with_capacity(self.rows.len());
        let mut kept: Vec<Box<[SymId]>> = Vec::with_capacity(self.rows.len());
        for row in std::mem::take(&mut self.rows) {
            let canon: Box<[SymId]> = row.iter().map(|s| self.symbols.find(*s)).collect();
            if seen.insert(canon.clone()) {
                kept.push(canon);
            }
        }
        self.rows = kept;
    }

    /// One full application pass of the FD-rule for every FD; returns
    /// whether any symbols were equated.
    fn apply_fds_once(&mut self, fds: &[Fd]) -> Result<bool, ContradictionInfo> {
        let mut changed = false;
        for fd in fds {
            let lhs_cols: Vec<usize> = fd.lhs.iter().map(|a| a.index()).collect();
            let rhs_cols: Vec<usize> = fd.rhs.iter().map(|a| a.index()).collect();
            // Group rows by canonical lhs key; keep a pivot row per group.
            let mut pivot: HashMap<Vec<SymId>, usize> = HashMap::new();
            for i in 0..self.rows.len() {
                let key: Vec<SymId> = lhs_cols
                    .iter()
                    .map(|c| self.symbols.find(self.rows[i][*c]))
                    .collect();
                match pivot.entry(key) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(i);
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let p = *e.get();
                        for (c, attr) in rhs_cols.iter().copied().zip(fd.rhs.iter()) {
                            let a = self.rows[p][c];
                            let b = self.rows[i][c];
                            match self.symbols.union(a, b) {
                                Ok(true) => changed = true,
                                Ok(false) => {}
                                Err(Contradiction { left, right }) => {
                                    return Err(ContradictionInfo {
                                        fd: *fd,
                                        attr,
                                        left,
                                        right,
                                    })
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(changed)
    }

    /// Chases the FD-rules to fixpoint (the polynomial, JD-free chase of
    /// Honeyman / \[MMS\]).
    pub(crate) fn fd_fixpoint(&mut self, fds: &[Fd]) -> Result<(), ContradictionInfo> {
        loop {
            let changed = self.apply_fds_once(fds)?;
            self.canonicalize();
            if !changed {
                return Ok(());
            }
        }
    }

    /// One JD-rule round: adds every universal tuple composable from
    /// per-component projections (`T := T ∪ ⋈_i π_Si(T)`).  Returns whether
    /// any row was added.
    pub(crate) fn jd_round(
        &mut self,
        jd: &JoinDependency,
        config: &ChaseConfig,
    ) -> Result<bool, ChaseError> {
        self.canonicalize();
        let comps = jd.components();
        if comps.is_empty() || self.rows.is_empty() {
            return Ok(false);
        }

        // Fold a hash join over the components, tracking the covered
        // attribute set.  Row layout within a partial result: symbols in
        // ascending attribute order of the covered set.
        let project = |rows: &[Box<[SymId]>], attrs: AttrSet| -> Vec<Vec<SymId>> {
            let cols: Vec<usize> = attrs.iter().map(|a| a.index()).collect();
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for r in rows {
                let p: Vec<SymId> = cols.iter().map(|c| r[*c]).collect();
                if seen.insert(p.clone()) {
                    out.push(p);
                }
            }
            out
        };

        let mut acc_attrs = comps[0];
        let mut acc: Vec<Vec<SymId>> = project(&self.rows, comps[0]);
        for &comp in &comps[1..] {
            let side: Vec<Vec<SymId>> = project(&self.rows, comp);
            let common = acc_attrs.intersect(comp);
            let out_attrs = acc_attrs.union(comp);
            // Index side rows by the common columns.
            let mut index: HashMap<Vec<SymId>, Vec<usize>> = HashMap::new();
            for (i, row) in side.iter().enumerate() {
                let key: Vec<SymId> = common.iter().map(|a| row[comp.rank(a)]).collect();
                index.entry(key).or_default().push(i);
            }
            let mut next: Vec<Vec<SymId>> = Vec::new();
            for arow in &acc {
                let key: Vec<SymId> = common.iter().map(|a| arow[acc_attrs.rank(a)]).collect();
                let Some(matches) = index.get(&key) else {
                    continue;
                };
                for &m in matches {
                    let brow = &side[m];
                    let merged: Vec<SymId> = out_attrs
                        .iter()
                        .map(|a| {
                            if acc_attrs.contains(a) {
                                arow[acc_attrs.rank(a)]
                            } else {
                                brow[comp.rank(a)]
                            }
                        })
                        .collect();
                    next.push(merged);
                    if next.len() > config.max_rows {
                        return Err(ChaseError::RowBudget {
                            limit: config.max_rows,
                        });
                    }
                }
            }
            acc_attrs = out_attrs;
            acc = next;
            if acc.is_empty() {
                return Ok(false);
            }
        }

        debug_assert_eq!(acc_attrs.len(), self.width);
        let existing: HashSet<&[SymId]> = self.rows.iter().map(|r| r.as_ref()).collect();
        let mut fresh: Vec<Box<[SymId]>> = Vec::new();
        for row in acc {
            let boxed: Box<[SymId]> = row.into_boxed_slice();
            if !existing.contains(boxed.as_ref()) && !fresh.contains(&boxed) {
                fresh.push(boxed);
            }
        }
        if self.rows.len() + fresh.len() > config.max_rows {
            return Err(ChaseError::RowBudget {
                limit: config.max_rows,
            });
        }
        let added = !fresh.is_empty();
        self.rows.extend(fresh);
        Ok(added)
    }

    /// Full chase under `fds ∪ {jd}` to fixpoint.
    pub fn chase(
        &mut self,
        fds: &[Fd],
        jd: Option<&JoinDependency>,
        config: &ChaseConfig,
    ) -> Result<ChaseVerdict, ChaseError> {
        for _ in 0..config.max_passes {
            if let Err(c) = self.fd_fixpoint(fds) {
                return Ok(ChaseVerdict::Inconsistent(c));
            }
            let Some(jd) = jd else {
                return Ok(ChaseVerdict::Consistent);
            };
            if !self.jd_round(jd, config)? {
                return Ok(ChaseVerdict::Consistent);
            }
        }
        Err(ChaseError::PassBudget {
            limit: config.max_passes,
        })
    }

    /// Materializes the current tableau as a relation over the universe,
    /// instantiating each variable class with a fresh, globally distinct
    /// value.  After a consistent chase this is a weak instance for the
    /// chased state.
    pub(crate) fn materialize(&mut self) -> Relation {
        self.canonicalize();
        let mut rel = Relation::new(AttrSet::first_n(self.width));
        let mut var_values: HashMap<SymId, Value> = HashMap::new();
        let mut next = self.max_const + 1;
        let rows = self.rows.clone();
        for row in rows {
            let mut vals = Vec::with_capacity(self.width);
            for s in row.iter() {
                let root = self.symbols.find(*s);
                let v = match self.symbols.constant_of(root) {
                    Some(v) => v,
                    None => *var_values.entry(root).or_insert_with(|| {
                        let v = Value::int(next);
                        next += 1;
                        v
                    }),
                };
                vals.push(v);
            }
            rel.insert(vals).expect("width matches");
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    /// The paper's Example 1: U = {C, D, T}; CD, CT, TD with C→D, C→T, T→D;
    /// state {(CS402, CS)}, {(CS402, Jones)}, {(Jones, EE)} is inconsistent.
    fn example1() -> (Universe, ChaseInstance, Vec<Fd>) {
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let fds = ids_deps::FdSet::parse(&u, &["C -> D", "C -> T", "T -> D"]).unwrap();
        let cd = u.parse_set("CD").unwrap();
        let ct = u.parse_set("CT").unwrap();
        let td = u.parse_set("TD").unwrap();
        let mut inst = ChaseInstance::new(3);
        let (cs402, cs, jones, ee) = (v(1), v(2), v(3), v(4));
        inst.add_padded_tuple(cd, &[cs402, cs]);
        inst.add_padded_tuple(ct, &[cs402, jones]);
        inst.add_padded_tuple(td, &[ee, jones]); // scheme order: D, T
        (u, inst, fds.iter().copied().collect())
    }

    #[test]
    fn example1_contradiction_found_by_fd_rules_alone() {
        let (_, mut inst, fds) = example1();
        let err = inst.fd_fixpoint(&fds).unwrap_err();
        // The colliding constants are the two departments CS (2) and EE (4).
        let pair = (err.left, err.right);
        assert!(pair == (v(2), v(4)) || pair == (v(4), v(2)));
    }

    #[test]
    fn consistent_state_chases_to_weak_instance() {
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let fds: Vec<Fd> = ids_deps::FdSet::parse(&u, &["C -> D", "C -> T", "T -> D"])
            .unwrap()
            .iter()
            .copied()
            .collect();
        let mut inst = ChaseInstance::new(3);
        inst.add_padded_tuple(u.parse_set("CD").unwrap(), &[v(1), v(2)]);
        inst.add_padded_tuple(u.parse_set("CT").unwrap(), &[v(1), v(3)]);
        inst.add_padded_tuple(u.parse_set("TD").unwrap(), &[v(2), v(3)]);
        let jd = JoinDependency::new([
            u.parse_set("CD").unwrap(),
            u.parse_set("CT").unwrap(),
            u.parse_set("TD").unwrap(),
        ]);
        let verdict = inst
            .chase(&fds, Some(&jd), &ChaseConfig::default())
            .unwrap();
        assert!(matches!(verdict, ChaseVerdict::Consistent));
        let w = inst.materialize();
        // The weak instance satisfies every FD.
        for fd in &fds {
            assert!(w.satisfies_fd(fd.lhs, fd.rhs));
        }
    }

    #[test]
    fn jd_round_adds_mixed_tuples() {
        // Two disjoint AB/BC tuples sharing B must produce the mixes.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let mut inst = ChaseInstance::new(3);
        let all = u.all();
        inst.add_padded_tuple(all, &[v(1), v(5), v(2)]);
        inst.add_padded_tuple(all, &[v(3), v(5), v(4)]);
        let jd = JoinDependency::new([u.parse_set("AB").unwrap(), u.parse_set("BC").unwrap()]);
        let added = inst.jd_round(&jd, &ChaseConfig::default()).unwrap();
        assert!(added);
        assert_eq!(inst.row_count(), 4);
        // A second round is a fixpoint.
        assert!(!inst.jd_round(&jd, &ChaseConfig::default()).unwrap());
    }

    #[test]
    fn row_budget_enforced() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let mut inst = ChaseInstance::new(2);
        for i in 0..20 {
            inst.add_padded_tuple(u.all(), &[v(i), v(100 + i)]);
        }
        let jd = JoinDependency::new([u.parse_set("A").unwrap(), u.parse_set("B").unwrap()]);
        let tight = ChaseConfig {
            max_rows: 50,
            max_passes: 10,
        };
        // The cross product has 400 rows > 50.
        assert!(matches!(
            inst.jd_round(&jd, &tight),
            Err(ChaseError::RowBudget { .. })
        ));
    }

    #[test]
    fn canonicalize_dedups_merged_rows() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let mut inst = ChaseInstance::new(2);
        inst.add_padded_tuple(u.parse_set("A").unwrap(), &[v(1)]);
        inst.add_padded_tuple(u.parse_set("A").unwrap(), &[v(1)]);
        // Rows differ only in their padded variables; equating them merges.
        let s1 = inst.rows[0][1];
        let s2 = inst.rows[1][1];
        inst.union(s1, s2).unwrap();
        inst.canonicalize();
        assert_eq!(inst.row_count(), 1);
    }

    #[test]
    fn to_relation_gives_distinct_values_to_distinct_vars() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let mut inst = ChaseInstance::new(2);
        inst.add_padded_tuple(u.parse_set("A").unwrap(), &[v(7)]);
        inst.add_padded_tuple(u.parse_set("B").unwrap(), &[v(7)]);
        let rel = inst.materialize();
        assert_eq!(rel.len(), 2);
        let tuples: Vec<_> = rel.iter().collect();
        // The two padded variables must have received distinct fresh values,
        // both different from the constant 7.
        let fresh: Vec<u64> = vec![tuples[0][1].0, tuples[1][0].0];
        assert!(fresh[0] != 7 && fresh[1] != 7);
    }
}

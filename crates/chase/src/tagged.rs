//! Tagged tableaux (Section 4 of the paper).
//!
//! A tagged tableau is an instance over `U ∪ {Tag}`: each row carries a
//! relation-scheme tag, per-column *distinguished variables* (dv) and
//! globally unique *nondistinguished variables* (ndv).  The Section 4
//! algorithm only ever builds rows whose dv columns form a locally closed
//! set `Z*` and whose ndvs are fresh (the paper's Observation), so a row is
//! fully described by `(tag, dv-set)` — that compact form lives here as
//! [`TaggedRow`], together with the *weakness* preorder `T ≤ T'`
//! (existence of a homomorphism fixing dvs and tags), both as the paper's
//! row-cover shortcut and as a general backtracking homomorphism search
//! used to validate the shortcut.

use std::collections::HashMap;

use ids_relational::{AttrId, AttrSet, SchemeId};

/// A tableau row in the algorithm's canonical form: tag + dv columns
/// (ndvs are implicit, unique to the row).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaggedRow {
    /// The relation scheme this row is tagged with.
    pub tag: SchemeId,
    /// Columns holding the (per-column) distinguished variable.
    pub dvs: AttrSet,
}

/// A tagged tableau in canonical (unique-ndv) form: a set of rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaggedTableau {
    /// The rows (order irrelevant; kept for deterministic display).
    pub rows: Vec<TaggedRow>,
}

impl TaggedTableau {
    /// Empty tableau.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tableau with the given rows (dedup).
    pub fn from_rows(rows: impl IntoIterator<Item = TaggedRow>) -> Self {
        let mut t = Self::new();
        for r in rows {
            t.push(r);
        }
        t
    }

    /// Adds a row unless an identical `(tag, dvs)` row is already present.
    ///
    /// Identical rows differ only in their (fresh) ndvs, which never
    /// influence weakness or valuations, so deduplication is sound.
    pub fn push(&mut self, row: TaggedRow) {
        if !self.rows.contains(&row) {
            self.rows.push(row);
        }
    }

    /// Union of two tableaux.
    pub fn union(&self, other: &TaggedTableau) -> TaggedTableau {
        let mut t = self.clone();
        for r in &other.rows {
            t.push(*r);
        }
        t
    }

    /// The paper's Observation: `T ≤ T'` iff every row of `T` is covered by
    /// a row of `T'` with the same tag and a superset of dv columns.
    pub fn weaker_eq(&self, other: &TaggedTableau) -> bool {
        self.rows.iter().all(|r| {
            other
                .rows
                .iter()
                .any(|s| s.tag == r.tag && r.dvs.is_subset(s.dvs))
        })
    }

    /// Tableau equivalence `T ≡ T'` (both directions of ≤).
    pub fn equivalent(&self, other: &TaggedTableau) -> bool {
        self.weaker_eq(other) && other.weaker_eq(self)
    }

    /// Strict weakness `T < T'`.
    pub fn strictly_weaker(&self, other: &TaggedTableau) -> bool {
        self.weaker_eq(other) && !other.weaker_eq(self)
    }
}

/// A general tableau symbol for the explicit homomorphism test: the
/// column's dv, or a named ndv (which *may* repeat across rows here).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GSym {
    /// The distinguished variable of the column the symbol sits in.
    Dv,
    /// A nondistinguished variable with an explicit identity.
    Ndv(u32),
}

/// A general tagged tableau with explicit symbols (for validating the
/// row-cover shortcut against the homomorphism definition).
#[derive(Clone, Debug)]
pub struct GeneralTableau {
    /// Number of columns (`|U|`).
    pub width: usize,
    /// Rows as `(tag, symbols)`.
    pub rows: Vec<(SchemeId, Vec<GSym>)>,
}

impl GeneralTableau {
    /// Expands a canonical tableau into explicit symbols with fresh,
    /// globally unique ndvs.
    pub fn from_canonical(t: &TaggedTableau, width: usize) -> Self {
        let mut next = 0u32;
        let rows = t
            .rows
            .iter()
            .map(|r| {
                let syms = (0..width)
                    .map(|c| {
                        if r.dvs.contains(AttrId::from_index(c)) {
                            GSym::Dv
                        } else {
                            next += 1;
                            GSym::Ndv(next - 1)
                        }
                    })
                    .collect();
                (r.tag, syms)
            })
            .collect();
        GeneralTableau { width, rows }
    }

    /// Searches for a homomorphism `self → other`: a symbol mapping that is
    /// the identity on tags and dvs and sends every row of `self` onto a
    /// row of `other`.  Backtracking over row assignments with an ndv
    /// binding environment.
    pub fn homomorphic_into(&self, other: &GeneralTableau) -> bool {
        fn go(
            src: &GeneralTableau,
            dst: &GeneralTableau,
            row: usize,
            binding: &mut HashMap<u32, GSym>,
        ) -> bool {
            if row == src.rows.len() {
                return true;
            }
            let (tag, syms) = &src.rows[row];
            'cands: for (dtag, dsyms) in &dst.rows {
                if dtag != tag {
                    continue;
                }
                let mut added: Vec<u32> = Vec::new();
                for c in 0..src.width {
                    let ok = match syms[c] {
                        GSym::Dv => dsyms[c] == GSym::Dv,
                        GSym::Ndv(x) => match binding.get(&x) {
                            Some(img) => *img == dsyms[c],
                            None => {
                                binding.insert(x, dsyms[c]);
                                added.push(x);
                                true
                            }
                        },
                    };
                    if !ok {
                        for a in added {
                            binding.remove(&a);
                        }
                        continue 'cands;
                    }
                }
                if go(src, dst, row + 1, binding) {
                    return true;
                }
                for a in added {
                    binding.remove(&a);
                }
            }
            false
        }
        go(self, other, 0, &mut HashMap::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    fn aset(u: &Universe, s: &str) -> AttrSet {
        u.parse_set(s).unwrap()
    }

    #[test]
    fn row_cover_weakness() {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let t1 = TaggedTableau::from_rows([TaggedRow {
            tag: SchemeId(0),
            dvs: aset(&u, "AB"),
        }]);
        let t2 = TaggedTableau::from_rows([TaggedRow {
            tag: SchemeId(0),
            dvs: aset(&u, "ABC"),
        }]);
        assert!(t1.weaker_eq(&t2));
        assert!(!t2.weaker_eq(&t1));
        assert!(t1.strictly_weaker(&t2));
        // Different tags never cover.
        let t3 = TaggedTableau::from_rows([TaggedRow {
            tag: SchemeId(1),
            dvs: aset(&u, "ABC"),
        }]);
        assert!(!t1.weaker_eq(&t3));
    }

    #[test]
    fn empty_tableau_is_weakest() {
        let u = Universe::from_names(["A"]).unwrap();
        let empty = TaggedTableau::new();
        let t = TaggedTableau::from_rows([TaggedRow {
            tag: SchemeId(0),
            dvs: aset(&u, "A"),
        }]);
        assert!(empty.weaker_eq(&t));
        assert!(empty.weaker_eq(&empty));
        assert!(!t.weaker_eq(&empty));
    }

    #[test]
    fn row_cover_shortcut_matches_general_homomorphism() {
        // Exhaustively compare on all small unique-ndv tableaux over 3
        // columns, 1 tag, up to 2 rows.
        let width = 3;
        let all_dvsets: Vec<AttrSet> = (0..8u32)
            .map(|m| {
                (0..3)
                    .filter(|i| m >> i & 1 == 1)
                    .map(AttrId::from_index)
                    .collect()
            })
            .collect();
        let mut tableaux: Vec<TaggedTableau> = Vec::new();
        for a in &all_dvsets {
            tableaux.push(TaggedTableau::from_rows([TaggedRow {
                tag: SchemeId(0),
                dvs: *a,
            }]));
            for b in &all_dvsets {
                tableaux.push(TaggedTableau::from_rows([
                    TaggedRow {
                        tag: SchemeId(0),
                        dvs: *a,
                    },
                    TaggedRow {
                        tag: SchemeId(0),
                        dvs: *b,
                    },
                ]));
            }
        }
        for t in &tableaux {
            for s in &tableaux {
                let shortcut = t.weaker_eq(s);
                let general = GeneralTableau::from_canonical(t, width)
                    .homomorphic_into(&GeneralTableau::from_canonical(s, width));
                assert_eq!(shortcut, general, "t={t:?} s={s:?}");
            }
        }
    }
}

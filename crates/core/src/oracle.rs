//! Exhaustive semantic oracle for tiny schemas.
//!
//! Independence is defined by a quantification over *all* states
//! (`LSAT = WSAT`).  On tiny instances this can be checked directly: walk
//! every state with at most `max_tuples` tuples per relation over a small
//! value domain and look for a locally-satisfying, globally-unsatisfying
//! state.  A found gap **refutes** independence definitively; finding
//! nothing only certifies the bounded fragment — which is exactly the
//! right shape for testing the decision procedure:
//!
//! * oracle finds a gap  ⇒ the algorithm must reject;
//! * algorithm accepts   ⇒ the oracle must find nothing.

use ids_chase::{locally_satisfies, satisfies, ChaseConfig, ChaseError};
use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState, SchemeId, Value};

/// Outcome of the bounded exhaustive search.
#[derive(Clone, Debug)]
pub enum OracleOutcome {
    /// A state in `LSAT ∖ WSAT` exists (returned): **not independent**.
    GapFound(Box<DatabaseState>),
    /// No gap within the bounds (domain size, tuples per relation).
    NoGapWithinBounds {
        /// Number of states enumerated.
        states_checked: usize,
    },
}

/// Enumerates every state with at most `max_tuples` tuples per relation
/// over the value domain `{0, .., domain-1}` and searches for an
/// `LSAT ∖ WSAT` state.
///
/// Cost: `Π_i Σ_{j ≤ max_tuples} C(domain^arity_i, j)` chases — keep the
/// schema tiny (≤ 3 schemes of arity ≤ 2, domain ≤ 2, `max_tuples ≤ 2`).
pub(crate) fn exhaustive_oracle(
    schema: &DatabaseSchema,
    fds: &FdSet,
    domain: u64,
    max_tuples: usize,
    config: &ChaseConfig,
) -> Result<OracleOutcome, ChaseError> {
    // All candidate relations (tuple subsets) per scheme.
    let per_scheme: Vec<Vec<Vec<Vec<Value>>>> = schema
        .ids()
        .map(|id| {
            let arity = schema.attrs(id).len();
            let tuples = all_tuples(arity, domain);
            subsets_up_to(&tuples, max_tuples)
        })
        .collect();

    let mut choice = vec![0usize; per_scheme.len()];
    let mut states_checked = 0usize;
    loop {
        // Materialize the state for the current choice vector.
        let mut state = DatabaseState::empty(schema);
        for (i, &c) in choice.iter().enumerate() {
            let id = SchemeId::from_index(i);
            for t in &per_scheme[i][c] {
                state.insert(id, t.clone()).expect("arity");
            }
        }
        states_checked += 1;
        if locally_satisfies(schema, fds, &state, config)?
            && !satisfies(schema, fds, &state, config)?.is_satisfying()
        {
            return Ok(OracleOutcome::GapFound(Box::new(state)));
        }

        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == choice.len() {
                return Ok(OracleOutcome::NoGapWithinBounds { states_checked });
            }
            choice[i] += 1;
            if choice[i] < per_scheme[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

/// All tuples of the given arity over `{0..domain}`.
fn all_tuples(arity: usize, domain: u64) -> Vec<Vec<Value>> {
    let mut out = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(out.len() * domain as usize);
        for t in &out {
            for v in 0..domain {
                let mut t2 = t.clone();
                t2.push(Value::int(v));
                next.push(t2);
            }
        }
        out = next;
    }
    out
}

/// All subsets of `items` with at most `k` elements (by index order).
fn subsets_up_to<T: Clone>(items: &[T], k: usize) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for size in 1..=k.min(items.len()) {
        // Generate all index combinations of the given size.
        let mut combo: Vec<usize> = (0..size).collect();
        loop {
            out.push(combo.clone());
            // Next combination.
            let mut i = size;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if combo[i] < items.len() - (size - i) {
                    combo[i] += 1;
                    for j in (i + 1)..size {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    combo.clear();
                    break;
                }
            }
            if combo.is_empty() {
                break;
            }
        }
    }
    out.into_iter()
        .map(|ix| ix.into_iter().map(|i| items[i].clone()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn tuple_and_subset_enumeration_counts() {
        assert_eq!(all_tuples(2, 2).len(), 4);
        assert_eq!(all_tuples(3, 2).len(), 8);
        let tuples = all_tuples(2, 2);
        // C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11.
        assert_eq!(subsets_up_to(&tuples, 2).len(), 11);
        assert_eq!(subsets_up_to(&tuples, 0).len(), 1);
    }

    #[test]
    fn oracle_refutes_example1() {
        let u = Universe::from_names(["C", "D", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CD", "CD"), ("CT", "CT"), ("TD", "TD")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> D", "C -> T", "T -> D"]).unwrap();
        let out = exhaustive_oracle(&schema, &fds, 2, 1, &cfg()).unwrap();
        let OracleOutcome::GapFound(state) = out else {
            panic!("the Example 1 gap exists with one tuple per relation");
        };
        // The found state is genuinely a gap.
        assert!(locally_satisfies(&schema, &fds, &state, &cfg()).unwrap());
        assert!(!satisfies(&schema, &fds, &state, &cfg())
            .unwrap()
            .is_satisfying());
        // And the polynomial algorithm agrees.
        assert!(!crate::is_independent(&schema, &fds));
    }

    #[test]
    fn oracle_finds_nothing_on_independent_schema() {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> B", "B -> C"]).unwrap();
        assert!(crate::is_independent(&schema, &fds));
        let out = exhaustive_oracle(&schema, &fds, 2, 2, &cfg()).unwrap();
        match out {
            OracleOutcome::NoGapWithinBounds { states_checked } => {
                // 11 relations per scheme → 121 states.
                assert_eq!(states_checked, 121);
            }
            OracleOutcome::GapFound(s) => {
                panic!("independent schema cannot have a gap, found {s:?}")
            }
        }
    }

    #[test]
    fn oracle_agrees_with_algorithm_on_random_tiny_schemas() {
        use ids_workloads_free::tiny_random;
        // Local helper below generates tiny random (schema, fds) pairs
        // without depending on ids-workloads (which depends on this crate).
        for seed in 0..40u64 {
            let (schema, fds) = tiny_random(seed);
            let algo_independent = crate::is_independent(&schema, &fds);
            let oracle = exhaustive_oracle(&schema, &fds, 2, 2, &cfg()).unwrap();
            let found_gap = matches!(oracle, OracleOutcome::GapFound(_));
            if found_gap {
                assert!(
                    !algo_independent,
                    "seed {seed}: oracle found a gap but the algorithm accepted"
                );
            }
            if algo_independent {
                assert!(!found_gap, "seed {seed}: accepted schema has a bounded gap");
            }
        }
    }

    /// Minimal deterministic tiny-instance generator (no external deps).
    mod ids_workloads_free {
        use super::*;
        use ids_deps::Fd;
        use ids_relational::{AttrId, AttrSet, RelationScheme};

        pub fn tiny_random(seed: u64) -> (DatabaseSchema, FdSet) {
            // xorshift for deterministic pseudo-randomness.
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let attrs = 4usize;
            let names = ["A", "B", "C", "D"];
            let u = Universe::from_names(names).unwrap();
            let n_schemes = 2 + (next() % 2) as usize;
            let mut sets: Vec<AttrSet> = (0..n_schemes)
                .map(|_| {
                    let mut set = AttrSet::new();
                    let size = 2;
                    while set.len() < size {
                        set.insert(AttrId::from_index((next() % attrs as u64) as usize));
                    }
                    set
                })
                .collect();
            let covered = sets.iter().fold(AttrSet::EMPTY, |a, s| a.union(*s));
            for (i, a) in u.all().difference(covered).iter().enumerate() {
                let k = i % sets.len();
                sets[k].insert(a);
            }
            let schema = DatabaseSchema::new(
                u,
                sets.into_iter()
                    .enumerate()
                    .map(|(i, attrs)| RelationScheme {
                        name: format!("R{i}"),
                        attrs,
                    })
                    .collect(),
            )
            .unwrap();
            let mut fds = FdSet::new();
            for _ in 0..2 {
                let id = SchemeId::from_index((next() % schema.len() as u64) as usize);
                let scheme_attrs: Vec<AttrId> = schema.attrs(id).iter().collect();
                if scheme_attrs.len() < 2 {
                    continue;
                }
                let l = scheme_attrs[(next() % scheme_attrs.len() as u64) as usize];
                let r = scheme_attrs[(next() % scheme_attrs.len() as u64) as usize];
                if l != r {
                    fds.insert(Fd::new(AttrSet::singleton(l), AttrSet::singleton(r)));
                }
            }
            (schema, fds)
        }
    }
}

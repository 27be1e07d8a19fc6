//! E14 kernel: planned acyclic joins (Yannakakis semijoin reduction in
//! the `ids-api` planner) vs whole-relation reads + a client-side fold.
//!
//! Shared by the `experiments e14` section and the Criterion bench
//! `benches/joins.rs`, so the reported numbers come from one code path.
//!
//! The claim under measurement is the read-side payoff of wiring
//! `ids-acyclic` into the query path: on an acyclic relation set a
//! selective filter on one relation becomes semijoin reducers for its
//! neighbors, so the engine ships O(answer) tuples instead of
//! O(database).  The baseline reads every joined relation whole and
//! folds client-side — exactly what `Database::join` did before the
//! planner existed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ids_api::{between, Database, EngineKind, JoinReport, Rows, Schema};
use ids_store::StoreConfig;

/// A prepared join workload: a chain schema `R1(a,b) ⋈ R2(b,c) ⋈
/// R3(c,d)` on the sharded engine, `n` tuples per relation, an ordered
/// secondary index on the filter column `R1.a`.
pub struct JoinBench {
    /// The running database.
    pub db: Database,
    /// Tuples per relation.
    pub n: usize,
}

/// Zero-pads a value so lexicographic order equals numeric order — the
/// planner's range conditions compare strings.
fn pad(v: usize) -> String {
    format!("{v:06}")
}

/// Builds the chain store: each relation holds `(pad(i), pad(i))` for
/// `i < n`, so the full join has exactly `n` rows and a range filter on
/// `R1.a` selects exactly its width.
pub fn build(n: usize) -> JoinBench {
    let schema = Schema::builder()
        .relation("R1", ["a", "b"])
        .relation("R2", ["b", "c"])
        .relation("R3", ["c", "d"])
        .index("R1", "a")
        .build()
        .expect("the chain schema is independent (no FDs)");
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default()))
        .expect("chain schema opens sharded");
    for i in 0..n {
        let row = [pad(i), pad(i)];
        for rel in ["R1", "R2", "R3"] {
            db.insert(rel, row.clone()).expect("chain rows are FD-free");
        }
    }
    JoinBench { db, n }
}

/// The naive pre-planner strategy: read every joined relation whole,
/// hash-fold the natural join client-side, then filter.  Returns the
/// joined rows plus the tuples shipped (the sum of the relation sizes).
pub fn fold_baseline(db: &Database, k: usize) -> (Vec<Vec<String>>, usize) {
    let mut shipped = 0usize;
    let mut acc: Option<(Vec<String>, Vec<Vec<String>>)> = None;
    for rel in ["R1", "R2", "R3"] {
        let rows: Rows = db.query(rel).run().expect("chain relations read");
        shipped += rows.len();
        let cols = rows.columns().to_vec();
        let mat = rows.into_string_rows();
        acc = Some(match acc {
            None => (cols, mat),
            Some(left) => hash_natural_join(left, (cols, mat)),
        });
    }
    let (cols, mat) = acc.expect("three relations joined");
    let a = cols.iter().position(|c| c == "a").expect("column a");
    let hi = pad(k - 1);
    let rows = mat
        .into_iter()
        .filter(|row| row[a].as_str() <= hi.as_str())
        .collect();
    (rows, shipped)
}

/// Client-side hash natural join of two string matrices on their shared
/// column names.
fn hash_natural_join(
    (lcols, lrows): (Vec<String>, Vec<Vec<String>>),
    (rcols, rrows): (Vec<String>, Vec<Vec<String>>),
) -> (Vec<String>, Vec<Vec<String>>) {
    let shared: Vec<(usize, usize)> = lcols
        .iter()
        .enumerate()
        .filter_map(|(li, c)| rcols.iter().position(|rc| rc == c).map(|ri| (li, ri)))
        .collect();
    let keep: Vec<usize> = (0..rcols.len())
        .filter(|ri| !shared.iter().any(|(_, s)| s == ri))
        .collect();
    let mut index: HashMap<Vec<&str>, Vec<&Vec<String>>> = HashMap::new();
    for row in &rrows {
        let key: Vec<&str> = shared.iter().map(|&(_, ri)| row[ri].as_str()).collect();
        index.entry(key).or_default().push(row);
    }
    let mut cols = lcols;
    cols.extend(keep.iter().map(|&ri| rcols[ri].clone()));
    let mut out = Vec::new();
    for lrow in &lrows {
        let key: Vec<&str> = shared.iter().map(|&(li, _)| lrow[li].as_str()).collect();
        if let Some(matches) = index.get(&key) {
            for rrow in matches {
                let mut row = lrow.clone();
                row.extend(keep.iter().map(|&ri| rrow[ri].clone()));
                out.push(row);
            }
        }
    }
    (cols, out)
}

/// Runs the planned join once: `R1 ⋈ R2 ⋈ R3` with `a ∈ [pad(0),
/// pad(k-1)]` pushed down, reducers derived by the acyclic planner.
pub fn planned_join(db: &Database, k: usize) -> (Rows, JoinReport) {
    db.join_query(["R1", "R2", "R3"])
        .filter("R1", "a", between(pad(0), pad(k - 1)))
        .run_with_report()
        .expect("the chain join plans")
}

/// One row of the E14 sweep.
pub struct JoinRow {
    /// Tuples per relation.
    pub n: usize,
    /// Rows selected by the `R1.a` range filter (= the answer size).
    pub k: usize,
    /// Median latency of the planned join.
    pub planned: Duration,
    /// Median latency of whole-relation reads + client-side fold.
    pub naive: Duration,
    /// `naive / planned`.
    pub speedup: f64,
    /// Full tuples the planner shipped from the engine: pass 1's
    /// gathers (`R1`'s and `R2`'s matches, `k` each) and pass 2's fetches
    /// (`k` per relation), `5k` in all.
    pub shipped_planned: usize,
    /// Semijoin-reducer values the planner shipped.
    pub keys_planned: usize,
    /// Tuples the naive fold shipped (3n).
    pub shipped_naive: usize,
    /// True when the acyclic planner actually ran (it must, here).
    pub planner_ran: bool,
}

/// Measures one configuration: planned vs fold at `n` tuples per
/// relation with a `k`-row answer.
fn planned_vs_fold(n: usize, k: usize, reps: usize) -> JoinRow {
    let JoinBench { db, .. } = build(n);

    let (rows, report) = planned_join(&db, k); // warmup + report
    assert_eq!(rows.len(), k, "the range filter selects exactly k rows");
    let mut planned_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let (rows, _) = planned_join(&db, k);
        planned_times.push(t.elapsed());
        let _ = std::hint::black_box(rows);
    }
    planned_times.sort();
    let planned = planned_times[planned_times.len() / 2];

    let (rows, shipped_naive) = fold_baseline(&db, k); // warmup + shipped
    assert_eq!(rows.len(), k, "the fold agrees on the answer size");
    let mut naive_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let (rows, _) = fold_baseline(&db, k);
        naive_times.push(t.elapsed());
        std::hint::black_box(rows);
    }
    naive_times.sort();
    let naive = naive_times[naive_times.len() / 2];

    JoinRow {
        n,
        k,
        planned,
        naive,
        speedup: naive.as_secs_f64() / planned.as_secs_f64().max(1e-12),
        shipped_planned: report.tuples_shipped,
        keys_planned: report.keys_shipped,
        shipped_naive,
        planner_ran: report.planned,
    }
}

/// The full sweep: planned shipping should track the answer (k) while
/// the fold ships the database (3n), so the gap widens with n/k.
pub fn sweep(smoke: bool) -> Vec<JoinRow> {
    let configs: &[(usize, usize, usize)] = if smoke {
        &[(300, 10, 3)]
    } else {
        &[(2_000, 20, 7), (10_000, 100, 7), (20_000, 100, 5)]
    };
    configs
        .iter()
        .map(|&(n, k, reps)| planned_vs_fold(n, k, reps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The claims are asserted by `experiments e14`; here only the
    // correctness property the timings rest on: both strategies
    // compute the same join.
    #[test]
    fn planned_join_matches_the_client_side_fold() {
        let JoinBench { db, .. } = build(64);
        let (rows, report) = planned_join(&db, 7);
        assert!(report.planned, "the chain is acyclic: the planner runs");
        let mut planned: Vec<Vec<String>> = rows.into_string_rows();
        let (mut folded, shipped) = fold_baseline(&db, 7);
        assert_eq!(shipped, 3 * 64);
        planned.sort();
        folded.sort();
        assert_eq!(planned, folded);
    }
}

//! E15 kernel: online schema evolution under load — write throughput
//! on an *untouched* relation while `ALTER`-class transitions churn
//! the rest of the schema.
//!
//! Shared by the `experiments e15` section and the `--smoke` gate in
//! `tests/smoke.rs`, so the reported numbers come from one code path.
//!
//! The claim under measurement is the point of doing evolution online:
//! a transition re-analyzes the *target* schema, backfills any new FD,
//! swaps the topology — and none of that holds up writers on shards
//! the transition does not touch.  The hot relation keeps its own
//! shard and its own log (Theorem 3), so the only contention an alter
//! can impose on it is the brief switch under the topology write lock
//! (O(1) retargets plus one log rotation per surviving relation; every
//! O(rows) step runs under the altered relation's own lock).  The
//! baseline phase
//! runs the identical write stream with no alters; the churn phase
//! runs it while the main thread cycles add-FD (with a real backfill
//! over a preloaded relation), drop-FD, add-relation, drop-relation
//! transitions as fast as they are accepted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ids_api::{Alter, Database, Schema, SharedDatabase};
use ids_store::DurableConfig;

/// One phase of the E15 comparison.
pub struct EvolveRow {
    /// `"baseline"` (no alters) or `"alter churn"`.
    pub phase: &'static str,
    /// Accepted inserts into the untouched hot relation.
    pub writes: u64,
    /// Wall-clock of the write stream.
    pub elapsed: Duration,
    /// Hot-relation write throughput.
    pub writes_per_sec: f64,
    /// Accepted schema transitions while the writes ran.
    pub alters: u64,
    /// FD backfills that ran to completion (each re-validates the
    /// preloaded warm relation).
    pub backfills: u64,
    /// Tuples re-validated across all backfills.
    pub backfill_tuples: u64,
    /// The WAL generation the database ended the phase on.
    pub final_generation: u64,
}

/// The two-phase report plus the headline ratio.
pub struct EvolveReport {
    /// The no-alter control run.
    pub baseline: EvolveRow,
    /// The same write stream under continuous alter churn.
    pub churn: EvolveRow,
    /// `churn.writes_per_sec / baseline.writes_per_sec` — the cost the
    /// churn imposed on the untouched shard.
    pub ratio: f64,
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-bench-e15-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// HOT is the relation under measurement; WARM carries `preload` rows
/// so every add-FD transition pays a real backfill scan.
fn schema() -> Schema {
    Schema::builder()
        .relation("HOT", ["key", "val"])
        .relation("WARM", ["wkey", "wval"])
        .fd("key -> val")
        .build()
        .expect("two keyed relations are independent")
}

fn open_preloaded(name: &str, preload: u64) -> (std::path::PathBuf, Arc<SharedDatabase>) {
    let root = tmp_dir(name);
    let db = Database::open_at(&root, schema(), DurableConfig::default()).expect("durable");
    for k in 0..preload {
        db.insert("WARM", [format!("w{k}"), format!("x{k}")])
            .expect("preload");
    }
    (root, Arc::new(db.into_shared().expect("durable shares")))
}

/// The four-step churn cycle.  Every step is accepted: the FD is
/// embedded in WARM (and the distinct preloaded keys satisfy it), and
/// TMP reuses WARM's columns — the universe is append-only, so a
/// droppable relation must leave every attribute covered elsewhere.
fn churn_cycle(n: u64) -> Alter {
    match n % 4 {
        0 => Alter::AddFd {
            spec: "wkey -> wval".into(),
        },
        1 => Alter::DropFd {
            spec: "wkey -> wval".into(),
        },
        2 => Alter::AddRelation {
            name: "TMP".into(),
            columns: vec!["wkey".into(), "wval".into()],
        },
        _ => Alter::DropRelation { name: "TMP".into() },
    }
}

/// Runs one phase: `ops` inserts into HOT from a writer thread; when
/// `churn` is `Some(pace)`, the calling thread cycles transitions —
/// one every `pace` — until the writer finishes.  Fresh database per
/// phase, identical preload, so the two phases are directly
/// comparable.
fn run_phase(phase: &'static str, ops: u64, preload: u64, churn: Option<Duration>) -> EvolveRow {
    let (root, shared) = open_preloaded(phase, preload);
    let start = Instant::now();
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let shared = Arc::clone(&shared);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for k in 0..ops {
                shared
                    .insert("HOT", [format!("k{k}"), format!("v{k}")])
                    .expect("hot insert");
            }
            done.store(true, Ordering::Relaxed);
        })
    };

    let mut alters = 0u64;
    let mut generation = 1;
    while churn.is_some() && !done.load(Ordering::Relaxed) {
        generation = shared
            .alter(&churn_cycle(alters))
            .expect("every churn transition is accepted");
        alters += 1;
        // Paced churn (like E13's write stream): transitions stay in
        // flight for the whole phase, at a rate that models real
        // schema churn rather than an alter thread monopolizing a
        // small host's only core — what is being measured is the cost
        // a transition imposes on the untouched shard, not a CPU
        // fight between two saturated loops.
        std::thread::sleep(churn.unwrap_or_default());
    }
    // Leave the schema where it started: finish the cycle.
    while churn.is_some() && !alters.is_multiple_of(4) {
        generation = shared
            .alter(&churn_cycle(alters))
            .expect("cycle completion is accepted");
        alters += 1;
    }
    writer.join().expect("writer thread");
    let elapsed = start.elapsed();

    // Structural checks: every write landed on the untouched shard,
    // the schema is back to its original shape, and the metrics tell
    // the same story the loop does.
    assert_eq!(shared.count("HOT").expect("hot count") as u64, ops);
    assert_eq!(shared.count("WARM").expect("warm count") as u64, preload);
    assert_eq!(shared.schema().relation_names().count(), 2);
    let snap = shared.metrics();
    assert_eq!(snap.counter("evolve.alters").unwrap_or(0), alters);
    let (mut backfills, mut backfill_tuples) = (0u64, 0u64);
    for record in snap.events.iter() {
        if let ids_obs::Event::BackfillCompleted { tuples, .. } = record.event {
            backfills += 1;
            backfill_tuples += tuples;
        }
    }
    if churn.is_some() {
        assert!(alters >= 4, "churn must complete at least one full cycle");
    }
    let _ = std::fs::remove_dir_all(&root);

    EvolveRow {
        phase,
        writes: ops,
        elapsed,
        writes_per_sec: ops as f64 / elapsed.as_secs_f64(),
        alters,
        backfills,
        backfill_tuples,
        final_generation: generation,
    }
}

/// The E15 comparison: identical hot-relation write streams, without
/// and with continuous schema churn (smoke = tiny sizes).
pub fn sweep(smoke: bool) -> EvolveReport {
    let (ops, preload, pace) = if smoke {
        (3_000, 500, Duration::from_millis(5))
    } else {
        (30_000, 5_000, Duration::from_millis(100))
    };
    let baseline = run_phase("baseline", ops, preload, None);
    let churn = run_phase("alter churn", ops, preload, Some(pace));
    let ratio = churn.writes_per_sec / baseline.writes_per_sec;
    EvolveReport {
        baseline,
        churn,
        ratio,
    }
}

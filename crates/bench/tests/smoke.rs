//! Smoke test for the experiment suite: runs the `experiments` binary
//! with `--smoke` (minimum workload sizes) and checks that every
//! experiment section prints.  This keeps the whole E1–E6 pipeline
//! exercised by `cargo test` without paying for the full sweeps, which
//! belong to `cargo bench` / a manual `experiments` run.

use std::process::Command;

#[test]
fn experiments_smoke_covers_all_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--smoke")
        .output()
        .expect("experiments binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "experiments --smoke failed.\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for section in [
        "X1", "X2", "X3", "E1", "E2", "E3", "E4", "E5", "E6a", "E6b", "E7", "E8", "E9", "E10",
        "E11a", "E11b", "E12a", "E12b", "E13", "E14", "E15",
    ] {
        assert!(
            stdout.contains(&format!("{section} —")),
            "missing section {section} in output:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("verdict agreement across the example corpus"),
        "missing corpus sanity line:\n{stdout}"
    );
}

/// The throughput kernel itself (shared by the Criterion bench and E7)
/// must run end to end at smoke sizes: baseline plus every caller
/// count, store rows reaching the same op count as the sequential
/// engine.
#[test]
fn throughput_smoke_covers_all_caller_counts() {
    let rows = ids_bench::throughput::sweep(true);
    assert_eq!(rows.len(), 5, "local + 4 store rows");
    assert_eq!(rows[0].engine, "local");
    let caller_counts: Vec<usize> = rows
        .iter()
        .filter(|r| r.engine == "store")
        .map(|r| r.callers)
        .collect();
    assert_eq!(caller_counts, vec![1, 2, 4, 8]);
    for r in &rows {
        assert_eq!(r.ops, rows[0].ops, "every engine pushes the same ops");
        assert!(r.ops_per_sec > 0.0);
    }
}

/// The E8 kernel (shared with `experiments e8`) must run end to end at
/// smoke sizes.  Only structural properties are asserted — wall-clock
/// inequalities at microsecond scale are scheduler-noise-prone on
/// loaded CI runners; the `snapshot/read ≥ 1` claim belongs to the E8
/// experiment output, where the full-size medians make it robust.
#[test]
fn read_vs_snapshot_smoke_runs_end_to_end() {
    let rows = ids_bench::reads::sweep(true);
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(row.read > std::time::Duration::ZERO);
        assert!(row.snapshot > std::time::Duration::ZERO);
        assert!(row.snapshot_over_read > 0.0);
    }
}

/// The E9 kernel (shared with `experiments e9`) must run end to end at
/// smoke sizes: the in-memory baseline plus every sync policy reach the
/// same op count, and a recovery actually replays records.  Only
/// structural properties are asserted — wall-clock ratios at smoke
/// sizes are scheduler-noise-prone on loaded CI runners; the ≤ 2×
/// overhead claim belongs to the full-size E9 experiment output.
#[test]
fn durability_smoke_covers_all_sync_policies() {
    let (rows, recovery) = ids_bench::durability::sweep(true);
    assert_eq!(rows.len(), 4, "memory + never + batch + always");
    assert_eq!(rows[0].mode, "store (memory)");
    let modes: Vec<&str> = rows.iter().map(|r| r.mode).collect();
    assert!(modes.contains(&"wal-batch(4096)"));
    assert!(modes.contains(&"wal-always"));
    for r in &rows {
        assert_eq!(r.ops, rows[0].ops, "every mode pushes the same ops");
        assert!(r.ops_per_sec > 0.0);
        assert!(r.overhead > 0.0);
    }
    assert!(recovery.records > 0, "recovery must replay logged records");
    assert!(recovery.tuples > 0);
    assert!(recovery.records_per_sec > 0.0);
}

/// The E10 kernel (shared with `experiments e10`) must run end to end
/// at smoke sizes.  Timing ratios belong to the full-size experiment;
/// here only structural properties are asserted — including the byte
/// claim, which is scheduler-independent: a pushed-down point query
/// ships at most one tuple, a read ships the whole relation.
#[test]
fn query_pushdown_smoke_ships_fewer_tuples_than_read() {
    let rows = ids_bench::queries::sweep(true);
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(row.pushed > std::time::Duration::ZERO);
        assert!(row.read_filter > std::time::Duration::ZERO);
        assert!(row.snapshot_filter > std::time::Duration::ZERO);
        assert!(row.shipped_pushed < row.shipped_read);
        assert!(row.shipped_read >= row.per_relation as f64);
    }
}

/// The E11 kernels (shared with `experiments e11`) must run end to end
/// at smoke sizes.  Wall-clock belongs to the full-size experiment;
/// here the structural invariants are asserted: the fleet's accepted
/// inserts all round-trip, and under deliberate overload every request
/// is answered exactly once — served rows plus typed `Overloaded`
/// sheds conserve the burst, with at least one of each against a
/// depth-1 queue.
#[test]
fn network_smoke_conserves_requests_under_overload() {
    let rows = ids_bench::net::sweep(true);
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(row.elapsed > std::time::Duration::ZERO);
        assert!(row.ops_per_sec > 0.0);
    }
    let rows = ids_bench::net::overload_sweep(true);
    assert!(!rows.is_empty());
    for row in &rows {
        assert_eq!(row.served + row.shed, row.clients * row.burst);
        assert!(row.served > 0, "the worker must complete accepted scans");
        assert!(row.shed > 0, "a depth-1 queue under a burst must shed");
    }
}

/// The E12 conservation kernel (shared with `experiments e12`) must run
/// end to end at smoke sizes.  The equality between counter totals and
/// acknowledged outcomes is asserted *inside* the kernel; here the
/// report's shape is checked.  The on/off overhead measurement is not
/// run from this (multi-threaded) test binary — it flips the global
/// recording switch, which would race the other kernels' counter
/// assertions; it runs in the sequential `experiments` binary instead.
#[test]
fn observability_smoke_conserves_acknowledged_outcomes() {
    let report = ids_bench::obs::conservation_check(true);
    assert_eq!(report.ops, 200);
    assert!(report.relations >= 2, "conservation must span relations");
    assert!(report.accepted > 0);
    assert!(
        report.accepted + report.duplicate + report.rejected + report.removed <= report.ops as u64
    );
}

/// The E13 kernel (shared with `experiments e13`) must run end to end
/// at smoke sizes.  The throughput inequality belongs to the full-size
/// experiment (wall-clock ratios at smoke sizes are scheduler-noise-
/// prone); here the structural invariants are asserted: every reader
/// served its reads, the write stream ran, and every follower drained
/// to caught-up with zero lag once the writes stopped — conservation
/// (`shipped == applied + pending`) and exact point-read hits are
/// asserted inside the kernel itself.
#[test]
fn replica_scaling_smoke_drains_lag_after_writes_stop() {
    let rows = ids_bench::replica::sweep(true);
    assert_eq!(rows.len(), 3, "baseline + 1 + 2 followers");
    assert_eq!(rows[0].replicas, 0);
    for row in &rows {
        assert_eq!(row.readers, row.replicas.max(1));
        assert!(row.reads > 0, "readers must serve point reads");
        assert!(row.reads_per_sec > 0.0);
        assert!(row.writes > 0, "the write stream must actually run");
        assert!(row.caught_up, "followers must catch up after writes stop");
        assert_eq!(row.final_lag, 0, "drained lag must be zero");
        if row.replicas > 0 {
            assert!(
                row.caught_up_events >= row.replicas as u64,
                "every follower logs its caught-up transition"
            );
            assert!(
                !row.absorbed_series.is_empty(),
                "the read phase must sample the absorption trace"
            );
        }
    }
}

/// The E14 kernel (shared with `experiments e14`) must run end to end
/// at smoke sizes.  Timing ratios belong to the full-size experiment;
/// here the structural invariants are asserted: the acyclic planner
/// actually ran, both strategies agree on the answer size (asserted
/// inside the kernel), and the planner shipped strictly fewer tuples
/// than the whole-relation fold — the scheduler-independent claim.
#[test]
fn planned_join_smoke_ships_fewer_tuples_than_the_fold() {
    let rows = ids_bench::joins::sweep(true);
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(row.planner_ran, "the chain is acyclic: the planner runs");
        assert!(row.planned > std::time::Duration::ZERO);
        assert!(row.naive > std::time::Duration::ZERO);
        assert!(row.shipped_planned < row.shipped_naive);
        assert_eq!(row.shipped_naive, 3 * row.n, "the fold reads everything");
    }
}

/// The E15 kernel (shared with `experiments e15`) must run end to end
/// at smoke sizes.  The ≥0.8x throughput ratio belongs to the
/// full-size experiment (wall-clock ratios at smoke sizes are
/// scheduler-noise-prone); here the structural invariants are
/// asserted: both phases landed every hot write, the churn phase
/// completed whole transition cycles with real backfills, and the
/// generation advanced — all while the hot relation kept serving
/// (asserted inside the kernel).
#[test]
fn evolve_smoke_churns_transitions_under_load() {
    let report = ids_bench::evolve::sweep(true);
    for row in [&report.baseline, &report.churn] {
        assert!(row.writes > 0, "the hot write stream must run");
        assert!(row.writes_per_sec > 0.0);
    }
    assert_eq!(report.baseline.alters, 0, "the control phase never alters");
    assert!(
        report.churn.alters >= 4,
        "churn must complete at least one full add/drop cycle"
    );
    assert_eq!(
        report.churn.alters % 4,
        0,
        "churn leaves the schema where it started"
    );
    assert!(
        report.churn.backfills >= 1,
        "every add-FD pays a real backfill"
    );
    assert!(report.churn.backfill_tuples > 0);
    assert!(
        report.churn.final_generation > 1,
        "accepted transitions advance the WAL generation"
    );
    assert!(report.ratio > 0.0);
}

/// `--json` must land one well-formed `BENCH_<section>.json` per
/// section, in the invocation directory.
#[test]
fn experiments_json_mode_writes_bench_files() {
    let dir = std::env::temp_dir().join(format!("ids-bench-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--smoke", "--json"])
        .current_dir(&dir)
        .output()
        .expect("experiments binary runs");
    assert!(
        out.status.success(),
        "experiments --smoke --json failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for section in [
        "X1", "X2", "X3", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
        "E12", "E13", "E14", "E15",
    ] {
        let path = dir.join(format!("BENCH_{section}.json"));
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing BENCH_{section}.json: {e}"));
        assert!(
            body.contains(&format!("\"experiment\": \"{section}\"")),
            "BENCH_{section}.json misnames its experiment:\n{body}"
        );
        assert!(body.contains("\"tables\""), "{section}: no tables field");
        // Every document carries the uniform provenance stamp.
        assert!(
            body.contains("host CPUs:") && body.contains("section elapsed:"),
            "BENCH_{section}.json is missing the provenance note:\n{body}"
        );
        // Cheap well-formedness: balanced braces and brackets.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                body.chars().filter(|&c| c == open).count(),
                body.chars().filter(|&c| c == close).count(),
                "BENCH_{section}.json looks torn"
            );
        }
    }
    // Without --json nothing is written (the flag is the contract).
    let clean = std::env::temp_dir().join(format!("ids-bench-nojson-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&clean);
    std::fs::create_dir_all(&clean).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--smoke", "x1"])
        .current_dir(&clean)
        .output()
        .expect("experiments binary runs");
    assert!(out.status.success());
    assert!(std::fs::read_dir(&clean).unwrap().next().is_none());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean);
}

#[test]
fn experiments_accepts_section_filters() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--smoke", "x1", "e4"])
        .output()
        .expect("experiments binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("X1 —"));
    assert!(stdout.contains("E4 —"));
    assert!(
        !stdout.contains("E5 —"),
        "filter leaked other sections:\n{stdout}"
    );
}

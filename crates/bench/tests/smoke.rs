//! Smoke test for the experiment suite: runs the `experiments` binary
//! with `--smoke` (minimum workload sizes).  Every section asserts its
//! claim inside the binary, so a regressed claim fails here with the
//! binary's panic message; the checks below add that every section
//! printed and that `--json` writes numeric cells.

use std::process::Command;

/// Every section the suite prints, by table title prefix.
const SECTIONS: [&str; 15] = [
    "X1", "X2", "X3", "E1", "E2", "E3", "E4", "E5", "E6a", "E6b", "E8", "E10", "E12", "E13", "E14",
];

fn run_experiments(args: &[&str], dir: &std::path::Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("experiments binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "experiments {args:?} failed.\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ids-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `--smoke` runs every section, and every claim holds; `--json` lands
/// one `BENCH_<section>.json` per section, with numbers as numbers.
#[test]
fn experiments_smoke_asserts_every_claim_and_writes_numeric_json() {
    let dir = scratch_dir("json");
    let stdout = run_experiments(&["--smoke", "--json"], &dir);
    for section in SECTIONS {
        assert!(
            stdout.contains(&format!("### {section} —")),
            "missing section {section} in output:\n{stdout}"
        );
    }
    for section in [
        "X1", "X2", "X3", "E1", "E2", "E3", "E4", "E5", "E6", "E8", "E10", "E12", "E13", "E14",
    ] {
        let body = std::fs::read_to_string(dir.join(format!("BENCH_{section}.json")))
            .unwrap_or_else(|e| panic!("missing BENCH_{section}.json: {e}"));
        assert!(
            body.contains(&format!("\"experiment\": \"{section}\"")),
            "BENCH_{section}.json misnames its experiment:\n{body}"
        );
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
    // The smoke E14 row ships 50 tuples (pass 1's 20 gathered rows
    // included) and 40 keys against 900 folded.
    let e14 = std::fs::read_to_string(dir.join("BENCH_E14.json")).unwrap();
    for n in [50, 40, 900] {
        assert!(
            e14.contains(&format!("{{\"value\": {n}, \"unit\": \"count\"}}")),
            "BENCH_E14.json lacks the count {n}:\n{e14}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Section keys filter the run, and without `--json` nothing is written.
#[test]
fn experiments_accepts_section_filters() {
    let dir = scratch_dir("filter");
    let stdout = run_experiments(&["--smoke", "x1", "e4"], &dir);
    assert!(stdout.contains("X1 —"));
    assert!(stdout.contains("E4 —"));
    assert!(
        !stdout.contains("E5 —"),
        "filter leaked other sections:\n{stdout}"
    );
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

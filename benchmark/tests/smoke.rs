//! Shape check of the benchmark's output at smoke sizes: every named
//! metric is present, numeric, carries its unit and has a well-formed
//! name; the oracle found nothing wrong; `BENCHMARK.json` mirrors the
//! metric and workload tables.

use std::path::Path;
use std::process::Command;

use ids_benchmark::metrics::{END_TO_END, PER_LAYER};
use ids_benchmark::report::Json;
use ids_benchmark::workloads::WORKLOADS;

fn benchmark(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ids-benchmark"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the benchmark prints UTF-8")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn number(json: &Json, key: &str) -> f64 {
    let value = json
        .get(key)
        .and_then(Json::number)
        .unwrap_or_else(|| panic!("{key} is not a number in {json:?}"));
    assert!(value.is_finite(), "{key} = {value}");
    value
}

/// The driver's contract for the last line of standard output.
fn check_result_line(stdout: &str, names: &[(&str, &str)]) {
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).expect("the last line is one JSON object");
    let keys: Vec<&str> = result.object().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert!(number(&result, "attempted") >= 1.0);
    assert_eq!(number(&result, "failed"), 0.0);
    let metrics = result.get("metrics").expect("metrics").object();
    let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
    assert_eq!(reported, expected);
    for ((name, metric), (_, unit)) in metrics.iter().zip(names) {
        assert!(well_formed(name), "{name}");
        number(metric, "value");
        assert_eq!(
            metric.get("unit").and_then(Json::text),
            Some(*unit),
            "{name}"
        );
    }
}

#[test]
fn run_smoke_reports_every_end_to_end_metric_for_every_workload() {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke-run.json");
    benchmark(&[
        "run",
        "--smoke",
        "--seed",
        "7",
        "--out",
        file.to_str().unwrap(),
    ]);
    let run = Json::parse(&std::fs::read_to_string(&file).unwrap()).expect("the run file is JSON");
    let header = run.get("header").expect("header");
    for key in ["git_sha", "rustc", "scratch_filesystem"] {
        assert!(
            header.get(key).and_then(Json::text).is_some(),
            "header lacks {key}"
        );
    }
    for key in ["host_cpus", "seed", "seconds", "wal.device_fsync_us"] {
        number(header, key);
    }
    let workloads = run.get("workloads").expect("workloads").array();
    let names: Vec<_> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::text).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    for workload in workloads {
        assert_eq!(number(workload, "failed"), 0.0, "{workload:?}");
        assert!(number(workload, "attempted") >= 1.0);
        let metrics = workload.get("metrics").unwrap();
        assert_eq!(metrics.object().len(), END_TO_END.len());
        for row in &END_TO_END {
            let metric = metrics
                .get(row.name)
                .unwrap_or_else(|| panic!("{} missing", row.name));
            assert!(well_formed(row.name));
            assert!(
                number(metric, "value") > 0.0,
                "{} must never be 0",
                row.name
            );
            assert!(number(metric, "samples") >= 1.0);
            number(metric, "spread");
            assert_eq!(metric.get("unit").and_then(Json::text), Some(row.unit));
            assert_eq!(number(metric, "bound"), row.bound);
        }
    }
    // A run agrees with itself, and `compare` says so with exit code 0.
    let path = file.to_str().unwrap();
    let table = benchmark(&["compare", path, path]);
    assert!(!table.contains("DIFFERS"), "{table}");
}

#[test]
fn driver_form_prints_the_contract_line_for_both_trace_settings() {
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let flags = [
        "--smoke",
        "--workload",
        "wire-durable-write",
        "--seed",
        "11",
        "--seconds",
        "3",
    ];
    check_result_line(
        &benchmark(&[&flags[..], &["--trace", "0"]].concat()),
        &end_to_end,
    );
    check_result_line(
        &benchmark(&[&flags[..], &["--trace", "1"]].concat()),
        &per_layer,
    );
}

#[test]
fn benchmark_json_mirrors_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json is JSON");
    let list = |key: &str| {
        manifest
            .get(key)
            .unwrap_or_else(|| panic!("{key} missing"))
            .array()
    };
    let text = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::text)
            .unwrap_or_else(|| panic!("{key} missing"))
            .to_string()
    };

    let workloads = list("workloads");
    let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
    assert_eq!(workloads.len(), gated.len());
    for (listed, w) in workloads.iter().zip(gated) {
        assert_eq!(text(listed, "name"), w.name);
        assert_eq!(text(listed, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, row) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(listed, "name"), row.name);
        assert_eq!(text(listed, "unit"), row.unit);
        assert_eq!(text(listed, "better"), row.better.as_str());
        assert_eq!(number(listed, "bound"), row.bound);
        assert!(row.bound <= 0.25);
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (listed, row) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(listed, "name"), row.name);
        assert_eq!(text(listed, "unit"), row.unit);
        assert_eq!(text(listed, "better"), row.better.as_str());
        assert!(well_formed(row.name));
    }
    assert_eq!(list("paths"), [Json::Text("benchmark".to_string())]);
}

//! The benchmark against its own declarations: `BENCHMARK.json` lists what
//! the code declares, and the binary prints exactly those metrics, correct,
//! even with hostile `RLR_*` values exported.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::json::Json;
use perfbench::metrics::{self, END_TO_END, PER_LAYER, TRACE_OVERHEAD, WORKLOADS};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("valid JSON")
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr()
        .expect("array")
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("name"))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_declared_workloads_and_metrics() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = b
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    let paths = b.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::Str("perfbench".into())]);
    for arg in b.get("command").and_then(Json::as_arr).expect("command") {
        let arg = arg.as_str().expect("string argument");
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
    }

    let workloads = b.get("workloads").expect("workloads");
    assert_eq!(names(workloads), WORKLOADS);
    for w in workloads.as_arr().expect("array") {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let e2e = b.get("end_to_end").expect("end_to_end");
    assert_eq!(
        names(e2e),
        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    let mut setup_bound = 0.0;
    let mut max_bound: f64 = 0.0;
    for (entry, def) in e2e.as_arr().expect("array").iter().zip(END_TO_END) {
        assert_eq!(entry.keys(), ["name", "unit", "better", "bound"]);
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(def.better),
            "{}",
            def.name
        );
        let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        if def.name == "setup_s" {
            setup_bound = bound;
        }
        max_bound = max_bound.max(bound);
    }
    assert_eq!(setup_bound, max_bound, "setup_s carries the largest bound");

    let per_layer = b.get("per_layer").expect("per_layer");
    assert_eq!(names(per_layer), metrics::per_layer_names());
    for (entry, def) in per_layer
        .as_arr()
        .expect("array")
        .iter()
        .zip(PER_LAYER.iter().chain([&TRACE_OVERHEAD]))
    {
        assert_eq!(entry.keys(), ["name", "unit", "better"]);
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(def.better),
            "{}",
            def.name
        );
    }
}

/// Runs the binary in a private directory with every `RLR_*` knob set to a
/// value that would change results or inject faults if it leaked through.
fn run_hostile(workload: &str, trace: &str) -> (String, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("contract-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let leaked = dir.join("hostile-results");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(&dir)
        .env("RLR_SCALE", "full")
        .env("RLR_TIMING", "event")
        .env("RLR_JOBS", "2")
        .env("RLR_CHECKPOINT", "1")
        .env("RLR_RETRIES", "3")
        .env("RLR_BACKOFF_MS", "2000")
        .env("RLR_TASK_BUDGET", "1")
        .env("RLR_FAIL_PLAN", "panic:0:*;torn:16")
        .env("RLR_RESULTS_DIR", &leaked)
        .env("RLR_RETRAIN", "1")
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (String::from_utf8(out.stdout).expect("UTF-8 output"), leaked)
}

fn result(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn assert_correct(r: &Json, expected: &[&str]) {
    assert_eq!(r.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{r:?}");
    assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        r.get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let m = r.get("metrics").expect("metrics");
    assert_eq!(m.keys(), expected);
    for name in expected {
        let v = m.get(name).expect("metric");
        assert_eq!(v.keys(), ["value", "unit"]);
        assert!(
            v.get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

#[test]
fn hostile_environment_changes_no_digest() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    for workload in ["serving_tiers", "sim_1core"] {
        let (stdout, leaked) = run_hostile(workload, "0");
        let r = result(&stdout);
        assert_correct(&r, &e2e);
        for name in &e2e {
            let v = r
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{workload} {name} is never 0");
        }
        assert!(
            !leaked.exists(),
            "{workload} wrote under the exported RLR_RESULTS_DIR"
        );
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_a_waterfall() {
    let (stdout, _) = run_hostile("serving_tiers", "1");
    assert_correct(&result(&stdout), &metrics::per_layer_names());
    let waterfall: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("waterfall serving_tiers"))
        .collect();
    assert!(
        waterfall
            .iter()
            .any(|l| l.trim_start().starts_with("unattributed")),
        "{stdout}"
    );
    let total = waterfall
        .iter()
        .find(|l| l.trim_start().starts_with("total"))
        .expect("total row");
    assert!(
        total.trim_end().ends_with("100.00%"),
        "rows sum to the traced wall: {total}"
    );
}

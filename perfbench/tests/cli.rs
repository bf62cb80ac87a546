//! The benchmark's own end-to-end tests: a tiny-scale run of every
//! workload must print every named metric with a unit, and a wrong
//! partition or a wrong read answer must fail the run.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Workload-specific metrics each workload prints on its detail line
/// (`end_to_end_detail` untraced, `per_layer_detail` traced).
const DETAIL: [(&str, &[&str], &[&str]); 3] = [
    (
        "scc-deep",
        &["scc_s", "scc_vs_tarjan"],
        &["core.scc_s.sqr_prime", "core.first_scc_s", "baselines.tarjan_s.sd", "core.passes"],
    ),
    (
        "serve-read",
        &[],
        &[
            "engine.batch.memo_hit_ratio",
            "server.mean_batch",
            "server.http_s",
            "client.lateness_max_s",
            "self.client_s",
            "client.read_p99_ms",
        ],
    ),
    (
        "serve-write",
        &["read_p50_ms"],
        &[
            "engine.delta.apply_p95_s",
            "client.delta_p95_ms",
            "engine.delta.unattributed_s",
            "engine.planner.plan_s",
            "engine.planner.dag_spliced",
            "store.fsync_p50_s",
            "store.recovery_replay_s",
            "self.engine.catalog_s",
            "self.store_s",
            "client.read_p99_ms",
            "client.recover_s",
            "overhead.read_p50_ms",
        ],
    ),
];

/// The metric names of one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let body = spec.split(&format!("\"{section}\"")).nth(1).expect("section present");
    let body = body.split(']').next().expect("section is a list");
    body.split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(String::from)
        .collect()
}

/// Metric names of a `{name: {"value": v, "unit": u}, ...}` object, in order.
fn names(line: &str) -> Vec<String> {
    line.split("\": {\"value\": ")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .take(line.matches("{\"value\": ").count())
        .map(String::from)
        .collect()
}

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test output dir");
    dir
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Output {
    let out = out_dir(&format!("{workload}-{trace}-{}", extra.join("-")));
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace"])
        .arg(trace.to_string())
        .args(["--scale", "tiny", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("run perfbench")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).lines().last().unwrap_or("").to_string()
}

/// The value and unit of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<(f64, String)> {
    let pattern = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&pattern)? + pattern.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let (unit, _) = rest.split_once('"')?;
    Some((value.parse().ok()?, unit.to_string()))
}

fn assert_metrics(workload: &str, line: &str, names: &[&str]) {
    for name in names {
        let (value, unit) =
            metric(line, name).unwrap_or_else(|| panic!("{workload} lacks {name}: {line}"));
        assert!(value.is_finite(), "{workload} {name} = {value}");
        assert!(!unit.is_empty(), "{workload} {name} has no unit");
    }
}

/// The stdout line that starts with `{"<key>": `.
fn keyed_line(output: &Output, key: &str) -> String {
    let prefix = format!("{{\"{key}\": ");
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no {key} line"))
        .to_string()
}

#[test]
fn every_workload_emits_exactly_the_declared_end_to_end_metrics() {
    let expected = declared("end_to_end");
    assert!(!expected.is_empty());
    for (workload, detail, _) in DETAIL {
        let output = run(workload, 0, &[]);
        assert!(output.status.success(), "{workload}: {}", String::from_utf8_lossy(&output.stderr));
        let line = last_line(&output);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
        assert_eq!(names(&line), expected, "{workload}: {line}");
        assert_metrics(workload, &line, &expected.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(line.contains("\"failed\": 0, "), "{workload} had failed operations: {line}");
        assert_metrics(workload, &keyed_line(&output, "end_to_end_detail"), detail);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("\"provenance\": {\"nproc\": "), "{workload}: no provenance");
    }
}

#[test]
fn traced_runs_emit_exactly_the_declared_per_layer_metrics_and_spans() {
    let expected = declared("per_layer");
    assert!(expected.len() > 20);
    for (workload, _, detail) in DETAIL {
        let output = run(workload, 1, &[]);
        assert!(output.status.success(), "{workload}: {}", String::from_utf8_lossy(&output.stderr));
        let line = last_line(&output);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
        assert_eq!(names(&line), expected, "{workload}: {line}");
        assert_metrics(workload, &line, &expected.iter().map(String::as_str).collect::<Vec<_>>());
        assert_metrics(workload, &keyed_line(&output, "per_layer_detail"), detail);
        let trace = out_dir(&format!("{workload}-1-")).join(format!("trace-{workload}-7.jsonl"));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(text.lines().count() > 10, "{workload}: trace has no spans");
    }
}

#[test]
fn names_reads_metric_names_in_order() {
    let line = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                {\"b.x_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"a\": {\"value\": 2.0, \"unit\": \"ms\"}}}";
    assert_eq!(names(line), vec!["b.x_s".to_string(), "a".to_string()]);
}

#[test]
fn a_wrong_partition_fails_the_run() {
    let output = run("scc-deep", 0, &["--inject", "wrong-partition"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        !last_line(&output).contains("\"correct\""),
        "printed a result after a wrong partition"
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("differs from Tarjan"));
}

#[test]
fn a_wrong_read_answer_fails_the_run() {
    for workload in ["serve-read", "serve-write"] {
        let output = run(workload, 0, &["--inject", "wrong-answer"]);
        assert_eq!(output.status.code(), Some(1), "{workload}");
        assert!(!last_line(&output).contains("\"correct\""), "{workload} printed a result");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("wrong read answer"),
            "{workload}"
        );
    }
}

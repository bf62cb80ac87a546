//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scc-deep|serve-read|serve-write> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for about
//! `--seconds`, checks every output it can against a reference (Tarjan
//! partitions, BFS over the benchmark's own mirror of the served graph)
//! and prints a provenance line, the workload's own figures, then as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: exactly the end-to-end metrics of `BENCHMARK.json`, the same
//! names for every workload. A wrong output aborts with exit code 1 and no
//! result. `--trace 1` prints the per-layer metrics of `BENCHMARK.json`
//! instead and writes every span to `<out>/trace-<workload>-<seed>.jsonl`
//! (see `perfbench/README.md`).

mod alloc;
mod client;
mod host;
mod oracle;
mod report;
mod scc_deep;
mod serve;
mod serve_read;
mod serve_write;
mod stats;
mod trace;

use report::{Metrics, Outcome};
use std::path::PathBuf;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Input sizes: `Full` is the measured benchmark, `Tiny` a seconds-long
/// smoke of the same code paths for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// A deliberately wrong output, to prove the checks catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    None,
    WrongPartition,
    WrongAnswer,
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub inject: Inject,
    /// Where traces and the durable workload's data directories go.
    pub out: PathBuf,
}

impl Ctx {
    /// A seed for one named input stream, derived from `--seed`.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        pscc_runtime::hash64(self.seed ^ pscc_runtime::hash64(stream))
    }
}

const WORKLOADS: [&str; 3] = ["scc-deep", "serve-read", "serve-write"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> \
         [--scale full|tiny] [--inject none|wrong-partition|wrong-answer] [--out DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "scc-deep" => scc_deep::run(ctx),
        "serve-read" => serve_read::run(ctx),
        "serve-write" => serve_write::run(ctx),
        other => usage(&format!("unknown workload {other:?}")),
    }
}

/// Sizes and rates of a workload, for the provenance block.
fn workload_facts(name: &str, scale: Scale) -> String {
    match name {
        "scc-deep" => scc_deep::facts(scale),
        "serve-read" => serve_read::facts(scale),
        _ => serve_write::facts(scale),
    }
}

fn main() {
    let mut workload: Option<String> = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let (mut scale, mut inject) = (Scale::Full, Inject::None);
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = Some(value == "1"),
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => usage("--scale is full or tiny"),
                }
            }
            "--inject" => {
                inject = match value.as_str() {
                    "none" => Inject::None,
                    "wrong-partition" => Inject::WrongPartition,
                    "wrong-answer" => Inject::WrongAnswer,
                    _ => usage("--inject is none, wrong-partition or wrong-answer"),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = seed.unwrap_or_else(|| usage("--seed N is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds S is required"));
    let traced = traced.unwrap_or_else(|| usage("--trace 0|1 is required"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let ctx = Ctx { seed, seconds, scale, inject, out };
    let provenance = host::provenance(seed, seconds, traced, &workload_facts(&workload, scale));
    println!("{{\"provenance\": {provenance}}}");
    let (steal0, total0) = host::steal_ticks();

    let result = if traced {
        traced_run(&workload, &ctx, &provenance)
    } else {
        run_workload(&workload, &ctx).and_then(|o| {
            let (shared, detail) = o.end_to_end.split(&report::END_TO_END)?;
            println!("{{\"end_to_end_detail\": {}}}", detail.to_json());
            Ok(report::result_line(o.attempted, o.failed, &shared))
        })
    };
    let (steal1, total1) = host::steal_ticks();
    let steal_share =
        steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
    println!("{{\"host_during_run\": {{\"cpu_steal_share\": {steal_share:.4}}}}}");
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// A traced run: one untraced pass (the overhead baseline), then the same
/// pass with spans on. Prints the traced pass's per-layer metrics, each
/// layer's self time, and traced − untraced for every end-to-end metric.
fn traced_run(workload: &str, ctx: &Ctx, provenance: &str) -> Result<String, String> {
    let base = run_workload(workload, ctx)?;
    pscc_telemetry::drain_spans();
    trace::set_enabled(true);
    let dropped_before = pscc_telemetry::counter("pscc_trace_spans_dropped_total").get();
    let mut traced = run_workload(workload, ctx)?;
    trace::collect_program_spans();
    trace::set_enabled(false);
    let dropped = pscc_telemetry::counter("pscc_trace_spans_dropped_total").get() - dropped_before;

    let mut spans = trace::take();
    let program = trace::take_program_spans();
    trace::merge(&mut spans, &program);
    let mut layers = std::mem::take(&mut traced.per_layer);
    for (layer, secs) in trace::self_times(&spans) {
        layers.add(format!("self.{layer}_s"), secs, "s");
    }
    for (name, value, unit) in &traced.end_to_end.0 {
        if let Some(untraced) = base.end_to_end.get(name) {
            layers.add(format!("overhead.{name}"), value - untraced, unit);
        }
    }
    layers.add("client.fail_ratio", traced.fail_ratio(), "ratio");
    layers.add("host.vmhwm_mb", host::peak_rss_mb(), "MiB");
    layers.add("trace.spans", spans.len() as f64, "count");
    layers.add("trace.program_spans_dropped", dropped as f64, "count");

    let (shared, detail) = layers.split(&report::PER_LAYER)?;
    println!("{{\"per_layer_detail\": {}}}", detail.to_json());
    let mut file = format!("{{\"provenance\": {provenance}}}\n");
    file.push_str(&format!("{{\"per_layer\": {}}}\n", shared.to_json()));
    file.push_str(&format!("{{\"per_layer_detail\": {}}}\n", detail.to_json()));
    file.push_str(&format!("{{\"untraced\": {}}}\n", base.end_to_end.to_json()));
    file.push_str(&format!("{{\"traced\": {}}}\n", traced.end_to_end.to_json()));
    for (phase, window) in trace::take_telemetry() {
        file.push_str(&format!("{{\"telemetry\": \"{phase}\", \"window\": {window}}}\n"));
    }
    trace::write_spans(&mut file, &spans);
    let path = ctx.out.join(format!("trace-{workload}-{}.jsonl", ctx.seed));
    std::fs::write(&path, file).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    let (attempted, failed) = (base.attempted + traced.attempted, base.failed + traced.failed);
    Ok(report::result_line(attempted, failed, &shared))
}

/// The end-to-end metrics every workload reports, each for the workload's
/// own unit of work (see `perfbench/README.md`): `latency_p50_ms` is the
/// median time of one such unit, `throughput_per_s` how many of them
/// complete per second. Failures are the result line's `failed` out of
/// `attempted`.
pub fn end_to_end(
    m: &mut Metrics,
    setup_s: f64,
    peak_heap_mb: f64,
    latency_p50_ms: f64,
    throughput_per_s: f64,
) {
    m.add("setup_s", setup_s, "s");
    m.add("peak_heap_mb", peak_heap_mb, "MiB");
    m.add("latency_p50_ms", latency_p50_ms, "ms");
    m.add("throughput_per_s", throughput_per_s, "1/s");
}

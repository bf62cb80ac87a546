//! `scc-deep`: the paper's algorithm against sequential Tarjan on four
//! large-diameter graph families, where VGC, the hash bag and the label
//! sweep do the work. Same generators and scale-1 sizes as the bench
//! suite's `SD*`, `GL5*`, `SQR` and `SQR'`, with salts drawn from
//! `--seed`. Each family gets [`INSTANCES`] graphs per run: SCC time
//! varies by ±15% between instances of one family (the round count moves
//! with the structure), and averaging them keeps seed-to-seed spread
//! below the metrics' bounds.

use crate::report::{Metrics, Outcome};
use crate::stats::{geomean, median};
use crate::{host, trace, Ctx, Inject, Scale};
use pscc_core::{parallel_scc_with_stats, same_partition, SccConfig, SccStats};
use pscc_engine::{Index, IndexStats};
use pscc_graph::generators::knn::{knn_digraph, trajectory_points};
use pscc_graph::generators::lattice::{lattice_sqr, lattice_sqr_prime};
use pscc_graph::generators::simple::bowtie_web;
use pscc_graph::{DiGraph, V};
use std::hint::black_box;
use std::time::Instant;

/// Vertex counts at `Scale::Full` (the suite's scale 1).
const SD_N: usize = 60_000;
const GL5_N: usize = 50_000;
const SQR_SIDE: usize = 250;
/// Graphs per family.
const INSTANCES: u64 = 3;
/// Measured passes over the four graphs, at least.
const MIN_PASSES: usize = 3;
/// Runs per graph of a serving workload's traced-only [`probe`].
const PROBE_RUNS: usize = 3;

const PHASES: [&str; 5] = ["trim", "first_scc", "multi_search", "table_resize", "labeling"];

fn shrink(scale: Scale, n: usize) -> usize {
    match scale {
        Scale::Full => n,
        Scale::Tiny => n / 20,
    }
}

fn sqr_side(scale: Scale) -> usize {
    (shrink(scale, SQR_SIDE * SQR_SIDE) as f64).sqrt() as usize
}

pub fn facts(scale: Scale) -> String {
    let side = sqr_side(scale);
    format!(
        "{{\"instances_per_family\": {INSTANCES}, \"graphs\": {{\"sd\": \"bowtie_web n={} core=0.5 deg=4\", \"gl5\": \"knn k=5 over \
         trajectory_points n={} walks=50\", \"sqr\": \"lattice_sqr {side}x{side}\", \
         \"sqr_prime\": \"lattice_sqr_prime {side}x{side}\"}}, \"scc_config\": \"default\", \
         \"setups\": \"one per pass\", \"min_passes\": {MIN_PASSES}}}",
        shrink(scale, SD_N),
        shrink(scale, GL5_N),
    )
}

const FAMILIES: [&str; 4] = ["sd", "gl5", "sqr", "sqr_prime"];

/// One generated graph, as the edge list its CSR is built from.
struct Input {
    family: &'static str,
    n: usize,
    edges: Vec<(V, V)>,
}

/// Every graph of the run, families interleaved.
fn inputs(ctx: &Ctx) -> Vec<Input> {
    let side = sqr_side(ctx.scale);
    let mut graphs: Vec<(&'static str, DiGraph)> = Vec::new();
    for i in 0..INSTANCES {
        let salt = |family: u64| ctx.stream_seed(10 * family + i);
        let points = trajectory_points(shrink(ctx.scale, GL5_N), 50, salt(2));
        graphs.push(("sd", bowtie_web(shrink(ctx.scale, SD_N), 0.5, 4, salt(1))));
        graphs.push(("gl5", knn_digraph(&points, 5)));
        graphs.push(("sqr", lattice_sqr(side, side, salt(3))));
        graphs.push(("sqr_prime", lattice_sqr_prime(side, side, salt(4))));
    }
    graphs
        .into_iter()
        .map(|(family, g)| Input { family, n: g.n(), edges: g.out_csr().edges().collect() })
        .collect()
}

/// Geometric mean of `values` over the graphs of `family`.
fn family_geomean(inputs: &[Input], values: &[f64], family: &str) -> f64 {
    let of: Vec<f64> =
        inputs.iter().zip(values).filter(|(g, _)| g.family == family).map(|(_, v)| *v).collect();
    geomean(&of)
}

#[derive(Default)]
struct PerGraph {
    ours_s: Vec<f64>,
    peak_mb: Vec<f64>,
    tarjan_s: Vec<f64>,
    phase_s: [f64; PHASES.len()],
    other_s: f64,
    rounds: Vec<f64>,
    batches: Vec<f64>,
    trimmed: Vec<f64>,
}

impl PerGraph {
    /// Adds one run's phase seconds and counts.
    fn record(&mut self, stats: &SccStats) {
        let mut phased = 0.0;
        for (k, phase) in PHASES.iter().enumerate() {
            let s = stats.phase_seconds(phase);
            self.phase_s[k] += s;
            phased += s;
        }
        self.other_s += (stats.total_seconds - phased).max(0.0);
        self.rounds.push(stats.total_rounds() as f64);
        self.batches.push(stats.num_batches as f64);
        self.trimmed.push(stats.trimmed as f64);
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = inputs(ctx);

    // Set-up: the CSR builds. Every pass builds its graphs afresh, so
    // `setup_s` is a median over set-ups spread across the whole run
    // rather than over a burst of them that one stall of the host moves.
    let mut setup_samples = Vec::new();
    let mut graphs = build(&inputs, &mut setup_samples);

    // Reference partitions, outside any timing.
    let reference: Vec<Vec<u32>> = graphs.iter().map(pscc_baselines::tarjan_scc).collect();

    let cfg = SccConfig::default();
    let mut per: Vec<PerGraph> = graphs.iter().map(|_| PerGraph::default()).collect();
    let (mut cpu_user, mut cpu_sys, mut scc_wall) = (0.0, 0.0, 0.0);
    let mut attempted = 0u64;
    let started = Instant::now();
    let mut pass = 0usize;
    while pass < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        if pass > 0 {
            graphs.clear();
            graphs = build(&inputs, &mut setup_samples);
        }
        for (gi, g) in graphs.iter().enumerate() {
            // Alternate which side runs first so neither inherits the
            // other's cache state systematically.
            for side in [pass % 2, 1 - pass % 2] {
                attempted += 1;
                if side == 0 {
                    crate::alloc::reset_peak();
                    let (u0, s0) = host::cpu_seconds();
                    let t = Instant::now();
                    let (mut result, stats) = {
                        let _s = trace::span("core", "parallel_scc");
                        parallel_scc_with_stats(black_box(g), &cfg)
                    };
                    let wall = t.elapsed().as_secs_f64();
                    let (u1, s1) = host::cpu_seconds();
                    per[gi].peak_mb.push(crate::alloc::peak_mb());
                    cpu_user += u1 - u0;
                    cpu_sys += s1 - s0;
                    scc_wall += wall;
                    if ctx.inject == Inject::WrongPartition && pass == 0 && gi == 0 {
                        corrupt(&mut result.labels);
                    }
                    if !checked_partition(&result.labels, &reference[gi]) {
                        return Err(format!(
                            "parallel_scc partition of {} differs from Tarjan's",
                            inputs[gi].family
                        ));
                    }
                    per[gi].ours_s.push(wall);
                    per[gi].record(&stats);
                } else {
                    let t = Instant::now();
                    let labels = {
                        let _s = trace::span("baselines", "tarjan_scc");
                        pscc_baselines::tarjan_scc(black_box(g))
                    };
                    per[gi].tarjan_s.push(t.elapsed().as_secs_f64());
                    if !checked_partition(&labels, &reference[gi]) {
                        return Err(format!(
                            "tarjan_scc is not deterministic on {}",
                            inputs[gi].family
                        ));
                    }
                }
            }
        }
        pass += 1;
    }

    let setup_s = median(&setup_samples);
    let ours: Vec<f64> = per.iter().map(|p| median(&p.ours_s)).collect();
    let tarjan: Vec<f64> = per.iter().map(|p| median(&p.tarjan_s)).collect();
    let ratios: Vec<f64> = tarjan.iter().zip(&ours).map(|(t, o)| t / o).collect();
    let edges_per_s: Vec<f64> =
        inputs.iter().zip(&ours).map(|(g, o)| g.edges.len() as f64 / o).collect();

    let mut out = Outcome { attempted, failed: 0, ..Outcome::default() };
    let e2e = &mut out.end_to_end;
    let peaks: Vec<f64> = per.iter().map(|p| median(&p.peak_mb)).collect();
    let scc_s = geomean(&ours);
    crate::end_to_end(e2e, setup_s, geomean(&peaks), scc_s * 1e3, geomean(&edges_per_s));
    e2e.add("scc_s", scc_s, "s");
    e2e.add("scc_vs_tarjan", geomean(&ratios), "x");

    let l = &mut out.per_layer;
    l.add("graph.csr_build_s", setup_s, "s");
    let passes = pass as f64;
    l.add("runtime.cpu_user_s", cpu_user / passes, "s");
    l.add("runtime.cpu_sys_s", cpu_sys / passes, "s");
    l.add("runtime.busy_cores", (cpu_user + cpu_sys) / scc_wall, "cores");
    core_layers(l, &per, passes);
    for family in FAMILIES {
        l.add(format!("core.scc_s.{family}"), family_geomean(&inputs, &ours, family), "s");
        l.add(
            format!("baselines.tarjan_s.{family}"),
            family_geomean(&inputs, &tarjan, family),
            "s",
        );
    }
    l.add("core.passes", passes, "count");
    if trace::enabled() {
        // The index over the same graphs, the regime the serving
        // workloads leave out; traced runs only, outside every timing.
        let builds: Vec<(f64, IndexStats)> = graphs
            .iter()
            .map(|g| {
                let t = Instant::now();
                let index = {
                    let _s = trace::span("engine.index", "build");
                    Index::build(black_box(g))
                };
                (t.elapsed().as_secs_f64(), index.stats())
            })
            .collect();
        crate::serve::index_layers(l, &builds);
    }
    Ok(out)
}

/// Builds every graph's CSR from its edge list and records the seconds
/// the whole set took.
fn build(inputs: &[Input], setup_samples: &mut Vec<f64>) -> Vec<DiGraph> {
    let t = Instant::now();
    let graphs = inputs
        .iter()
        .map(|input| {
            let _s = trace::span("graph", "from_edges");
            DiGraph::from_edges(input.n, black_box(&input.edges))
        })
        .collect();
    setup_samples.push(t.elapsed().as_secs_f64());
    graphs
}

/// `same_partition`, inside a `check` span.
fn checked_partition<L: Copy + Eq + std::hash::Hash>(labels: &[L], reference: &[u32]) -> bool {
    let _s = trace::span("check", "same_partition");
    same_partition(labels, reference)
}

/// `core.*` and `baselines.tarjan_s` from per-graph readings: SCC and
/// Tarjan time are the geomean over graphs of each graph's median, phase
/// seconds the sum over graphs per pass, counts the sum over graphs of
/// each graph's median.
fn core_layers(l: &mut Metrics, per: &[PerGraph], passes: f64) {
    let ours: Vec<f64> = per.iter().map(|p| median(&p.ours_s)).collect();
    let tarjan: Vec<f64> = per.iter().map(|p| median(&p.tarjan_s)).collect();
    l.add("core.scc_s", geomean(&ours), "s");
    for (k, phase) in PHASES.iter().enumerate() {
        l.add(
            format!("core.{phase}_s"),
            per.iter().map(|p| p.phase_s[k]).sum::<f64>() / passes,
            "s",
        );
    }
    l.add("core.other_s", per.iter().map(|p| p.other_s).sum::<f64>() / passes, "s");
    // Rounds repeat within a few from run to run.
    l.add("core.rounds", per.iter().map(|p| median(&p.rounds)).sum(), "count");
    l.add("core.batches", per.iter().map(|p| median(&p.batches)).sum(), "count");
    l.add("core.trimmed", per.iter().map(|p| median(&p.trimmed)).sum(), "count");
    l.add("baselines.tarjan_s", geomean(&tarjan), "s");
}

/// Runs and checks `parallel_scc_with_stats` ([`PROBE_RUNS`] times) and
/// `tarjan_scc` on a serving workload's graphs, for its traced run's
/// `core.*` and `baselines.tarjan_s`: the same readings `scc-deep` takes,
/// on the low-diameter graphs that workload serves.
pub fn probe(l: &mut Metrics, graphs: &[DiGraph]) -> Result<(), String> {
    let cfg = SccConfig::default();
    let mut per: Vec<PerGraph> = graphs.iter().map(|_| PerGraph::default()).collect();
    for (g, p) in graphs.iter().zip(&mut per) {
        for _ in 0..PROBE_RUNS {
            let t = Instant::now();
            let reference = {
                let _s = trace::span("baselines", "tarjan_scc");
                pscc_baselines::tarjan_scc(black_box(g))
            };
            p.tarjan_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let (result, stats) = {
                let _s = trace::span("core", "parallel_scc");
                parallel_scc_with_stats(black_box(g), &cfg)
            };
            p.ours_s.push(t.elapsed().as_secs_f64());
            if !checked_partition(&result.labels, &reference) {
                return Err("parallel_scc partition of a served graph differs from Tarjan's".into());
            }
            p.record(&stats);
        }
    }
    core_layers(l, &per, PROBE_RUNS as f64);
    Ok(())
}

/// Moves one vertex into another vertex's component: a partition that
/// differs from the true one whatever the graph.
fn corrupt(labels: &mut [u64]) {
    if let Some(other) = labels.iter().position(|&l| l != labels[0]) {
        labels[0] = labels[other];
    }
}

//! What the two serving workloads share: the RMAT input, bringing a
//! catalog up behind `pscc_server` (fresh or recovered), the sampled
//! answer check, and the per-layer readings of the read path.

use crate::client::{self, Reader};
use crate::oracle::Mirror;
use crate::report::{Metrics, Pooled};
use crate::stats::{median, window_percentiles};
use crate::{trace, Ctx, Scale};
use pscc_engine::{Catalog, IndexStats};
use pscc_graph::generators::rmat::rmat_digraph;
use pscc_graph::{DiGraph, V};
use pscc_runtime::SplitMix64;
use pscc_server::{ServerConfig, ServerHandle};
use pscc_telemetry::TelemetrySnapshot;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const GRAPH: &str = "bench";
/// The fixed open-loop read rate: low enough that the coalescer runs
/// deadline-bound and p99 repeats run to run on two cores.
pub const READ_RATE: f64 = 20_000.0;
/// `client.read_p99_ms` is the median over half-second windows of each
/// window's p99, so a burst of CPU steal on a shared host moves a few
/// windows and not the figure; a window needs this many samples (ten
/// beyond its p99).
const WINDOW: usize = READ_RATE as usize / 2;
const WINDOW_MIN: usize = 1000;

/// Median over half-second windows of the `q`-quantile of open-loop
/// latencies (requests are due at [`READ_RATE`], in order).
pub fn windowed(latency_runs: &[&[f64]], q: f64) -> f64 {
    let per_window: Vec<f64> = latency_runs
        .iter()
        .flat_map(|run| window_percentiles(run, WINDOW, WINDOW_MIN, q))
        .collect();
    median(&per_window)
}

/// RMAT `(log2 n, sampled edges)`: the shape the engine and server
/// benches use.
pub fn rmat_shape(scale: Scale) -> (u32, usize) {
    match scale {
        Scale::Full => (16, 400_000),
        Scale::Tiny => (10, 6_000),
    }
}

/// A served graph, its edge list and the seconds its CSR build from that
/// list took, from `--seed` and `stream`.
pub fn rmat_input(ctx: &Ctx, stream: u64) -> (DiGraph, Vec<(V, V)>, f64) {
    let (log_n, m) = rmat_shape(ctx.scale);
    let generated = rmat_digraph(log_n, m, ctx.stream_seed(stream));
    let n = generated.n();
    let edges: Vec<(V, V)> = generated.out_csr().edges().collect();
    drop(generated);
    let t = Instant::now();
    let g = {
        let _s = trace::span("graph", "from_edges");
        DiGraph::from_edges(n, black_box(&edges))
    };
    (g, edges, t.elapsed().as_secs_f64())
}

pub fn uniform_pair(rng: &mut SplitMix64, n: usize) -> (V, V) {
    (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V)
}

/// A catalog entry served over loopback.
pub struct Served {
    pub catalog: Arc<Catalog>,
    pub server: ServerHandle,
    /// From the first catalog call to the first correct answer over HTTP.
    pub elapsed_s: f64,
    /// The `Catalog::index` call alone.
    pub index_s: f64,
    pub stats: IndexStats,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn shutdown(self) {
        let _s = trace::span("server", "shutdown");
        self.server.shutdown();
    }
}

/// How a catalog comes to hold the graph.
pub enum Source<'a> {
    /// `Catalog::insert`, then `persist_to` when a data directory is given.
    Fresh(DiGraph, Option<&'a Path>),
    /// `Catalog::open` over a data directory.
    Recover(&'a Path),
}

/// Brings `GRAPH` up behind a fresh server and times it to the first
/// answer for `probe`, which is checked against `mirror`.
pub fn bring_up(source: Source<'_>, probe: (V, V), mirror: &Mirror) -> Result<Served, String> {
    let _root = trace::span(
        "engine.catalog",
        match source {
            Source::Fresh(..) => "bring_up",
            Source::Recover(_) => "recover",
        },
    );
    let t = Instant::now();
    let catalog = match source {
        Source::Fresh(graph, dir) => {
            let catalog = Catalog::new();
            {
                let _s = trace::span("engine.catalog", "insert");
                catalog.insert(GRAPH, graph);
            }
            if let Some(dir) = dir {
                let _s = trace::span("store", "persist_to");
                catalog.persist_to(GRAPH, dir).map_err(|e| format!("persist_to: {e}"))?;
            }
            catalog
        }
        Source::Recover(dir) => {
            let _s = trace::span("engine.catalog", "open");
            Catalog::open(dir).map_err(|e| format!("Catalog::open: {e}"))?
        }
    };
    let catalog = Arc::new(catalog);
    let ti = Instant::now();
    let index = {
        let _s = trace::span("engine.index", "build");
        catalog.index(GRAPH).ok_or("the served graph is missing from the catalog")?
    };
    let index_s = ti.elapsed().as_secs_f64();
    let server = {
        let _s = trace::span("server", "start");
        pscc_server::start(catalog.clone(), ServerConfig::default())
            .map_err(|e| format!("server start: {e}"))?
    };
    let answer = {
        let _s = trace::span("client", "first_get");
        first_answer(server.local_addr(), probe)?
    };
    let elapsed_s = t.elapsed().as_secs_f64();
    mirror.check(&[probe], &[answer])?;
    Ok(Served { catalog, server, elapsed_s, index_s, stats: index.stats() })
}

fn first_answer(addr: SocketAddr, probe: (V, V)) -> Result<bool, String> {
    let mut stream = client::connect(addr);
    let mut reader = Reader::new(stream.try_clone().expect("clone stream"));
    let mut request = Vec::new();
    client::push_get(&mut request, GRAPH, probe);
    let mut body = Vec::new();
    match client::call(&mut stream, &mut reader, &request, &mut body) {
        Some(200) if body.len() == 1 => Ok(body[0] == b'1'),
        other => Err(format!("first answer failed: status {other:?}")),
    }
}

/// Checks a seeded sample of at most `count` served answers against BFS
/// on `mirror`; `flip` corrupts the first one (an injected wrong answer).
pub fn check_sample(
    mirror: &Mirror,
    served: &[((V, V), bool)],
    count: usize,
    seed: u64,
    flip: bool,
) -> Result<usize, String> {
    if served.is_empty() {
        return Ok(0);
    }
    let mut rng = SplitMix64::new(seed);
    let picks: Vec<usize> = if served.len() <= count {
        (0..served.len()).collect()
    } else {
        (0..count).map(|_| rng.next_below(served.len() as u64) as usize).collect()
    };
    let queries: Vec<(V, V)> = picks.iter().map(|&i| served[i].0).collect();
    let mut answers: Vec<bool> = picks.iter().map(|&i| served[i].1).collect();
    if flip {
        answers[0] = !answers[0];
    }
    let _s = trace::span("check", "bfs_oracle");
    mirror.check(&queries, &answers)
}

/// Asks a fresh seeded sample over HTTP (one batch request, outside any
/// timed window) and checks it: `sources` random sources with `targets`
/// random targets each.
pub fn check_over_http(
    addr: SocketAddr,
    mirror: &Mirror,
    seed: u64,
    sources: usize,
    targets: usize,
    flip: bool,
) -> Result<usize, String> {
    let mut rng = SplitMix64::new(seed);
    let n = mirror.n() as u64;
    let mut queries = Vec::with_capacity(sources * targets);
    for _ in 0..sources {
        let u = rng.next_below(n) as V;
        for _ in 0..targets {
            queries.push((u, rng.next_below(n) as V));
        }
    }
    let answers = {
        let _s = trace::span("client", "check_batch");
        client::batch_query(addr, GRAPH, &queries)?
    };
    let served: Vec<((V, V), bool)> = queries.into_iter().zip(answers).collect();
    check_sample(mirror, &served, usize::MAX, seed, flip)
}

fn graph_metric(base: &str) -> String {
    format!("{base}{{graph=\"{GRAPH}\"}}")
}

/// `engine.index.*` from the set-up builds (medians).
pub fn index_layers(l: &mut Metrics, builds: &[(f64, IndexStats)]) {
    let med =
        |f: &dyn Fn(&(f64, IndexStats)) -> f64| median(&builds.iter().map(f).collect::<Vec<f64>>());
    l.add("engine.index.build_s", med(&|b| b.0), "s");
    l.add("engine.index.scc_s", med(&|b| b.1.scc_seconds), "s");
    l.add("engine.index.condense_s", med(&|b| b.1.condense_seconds), "s");
    l.add("engine.index.levels_s", med(&|b| b.1.levels_seconds), "s");
    l.add("engine.index.summary_s", med(&|b| b.1.summary_seconds), "s");
    l.add("engine.index.summary_bytes", med(&|b| b.1.summary_bytes as f64), "bytes");
    l.add("engine.index.components", med(&|b| b.1.num_components as f64), "count");
}

/// `engine.batch.*` and `server.*` over the read windows: counts pooled
/// over `all`, service-time quantiles over `latency` only.
pub fn read_layers(l: &mut Metrics, all: &[&TelemetrySnapshot], latency: &[&TelemetrySnapshot]) {
    let counter = |name: &str| all.iter().map(|w| w.counter(name)).sum::<u64>() as f64;
    let mut calls = Pooled::default();
    for w in all {
        calls.add(w, "pscc_batch_query_nanos");
    }
    l.add("engine.batch.call_p50_s", calls.quantile_s(0.50), "s");
    l.add("engine.batch.call_p99_s", calls.quantile_s(0.99), "s");
    let queries = counter("pscc_batch_queries_total");
    l.add("engine.batch.queries", queries, "count");
    let hits = counter("pscc_batch_memo_hits_total");
    let misses = counter("pscc_batch_memo_misses_total");
    l.add("engine.batch.memo_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    let batches = counter(&graph_metric("pscc_server_batches_total"));
    let coalesced = counter(&graph_metric("pscc_server_coalesced_queries_total"));
    l.add("server.batches", batches, "count");
    l.add("server.mean_batch", coalesced / batches.max(1.0), "queries");
    l.add("server.overloads", counter(&graph_metric("pscc_server_overload_total")), "count");
    let mut service = Pooled::default();
    for w in latency {
        service.add(w, &graph_metric("pscc_server_service_nanos"));
    }
    l.add("server.service_p50_s", service.quantile_s(0.50), "s");
    l.add("server.service_p99_s", service.quantile_s(0.99), "s");
}

/// Sends open-loop warm-up traffic (unmeasured) so connections, lane and
/// caches are live before timing starts.
pub fn warm_up(addr: SocketAddr, n: usize, seed: u64, duration: Duration) {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut rng = SplitMix64::new(seed);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(duration);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        client::open_loop(addr, GRAPH, READ_RATE, &stop, || uniform_pair(&mut rng, n));
    });
}

//! `serve-read`: fresh point reads against an RMAT graph served by
//! `pscc_server`. Phase A is an open loop at [`READ_RATE`] on one
//! connection (the coalescer runs deadline-bound); phase B is a closed
//! loop of two connections with one pipelined window each (size-bound).
//! Pairs are uniform and never repeat, so the memo earns nothing here.
//!
//! `read_qps` is the closed loop's rate at its median window round trip
//! (`CONNS × WINDOW / median RTT`). On a shared virtual machine the host
//! steals CPU when it is busy; answered-over-elapsed and the phase-A p99
//! follow the steal (p99 read 0.57 ms or 5.2 ms on one host within an
//! hour), so those two are per-layer readings (`client.read_qps_wall`,
//! `client.read_p99_ms`) and only the medians are end-to-end metrics.

use crate::host::CpuMeter;
use crate::oracle::Mirror;
use crate::report::Outcome;
use crate::serve::{self, Source, GRAPH, READ_RATE};
use crate::stats::{median, percentile};
use crate::{client, scc_deep, trace, Ctx, Inject, Scale};
use pscc_graph::V;
use pscc_runtime::SplitMix64;
use pscc_telemetry::TelemetrySnapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Pipelined GETs per phase-B window, and phase-B connections.
const WINDOW: usize = 64;
const CONNS: usize = 2;
/// Share of `--seconds` spent in phase A; the rest is phase B.
const PHASE_A_SHARE: f64 = 0.6;
/// Answers checked against BFS from each phase.
const CHECK_A: usize = 2048;
const CHECK_B: usize = 1024;

pub fn facts(scale: Scale) -> String {
    let (log_n, m) = serve::rmat_shape(scale);
    format!(
        "{{\"graph\": \"rmat log_n={log_n} edges={m}\", \"setups\": {SETUPS}, \
         \"phase_a\": {{\"loop\": \"open\", \"rate_per_s\": {READ_RATE}, \"connections\": 1, \
         \"share_of_seconds\": {PHASE_A_SHARE}}}, \"phase_b\": {{\"loop\": \"closed\", \
         \"connections\": {CONNS}, \"window\": {WINDOW}}}, \"pairs\": \"fresh uniform\", \
         \"checked\": {}}}",
        CHECK_A + CHECK_B
    )
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    crate::alloc::reset_peak();
    let (graph, edges, csr_s) = serve::rmat_input(ctx, 21);
    let n = graph.n();
    let mirror = Mirror::new(n, &edges);
    let mut rng = SplitMix64::new(ctx.stream_seed(22));

    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(previous) = served.take() {
            serve::Served::shutdown(previous);
        }
        let probe = serve::uniform_pair(&mut rng, n);
        let s = serve::bring_up(Source::Fresh(graph.clone(), None), probe, &mirror)?;
        setups.push(s.elapsed_s);
        builds.push((s.index_s, s.stats.clone()));
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let addr = served.addr();
    trace::collect_program_spans();
    serve::warm_up(addr, n, ctx.stream_seed(23), Duration::from_millis(300));

    // Phase A: open loop at a fixed rate.
    let before_a = TelemetrySnapshot::capture();
    let stop = AtomicBool::new(false);
    let mut rng_a = SplitMix64::new(ctx.stream_seed(24));
    let mut cpu = CpuMeter::default();
    let a = cpu.measure(|| {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_secs_f64(ctx.seconds * PHASE_A_SHARE));
                stop.store(true, Ordering::Relaxed);
            });
            client::open_loop(addr, GRAPH, READ_RATE, &stop, || serve::uniform_pair(&mut rng_a, n))
        })
    });
    let window_a = TelemetrySnapshot::capture().since(&before_a);

    // Phase B: closed loop, one pipelined window in flight per connection.
    let before_b = TelemetrySnapshot::capture();
    let generators: Vec<_> = (0..CONNS)
        .map(|c| {
            let mut rng = SplitMix64::new(ctx.stream_seed(25 + c as u64));
            move || serve::uniform_pair(&mut rng, n)
        })
        .collect();
    let b = cpu.measure(|| {
        client::closed_loop(
            addr,
            GRAPH,
            WINDOW,
            Duration::from_secs_f64(ctx.seconds * (1.0 - PHASE_A_SHARE)),
            generators,
        )
    });
    let window_b = TelemetrySnapshot::capture().since(&before_b);
    trace::note_telemetry("serve-read phase A", &window_a);
    trace::note_telemetry("serve-read phase B", &window_b);
    served.shutdown();

    // Correctness, outside the timed windows.
    let answered_a: Vec<((V, V), bool)> =
        a.pairs.iter().zip(&a.answers).filter_map(|(&p, ans)| ans.map(|x| (p, x))).collect();
    let flip = ctx.inject == Inject::WrongAnswer;
    serve::check_sample(&mirror, &answered_a, CHECK_A, ctx.stream_seed(26), flip)?;
    serve::check_sample(&mirror, &b.sampled, CHECK_B, ctx.stream_seed(27), false)?;

    let attempted = a.answers.len() as u64 + b.answered + b.failed;
    let mut out = Outcome { attempted, failed: a.failed + b.failed, ..Outcome::default() };
    let read_p50_s = percentile(&a.latency_s, 0.50);
    let window_rtt_p50 = percentile(&b.window_rtt_s, 0.50);
    let read_qps = (CONNS * WINDOW) as f64 / window_rtt_p50;
    crate::end_to_end(
        &mut out.end_to_end,
        median(&setups),
        crate::alloc::peak_mb(),
        read_p50_s * 1e3,
        read_qps,
    );

    let l = &mut out.per_layer;
    l.add("graph.csr_build_s", csr_s, "s");
    cpu.layers(l);
    serve::index_layers(l, &builds);
    serve::read_layers(l, &[&window_a, &window_b], &[&window_a]);
    let service_p50 = l.get("server.service_p50_s").unwrap_or(0.0);
    l.add("server.http_s", read_p50_s - service_p50, "s");
    l.add("client.read_p99_ms", serve::windowed(&[&a.latency_s], 0.99) * 1e3, "ms");
    l.add("client.read_qps_wall", b.answered as f64 / b.elapsed_s, "1/s");
    l.add("client.lateness_max_s", a.lateness_max_s, "s");
    l.add("client.sent", attempted as f64, "count");
    l.add("client.window_rtt_p50_s", window_rtt_p50, "s");
    if trace::enabled() {
        scc_deep::probe(l, std::slice::from_ref(&graph))?;
    }
    Ok(out)
}

//! `serve-write`: durable single-edge deltas over HTTP next to a steady
//! read stream, then restart and recovery. Each cycle persists the RMAT
//! graph to a fresh data directory (fsync on every append, as shipped),
//! POSTs a closed-loop stream of [`DELTAS`] deltas on one connection —
//! inserts of random new edges alternating with deletes of random live
//! ones — while a second connection reads at [`READ_RATE`], 90% from a
//! hot set the memo can hold. Then the server stops, `Catalog::open`
//! recovers the directory, and sampled answers are checked against BFS
//! on the benchmark's mirror after the writes and again after recovery.
//! Every cycle serves its own RMAT instance, so one run averages over
//! several graphs; the cycle count follows from `--seconds` alone, so
//! counts and peak memory do not depend on how fast the host ran.

use crate::host::CpuMeter;
use crate::oracle::Mirror;
use crate::report::{Outcome, Pooled};
use crate::serve::{self, Source, GRAPH, READ_RATE};
use crate::stats::{median, percentile};
use crate::{client, scc_deep, trace, Ctx, Inject, Scale};
use pscc_graph::V;
use pscc_runtime::SplitMix64;
use pscc_telemetry::TelemetrySnapshot;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Deltas per cycle; p95 then has ten samples beyond it per cycle.
const DELTAS: usize = 200;
/// Hot read pairs (fits the catalog's default 2^16-entry memo) and the
/// share of reads drawn from them.
const HOT_PAIRS: usize = 4096;
const HOT_SHARE: f64 = 0.9;
/// Check sample: sources × targets per source.
const CHECK_SOURCES: usize = 128;
const CHECK_TARGETS: usize = 16;
const MIN_CYCLES: usize = 2;
/// Seconds of `--seconds` budgeted per cycle.
const CYCLE_SECONDS: f64 = 4.0;
/// Set-ups per cycle: the served one, after as many that are timed and
/// then shut down, so `setup_s` is a median over several per cycle.
const SETUPS_PER_CYCLE: usize = 3;

fn cycles(seconds: f64) -> usize {
    ((seconds / CYCLE_SECONDS).round() as usize).max(MIN_CYCLES)
}

pub fn facts(scale: Scale) -> String {
    let (log_n, m) = serve::rmat_shape(scale);
    format!(
        "{{\"graph\": \"rmat log_n={log_n} edges={m}\", \"durability\": \"persist_to, fsync per \
         append\", \"deltas_per_cycle\": {DELTAS}, \"delta\": \"one edge, insert/delete \
         alternating\", \"writer\": \"closed loop, 1 connection\", \"reads\": {{\"loop\": \
         \"open\", \"rate_per_s\": {READ_RATE}, \"connections\": 1, \"hot_pairs\": {HOT_PAIRS}, \
         \"hot_share\": {HOT_SHARE}}}, \"seconds_per_cycle\": {CYCLE_SECONDS}, \"setups_per_cycle\": {SETUPS_PER_CYCLE}, \"checked_per_check\": {}}}",
        CHECK_SOURCES * CHECK_TARGETS
    )
}

/// One delta: `(insert?, u, v)`.
type Step = (bool, V, V);

/// A stream of effective deltas against `edges`: inserts of absent edges
/// alternating with deletes of live ones.
fn delta_stream(n: usize, edges: &[(V, V)], seed: u64) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<(V, V)> = edges.to_vec();
    let mut present: HashSet<(V, V)> = edges.iter().copied().collect();
    let mut steps = Vec::with_capacity(DELTAS);
    for i in 0..DELTAS {
        if i % 2 == 0 || live.is_empty() {
            let e = loop {
                let e = serve::uniform_pair(&mut rng, n);
                if e.0 != e.1 && !present.contains(&e) {
                    break e;
                }
            };
            present.insert(e);
            live.push(e);
            steps.push((true, e.0, e.1));
        } else {
            let e = live.swap_remove(rng.next_below(live.len() as u64) as usize);
            present.remove(&e);
            steps.push((false, e.0, e.1));
        }
    }
    steps
}

#[derive(Default)]
struct Totals {
    setups: Vec<f64>,
    peak_mb: Vec<f64>,
    builds: Vec<(f64, pscc_engine::IndexStats)>,
    recovers: Vec<f64>,
    delta_s: Vec<f64>,
    read_s: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    lateness_max_s: f64,
    write_windows: Vec<TelemetrySnapshot>,
    whole_windows: Vec<TelemetrySnapshot>,
    repairs: [u64; 6],
    discarded: u64,
    wal_bytes: u64,
    stage_s: [f64; 6],
    stage_deltas: usize,
    csr_s: Vec<f64>,
    /// Acknowledged deltas and seconds of the write streams.
    deltas_acked: u64,
    writes_s: f64,
    cpu: CpuMeter,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let root = ctx.out.join(format!("data-{}-{}", std::process::id(), ctx.seed));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;

    let mut t = Totals::default();
    let cycles = cycles(ctx.seconds);
    let result = (0..cycles as u64).try_for_each(|cycle| {
        let dir = root.join(format!("cycle-{cycle}"));
        let step = run_cycle(ctx, cycle, &dir, &mut t);
        let _ = std::fs::remove_dir_all(&dir);
        step
    });
    let _ = std::fs::remove_dir_all(&root);
    result?;

    let cycles = cycles as f64;
    let mut out = Outcome { attempted: t.attempted, failed: t.failed, ..Outcome::default() };
    let e2e = &mut out.end_to_end;
    crate::end_to_end(
        e2e,
        median(&t.setups),
        median(&t.peak_mb),
        percentile(&t.delta_s, 0.50) * 1e3,
        t.deltas_acked as f64 / t.writes_s,
    );
    let reads: Vec<f64> = t.read_s.concat();
    e2e.add("read_p50_ms", percentile(&reads, 0.50) * 1e3, "ms");

    let l = &mut out.per_layer;
    l.add("graph.csr_build_s", median(&t.csr_s), "s");
    t.cpu.layers(l);
    serve::index_layers(l, &t.builds);
    let writes: Vec<&TelemetrySnapshot> = t.write_windows.iter().collect();
    serve::read_layers(l, &writes, &writes);
    let pooled = |name: &str| {
        let mut p = Pooled::default();
        for w in &t.write_windows {
            p.add(w, name);
        }
        p
    };
    let deltas = pooled(&format!("pscc_catalog_delta_nanos{{graph=\"{GRAPH}\"}}"));
    l.add("engine.delta.apply_p50_s", deltas.quantile_s(0.50), "s");
    l.add("engine.delta.apply_p95_s", deltas.quantile_s(0.95), "s");
    let per_delta = t.stage_deltas.max(1) as f64;
    for (k, stage) in ["normalize", "fsync", "execute", "swap", "unattributed"].iter().enumerate() {
        l.add(format!("engine.delta.{stage}_s"), t.stage_s[k] / per_delta, "s");
    }
    l.add("engine.planner.plan_s", t.stage_s[5] / per_delta, "s");
    l.add("engine.catalog.discarded_builds", t.discarded as f64, "count");
    let tiers = [
        "absorbed",
        "dag_spliced",
        "region_recomputed",
        "arc_unspliced",
        "scc_split",
        "full_rebuild",
    ];
    for (tier, count) in tiers.iter().zip(t.repairs) {
        l.add(format!("engine.planner.{tier}"), count as f64 / cycles, "count");
    }
    let mut snapshot_write = Pooled::default();
    let mut replay = Pooled::default();
    for w in &t.whole_windows {
        snapshot_write.add(w, "pscc_store_snapshot_write_nanos");
        replay.add(w, "pscc_store_recovery_replay_nanos");
    }
    l.add("store.snapshot_write_s", snapshot_write.mean_s(), "s");
    l.add("store.wal_append_s", pooled("pscc_wal_append_nanos").quantile_s(0.50), "s");
    let fsync = pooled("pscc_wal_fsync_nanos");
    l.add("store.fsync_p50_s", fsync.quantile_s(0.50), "s");
    l.add("store.fsync_p99_s", fsync.quantile_s(0.99), "s");
    let appends: u64 = t.write_windows.iter().map(|w| w.counter("pscc_wal_appends_total")).sum();
    l.add("store.wal_appends", appends as f64 / cycles, "count");
    l.add("store.wal_bytes_per_delta", t.wal_bytes as f64 / (cycles * DELTAS as f64), "bytes");
    let compactions: u64 =
        t.whole_windows.iter().map(|w| w.counter("pscc_store_compactions_total")).sum();
    l.add("store.compactions", compactions as f64, "count");
    l.add("store.recovery_replay_s", replay.mean_s(), "s");
    l.add("client.delta_p95_ms", percentile(&t.delta_s, 0.95) * 1e3, "ms");
    l.add("client.recover_s", median(&t.recovers), "s");
    let runs: Vec<&[f64]> = t.read_s.iter().map(Vec::as_slice).collect();
    l.add("client.read_p99_ms", serve::windowed(&runs, 0.99) * 1e3, "ms");
    l.add("client.lateness_max_s", t.lateness_max_s, "s");
    l.add("client.sent", t.attempted as f64, "count");
    l.add("client.cycles", cycles, "count");
    if trace::enabled() {
        // The cycles' graphs again, once every peak has been read.
        let graphs: Vec<_> =
            (0..cycles as u64).map(|cycle| serve::rmat_input(ctx, 100 + cycle).0).collect();
        scc_deep::probe(l, &graphs)?;
    }
    Ok(out)
}

fn run_cycle(ctx: &Ctx, cycle: u64, dir: &Path, t: &mut Totals) -> Result<(), String> {
    crate::alloc::reset_peak();
    let (graph, edges, csr_s) = serve::rmat_input(ctx, 100 + cycle);
    t.csr_s.push(csr_s);
    let n = graph.n();
    let base = Mirror::new(n, &edges);
    let steps = delta_stream(n, &edges, ctx.stream_seed(1000 + cycle));
    drop(edges);
    let mut rng = SplitMix64::new(ctx.stream_seed(2000 + cycle));
    let hot: Vec<(V, V)> = (0..HOT_PAIRS).map(|_| serve::uniform_pair(&mut rng, n)).collect();
    let before_cycle = TelemetrySnapshot::capture();

    for extra in 1..SETUPS_PER_CYCLE {
        let probe = serve::uniform_pair(&mut rng, n);
        let extra_dir = dir.with_extension(format!("setup-{extra}"));
        let served = serve::bring_up(Source::Fresh(graph.clone(), Some(&extra_dir)), probe, &base);
        let _ = std::fs::remove_dir_all(&extra_dir);
        let served = served?;
        t.setups.push(served.elapsed_s);
        served.shutdown();
    }
    let probe = serve::uniform_pair(&mut rng, n);
    let served = serve::bring_up(Source::Fresh(graph, Some(dir)), probe, &base)?;
    t.setups.push(served.elapsed_s);
    t.builds.push((served.index_s, served.stats.clone()));
    let addr = served.addr();
    trace::collect_program_spans();

    // Writes on one connection while a second one reads at a fixed rate.
    let before = TelemetrySnapshot::capture();
    let stop = AtomicBool::new(false);
    let mut read_rng = SplitMix64::new(ctx.stream_seed(3000 + cycle));
    let (reads, delta_s, delta_failed, writes_s) = t.cpu.measure(|| {
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                client::open_loop(addr, GRAPH, READ_RATE, &stop, || {
                    if read_rng.next_f64() < HOT_SHARE {
                        hot[read_rng.next_below(hot.len() as u64) as usize]
                    } else {
                        serve::uniform_pair(&mut read_rng, n)
                    }
                })
            });
            let started = Instant::now();
            let writes = write_deltas(addr, &steps);
            let writes_s = started.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            (reader.join().expect("read stream"), writes.0, writes.1, writes_s)
        })
    });
    t.deltas_acked += steps.len() as u64 - delta_failed;
    t.writes_s += writes_s;
    let window = TelemetrySnapshot::capture().since(&before);
    stage_times(&trace::collect_program_spans(), t);
    trace::note_telemetry(&format!("serve-write cycle {cycle} writes"), &window);
    t.write_windows.push(window);
    t.delta_s.extend(&delta_s);
    t.read_s.push(reads.latency_s);
    t.lateness_max_s = t.lateness_max_s.max(reads.lateness_max_s);
    t.attempted += (steps.len() + reads.answers.len()) as u64;
    t.failed += delta_failed + reads.failed;

    let mut mirror = base;
    for &(insert, u, v) in &steps {
        if insert {
            mirror.insert(u, v);
        } else {
            mirror.delete(u, v);
        }
    }
    let flip = ctx.inject == Inject::WrongAnswer;
    let check_seed = ctx.stream_seed(4000 + cycle);
    serve::check_over_http(addr, &mirror, check_seed, CHECK_SOURCES, CHECK_TARGETS, flip)?;
    let repairs = served.catalog.repair_counts(GRAPH).unwrap_or_default();
    for (slot, count) in t.repairs.iter_mut().zip([
        repairs.absorbed,
        repairs.dag_spliced,
        repairs.region_recomputed,
        repairs.arc_unspliced,
        repairs.scc_split,
        repairs.full_rebuilds,
    ]) {
        *slot += count;
    }
    t.discarded += served.catalog.discarded_builds(GRAPH).unwrap_or(0);
    t.wal_bytes += served.catalog.store_bytes(GRAPH).map(|(wal, _)| wal).unwrap_or(0);
    served.shutdown();

    // Restart: recover the data directory and answer again.
    let probe = serve::uniform_pair(&mut rng, n);
    let recovered = serve::bring_up(Source::Recover(dir), probe, &mirror)?;
    t.recovers.push(recovered.elapsed_s);
    serve::check_over_http(
        recovered.addr(),
        &mirror,
        check_seed,
        CHECK_SOURCES,
        CHECK_TARGETS,
        false,
    )?;
    recovered.shutdown();
    trace::collect_program_spans();
    t.peak_mb.push(crate::alloc::peak_mb());
    let whole = TelemetrySnapshot::capture().since(&before_cycle);
    t.whole_windows.push(whole);
    Ok(())
}

/// POSTs each delta and waits for its acknowledgement. Returns the
/// per-delta latencies (failures at [`client::FAILED_LATENCY_S`]) and
/// the failure count.
fn write_deltas(addr: std::net::SocketAddr, steps: &[Step]) -> (Vec<f64>, u64) {
    let mut stream = client::connect(addr);
    let mut reader = client::Reader::new(stream.try_clone().expect("clone stream"));
    let path = format!("/delta/{GRAPH}");
    let (mut request, mut body, mut line) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = Vec::with_capacity(steps.len());
    let mut failed = 0u64;
    for &(insert, u, v) in steps {
        line.clear();
        line.extend_from_slice(if insert { b"+ " } else { b"- " });
        client::push_digits(&mut line, u as u64);
        line.push(b' ');
        client::push_digits(&mut line, v as u64);
        line.push(b'\n');
        request.clear();
        client::push_post(&mut request, &path, &line);
        let t = Instant::now();
        let status = {
            let _s = trace::span("client", "delta");
            client::call(&mut stream, &mut reader, &request, &mut body)
        };
        let elapsed = t.elapsed().as_secs_f64();
        if status == Some(200) && body.starts_with(b"outcome ") {
            latencies.push(elapsed);
        } else {
            latencies.push(client::FAILED_LATENCY_S);
            failed += 1;
            if status.is_none() {
                // The connection is gone; reconnect for the rest.
                stream = client::connect(addr);
                reader = client::Reader::new(stream.try_clone().expect("clone stream"));
            }
        }
    }
    (latencies, failed)
}

/// Adds each `apply_delta` trace's stage durations (normalize, fsync,
/// execute, swap, the remainder, and plan inside execute) to the totals.
fn stage_times(program: &[pscc_telemetry::SpanRecord], t: &mut Totals) {
    for root in program.iter().filter(|s| s.name == "apply_delta" && s.parent == 0) {
        let mut stages = [0u64; 6];
        for s in program.iter().filter(|s| s.trace == root.trace && s.id != root.id) {
            let slot = match s.name {
                "normalize" => 0,
                "fsync" => 1,
                "execute" => 2,
                "swap" => 3,
                "plan" => 5,
                _ => continue,
            };
            stages[slot] += s.duration_nanos();
        }
        stages[4] =
            root.duration_nanos().saturating_sub(stages[0] + stages[1] + stages[2] + stages[3]);
        for (total, s) in t.stage_s.iter_mut().zip(stages) {
            *total += s as f64 * 1e-9;
        }
        t.stage_deltas += 1;
    }
}

//! What a workload returns, and the JSON it is printed as.

use pscc_telemetry::metrics::{bucket_lower, bucket_upper};
use pscc_telemetry::{HistogramSnapshot, TelemetrySnapshot, HISTOGRAM_BUCKETS};

/// The end-to-end metrics of `BENCHMARK.json`: every workload prints
/// exactly these on its untraced result line.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_heap_mb", "latency_p50_ms", "throughput_per_s"];

/// The per-layer metrics of `BENCHMARK.json`: every workload's traced
/// result line holds exactly these. They are the layers every workload
/// runs through (for `core` and `baselines` on the serving workloads, and
/// `engine.index` on `scc-deep`, through a traced-only probe on the
/// workload's own graphs); the layers only some workloads reach go to
/// the `per_layer_detail` line and the trace file.
pub const PER_LAYER: [&str; 32] = [
    "graph.csr_build_s",
    "runtime.cpu_user_s",
    "runtime.cpu_sys_s",
    "runtime.busy_cores",
    "core.scc_s",
    "core.trim_s",
    "core.multi_search_s",
    "core.table_resize_s",
    "core.labeling_s",
    "core.other_s",
    "core.rounds",
    "core.batches",
    "core.trimmed",
    "baselines.tarjan_s",
    "engine.index.build_s",
    "engine.index.scc_s",
    "engine.index.condense_s",
    "engine.index.levels_s",
    "engine.index.summary_s",
    "engine.index.summary_bytes",
    "engine.index.components",
    "self.graph_s",
    "self.core_s",
    "self.baselines_s",
    "self.engine.index_s",
    "self.check_s",
    "overhead.setup_s",
    "overhead.peak_heap_mb",
    "overhead.latency_p50_ms",
    "overhead.throughput_per_s",
    "host.vmhwm_mb",
    "trace.spans",
];

/// Named metrics with units, in the order they were added.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Splits into the metrics named in `shared`, in that order, and the
    /// rest. Every name in `shared` must be present exactly once.
    pub fn split(self, shared: &[&str]) -> Result<(Metrics, Metrics), String> {
        let mut named = Metrics::default();
        for &name in shared {
            let mut found = self.0.iter().filter(|(n, _, _)| n == name);
            match (found.next(), found.next()) {
                (Some(m), None) => named.0.push(m.clone()),
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} was measured twice")),
            }
        }
        let rest = self.0.into_iter().filter(|(n, _, _)| !shared.contains(&n.as_str())).collect();
        Ok((named, Metrics(rest)))
    }

    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A finite JSON number with every digit of the measurement.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// One workload pass.
#[derive(Default, Debug)]
pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Failed, refused or timed-out operations over those attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The final line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    )
}

/// Histogram windows of one metric pooled across several phases, read
/// with the same in-bucket interpolation the program's exposition uses.
pub struct Pooled {
    buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    max: u64,
}

impl Default for Pooled {
    fn default() -> Self {
        Pooled { buckets: vec![0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Pooled {
    pub fn add(&mut self, window: &TelemetrySnapshot, name: &str) {
        if let Some(h) = window.histogram(name) {
            self.add_snapshot(h);
        }
    }

    pub fn add_snapshot(&mut self, h: &HistogramSnapshot) {
        for (i, b) in self.buckets.iter_mut().enumerate() {
            *b += h.bucket(i);
        }
        self.count += h.count;
        self.sum += h.sum;
        self.max = self.max.max(h.max);
    }

    /// The `q`-quantile in seconds (`0.0` when empty).
    pub fn quantile_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= rank {
                let lo = bucket_lower(idx) as f64;
                let hi = bucket_upper(idx).min(self.max).max(bucket_lower(idx)) as f64;
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).min(self.max as f64) * 1e-9;
            }
            cum += c;
        }
        self.max as f64 * 1e-9
    }

    /// Mean recorded value in seconds.
    pub fn mean_s(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_windows_match_one_histogram() {
        let a = pscc_telemetry::Histogram::new();
        let b = pscc_telemetry::Histogram::new();
        let both = pscc_telemetry::Histogram::new();
        for v in 1..=100u64 {
            let h = if v % 2 == 0 { &a } else { &b };
            h.record_nanos(v * 1000);
            both.record_nanos(v * 1000);
        }
        let mut pooled = Pooled::default();
        pooled.add_snapshot(&a.snapshot());
        pooled.add_snapshot(&b.snapshot());
        let whole = both.snapshot();
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(pooled.quantile_s(q), whole.quantile_seconds(q));
        }
        assert_eq!(pooled.count, 100);
        assert!((pooled.mean_s() - 50.5e-6).abs() < 1e-12);
    }

    #[test]
    fn split_keeps_the_shared_order_and_requires_every_name() {
        let mut m = Metrics::default();
        m.add("b", 2.0, "s");
        m.add("x", 9.0, "count");
        m.add("a", 1.0, "s");
        let (shared, rest) = m.split(&["a", "b"]).expect("both present");
        assert_eq!(shared.0, vec![("a".to_string(), 1.0, "s"), ("b".to_string(), 2.0, "s")]);
        assert_eq!(rest.0, vec![("x".to_string(), 9.0, "count")]);
        let (shared, _) = shared.split(&["a"]).expect("a present");
        assert!(shared.split(&["b"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.25, "s");
        let line = result_line(10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}

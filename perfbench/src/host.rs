//! Host facts and process counters read from `/proc` and `/sys`.

use std::fmt::Write as _;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `(steal, total)` CPU ticks of the whole host since boot, from
/// `/proc/stat`: the share stolen by other tenants of a virtual machine.
pub fn steal_ticks() -> (u64, u64) {
    let Some(stat) = read("/proc/stat") else { return (0, 0) };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Process-wide `(user, system)` CPU seconds from `/proc/self/stat`
/// (every thread, live or exited; 10 ms ticks).
pub fn cpu_seconds() -> (f64, f64) {
    let Some(stat) = read("/proc/self/stat") else { return (0.0, 0.0) };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0) / 100.0;
    (tick(11), tick(12))
}

/// Process CPU time and wall time summed over measured phases.
#[derive(Default)]
pub struct CpuMeter {
    user_s: f64,
    sys_s: f64,
    wall_s: f64,
}

impl CpuMeter {
    /// Runs `phase`, adding its CPU and wall seconds.
    pub fn measure<T>(&mut self, phase: impl FnOnce() -> T) -> T {
        let (u0, s0) = cpu_seconds();
        let t = std::time::Instant::now();
        let out = phase();
        self.wall_s += t.elapsed().as_secs_f64();
        let (u1, s1) = cpu_seconds();
        self.user_s += u1 - u0;
        self.sys_s += s1 - s0;
        out
    }

    /// `runtime.cpu_user_s` and `runtime.cpu_sys_s` (totals) and
    /// `runtime.busy_cores` (CPU seconds per wall second).
    pub fn layers(&self, l: &mut crate::report::Metrics) {
        l.add("runtime.cpu_user_s", self.user_s, "s");
        l.add("runtime.cpu_sys_s", self.sys_s, "s");
        l.add("runtime.busy_cores", (self.user_s + self.sys_s) / self.wall_s.max(1e-9), "cores");
    }
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_commit() -> String {
    // The benchmark may run from a plain export with no `.git`.
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
    .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The provenance block: host, toolchain, build, commit, seed and the
/// workload's fixed sizes and rates (`workload` is a JSON object).
pub fn provenance(seed: u64, seconds: f64, trace: bool, workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let l3 = read("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = read("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"l3\": {}, \"kernel\": {}, \"rustc\": {}, \
         \"profile\": {}, \"git_commit\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"workload\": {workload}}}",
        json_str(&cpu_model()),
        json_str(&l3),
        json_str(&kernel),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_commit()),
    );
    out
}

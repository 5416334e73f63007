//! Metric names, statistics helpers, host facts and the result line.

use std::fmt::Write as _;

/// End-to-end metrics (printed by untraced runs), as `(name, unit)`.
/// Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_kops", "kops/s"),
    ("update_kops", "kops/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("post_shift_kops", "kops/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics (printed by traced runs), as `(name, unit)`. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core.txn
    ("txn.begin_ns", "ns"),
    ("txn.read_ns", "ns"),
    ("txn.write_ns", "ns"),
    ("txn.commit_ns", "ns"),
    ("txn.commit_p99_ns", "ns"),
    ("txn.retry_ns", "ns"),
    ("txn.run_self_ns", "ns"),
    ("txn.attempts_per_op", "ratio"),
    ("txn.commit_ratio", "ratio"),
    ("txn.abort_wlock_pk", "1/1000"),
    ("txn.abort_validation_pk", "1/1000"),
    ("txn.abort_rlock_pk", "1/1000"),
    ("txn.abort_switching_pk", "1/1000"),
    ("txn.abort_killed_pk", "1/1000"),
    ("txn.aliased_share", "ratio"),
    // structures / stamp.vacation
    ("structures.map_get_ns", "ns"),
    ("structures.map_put_ns", "ns"),
    ("vacation.query_ns", "ns"),
    ("vacation.reserve_ns", "ns"),
    ("vacation.delete_customer_ns", "ns"),
    ("vacation.update_tables_ns", "ns"),
    // core.snapshot
    ("snapshot.read_ns", "ns"),
    ("snapshot.restarts_pk", "1/1000"),
    ("snapshot.history_share", "ratio"),
    ("snapshot.overflow_pk", "1/1000"),
    // core.quiesce
    ("quiesce.switch_us", "us"),
    ("quiesce.resize_us", "us"),
    ("quiesce.ring_us", "us"),
    ("quiesce.split_us", "us"),
    ("quiesce.merge_us", "us"),
    ("quiesce.privatize_us", "us"),
    ("quiesce.republish_us", "us"),
    ("quiesce.refused_ratio", "ratio"),
    ("quiesce.retired_bindings", "count"),
    ("action_p50_us", "us"),
    ("action_p99_us", "us"),
    // core.profiler, analysis.online, repart.controller/directory
    ("profiler.drop_ratio", "ratio"),
    ("controller.step_idle_us", "us"),
    ("controller.step_action_us", "us"),
    ("controller.actions", "count"),
    ("controller.failed_actions", "count"),
    ("controller.react_s", "s"),
    // obs and whole-run
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("fail_ratio", "ratio"),
    ("rss_growth_mb", "MiB"),
];

/// Collected metric values, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` (must be a listed metric).
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object for `list`: every listed metric, 0 if unset.
    pub fn to_json(&self, list: &[(&str, &str)]) -> String {
        let mut s = String::from("{");
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit `f64` holds.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Quantile `q` of `sorted` (ascending). To keep every digit of a
/// measurement, the estimate is the mean of the samples whose rank lies
/// within 0.25% of `q` (at least the one at rank `q`), not a single
/// integer sample.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let at = ((q * (n - 1) as f64).round() as usize).min(n - 1);
    let w = n / 400;
    let lo = at.saturating_sub(w);
    let hi = (at + w).min(n - 1);
    let sum: u64 = sorted[lo..=hi].iter().sum();
    sum as f64 / (hi - lo + 1) as f64
}

/// Sorts `v` and returns its quantile `q`.
pub fn quantile_of(v: &mut [u64], q: f64) -> f64 {
    v.sort_unstable();
    quantile(v, q)
}

/// Resident set size of this process in MiB (`/proc/self/status`).
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts stored with every result.
pub fn host_facts(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"profile\": \"{profile}\", \"commit\": \"{}\", \
         \"source_digest\": \"{:016x}\"}}",
        num(seconds),
        u8::from(trace),
        commit(),
        source_digest()
    )
}

/// The commit being measured: `git rev-parse HEAD` when the checkout is a
/// git repository, else `unknown` (see `source_digest` for that case).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest of the measured sources (`crates/`, `perfbench/src/`),
/// which identifies the code even where the checkout carries no git data.
fn source_digest() -> u64 {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    let mut d = crate::gen::Digest::default();
    for f in files {
        let rel = f.strip_prefix(&root).unwrap_or(&f);
        for b in rel.to_string_lossy().bytes() {
            d.word(u64::from(b));
        }
        if let Ok(bytes) = std::fs::read(&f) {
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                d.word(u64::from_le_bytes(w));
            }
        }
    }
    d.0
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_a_local_mean() {
        let v: Vec<u64> = (0..10_000).collect();
        // rank 4999.5 → 5000, window ±25.
        assert_eq!(quantile(&v, 0.5), 5000.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_lists_every_metric_with_unit() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        let j = m.to_json(&END_TO_END[4..]);
        assert_eq!(
            j,
            "{\"post_shift_kops\": {\"value\": 0, \"unit\": \"kops/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}"
        );
    }
}

//! The four workloads. Each builds its state (timed as `setup_s`), drives
//! the closed loop, checks its results and reports its metrics.

pub mod churn;
pub mod oltp;
pub mod read_mostly;
pub mod shift;

use std::collections::BTreeMap;

use partstm_core::{PartitionId, StatCounters, Stm};

use crate::harness::{layer_metrics, leaked_locks, stats_since, Driven, RunCfg};
use crate::metrics::Metrics;

/// Workload names, as given to `--workload`.
pub const NAMES: [&str; 4] = ["oltp", "read-mostly", "shift", "churn"];

/// A finished run.
pub struct Outcome {
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Operations, control-plane calls and final checks attempted.
    pub attempted: u64,
    /// Failed result checks plus refused control-plane calls.
    pub failed: u64,
    /// Named end-of-run checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Human-readable facts for the log (sample counts, outcomes).
    pub notes: Vec<String>,
    /// The driven run (spans are written out from it).
    pub driven: Driven,
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "oltp" => oltp::run(cfg),
        "read-mostly" => read_mostly::run(cfg),
        "shift" => shift::run(cfg),
        "churn" => churn::run(cfg),
        _ => return None,
    })
}

/// Input digest of workload `name` for `seed`: its population and the
/// first `ops` operations of each client stream. Used by the tests.
pub fn input_digest(name: &str, seed: u64, ops: usize) -> Option<u64> {
    Some(match name {
        "oltp" => oltp::input_digest(seed, ops),
        "read-mostly" => read_mostly::input_digest(seed, ops),
        "shift" => shift::input_digest(seed, ops),
        "churn" => churn::input_digest(seed, ops),
        _ => return None,
    })
}

/// What every workload does after its window closed: the shared metrics,
/// the lock-leak check, and the bookkeeping of attempts and failures.
/// `setup` holds the time of each set-up build (`setup_s` is their
/// median); `checks` are the workload's own end-of-run checks.
pub fn finish(
    cfg: &RunCfg,
    stm: &Stm,
    baseline: &BTreeMap<PartitionId, StatCounters>,
    driven: Driven,
    setup: Vec<f64>,
    mut checks: Vec<(String, bool)>,
) -> Outcome {
    let mut m = Metrics::default();
    driven.end_to_end(cfg, &mut m);
    let mut sorted = setup.clone();
    sorted.sort_by(f64::total_cmp);
    let setup_s = sorted[sorted.len() / 2];
    m.set("setup_s", setup_s);
    let counters = stats_since(stm, baseline);
    if cfg.trace {
        let a = driven.analysis();
        layer_metrics(&driven, &a, &counters, &mut m);
    }
    let leaked = leaked_locks(stm);
    checks.push((format!("no leaked orec locks ({leaked})"), leaked == 0));
    let ops = driven.sum(|c| c.ops);
    let failed_ops = driven.sum(|c| c.failed);
    let failed_checks = checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let mut notes = vec![
        format!("set-up builds: {} (median {setup_s} s)", setup.len()),
        format!("latency samples: {}", driven.latency_samples()),
        format!("ops per 250 ms: {:?}", driven.timeline()),
        format!(
            "commits {} starts {} aborts {}",
            counters.commits,
            counters.starts,
            counters.aborts()
        ),
    ];
    if cfg.trace {
        let dropped: u64 = driven.clients.iter().map(|c| c.tracer.dropped).sum();
        notes.push(format!("spans dropped on a full buffer: {dropped}"));
    }
    Outcome {
        metrics: m,
        attempted: ops + checks.len() as u64,
        failed: failed_ops + failed_checks,
        checks,
        notes,
        driven,
    }
}

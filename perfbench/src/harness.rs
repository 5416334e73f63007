//! The closed-loop harness shared by every workload.
//!
//! Each client thread starts its next operation only after the previous
//! one returned, so a slower engine receives less load. Control-plane
//! calls and controller windows run on client 0 between its own
//! operations (the `hook`); no extra thread generates load.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use partstm_core::{PVar, PartitionId, ReadTx, StatCounters, Stm, ThreadCtx, Tx, TxResult, TxWord};

use crate::gen::{client_rng, Rng};
use crate::metrics::{quantile, quantile_of, rss_mib, Metrics};
use crate::trace::{Analysis, Name, Span, Tracer};

/// One run's parameters, from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
}

impl RunCfg {
    /// The point of the run where `shift` skews its traffic; the other
    /// workloads report their throughput from the same point on.
    pub fn shift_at(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * SHIFT_FRAC)
    }
}

/// Fraction of the run before the phase point.
const SHIFT_FRAC: f64 = 1.0 / 3.0;

/// A traced run alternates untraced and traced segments of this length;
/// comparing their throughput gives the tracing overhead.
const SEGMENT: Duration = Duration::from_millis(200);

/// Latency samples kept per client; when full, every other sample is
/// dropped and the sampling stride doubles, so samples stay spread over
/// the whole run.
const LAT_CAP: usize = 1 << 20;

/// Spans kept per client in a traced run (4 MiB); workloads pick their
/// trace stride so that a run stays within it.
const SPAN_CAP: usize = 1 << 17;

/// Interval of the per-client operation timeline.
const TIMELINE: Duration = Duration::from_millis(250);

/// Set-up builds per run: at least this many (`setup_s` is their median)…
const SETUP_REPS: usize = 5;
/// …and at least this much build time, so that a set-up of a millisecond
/// is timed hundreds of times.
const SETUP_MIN: Duration = Duration::from_millis(250);

/// Client threads: one per core, at most two.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// Builds the workload state at least `SETUP_REPS` times and for at least
/// `SETUP_MIN`, keeping the last build; returns it with the time of each
/// build in seconds.
pub fn setup_reps<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    let mut last = None;
    while times.len() < SETUP_REPS || total < SETUP_MIN {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        let t = t0.elapsed();
        total += t;
        times.push(t.as_secs_f64());
    }
    (last.expect("at least one build"), times)
}

/// Makes the allocator keep memory the process frees instead of handing
/// it back to the kernel. Set-up builds and the run then reuse memory
/// instead of faulting fresh pages in, whose cost swings widely on a
/// virtual machine; `rss_growth_mb` then counts memory the run needed
/// beyond what set-up had touched.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn retain_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` only changes glibc malloc tunables and is called
    // from `main` before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_MAX, 0);
    }
}

/// No-op where the allocator is not glibc's.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn retain_freed_memory() {}

/// What one operation did.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// The committed operation wrote.
    pub wrote: bool,
    /// Its result check passed.
    pub ok: bool,
}

/// Per-client counters.
pub struct ClientResult {
    /// Committed operations.
    pub ops: u64,
    /// Committed operations that wrote.
    pub update_ops: u64,
    /// Operations started at or after the phase point.
    pub post_ops: u64,
    /// Operations whose result check failed.
    pub failed: u64,
    /// Operations per segment parity (0 = untraced, 1 = traced segments).
    pub seg_ops: [u64; 2],
    /// Sampled operation latencies (ns).
    pub lat: Vec<u32>,
    /// Operations per [`TIMELINE`] interval, by start time.
    pub timeline: Vec<u64>,
    /// When the client's last operation returned.
    pub end: Instant,
    /// The client's spans.
    pub tracer: Tracer,
}

/// The outcome of one driven run.
pub struct Driven {
    /// Start of the measured window.
    pub start: Instant,
    /// Per-client results.
    pub clients: Vec<ClientResult>,
    /// Resident memory (MiB) right before the window.
    pub rss_before: f64,
    /// Resident memory (MiB) right after the window.
    pub rss_after: f64,
}

impl Driven {
    /// Seconds from start to the last client's last return.
    pub fn elapsed(&self) -> f64 {
        self.clients
            .iter()
            .map(|c| c.end.duration_since(self.start).as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Total over clients.
    pub fn sum(&self, f: impl Fn(&ClientResult) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    /// The end-to-end metrics every workload shares (all but `setup_s`).
    pub fn end_to_end(&self, cfg: &RunCfg, m: &mut Metrics) {
        let el = self.elapsed().max(1e-9);
        m.set("throughput_kops", self.sum(|c| c.ops) as f64 / el / 1e3);
        m.set("update_kops", self.sum(|c| c.update_ops) as f64 / el / 1e3);
        let post = (el - cfg.shift_at().as_secs_f64()).max(1e-9);
        m.set(
            "post_shift_kops",
            self.sum(|c| c.post_ops) as f64 / post / 1e3,
        );
        let mut lat: Vec<u64> = self
            .clients
            .iter()
            .flat_map(|c| c.lat.iter().map(|&x| u64::from(x)))
            .collect();
        lat.sort_unstable();
        m.set("op_p50_us", quantile(&lat, 0.50) / 1e3);
        m.set("op_p99_us", quantile(&lat, 0.99) / 1e3);
    }

    /// Operations per [`TIMELINE`] interval over all clients.
    pub fn timeline(&self) -> Vec<u64> {
        let mut t = vec![0; self.clients.first().map_or(0, |c| c.timeline.len())];
        for c in &self.clients {
            for (a, b) in t.iter_mut().zip(&c.timeline) {
                *a += b;
            }
        }
        t
    }

    /// Latency samples taken.
    pub fn latency_samples(&self) -> usize {
        self.clients.iter().map(|c| c.lat.len()).sum()
    }

    /// Tracing overhead: throughput of traced segments against untraced
    /// ones, in percent of the untraced throughput.
    pub fn overhead_pct(&self) -> f64 {
        let el = self.elapsed();
        let seg = SEGMENT.as_secs_f64();
        let full = (el / seg).floor();
        let rem = el - full * seg;
        let full = full as u64;
        let partial_odd = full % 2 == 1;
        let t_even = full.div_ceil(2) as f64 * seg + if partial_odd { 0.0 } else { rem };
        let t_odd = (full / 2) as f64 * seg + if partial_odd { rem } else { 0.0 };
        let even = self.sum(|c| c.seg_ops[0]) as f64 / t_even.max(1e-9);
        let odd = self.sum(|c| c.seg_ops[1]) as f64 / t_odd.max(1e-9);
        if even > 0.0 {
            (1.0 - odd / even) * 100.0
        } else {
            0.0
        }
    }

    /// Analysis of every client's spans.
    pub fn analysis(&self) -> Analysis {
        let mut a = Analysis::default();
        for c in &self.clients {
            a.add(c.tracer.spans());
        }
        a
    }

    /// Every client's spans.
    pub fn spans(&self) -> Vec<&[Span]> {
        self.clients.iter().map(|c| c.tracer.spans()).collect()
    }
}

/// Runs the closed loop for `cfg.seconds`. `op` performs one operation,
/// drawing its inputs from the client's `rng`, at the given time into the
/// run; `hook` runs on client 0 after each of its operations, with the
/// time into the run, and returns whether it did anything. A traced run
/// traces one operation in `trace_stride` in its traced segments.
pub fn drive<F, H>(cfg: &RunCfg, stm: &Stm, trace_stride: u64, op: F, mut hook: H) -> Driven
where
    F: Fn(&ThreadCtx, &mut Tracer, &mut Rng, Duration) -> OpOutcome + Sync,
    H: FnMut(&mut Tracer, Duration) -> bool + Send,
{
    let n = clients();
    let cap = if cfg.trace { SPAN_CAP } else { 0 };
    // Buffers are allocated and touched before the window opens.
    let epoch = Instant::now();
    let mut prepared: Vec<(ThreadCtx, Tracer, Vec<u32>)> = (0..n)
        .map(|_| {
            let mut lat = vec![u32::MAX; LAT_CAP];
            lat.clear();
            (stm.register_thread(), Tracer::new(epoch, cap), lat)
        })
        .collect();
    let rss_before = rss_mib();
    let dur = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let shift_at = start + cfg.shift_at();
    let op = &op;
    let mut hook = Some(&mut hook);
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = prepared
            .drain(..)
            .enumerate()
            .map(|(id, (ctx, mut tr, mut lat))| {
                let mut hook = if id == 0 { hook.take() } else { None };
                s.spawn(move || {
                    let mut rng = client_rng(cfg.seed, id);
                    let (mut ops, mut update_ops, mut post_ops, mut failed) = (0u64, 0, 0, 0);
                    let mut seg_ops = [0u64; 2];
                    let mut timeline = vec![0; (dur.as_nanos() / TIMELINE.as_nanos()) as usize + 1];
                    let mut stride = 1u64;
                    let mut t0 = Instant::now();
                    loop {
                        let el = t0.duration_since(start);
                        if el >= dur {
                            break;
                        }
                        let odd = (el.as_nanos() / SEGMENT.as_nanos()) % 2 == 1;
                        tr.live = cfg.trace && odd && ops % trace_stride == 0;
                        tr.op = ops as u32;
                        let out = op(&ctx, &mut tr, &mut rng, el);
                        let t1 = Instant::now();
                        if ops % stride == 0 && lat.len() == lat.capacity() {
                            // Full: keep every other sample, sample half as often.
                            let mut keep = 0;
                            for i in (0..lat.len()).step_by(2) {
                                lat[keep] = lat[i];
                                keep += 1;
                            }
                            lat.truncate(keep);
                            stride *= 2;
                        }
                        if ops % stride == 0 {
                            let ns = t1.duration_since(t0).as_nanos();
                            lat.push(u32::try_from(ns).unwrap_or(u32::MAX));
                        }
                        ops += 1;
                        update_ops += u64::from(out.wrote);
                        failed += u64::from(!out.ok);
                        post_ops += u64::from(t0 >= shift_at);
                        seg_ops[usize::from(odd)] += 1;
                        timeline[(el.as_nanos() / TIMELINE.as_nanos()) as usize] += 1;
                        t0 = t1;
                        if let Some(h) = hook.as_mut() {
                            tr.live = cfg.trace;
                            if h(&mut tr, t1.duration_since(start)) {
                                t0 = Instant::now();
                            }
                        }
                    }
                    tr.live = false;
                    ClientResult {
                        ops,
                        update_ops,
                        post_ops,
                        failed,
                        seg_ops,
                        lat,
                        timeline,
                        end: t0,
                        tracer: tr,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Driven {
        start,
        clients,
        rss_before,
        rss_after: rss_mib(),
    }
}

/// `ThreadCtx::run` with a span around the call and one around each
/// closure attempt.
#[inline]
pub fn run_tx<'e, T, F>(ctx: &'e ThreadCtx, tr: &mut Tracer, mut body: F) -> T
where
    F: for<'s> FnMut(&mut Tx<'e, 's>, &mut Tracer) -> TxResult<T>,
{
    if !tr.live {
        return ctx.run(|tx| body(tx, tr));
    }
    let run = tr.open(Name::TxRun);
    let out = ctx.run(|tx| {
        let a = tr.open(Name::TxAttempt);
        let r = body(tx, tr);
        tr.close(a);
        r
    });
    tr.close(run);
    out
}

/// `ThreadCtx::snapshot_read` with a span around the call.
#[inline]
pub fn run_snapshot<'e, T, F>(ctx: &'e ThreadCtx, tr: &mut Tracer, mut body: F) -> T
where
    F: for<'s> FnMut(&mut ReadTx<'e, 's>, &mut Tracer) -> TxResult<T>,
{
    let run = tr.open(Name::SnapRun);
    let out = ctx.snapshot_read(|rtx| body(rtx, tr));
    tr.close(run);
    out
}

/// `Tx::read` inside a span.
#[inline]
pub fn read<'e, T: TxWord>(tx: &mut Tx<'e, '_>, tr: &mut Tracer, v: &'e PVar<T>) -> TxResult<T> {
    tr.time(Name::TxRead, || tx.read(v))
}

/// `Tx::write` inside a span.
#[inline]
pub fn write<'e, T: TxWord>(
    tx: &mut Tx<'e, '_>,
    tr: &mut Tracer,
    v: &'e PVar<T>,
    value: T,
) -> TxResult<()> {
    tr.time(Name::TxWrite, || tx.write(v, value))
}

/// `ReadTx::read` inside a span.
#[inline]
pub fn snap_read<'e, T: TxWord>(
    rtx: &mut ReadTx<'e, '_>,
    tr: &mut Tracer,
    v: &'e PVar<T>,
) -> TxResult<T> {
    tr.time(Name::SnapRead, || rtx.read(v))
}

/// Statistics of every partition, by id.
pub fn stats_by_partition(stm: &Stm) -> BTreeMap<PartitionId, StatCounters> {
    stm.partitions()
        .iter()
        .map(|p| (p.id(), p.stats()))
        .collect()
}

/// Sum over partitions of the counters accumulated since `baseline`
/// (partitions created later count from zero).
pub fn stats_since(stm: &Stm, baseline: &BTreeMap<PartitionId, StatCounters>) -> StatCounters {
    stm.partitions()
        .iter()
        .map(|p| {
            let base = baseline.get(&p.id()).copied().unwrap_or_default();
            p.stats().delta(&base)
        })
        .fold(StatCounters::default(), |a, b| a.add(&b))
}

/// Orecs still locked across every partition (must be 0 at rest).
pub fn leaked_locks(stm: &Stm) -> usize {
    stm.partitions().iter().map(|p| p.debug_scan().0).sum()
}

fn per_k(n: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        n as f64 * 1000.0 / base as f64
    }
}

fn ratio(n: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        n as f64 / base as f64
    }
}

fn median_of(v: &[u64]) -> f64 {
    let mut v = v.to_vec();
    quantile_of(&mut v, 0.5)
}

/// The per-layer metrics every workload derives the same way: `core.txn`
/// and `core.snapshot` from spans and partition counters, the structure,
/// vacation, controller and control-plane call spans, tracing overhead
/// and memory growth.
pub fn layer_metrics(d: &Driven, a: &Analysis, s: &StatCounters, m: &mut Metrics) {
    m.set("txn.begin_ns", median_of(&a.begin));
    m.set("txn.read_ns", median_of(a.of(Name::TxRead)));
    m.set("txn.write_ns", median_of(a.of(Name::TxWrite)));
    let mut commit = a.commit.clone();
    m.set("txn.commit_ns", quantile_of(&mut commit, 0.5));
    m.set("txn.commit_p99_ns", quantile(&commit, 0.99));
    m.set("txn.retry_ns", median_of(&a.retry));
    m.set("txn.run_self_ns", median_of(&a.run_self));
    let runs = a.attempts.len() as u64;
    m.set("txn.attempts_per_op", ratio(a.attempts.iter().sum(), runs));
    m.set("txn.commit_ratio", ratio(s.commits, s.starts));
    m.set("txn.abort_wlock_pk", per_k(s.aborts_wlock, s.starts));
    m.set(
        "txn.abort_validation_pk",
        per_k(s.aborts_validation, s.starts),
    );
    m.set("txn.abort_rlock_pk", per_k(s.aborts_rlock, s.starts));
    m.set(
        "txn.abort_switching_pk",
        per_k(s.aborts_switching, s.starts),
    );
    m.set("txn.abort_killed_pk", per_k(s.aborts_killed, s.starts));
    m.set("txn.aliased_share", s.aliased_share());

    m.set("structures.map_get_ns", median_of(a.of(Name::MapGet)));
    m.set("structures.map_put_ns", median_of(a.of(Name::MapPut)));
    m.set("vacation.query_ns", median_of(a.of(Name::VacQuery)));
    m.set("vacation.reserve_ns", median_of(a.of(Name::VacReserve)));
    m.set(
        "vacation.delete_customer_ns",
        median_of(a.of(Name::VacDeleteCustomer)),
    );
    m.set(
        "vacation.update_tables_ns",
        median_of(a.of(Name::VacUpdateTables)),
    );

    m.set("snapshot.read_ns", median_of(a.of(Name::SnapRead)));
    m.set(
        "snapshot.restarts_pk",
        per_k(s.snapshot_restarts, s.snapshot_commits),
    );
    m.set(
        "snapshot.history_share",
        ratio(s.snapshot_history_reads, s.snapshot_reads),
    );
    m.set(
        "snapshot.overflow_pk",
        per_k(s.ring_overflow_pushes, s.update_commits),
    );

    m.set(
        "controller.step_idle_us",
        median_of(a.of(Name::CtrlStepIdle)) / 1e3,
    );
    m.set(
        "controller.step_action_us",
        median_of(a.of(Name::CtrlStepAction)) / 1e3,
    );

    m.set("trace.overhead_pct", d.overhead_pct());
    m.set("trace.spans", a.spans as f64);
    m.set("rss_growth_mb", d.rss_after - d.rss_before);

    // core.quiesce: control-plane call latencies (µs) per call kind and
    // over all calls.
    let names = [
        (Name::QSwitch, "quiesce.switch_us"),
        (Name::QResize, "quiesce.resize_us"),
        (Name::QRing, "quiesce.ring_us"),
        (Name::QSplit, "quiesce.split_us"),
        (Name::QMerge, "quiesce.merge_us"),
        (Name::QPrivatize, "quiesce.privatize_us"),
        (Name::QRepublish, "quiesce.republish_us"),
    ];
    let mut all = Vec::new();
    for (name, metric) in names {
        let d = a.of(name);
        m.set(metric, median_of(d) / 1e3);
        all.extend_from_slice(d);
    }
    all.sort_unstable();
    m.set("action_p50_us", quantile(&all, 0.5) / 1e3);
    m.set("action_p99_us", quantile(&all, 0.99) / 1e3);
}

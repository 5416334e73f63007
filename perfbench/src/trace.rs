//! Span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code around each call into a
//! layer's public functions (the engine itself is not instrumented). Each
//! client thread owns one [`Tracer`]: spans go into a buffer allocated
//! and touched during set-up, so recording never allocates and the
//! memory metric does not see the buffer. At exit the spans of all
//! threads are analysed ([`Analysis`]) and written out as TSV.

use std::io::Write;
use std::time::Instant;

/// Span names: one per layer boundary the benchmark crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// `ThreadCtx::run`, retries included.
    TxRun,
    /// One invocation of the closure passed to `ThreadCtx::run`.
    TxAttempt,
    /// `Tx::read` called by the benchmark.
    TxRead,
    /// `Tx::write` called by the benchmark.
    TxWrite,
    /// `ThreadCtx::snapshot_read`, restarts included.
    SnapRun,
    /// `ReadTx::read`.
    SnapRead,
    /// `THashMap::get` inside a transaction.
    MapGet,
    /// `THashMap::put` inside a transaction.
    MapPut,
    /// `Manager::query_item`.
    VacQuery,
    /// `Manager::reserve` (and the idempotent `add_customer` before it).
    VacReserve,
    /// `Manager::delete_customer`.
    VacDeleteCustomer,
    /// `Manager::add_item` / `Manager::remove_item`.
    VacUpdateTables,
    /// `Stm::switch_partition`.
    QSwitch,
    /// `Stm::resize_orecs`.
    QResize,
    /// `Stm::set_ring_depth`.
    QRing,
    /// `Stm::split_partition`.
    QSplit,
    /// `Stm::merge_partitions`.
    QMerge,
    /// `Stm::privatize`.
    QPrivatize,
    /// `PrivateGuard::republish`.
    QRepublish,
    /// `RepartitionController::step` that executed no action.
    CtrlStepIdle,
    /// `RepartitionController::step` that executed an action.
    CtrlStepAction,
}

impl Name {
    /// Number of names.
    pub const COUNT: usize = Name::CtrlStepAction as usize + 1;

    /// The label written to the span file.
    pub fn label(self) -> &'static str {
        match self {
            Name::TxRun => "core.txn.run",
            Name::TxAttempt => "core.txn.attempt",
            Name::TxRead => "core.txn.read",
            Name::TxWrite => "core.txn.write",
            Name::SnapRun => "core.snapshot.run",
            Name::SnapRead => "core.snapshot.read",
            Name::MapGet => "structures.map_get",
            Name::MapPut => "structures.map_put",
            Name::VacQuery => "stamp.vacation.query",
            Name::VacReserve => "stamp.vacation.reserve",
            Name::VacDeleteCustomer => "stamp.vacation.delete_customer",
            Name::VacUpdateTables => "stamp.vacation.update_tables",
            Name::QSwitch => "core.quiesce.switch",
            Name::QResize => "core.quiesce.resize",
            Name::QRing => "core.quiesce.ring",
            Name::QSplit => "core.quiesce.split",
            Name::QMerge => "core.quiesce.merge",
            Name::QPrivatize => "core.quiesce.privatize",
            Name::QRepublish => "core.quiesce.republish",
            Name::CtrlStepIdle => "repart.controller.step_idle",
            Name::CtrlStepAction => "repart.controller.step_action",
        }
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
    /// Index of the enclosing span in the same thread's buffer, or [`ROOT`].
    pub parent: u32,
    /// Operation the span belongs to (per-thread sequence number).
    pub op: u32,
    /// What was called.
    pub name: Name,
}

/// Per-thread span recorder. Recording is on only while `live` is set:
/// the harness sets it for the sampled operations of the traced segments.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Record spans for the current operation.
    pub live: bool,
    /// Operation id stamped on new spans.
    pub op: u32,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

/// Handle of an open span (`None` when not recording).
pub type Open = Option<u32>;

impl Tracer {
    /// A tracer with room for `cap` spans; the buffer is written once so
    /// its pages are resident before measurement starts.
    pub fn new(epoch: Instant, cap: usize) -> Self {
        let blank = Span {
            start: 0,
            end: 0,
            parent: ROOT,
            op: 0,
            name: Name::TxRun,
        };
        let mut spans = vec![blank; cap];
        spans.clear();
        Tracer {
            epoch,
            spans,
            stack: Vec::with_capacity(16),
            live: false,
            op: 0,
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (a no-op unless live).
    #[inline]
    pub fn open(&mut self, name: Name) -> Open {
        if !self.live {
            return None;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            start,
            end: start,
            parent,
            op: self.op,
            name,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::open`].
    #[inline]
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open {
            let end = self.now();
            self.spans[idx as usize].end = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        let s = self.open(name);
        let r = f();
        self.close(s);
        r
    }

    /// Renames an open span (a controller window learns only after the
    /// call whether it executed an action).
    pub fn rename(&mut self, open: Open, name: Name) {
        if let Some(idx) = open {
            self.spans[idx as usize].name = name;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations and derived gaps gathered from every thread's spans.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Durations per [`Name`] (index = discriminant), in ns.
    pub dur: Vec<Vec<u64>>,
    /// Self time of `TxRun` spans: run time outside the closure (begin,
    /// commit, rollback and backoff).
    pub run_self: Vec<u64>,
    /// Run entry → first closure entry.
    pub begin: Vec<u64>,
    /// Final successful closure return → run return.
    pub commit: Vec<u64>,
    /// Aborted attempt exit → next closure entry.
    pub retry: Vec<u64>,
    /// Closure attempts per traced `TxRun`.
    pub attempts: Vec<u64>,
    /// Spans analysed.
    pub spans: u64,
}

impl Analysis {
    /// Folds one thread's spans in.
    pub fn add(&mut self, spans: &[Span]) {
        if self.dur.is_empty() {
            self.dur = vec![Vec::new(); Name::COUNT];
        }
        // Children's total time per span (for self time) and, for runs,
        // the first attempt start / last attempt end / attempt count.
        let mut child_sum = vec![0u64; spans.len()];
        let mut run_att: Vec<(u64, u64, u64)> = vec![(0, 0, 0); spans.len()];
        for s in spans {
            let d = s.end.saturating_sub(s.start);
            self.dur[s.name as usize].push(d);
            if s.parent == ROOT {
                continue;
            }
            let p = s.parent as usize;
            child_sum[p] += d;
            if s.name == Name::TxAttempt && spans[p].name == Name::TxRun {
                let a = &mut run_att[p];
                if a.2 == 0 {
                    a.0 = s.start;
                } else {
                    self.retry.push(s.start.saturating_sub(a.1));
                }
                a.1 = s.end;
                a.2 += 1;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if s.name != Name::TxRun || run_att[i].2 == 0 {
                continue;
            }
            let (first, last, n) = run_att[i];
            self.begin.push(first.saturating_sub(s.start));
            self.commit.push(s.end.saturating_sub(last));
            self.attempts.push(n);
            self.run_self
                .push(s.end.saturating_sub(s.start).saturating_sub(child_sum[i]));
        }
        self.spans += spans.len() as u64;
    }

    /// Durations recorded under `name`.
    pub fn of(&self, name: Name) -> &[u64] {
        self.dur.get(name as usize).map_or(&[], |v| v.as_slice())
    }
}

/// Writes every thread's spans as TSV:
/// `thread op span parent name start_ns end_ns`.
pub fn write_spans(path: &std::path::Path, threads: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{t}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op,
                s.name.label(),
                s.start,
                s.end
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start: u64, end: u64) -> Span {
        Span {
            start,
            end,
            parent,
            op: 0,
            name,
        }
    }

    #[test]
    fn derives_gaps_and_self_time() {
        // run [0,100): attempt [10,40) aborted, attempt [55,90) commits;
        // a read [20,30) inside the first attempt.
        let spans = [
            span(Name::TxRun, ROOT, 0, 100),
            span(Name::TxAttempt, 0, 10, 40),
            span(Name::TxRead, 1, 20, 30),
            span(Name::TxAttempt, 0, 55, 90),
        ];
        let mut a = Analysis::default();
        a.add(&spans);
        assert_eq!(a.begin, vec![10]);
        assert_eq!(a.retry, vec![15]);
        assert_eq!(a.commit, vec![10]);
        assert_eq!(a.attempts, vec![2]);
        assert_eq!(a.run_self, vec![100 - 30 - 35]);
        assert_eq!(a.of(Name::TxRead), &[10]);
    }

    #[test]
    fn records_nothing_unless_live_and_stops_when_full() {
        let mut t = Tracer::new(Instant::now(), 2);
        t.time(Name::TxRead, || ());
        assert!(t.spans().is_empty());
        t.live = true;
        let outer = t.open(Name::TxRun);
        t.time(Name::TxAttempt, || ());
        t.time(Name::TxRead, || ());
        t.close(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.dropped, 1);
    }
}

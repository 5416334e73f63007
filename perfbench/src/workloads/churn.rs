//! `churn`: a bank under uniform transfers while client 0 makes a fixed,
//! seeded schedule of control-plane calls between its own transactions —
//! configuration switches, orec-table resizes up and down, ring-depth
//! changes, split/merge of a subset of the accounts, and privatize →
//! republish with a bulk audit in between. Quiesce windows and the
//! tables, rings and bindings they retire dominate here; every call's
//! `SwitchOutcome` is recorded.

use std::sync::Arc;
use std::time::Duration;

use partstm_core::{
    retired_binding_count, AcquireMode, CmPolicy, DynConfig, Migratable, Partition,
    PartitionConfig, ReadMode, Stm, SwitchOutcome,
};
use partstm_structures::Bank;

use super::{finish, Outcome};
use crate::gen::{Digest, Rng, POPULATION_STREAM, SCHEDULE_STREAM};
use crate::harness::{
    drive, read, run_tx, setup_reps, stats_by_partition, write, OpOutcome, RunCfg,
};
use crate::trace::{Name, Tracer};

/// A traced run traces one operation in this many (see `drive`).
const TRACE_STRIDE: u64 = 512;

/// Accounts in the bank.
pub const ACCOUNTS: usize = 1024;
/// Orec table of the bank partition at rest.
const OREC_COUNT: usize = 1024;
/// Orec table of partitions created by splits.
const SPLIT_OREC_COUNT: usize = 256;
/// Ring depth at rest.
const RING_DEPTH: usize = 4;
/// Accounts moved by a split.
const SPLIT_ACCOUNTS: usize = ACCOUNTS / 4;
/// Interval between control-plane calls.
const ACTION_EVERY: Duration = Duration::from_millis(40);

/// One control-plane call.
#[derive(Debug, Clone)]
pub enum Action {
    /// `switch_partition` to this configuration.
    Switch(DynConfig),
    /// `resize_orecs` to this many records.
    Resize(usize),
    /// `set_ring_depth` to this depth.
    Ring(usize),
    /// `split_partition` moving these accounts out.
    Split(Vec<usize>),
    /// `merge_partitions` of the last split back home.
    Merge,
    /// `privatize`, bulk audit, `republish`.
    Privatize,
}

impl Action {
    fn label(&self) -> &'static str {
        match self {
            Action::Switch(_) => "switch",
            Action::Resize(_) => "resize",
            Action::Ring(_) => "ring",
            Action::Split(_) => "split",
            Action::Merge => "merge",
            Action::Privatize => "privatize",
        }
    }
}

fn base_config() -> DynConfig {
    DynConfig::from(&PartitionConfig::default())
}

/// The schedule: cycles of nine calls whose parameters are seeded.
pub struct Schedule {
    rng: Rng,
    queue: Vec<Action>,
}

impl Schedule {
    /// The schedule of `seed`.
    pub fn new(seed: u64) -> Self {
        Schedule {
            rng: Rng::new(seed, SCHEDULE_STREAM),
            queue: Vec::new(),
        }
    }

    /// The next call.
    pub fn next_action(&mut self) -> Action {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop().expect("refilled")
    }

    fn refill(&mut self) {
        let r = &mut self.rng;
        let mut alt = base_config();
        match r.below(3) {
            0 => alt.acquire = AcquireMode::Commit,
            1 => alt.read_mode = ReadMode::Visible,
            _ => alt.cm = CmPolicy::DelayThenAbort,
        }
        let up = OREC_COUNT << (1 + r.below(2));
        let ring = if r.pct(50) { 2 } else { 8 };
        let mut moved: Vec<usize> = (0..SPLIT_ACCOUNTS).map(|_| r.index(ACCOUNTS)).collect();
        moved.sort_unstable();
        moved.dedup();
        let cycle = [
            Action::Switch(alt),
            Action::Resize(up),
            Action::Ring(ring),
            Action::Split(moved),
            Action::Merge,
            Action::Privatize,
            Action::Switch(base_config()),
            Action::Resize(OREC_COUNT),
            Action::Ring(RING_DEPTH),
        ];
        self.queue = cycle.into_iter().rev().collect();
    }
}

/// A transfer between two distinct accounts.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    /// Debited account.
    pub from: usize,
    /// Credited account.
    pub to: usize,
    /// Amount moved.
    pub amount: i64,
}

/// Draws the next transfer.
pub fn next_op(rng: &mut Rng) -> Transfer {
    let from = rng.index(ACCOUNTS);
    let to = (from + 1 + rng.index(ACCOUNTS - 1)) % ACCOUNTS;
    Transfer {
        from,
        to,
        amount: rng.below(50) as i64 + 1,
    }
}

/// Initial balances.
pub fn population(seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed, POPULATION_STREAM);
    (0..ACCOUNTS).map(|_| rng.below(1000) as i64).collect()
}

/// Digest of the population, the first `ops` ops of each client and the
/// first `ops` control-plane calls.
pub fn input_digest(seed: u64, ops: usize) -> u64 {
    let mut d = Digest::default();
    for b in population(seed) {
        d.word(b as u64);
    }
    for t in 0..2 {
        let mut rng = crate::gen::client_rng(seed, t);
        for _ in 0..ops {
            let o = next_op(&mut rng);
            d.words(&[o.from as u64, o.to as u64, o.amount as u64]);
        }
    }
    let mut s = Schedule::new(seed);
    for _ in 0..ops {
        match s.next_action() {
            Action::Switch(c) => d.words(&[0, c.acquire as u64, c.read_mode as u64, c.cm as u64]),
            Action::Resize(n) => d.words(&[1, n as u64]),
            Action::Ring(n) => d.words(&[2, n as u64]),
            Action::Split(v) => {
                d.word(3);
                for i in v {
                    d.word(i as u64);
                }
            }
            Action::Merge => d.word(4),
            Action::Privatize => d.word(5),
        }
    }
    d.0
}

struct State {
    stm: Stm,
    part: Arc<Partition>,
    bank: Arc<Bank>,
}

fn build(balances: &[i64]) -> State {
    let stm = Stm::new();
    let part = stm.new_partition(
        PartitionConfig::named("bank")
            .orecs(OREC_COUNT)
            .ring(RING_DEPTH),
    );
    let bank = Arc::new(Bank::new(Arc::clone(&part), ACCOUNTS, 0));
    let ctx = stm.register_thread();
    for (i, &b) in balances.iter().enumerate() {
        ctx.run(|tx| bank.set_balance(tx, i, b));
    }
    drop(ctx);
    State { stm, part, bank }
}

/// What the control plane did over the run.
#[derive(Default)]
struct Log {
    /// `(call, outcome)` of every call, in order.
    calls: Vec<(&'static str, String)>,
    /// Calls refused (`Contended`, `TimedOut`, or a privatize error).
    refused: u64,
    /// Bulk audits under privatization: (passed, total).
    audits: (u64, u64),
}

impl Log {
    fn outcome(&mut self, call: &'static str, o: SwitchOutcome) {
        if matches!(o, SwitchOutcome::Contended | SwitchOutcome::TimedOut) {
            self.refused += 1;
        }
        self.calls.push((call, format!("{o:?}")));
    }
}

/// The control plane, driven from client 0.
struct Plane<'a> {
    stm: &'a Stm,
    part: &'a Arc<Partition>,
    bank: &'a Bank,
    total: i64,
    split: Option<(Arc<Partition>, Vec<usize>)>,
    splits: usize,
    log: Log,
}

impl Plane<'_> {
    fn vars(&self, idx: &[usize]) -> Vec<&dyn Migratable> {
        idx.iter()
            .map(|&i| self.bank.account(i) as &dyn Migratable)
            .collect()
    }

    fn execute(&mut self, action: Action, tr: &mut Tracer) {
        let (stm, part) = (self.stm, self.part);
        let label = action.label();
        match action {
            Action::Switch(c) => {
                let o = tr.time(Name::QSwitch, || stm.switch_partition(part, c));
                self.log.outcome(label, o);
            }
            Action::Resize(n) => {
                let o = tr.time(Name::QResize, || stm.resize_orecs(part, n));
                self.log.outcome(label, o);
            }
            Action::Ring(d) => {
                let o = tr.time(Name::QRing, || stm.set_ring_depth(part, d));
                self.log.outcome(label, o);
            }
            Action::Split(idx) => {
                self.splits += 1;
                let cfg = PartitionConfig::named(format!("bank.split{}", self.splits))
                    .orecs(SPLIT_OREC_COUNT);
                let vars = self.vars(&idx);
                let (dst, o) = tr.time(Name::QSplit, || stm.split_partition(part, cfg, &vars));
                self.log.outcome(label, o);
                if o.switched() {
                    self.split = Some((dst, idx));
                }
            }
            Action::Merge => {
                // Nothing to merge after a refused split.
                if let Some((dst, idx)) = self.split.take() {
                    let vars = self.vars(&idx);
                    let o = tr.time(Name::QMerge, || stm.merge_partitions(&[&dst], part, &vars));
                    self.log.outcome(label, o);
                    if !o.switched() {
                        self.split = Some((dst, idx));
                    }
                }
            }
            Action::Privatize => match tr.time(Name::QPrivatize, || stm.privatize(part)) {
                Ok(guard) => {
                    self.log.calls.push((label, "Ok".to_string()));
                    // The audit needs every account at home.
                    if self.split.is_none() {
                        let sum = self.bank.bulk_total(&guard);
                        self.log.audits.1 += 1;
                        self.log.audits.0 += u64::from(sum == self.total);
                    }
                    tr.time(Name::QRepublish, || guard.republish());
                }
                Err(e) => {
                    self.log.refused += 1;
                    self.log.calls.push((label, format!("{e:?}")));
                }
            },
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let balances = population(cfg.seed);
    let total: i64 = balances.iter().sum();
    let (st, setup) = setup_reps(|| build(&balances));
    let baseline = stats_by_partition(&st.stm);
    let retired_before = retired_binding_count();
    let bank = &*st.bank;
    let mut plane = Plane {
        stm: &st.stm,
        part: &st.part,
        bank,
        total,
        split: None,
        splits: 0,
        log: Log::default(),
    };
    let mut schedule = Schedule::new(cfg.seed);
    let mut next_at = ACTION_EVERY;
    let driven = drive(
        cfg,
        &st.stm,
        TRACE_STRIDE,
        |ctx, tr, rng, _| {
            let t = next_op(rng);
            run_tx(ctx, tr, |tx, tr| {
                let f = read(tx, tr, bank.account(t.from))?;
                let b = read(tx, tr, bank.account(t.to))?;
                write(tx, tr, bank.account(t.from), f - t.amount)?;
                write(tx, tr, bank.account(t.to), b + t.amount)
            });
            OpOutcome {
                wrote: true,
                ok: true,
            }
        },
        |tr, elapsed| {
            if elapsed < next_at {
                return false;
            }
            next_at += ACTION_EVERY;
            plane.execute(schedule.next_action(), tr);
            true
        },
    );
    let log = plane.log;
    let end_total = bank.total_direct();
    let checks = vec![
        (
            format!("conserved total ({end_total} == {total})"),
            end_total == total,
        ),
        (
            format!(
                "bulk audits under privatization ({}/{})",
                log.audits.0, log.audits.1
            ),
            log.audits.0 == log.audits.1,
        ),
    ];
    let mut out = finish(cfg, &st.stm, &baseline, driven, setup, checks);
    let calls = log.calls.len() as u64;
    out.attempted += calls;
    out.failed += log.refused;
    let m = &mut out.metrics;
    m.set(
        "quiesce.refused_ratio",
        log.refused as f64 / calls.max(1) as f64,
    );
    m.set(
        "quiesce.retired_bindings",
        retired_binding_count().saturating_sub(retired_before) as f64,
    );
    let mut tally = std::collections::BTreeMap::new();
    for (call, o) in &log.calls {
        *tally.entry(format!("{call}:{o}")).or_insert(0) += 1;
    }
    out.notes
        .push(format!("control-plane calls {calls}: {tally:?}"));
    out
}

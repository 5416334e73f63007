//! `read-mostly`: a bank whose clients mostly audit. 90% of operations
//! are `snapshot_read` scans of one group of accounts, checked against
//! the group's conserved sum; the rest are transfers inside a group, so
//! writers run beside the readers. The accounts fit in the orec table.
//! `core.snapshot` (version rings, hazard floor, overflow) does most of
//! the work here; the transfers show commit-side costs.

use std::sync::Arc;

use partstm_core::{AcquireMode, PartitionConfig, Stm};
use partstm_structures::Bank;

use super::{finish, Outcome};
use crate::gen::{Digest, Rng, POPULATION_STREAM};
use crate::harness::{
    drive, read, run_snapshot, run_tx, setup_reps, snap_read, stats_by_partition, write, OpOutcome,
    RunCfg,
};

/// A traced run traces one operation in this many (see `drive`).
const TRACE_STRIDE: u64 = 2048;

/// Accounts in the bank.
pub const ACCOUNTS: usize = 1024;
/// Accounts per audit group (transfers stay inside a group).
pub const GROUP: usize = 8;
/// Orec table size: every account has a record of its own on average.
const OREC_COUNT: usize = 2048;
/// Versions kept per orec for snapshot readers.
const RING_DEPTH: usize = 4;
/// Percent of operations that are snapshot scans.
const SCAN_PCT: u64 = 90;

/// One client operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Snapshot-read every account of a group and check the sum.
    Scan {
        /// Group index.
        group: usize,
    },
    /// Move `amount` between two accounts of one group.
    Transfer {
        /// Debited account.
        from: usize,
        /// Credited account.
        to: usize,
        /// Amount moved.
        amount: i64,
    },
}

/// Draws the next operation.
pub fn next_op(rng: &mut Rng) -> Op {
    let group = rng.index(ACCOUNTS / GROUP);
    if rng.pct(SCAN_PCT) {
        Op::Scan { group }
    } else {
        let from = group * GROUP + rng.index(GROUP);
        let to = group * GROUP + (from % GROUP + 1 + rng.index(GROUP - 1)) % GROUP;
        Op::Transfer {
            from,
            to,
            amount: rng.below(50) as i64 + 1,
        }
    }
}

/// Initial balances.
pub fn population(seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed, POPULATION_STREAM);
    (0..ACCOUNTS).map(|_| rng.below(1000) as i64).collect()
}

/// Digest of the population and the first `ops` ops of each client.
pub fn input_digest(seed: u64, ops: usize) -> u64 {
    let mut d = Digest::default();
    for b in population(seed) {
        d.word(b as u64);
    }
    for t in 0..2 {
        let mut rng = crate::gen::client_rng(seed, t);
        for _ in 0..ops {
            match next_op(&mut rng) {
                Op::Scan { group } => d.words(&[0, group as u64]),
                Op::Transfer { from, to, amount } => {
                    d.words(&[1, from as u64, to as u64, amount as u64])
                }
            }
        }
    }
    d.0
}

struct State {
    stm: Stm,
    bank: Arc<Bank>,
}

fn build(balances: &[i64]) -> State {
    let stm = Stm::new();
    let part = stm.new_partition(
        PartitionConfig::named("bank")
            .orecs(OREC_COUNT)
            .ring(RING_DEPTH)
            .acquire(AcquireMode::Commit),
    );
    let bank = Arc::new(Bank::new(part, ACCOUNTS, 0));
    let ctx = stm.register_thread();
    for (i, &b) in balances.iter().enumerate() {
        ctx.run(|tx| bank.set_balance(tx, i, b));
    }
    State { stm, bank }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let balances = population(cfg.seed);
    let group_sum: Vec<i64> = balances.chunks(GROUP).map(|g| g.iter().sum()).collect();
    let total: i64 = balances.iter().sum();
    let (st, setup) = setup_reps(|| build(&balances));
    let baseline = stats_by_partition(&st.stm);
    let bank = &*st.bank;
    let driven = drive(
        cfg,
        &st.stm,
        TRACE_STRIDE,
        |ctx, tr, rng, _| match next_op(rng) {
            Op::Scan { group } => {
                let sum = run_snapshot(ctx, tr, |rtx, tr| {
                    let mut sum = 0i64;
                    for i in group * GROUP..(group + 1) * GROUP {
                        sum += snap_read(rtx, tr, bank.account(i))?;
                    }
                    Ok(sum)
                });
                OpOutcome {
                    wrote: false,
                    ok: sum == group_sum[group],
                }
            }
            Op::Transfer { from, to, amount } => {
                run_tx(ctx, tr, |tx, tr| {
                    let f = read(tx, tr, bank.account(from))?;
                    let t = read(tx, tr, bank.account(to))?;
                    write(tx, tr, bank.account(from), f - amount)?;
                    write(tx, tr, bank.account(to), t + amount)
                });
                OpOutcome {
                    wrote: true,
                    ok: true,
                }
            }
        },
        |_, _| false,
    );
    let end_total = bank.total_direct();
    let checks = vec![(
        format!("conserved total ({end_total} == {total})"),
        end_total == total,
    )];
    finish(cfg, &st.stm, &baseline, driven, setup, checks)
}

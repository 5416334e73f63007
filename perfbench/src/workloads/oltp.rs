//! `oltp`: STAMP vacation in the paper's "partitioned" mode — one
//! partition per relation with static configurations and no tuner —
//! under the vacation-high task mix (90% reservations, 5% customer
//! deletions, 5% table updates). Relations are far larger than the
//! default 2048-record orec table. `core.txn`'s write and commit path
//! does most of the work; nothing here reads snapshots or calls the
//! control plane.

use partstm_core::Stm;
use partstm_stamp::vacation::{Manager, ManagerParts, ReservationKind};

use super::{finish, Outcome};
use crate::gen::{Digest, Rng, POPULATION_STREAM};
use crate::harness::{drive, run_tx, setup_reps, stats_by_partition, OpOutcome, RunCfg};
use crate::trace::Name;

/// A traced run traces one operation in this many (see `drive`).
const TRACE_STRIDE: u64 = 32;

/// Rows per relation.
pub const RELATIONS: u64 = 16_384;
/// Queries (or updates) per task (STAMP `-n`).
const QUERIES: usize = 4;
/// Percent of the relations queries draw from (STAMP `-q`).
const QUERY_RANGE_PCT: u64 = 60;
/// Percent of reservation tasks (STAMP `-u`); the rest splits evenly
/// between customer deletions and table updates.
const USER_PCT: u64 = 90;

/// One client task.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Query `QUERIES` items, reserve the priciest free one per kind.
    Reserve {
        /// `(kind code, item id)` per query.
        queries: [(u64, u64); QUERIES],
        /// The customer reserving.
        customer: u64,
    },
    /// Bill and delete one customer.
    DeleteCustomer {
        /// The customer.
        customer: u64,
    },
    /// Add or remove inventory of `QUERIES` items.
    UpdateTables {
        /// `(kind code, item id, add?, price)` per update.
        updates: [(u64, u64, bool, u64); QUERIES],
    },
}

fn range() -> u64 {
    RELATIONS * QUERY_RANGE_PCT / 100
}

/// Draws the next task.
pub fn next_op(rng: &mut Rng) -> Op {
    let roll = rng.below(100);
    if roll < USER_PCT {
        let mut queries = [(0, 0); QUERIES];
        for q in &mut queries {
            *q = (rng.below(3), rng.below(range()));
        }
        Op::Reserve {
            queries,
            customer: rng.below(range()),
        }
    } else if roll < USER_PCT + (100 - USER_PCT) / 2 {
        Op::DeleteCustomer {
            customer: rng.below(range()),
        }
    } else {
        let mut updates = [(0, 0, false, 0); QUERIES];
        for u in &mut updates {
            *u = (
                rng.below(3),
                rng.below(range()),
                rng.pct(50),
                rng.below(5) * 10 + 50,
            );
        }
        Op::UpdateTables { updates }
    }
}

/// `(units, price)` of every `(row, kind)`, row-major.
pub fn population(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed, POPULATION_STREAM);
    (0..RELATIONS * 3)
        .map(|_| ((rng.below(5) + 1) * 100, rng.below(5) * 10 + 50))
        .collect()
}

/// Digest of the population and the first `ops` ops of each client.
pub fn input_digest(seed: u64, ops: usize) -> u64 {
    let mut d = Digest::default();
    for (n, p) in population(seed) {
        d.words(&[n, p]);
    }
    for t in 0..2 {
        let mut rng = crate::gen::client_rng(seed, t);
        for _ in 0..ops {
            match next_op(&mut rng) {
                Op::Reserve { queries, customer } => {
                    d.words(&[0, customer]);
                    for (k, id) in queries {
                        d.words(&[k, id]);
                    }
                }
                Op::DeleteCustomer { customer } => d.words(&[1, customer]),
                Op::UpdateTables { updates } => {
                    d.word(2);
                    for (k, id, add, price) in updates {
                        d.words(&[k, id, u64::from(add), price]);
                    }
                }
            }
        }
    }
    d.0
}

fn build(pop: &[(u64, u64)]) -> (Stm, Manager) {
    let stm = Stm::new();
    let manager = Manager::new(ManagerParts::partitioned(&stm, false));
    let ctx = stm.register_thread();
    for id in 0..RELATIONS {
        for (k, kind) in ReservationKind::ALL.into_iter().enumerate() {
            let (num, price) = pop[(id * 3) as usize + k];
            ctx.run(|tx| manager.add_item(tx, kind, id, num, price).map(|_| ()));
        }
        ctx.run(|tx| manager.add_customer(tx, id).map(|_| ()));
    }
    drop(ctx);
    (stm, manager)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let pop = population(cfg.seed);
    let ((stm, manager), setup) = setup_reps(|| build(&pop));
    let baseline = stats_by_partition(&stm);
    let m = &manager;
    let driven = drive(
        cfg,
        &stm,
        TRACE_STRIDE,
        |ctx, tr, rng, _| {
            let wrote = match next_op(rng) {
                Op::Reserve { queries, customer } => run_tx(ctx, tr, |tx, tr| {
                    // Priciest free item per kind: (price, id).
                    let mut best: [Option<(u64, u64)>; 3] = [None; 3];
                    for &(k, id) in &queries {
                        let kind = ReservationKind::from_code(k);
                        let found = tr.time(Name::VacQuery, || m.query_item(tx, kind, id))?;
                        if let Some((free, price)) = found {
                            let slot = &mut best[k as usize];
                            if free > 0 && slot.is_none_or(|(p, _)| price > p) {
                                *slot = Some((price, id));
                            }
                        }
                    }
                    if best.iter().all(Option::is_none) {
                        return Ok(false);
                    }
                    let mut wrote = m.add_customer(tx, customer)?;
                    for (k, slot) in best.iter().enumerate() {
                        if let Some((_, id)) = *slot {
                            let kind = ReservationKind::from_code(k as u64);
                            wrote |=
                                tr.time(Name::VacReserve, || m.reserve(tx, customer, kind, id))?;
                        }
                    }
                    Ok(wrote)
                }),
                Op::DeleteCustomer { customer } => run_tx(ctx, tr, |tx, tr| {
                    let bill =
                        tr.time(Name::VacDeleteCustomer, || m.delete_customer(tx, customer))?;
                    Ok(bill.is_some())
                }),
                Op::UpdateTables { updates } => run_tx(ctx, tr, |tx, tr| {
                    let mut wrote = false;
                    for &(k, id, add, price) in &updates {
                        let kind = ReservationKind::from_code(k);
                        wrote |= tr.time(Name::VacUpdateTables, || {
                            if add {
                                m.add_item(tx, kind, id, 100, price)
                            } else {
                                m.remove_item(tx, kind, id, 100)
                            }
                        })?;
                    }
                    Ok(wrote)
                }),
            };
            OpOutcome { wrote, ok: true }
        },
        |_, _| false,
    );
    let invariants = manager.check_invariants();
    let violations = manager.release_violations();
    let checks = vec![
        (
            format!("vacation invariants ({invariants:?})"),
            invariants.is_ok(),
        ),
        (
            format!("release violations ({violations})"),
            violations == 0,
        ),
    ];
    finish(cfg, &stm, &baseline, driven, setup, checks)
}

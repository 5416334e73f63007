//! `shift`: the structure-backed phase shift. A large cold hash map and
//! a small hot one share one partition. Clients mix read-only scans of
//! the cold map with transfers; a third of the way into the run the
//! transfers shift onto the hot map and hold their first encounter lock
//! across a stretch of work, so scans start aborting on aliased orecs. Client 0 runs one `RepartitionController::step()` per
//! window between its transactions: profiler → online analyzer →
//! controller → arena-level split decides how much throughput comes back.

use std::sync::Arc;
use std::time::Duration;

use partstm_core::{PartitionConfig, Stm};
use partstm_repart::{ArenaDirectory, ControllerConfig, RepartEvent, RepartitionController};
use partstm_structures::THashMap;

use super::{finish, Outcome};
use crate::gen::{Digest, Rng, POPULATION_STREAM};
use crate::harness::{drive, run_tx, setup_reps, stats_by_partition, OpOutcome, RunCfg};
use crate::trace::Name;

/// A traced run traces one operation in this many (see `drive`).
const TRACE_STRIDE: u64 = 256;

/// Keys across both maps.
pub const KEYS: u64 = 4096;
/// Keys of the hot map.
pub const HOT_KEYS: u64 = 16;
/// Orec table of the shared partition: large enough that the uniform
/// phase runs without aliasing pressure (a smaller table invites an orec
/// resize at an unpredictable point before the shift, which makes the
/// pre-shift throughput swing from run to run), small enough that hot
/// locks held across the work still alias with the cold scans.
const OREC_COUNT: usize = 1024;
/// Percent of operations that are cold scans.
const SCAN_PCT: u64 = 70;
/// Keys read per scan.
const SCAN_LEN: usize = 64;
/// Percent of post-shift transfers that go to the hot map.
const HOT_PCT: u64 = 90;
/// Steps of work a hot transfer does while it holds its first encounter
/// lock (standing in for computation between debit and credit; about
/// 50 µs on a 2 GHz core). Work rather than a sleep: the hold then scales
/// with the host's speed like every other operation instead of being
/// fixed by the timer, which made the pre- and post-shift shares of a
/// run, and with them its latency median, swing with the host's speed.
const HOLD_STEPS: u64 = 27_000;
/// Controller window.
const WINDOW: Duration = Duration::from_millis(250);

fn cold_keys() -> u64 {
    KEYS - HOT_KEYS
}

/// One client operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Sum `SCAN_LEN` cold keys derived from `walk`.
    Scan {
        /// Seed of the key walk.
        walk: u64,
    },
    /// Move `amount` from `from` to `to`, in the hot map when `hot`.
    Transfer {
        /// Hot map (only after the shift).
        hot: bool,
        /// Debited key.
        from: u64,
        /// Credited key.
        to: u64,
        /// Amount moved.
        amount: u64,
    },
}

/// Draws the next operation; `shifted` is whether the run has passed its
/// phase point. The same draws are made either way.
pub fn next_op(rng: &mut Rng, shifted: bool) -> Op {
    let r = rng.next_u64();
    if (r >> 16) % 100 < SCAN_PCT {
        return Op::Scan {
            walk: rng.next_u64(),
        };
    }
    let hot = shifted && rng.pct(HOT_PCT);
    let (a, b) = (rng.next_u64(), rng.next_u64());
    let n = if hot { HOT_KEYS } else { cold_keys() };
    Op::Transfer {
        hot,
        from: a % n,
        to: b % n,
        amount: r % 90,
    }
}

/// The hot transfers' work between debit and credit.
fn hold() {
    let mut x = 1u64;
    for i in 0..HOLD_STEPS {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
}

/// The keys a scan walks.
fn scan_keys(walk: u64) -> impl Iterator<Item = u64> {
    let mut x = walk;
    (0..SCAN_LEN).map(move |_| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (x >> 16) % cold_keys()
    })
}

/// Initial values: hot keys first, then cold keys.
pub fn population(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, POPULATION_STREAM);
    (0..KEYS).map(|_| rng.below(1000)).collect()
}

/// Digest of the population and the first `ops` ops of each client, for
/// each phase.
pub fn input_digest(seed: u64, ops: usize) -> u64 {
    let mut d = Digest::default();
    d.words(&population(seed));
    for t in 0..2 {
        let mut rng = crate::gen::client_rng(seed, t);
        for i in 0..2 * ops {
            match next_op(&mut rng, i >= ops) {
                Op::Scan { walk } => d.words(&[0, walk]),
                Op::Transfer {
                    hot,
                    from,
                    to,
                    amount,
                } => d.words(&[1, u64::from(hot), from, to, amount]),
            }
        }
    }
    d.0
}

struct State {
    stm: Stm,
    hot: Arc<THashMap>,
    cold: Arc<THashMap>,
}

fn build(values: &[u64]) -> State {
    let stm = Stm::new();
    let part = stm.new_partition(PartitionConfig::named("mixed").orecs(OREC_COUNT));
    let hot = Arc::new(THashMap::new(Arc::clone(&part), HOT_KEYS as usize));
    let cold = Arc::new(THashMap::new(part, cold_keys() as usize / 4));
    let ctx = stm.register_thread();
    for k in 0..HOT_KEYS {
        ctx.run(|tx| hot.put(tx, k, values[k as usize]).map(|_| ()));
    }
    for k in 0..cold_keys() {
        let v = values[(HOT_KEYS + k) as usize];
        ctx.run(|tx| cold.put(tx, k, v).map(|_| ()));
    }
    State { stm, hot, cold }
}

/// The controller preset: windows driven by the benchmark, 1-in-32
/// sampling, and split gates low enough for a second cleanup split.
fn controller_config() -> ControllerConfig {
    let mut c = ControllerConfig::responsive();
    c.interval = WINDOW;
    c.sample_period = 32;
    c.online.split_abort_rate = 0.05;
    c.online.split_hot_share = 0.30;
    c.decay = 0.4;
    c
}

fn executed(e: &RepartEvent) -> bool {
    matches!(
        e,
        RepartEvent::Split { .. }
            | RepartEvent::Merge { .. }
            | RepartEvent::Resize { .. }
            | RepartEvent::Tear { .. }
            | RepartEvent::Heal { .. }
    )
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let values = population(cfg.seed);
    let expect = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let (st, setup) = setup_reps(|| build(&values));
    let dir = Arc::new(ArenaDirectory::new());
    st.hot.attach_directory(&*dir);
    st.cold.attach_directory(&*dir);
    let ctrl = RepartitionController::new(&st.stm, dir, controller_config());
    let baseline = stats_by_partition(&st.stm);
    let (hot, cold) = (&*st.hot, &*st.cold);
    let shift_at = cfg.shift_at();

    let mut next_step = WINDOW;
    let mut seen_events = 0usize;
    let mut react: Option<Duration> = None;
    let driven = drive(
        cfg,
        &st.stm,
        TRACE_STRIDE,
        |ctx, tr, rng, elapsed| match next_op(rng, elapsed >= shift_at) {
            Op::Scan { walk } => {
                let found = run_tx(ctx, tr, |tx, tr| {
                    let mut found = 0usize;
                    for k in scan_keys(walk) {
                        let v = tr.time(Name::MapGet, || cold.get(tx, k))?;
                        found += usize::from(v.is_some());
                    }
                    Ok(found)
                });
                OpOutcome {
                    wrote: false,
                    ok: found == SCAN_LEN,
                }
            }
            Op::Transfer {
                hot: is_hot,
                from,
                to,
                amount,
            } => {
                let map = if is_hot { hot } else { cold };
                let ok = run_tx(ctx, tr, |tx, tr| {
                    let f = tr.time(Name::MapGet, || map.get(tx, from))?;
                    tr.time(Name::MapPut, || {
                        map.put(tx, from, f.unwrap_or(0).wrapping_sub(amount))
                    })?;
                    if is_hot {
                        hold();
                    }
                    let t = tr.time(Name::MapGet, || map.get(tx, to))?;
                    tr.time(Name::MapPut, || {
                        map.put(tx, to, t.unwrap_or(0).wrapping_add(amount))
                    })?;
                    Ok(f.is_some() && t.is_some())
                });
                OpOutcome { wrote: true, ok }
            }
        },
        |tr, elapsed| {
            if elapsed < next_step {
                return false;
            }
            next_step += WINDOW;
            let span = tr.open(Name::CtrlStepIdle);
            ctrl.step();
            let events = ctrl.events();
            let acted = events[seen_events..].iter().any(executed);
            seen_events = events.len();
            if acted {
                tr.rename(span, Name::CtrlStepAction);
            }
            tr.close(span);
            if acted && react.is_none() && elapsed >= shift_at {
                react = Some(elapsed - shift_at);
            }
            true
        },
    );
    let total = hot
        .snapshot_pairs()
        .into_iter()
        .chain(cold.snapshot_pairs())
        .fold(0u64, |a, (_, v)| a.wrapping_add(v));
    let checks = vec![(
        format!("conserved sum ({total} == {expect})"),
        total == expect,
    )];
    let mut out = finish(cfg, &st.stm, &baseline, driven, setup, checks);
    let profiler = ctrl.profiler();
    let (recorded, dropped) = (profiler.recorded(), profiler.dropped());
    let events = ctrl.stop();
    let actions = events.iter().filter(|e| executed(e)).count();
    let failed = events
        .iter()
        .filter(|e| matches!(e, RepartEvent::Failed { .. }))
        .count();
    let m = &mut out.metrics;
    if recorded > 0 {
        m.set("profiler.drop_ratio", dropped as f64 / recorded as f64);
    }
    m.set("controller.actions", actions as f64);
    m.set("controller.failed_actions", failed as f64);
    // A run in which the controller never acted reports the whole
    // post-shift span (a lower bound on its reaction time).
    let post = Duration::from_secs_f64(out.driven.elapsed()).saturating_sub(shift_at);
    m.set("controller.react_s", react.unwrap_or(post).as_secs_f64());
    out.notes.push(format!("controller events: {events:?}"));
    out
}

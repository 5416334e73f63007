//! Per-partition statistics.
//!
//! The runtime tuner's decisions are driven entirely by these counters, so
//! collection must be cheap: threads accumulate into per-transaction local
//! counters and flush once per transaction into their own *shard* of the
//! partition's counters.
//!
//! ## Single-writer shards
//!
//! A partition has one cache-padded shard per thread slot of its `Stm`.
//! An engine counter in shard *k* is written only by the thread holding
//! slot *k*, so a relaxed load + store never loses an increment and the
//! flush needs no locked instruction:
//!
//! * every engine bump site (`Tx`, `ReadTx`) passes its own slot, and a
//!   partition is only ever touched by threads of its own `Stm` (the
//!   `stm_id` assert at view creation), so slot *k* names one thread;
//! * a slot has at most one holder at a time, and a slot handed to a new
//!   thread passes through the `Stm`'s free-slot mutex, which orders the
//!   old holder's last store before the new holder's first load.
//!
//! Readers ([`PartitionStats::snapshot`]) sum relaxed loads over the
//! shards. Counters only grow, and the tuner tolerates a snapshot a few
//! increments behind.
//!
//! **The control-plane exception.** `privatizations`,
//! `privatize_rollbacks`, `republishes` and `privatize_hold_alarms` are
//! bumped under slot 0 by whichever threads privatize, drop a guard or
//! take the hold-alarm window, possibly several at once and alongside
//! slot 0's own engine thread. These four keep an atomic `fetch_add`. They
//! share slot 0's shard with its engine counters but no word, so neither
//! kind of write can lose the other's counts.

use core::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

/// Applies a macro to every statistics counter field. Single source of truth
/// for the field list. Each field names its writers: `owner` (only the
/// slot's own thread) or `shared` (control-plane threads under slot 0; see
/// the module docs).
macro_rules! for_each_stat {
    ($mac:ident) => {
        $mac!(
            /// Transaction attempts that touched the partition.
            starts: owner,
            /// Committed transactions that touched the partition.
            commits: owner,
            /// Commits that performed no write in this partition.
            ro_commits: owner,
            /// Commits that wrote this partition.
            update_commits: owner,
            /// Aborts caused by a write-locked orec in this partition.
            aborts_wlock: owner,
            /// Aborts caused by writer-vs-visible-reader arbitration.
            aborts_rlock: owner,
            /// Aborts caused by failed validation / snapshot extension.
            aborts_validation: owner,
            /// Aborts caused by a remote kill.
            aborts_killed: owner,
            /// Aborts caused by an in-progress configuration switch.
            aborts_switching: owner,
            /// Aborts requested by user code.
            aborts_user: owner,
            /// Transactional reads served from this partition.
            reads: owner,
            /// Transactional writes into this partition.
            writes: owner,
            /// Successful snapshot extensions attributed to this partition.
            extensions: owner,
            /// Reader kills issued by writers in this partition.
            kills_issued: owner,
            /// Conflict aborts whose orec acquisition hint named the touched address (true data conflicts; see `orec::Orec::hint`).
            conflicts_true: owner,
            /// Conflict aborts whose hint named a different address (orec aliasing, i.e. false conflicts — the resize signal).
            conflicts_aliased: owner,
            /// Snapshot (read-only fast path) transactions committed against this partition.
            snapshot_commits: owner,
            /// Snapshot transaction restarts (switch collision or user retry — never a data conflict; see `crate::snapshot`).
            snapshot_restarts: owner,
            /// Reads served to snapshot transactions from this partition.
            snapshot_reads: owner,
            /// Snapshot reads that were served from a version-ring/overflow record rather than the live cell.
            snapshot_history_reads: owner,
            /// Committed-version records diverted to the overflow list because the ring victim was still reader-protected.
            ring_overflow_pushes: owner,
            /// Completed privatizations of this partition (flag→quiesce window won and a `PrivateGuard` was handed out).
            privatizations: shared,
            /// Privatization attempts rolled back because quiescence timed out (config word restored exactly).
            privatize_rollbacks: shared,
            /// Republish events: a `PrivateGuard` returned the partition to transactional service under gen+1.
            republishes: shared,
            /// Transactional attempts that aborted against a *privatized* (not merely switching) partition.
            privatized_collisions: owner,
            /// Hold-age alarms: windows in which a `PrivateGuard` on this partition was observed held past the configured threshold (see `crate::privatize::set_hold_alarm_threshold`).
            privatize_hold_alarms: shared
        );
    };
}

macro_rules! define_counters {
    ($(#[$doc:meta] $f:ident: $w:ident),+ $(,)?) => {
        /// Plain (non-atomic) snapshot of the partition counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatCounters {
            $(#[$doc] pub $f: u64,)+
        }

        impl StatCounters {
            /// Element-wise difference `self - earlier` (saturating).
            pub fn delta(&self, earlier: &StatCounters) -> StatCounters {
                StatCounters {
                    $($f: self.$f.saturating_sub(earlier.$f),)+
                }
            }

            /// Element-wise sum.
            pub fn add(&self, other: &StatCounters) -> StatCounters {
                StatCounters {
                    $($f: self.$f.wrapping_add(other.$f),)+
                }
            }

            /// Total aborts of all causes.
            pub fn aborts(&self) -> u64 {
                self.aborts_wlock
                    + self.aborts_rlock
                    + self.aborts_validation
                    + self.aborts_killed
                    + self.aborts_switching
                    + self.aborts_user
            }

            /// Share of classified conflicts that were *aliased* (false)
            /// conflicts: `conflicts_aliased / (conflicts_aliased +
            /// conflicts_true)`, or 0 when nothing was classified. The
            /// aliasing-pressure signal behind orec-table resizing.
            pub fn aliased_share(&self) -> f64 {
                let classified = self.conflicts_aliased + self.conflicts_true;
                if classified == 0 {
                    0.0
                } else {
                    self.conflicts_aliased as f64 / classified as f64
                }
            }
        }

        #[derive(Debug, Default)]
        struct StatShard {
            $($f: AtomicU64,)+
        }

        impl StatShard {
            fn snapshot(&self) -> StatCounters {
                StatCounters {
                    $($f: self.$f.load(Ordering::Relaxed),)+
                }
            }
        }
    };
}

for_each_stat!(define_counters);

/// Adds `n` to one shard counter: a plain load + store for an `owner`
/// counter, an atomic RMW for a `shared` one (module docs).
macro_rules! bump {
    (owner, $c:expr, $n:expr) => {{
        let c = &$c;
        c.store(
            c.load(Ordering::Relaxed).wrapping_add($n),
            Ordering::Relaxed,
        );
    }};
    (shared, $c:expr, $n:expr) => {{
        $c.fetch_add($n, Ordering::Relaxed);
    }};
}

/// Per-slot statistics shards for one partition.
#[derive(Debug)]
pub struct PartitionStats {
    shards: Box<[CachePadded<StatShard>]>,
}

impl PartitionStats {
    /// Counters for a partition of an `Stm` with `slots` thread slots.
    pub fn new(slots: usize) -> Self {
        PartitionStats {
            shards: (0..slots)
                .map(|_| CachePadded::new(StatShard::default()))
                .collect(),
        }
    }
}

impl Default for PartitionStats {
    /// Sized for [`MAX_THREADS`](crate::MAX_THREADS) slots.
    fn default() -> Self {
        PartitionStats::new(crate::MAX_THREADS)
    }
}

macro_rules! define_bump {
    ($(#[$doc:meta] $f:ident: $w:ident),+ $(,)?) => {
        impl PartitionStats {
            $(
                #[$doc]
                #[inline]
                pub fn $f(&self, slot: usize, n: u64) {
                    if n != 0 {
                        bump!($w, self.shards[slot].$f, n);
                    }
                }
            )+

            /// Sums all shards into a consistent-enough snapshot (counters
            /// are monotonically increasing; tuning tolerates slight skew).
            pub fn snapshot(&self) -> StatCounters {
                let mut acc = StatCounters::default();
                for s in self.shards.iter() {
                    acc = acc.add(&s.snapshot());
                }
                acc
            }
        }
    };
}

for_each_stat!(define_bump);

/// Per-transaction, per-partition local counters, flushed once at
/// transaction end.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalStats {
    /// Reads performed in the partition during this attempt.
    pub reads: u32,
    /// Writes performed in the partition during this attempt.
    pub writes: u32,
    /// Successful snapshot extensions triggered by this partition.
    pub extensions: u32,
    /// Kills this transaction issued against readers of this partition.
    pub kills: u32,
    /// Conflicts classified true (hint matched the touched address).
    pub conflicts_true: u32,
    /// Conflicts classified aliased (hint named a different address).
    pub conflicts_aliased: u32,
    /// Ring evictions diverted to the overflow list during this attempt's
    /// commit (reader-protected victims).
    pub ring_overflows: u32,
}

impl LocalStats {
    /// Flush into the partition aggregate.
    pub fn flush(&self, stats: &PartitionStats, slot: usize) {
        stats.reads(slot, self.reads as u64);
        stats.writes(slot, self.writes as u64);
        stats.extensions(slot, self.extensions as u64);
        stats.kills_issued(slot, self.kills as u64);
        stats.conflicts_true(slot, self.conflicts_true as u64);
        stats.conflicts_aliased(slot, self.conflicts_aliased as u64);
        stats.ring_overflow_pushes(slot, self.ring_overflows as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_land_in_snapshot_across_shards() {
        let s = PartitionStats::default();
        for slot in 0..32 {
            s.commits(slot, 1);
            s.reads(slot, 10);
        }
        let snap = s.snapshot();
        assert_eq!(snap.commits, 32);
        assert_eq!(snap.reads, 320);
        assert_eq!(snap.aborts(), 0);
    }

    #[test]
    fn zero_bump_is_free_and_correct() {
        let s = PartitionStats::default();
        s.writes(0, 0);
        assert_eq!(s.snapshot().writes, 0);
    }

    #[test]
    fn delta_and_aborts() {
        let a = StatCounters {
            commits: 10,
            aborts_wlock: 3,
            aborts_validation: 2,
            ..Default::default()
        };
        let b = StatCounters {
            commits: 4,
            aborts_wlock: 1,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.commits, 6);
        assert_eq!(d.aborts_wlock, 2);
        assert_eq!(d.aborts(), 4);
        // Saturating: never underflows even with skewed shard reads.
        let u = b.delta(&a);
        assert_eq!(u.commits, 0);
    }

    #[test]
    fn local_stats_flush() {
        let s = PartitionStats::default();
        let l = LocalStats {
            reads: 5,
            writes: 2,
            extensions: 1,
            kills: 3,
            conflicts_true: 4,
            conflicts_aliased: 6,
            ring_overflows: 7,
        };
        l.flush(&s, 9);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 5);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.extensions, 1);
        assert_eq!(snap.kills_issued, 3);
        assert_eq!(snap.conflicts_true, 4);
        assert_eq!(snap.conflicts_aliased, 6);
        assert_eq!(snap.ring_overflow_pushes, 7);
        assert!((snap.aliased_share() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn aliased_share_handles_zero_classified() {
        assert_eq!(StatCounters::default().aliased_share(), 0.0);
        let only_true = StatCounters {
            conflicts_true: 7,
            ..Default::default()
        };
        assert_eq!(only_true.aliased_share(), 0.0);
        let only_aliased = StatCounters {
            conflicts_aliased: 7,
            ..Default::default()
        };
        assert_eq!(only_aliased.aliased_share(), 1.0);
    }

    #[test]
    fn concurrent_bumps_do_not_lose_counts() {
        use std::sync::Arc;
        let s = Arc::new(PartitionStats::default());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.commits(t, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().commits, 80_000);
    }

    /// Slots 0 and 8 each own a shard. Sharding by `slot % 8` would put
    /// them in one, where single-writer bumps lose counts.
    #[test]
    fn slots_zero_and_eight_own_separate_shards() {
        use std::sync::Arc;
        const N: u64 = 200_000;
        let s = Arc::new(PartitionStats::new(16));
        let handles: Vec<_> = [0usize, 8]
            .into_iter()
            .map(|slot| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..N {
                        s.commits(slot, 1);
                        s.reads(slot, 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2 * N);
        assert_eq!(snap.reads, 6 * N);
    }

    /// The control-plane exception (module docs): two control-plane
    /// threads bump `privatizations` and `republishes` under slot 0 while
    /// slot 0's engine thread bumps its own counters. No count is lost.
    #[test]
    fn control_plane_bumps_under_slot_zero_lose_nothing() {
        use std::sync::Arc;
        const N: u64 = 200_000;
        let s = Arc::new(PartitionStats::new(2));
        let engine = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for _ in 0..N {
                    s.commits(0, 1);
                    s.reads(0, 2);
                }
            })
        };
        let control: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..N {
                        s.privatizations(0, 1);
                        s.republishes(0, 1);
                    }
                })
            })
            .collect();
        engine.join().unwrap();
        for h in control {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.commits, N);
        assert_eq!(snap.reads, 2 * N);
        assert_eq!(snap.privatizations, 2 * N);
        assert_eq!(snap.republishes, 2 * N);
    }
}

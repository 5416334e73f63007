//! Engine-level integration tests: transactional allocation lifecycles,
//! the reconfiguration protocol's orec re-stamping, kill mechanics and
//! contention-management policies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use partstm_core::{Abort, Arena, CmPolicy, Granularity, PartitionConfig, ReadMode, Stm, TVar};

#[derive(Default)]
struct Node {
    val: TVar<u64>,
}

#[test]
fn aborted_alloc_is_reclaimed() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("a"));
    let arena: Arena<Node> = Arena::new();
    let ctx = stm.register_thread();
    let mut attempts = 0;
    ctx.run(|tx| {
        attempts += 1;
        let h = arena.alloc(tx)?;
        let n = arena.get(h);
        tx.write_raw(&p, &n.val, 42)?;
        if attempts < 4 {
            return Err(Abort::retry());
        }
        Ok(())
    });
    // Three aborted attempts each allocated a node which must have been
    // returned; only the committed one is live.
    assert_eq!(arena.live(), 1, "aborted allocations must be reclaimed");
}

#[test]
fn free_is_deferred_to_commit() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("a"));
    let arena: Arena<Node> = Arena::new();
    let ctx = stm.register_thread();
    let h = ctx.run(|tx| {
        let h = arena.alloc(tx)?;
        tx.write_raw(&p, &arena.get(h).val, 1)?;
        Ok(h)
    });
    assert_eq!(arena.live(), 1);
    // Abort after freeing: the free must be forgotten.
    let mut first = true;
    ctx.run(|tx| {
        if first {
            first = false;
            arena.free(tx, h);
            return Err(Abort::retry());
        }
        Ok(())
    });
    assert_eq!(
        arena.live(),
        1,
        "free in an aborted attempt must not happen"
    );
    // Commit the free: now the slot recycles.
    ctx.run(|tx| {
        arena.free(tx, h);
        Ok(())
    });
    assert_eq!(arena.live(), 0);
    let h2 = arena.alloc_raw();
    assert_eq!(h, h2, "slot recycled after committed free");
}

#[test]
fn switch_restamps_orec_versions() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("x"));
    let v = TVar::new(0u64);
    let ctx = stm.register_thread();
    for i in 0..10u64 {
        ctx.run(|tx| tx.write_raw(&p, &v, i));
    }
    let clock_before = stm.clock_now();
    assert_eq!(clock_before, 10);
    // Switch granularity: every orec must now carry the current clock, so
    // a transaction with a pre-switch snapshot cannot silently accept
    // remapped state. Observable effect: a fresh reader still works and
    // sees the committed value.
    let mut cfg = p.current_config();
    cfg.granularity = Granularity::Stripe { shift: 8 };
    assert!(stm.switch_partition(&p, cfg).switched());
    assert_eq!(ctx.run(|tx| tx.read_raw(&p, &v)), 9);
    // And updates continue normally under the new mapping.
    ctx.run(|tx| tx.write_raw(&p, &v, 99));
    assert_eq!(v.load_direct(), 99);
}

#[test]
fn snapshots_stay_consistent_across_granularity_switches() {
    // Regression test for the remapped-stale-version bug: long read-only
    // transactions race writers while granularity flips word<->plock.
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("x"));
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..16).map(|_| TVar::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Writers keep all variables equal.
        for t in 0..3u64 {
            let ctx = stm.register_thread();
            let (p, vars, stop) = (p.clone(), vars.clone(), stop.clone());
            s.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    ctx.run(|tx| {
                        for v in vars.iter() {
                            tx.write_raw(&p, v, i)?;
                        }
                        Ok(())
                    });
                }
            });
        }
        // Readers assert all-equal.
        let ctx = stm.register_thread();
        let (p2, vars2, stop2) = (p.clone(), vars.clone(), stop.clone());
        s.spawn(move || {
            for _ in 0..4000 {
                ctx.run(|tx| {
                    let first = tx.read_raw(&p2, &vars2[0])?;
                    for v in vars2.iter().skip(1) {
                        assert_eq!(tx.read_raw(&p2, v)?, first, "mixed snapshot");
                    }
                    Ok(())
                });
            }
            stop2.store(true, Ordering::Relaxed);
        });
        // Switcher flips granularity continuously.
        let stm2 = stm.clone();
        let (p3, stop3) = (p.clone(), stop.clone());
        s.spawn(move || {
            let mut flip = false;
            while !stop3.load(Ordering::Relaxed) {
                let mut cfg = p3.current_config();
                cfg.granularity = if flip {
                    Granularity::Word
                } else {
                    Granularity::PartitionLock
                };
                flip = !flip;
                let _ = stm2.switch_partition(&p3, cfg);
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
        });
    });
}

#[test]
fn visible_reader_is_killed_by_writer() {
    // A visible reader parks on a value; a writer must be able to kill it
    // and make progress (writer-wins arbitration).
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("k").read_mode(ReadMode::Visible));
    let v = Arc::new(TVar::new(0u64));
    let reader_attempts = Arc::new(AtomicU64::new(0));
    let reader_in = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let ctx_r = stm.register_thread();
        let (p1, v1, ra, rin) = (
            p.clone(),
            v.clone(),
            reader_attempts.clone(),
            reader_in.clone(),
        );
        s.spawn(move || {
            ctx_r.run(|tx| {
                ra.fetch_add(1, Ordering::SeqCst);
                let x = tx.read_raw(&p1, &v1)?;
                rin.store(true, Ordering::SeqCst);
                if x == 0 {
                    // Busy-wait transactionally until the writer commits;
                    // the kill must interrupt this (`read` polls the flag).
                    loop {
                        let now = tx.read_raw(&p1, &v1)?;
                        if now != 0 {
                            return Ok(now);
                        }
                        std::hint::spin_loop();
                    }
                }
                Ok(x)
            });
        });
        let ctx_w = stm.register_thread();
        let (p2, v2, rin2) = (p.clone(), v.clone(), reader_in.clone());
        s.spawn(move || {
            while !rin2.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            ctx_w.run(|tx| tx.write_raw(&p2, &v2, 7));
        });
    });
    assert_eq!(v.load_direct(), 7);
    assert!(
        reader_attempts.load(Ordering::SeqCst) >= 1,
        "reader ran at least once"
    );
    let stats = p.stats();
    assert!(stats.commits >= 2);
}

#[test]
fn delay_then_abort_makes_progress_under_contention() {
    let stm = Stm::new();
    let p = stm.new_partition(
        PartitionConfig::named("d")
            .cm(CmPolicy::DelayThenAbort)
            .granularity(Granularity::PartitionLock),
    );
    let v = Arc::new(TVar::new(0u64));
    std::thread::scope(|s| {
        for _ in 0..6 {
            let ctx = stm.register_thread();
            let (p, v) = (p.clone(), v.clone());
            s.spawn(move || {
                for _ in 0..2000 {
                    ctx.run(|tx| tx.modify_raw(&p, &v, |x| x + 1).map(|_| ()));
                }
            });
        }
    });
    assert_eq!(v.load_direct(), 12_000);
}

#[test]
fn stats_attribute_aborts_to_the_conflicting_partition() {
    let stm = Stm::new();
    let hot =
        stm.new_partition(PartitionConfig::named("hot").granularity(Granularity::PartitionLock));
    let cold = stm.new_partition(PartitionConfig::named("cold"));
    let h = Arc::new(TVar::new(0u64));
    let c = Arc::new(TVar::new(0u64));
    std::thread::scope(|s| {
        for _ in 0..6 {
            let ctx = stm.register_thread();
            let (hot, cold, h, c) = (hot.clone(), cold.clone(), h.clone(), c.clone());
            s.spawn(move || {
                for i in 0..400u64 {
                    ctx.run(|tx| {
                        // Read-only traffic in `cold`, contended updates in
                        // `hot`. The sleep between read and write stretches
                        // the conflict window across a reschedule so the
                        // counter genuinely conflicts even on a single-core
                        // host (sub-microsecond transactions never
                        // interleave there otherwise).
                        let _ = tx.read_raw(&cold, &c)?;
                        let v = tx.read_raw(&hot, &h)?;
                        std::thread::sleep(std::time::Duration::from_micros(20));
                        tx.write_raw(&hot, &h, v + i)?;
                        Ok(())
                    });
                }
            });
        }
    });
    let sh = hot.stats();
    let sc = cold.stats();
    assert!(
        sh.aborts() > 0,
        "partition-locked counter under 6 threads must conflict"
    );
    assert_eq!(
        sc.aborts_wlock + sc.aborts_rlock,
        0,
        "cold partition never causes lock conflicts"
    );
    assert_eq!(sh.commits, sc.commits, "same transactions touched both");
}

/// Regression test for the snapshot-stale recycling hazard: an allocating
/// transaction whose snapshot predates a slot's free must not receive the
/// slot while it is still a live node in that snapshot. Before the reuse
/// barrier (free tags + snapshot extension in `Arena::alloc`) this workload
/// wedged all threads within seconds: a "fresh" node aliased a reachable
/// node of the allocator's own consistent view.
#[test]
fn recycled_slots_never_alias_the_allocators_snapshot() {
    use partstm_core::{Handle, TxResult, TxWord};

    #[derive(Default)]
    struct TreeNode {
        key: TVar<u64>,
        left: TVar<Option<Handle<TreeNode>>>,
        right: TVar<Option<Handle<TreeNode>>>,
    }

    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("t"));
    let arena: Arc<Arena<TreeNode>> = Arc::new(Arena::with_capacity(512));
    let root: Arc<TVar<Option<Handle<TreeNode>>>> = Arc::new(TVar::new(None));
    let ops_done = Arc::new(AtomicU64::new(0));

    // High-churn BST insert/delete on a tiny key range: constant free/alloc
    // recycling under contention.
    fn bst_op<'e>(
        tx: &mut partstm_core::Tx<'e, '_>,
        p: &'e Arc<partstm_core::Partition>,
        arena: &'e Arena<TreeNode>,
        root: &'e TVar<Option<Handle<TreeNode>>>,
        k: u64,
        insert: bool,
    ) -> TxResult<()> {
        let mut prev: Option<Handle<TreeNode>> = None;
        let mut went_left = false;
        let mut cur = tx.read_raw(p, root)?;
        let mut steps = 0u32;
        while let Some(h) = cur {
            steps += 1;
            assert!(steps < 10_000, "cycle in snapshot: recycling hazard back");
            let n = arena.get(h);
            let nk = tx.read_raw(p, &n.key)?;
            if nk == k {
                break;
            }
            prev = Some(h);
            went_left = k < nk;
            cur = if k < nk {
                tx.read_raw(p, &n.left)?
            } else {
                tx.read_raw(p, &n.right)?
            };
        }
        if insert && cur.is_none() {
            let h = arena.alloc(tx)?;
            let n = arena.get(h);
            tx.write_raw(p, &n.key, k)?;
            tx.write_raw(p, &n.left, None)?;
            tx.write_raw(p, &n.right, None)?;
            match prev {
                None => tx.write_raw(p, root, Some(h))?,
                Some(ph) => {
                    let pn = arena.get(ph);
                    if went_left {
                        tx.write_raw(p, &pn.left, Some(h))?;
                    } else {
                        tx.write_raw(p, &pn.right, Some(h))?;
                    }
                }
            }
        } else if !insert {
            if let Some(h) = cur {
                let n = arena.get(h);
                let l = tx.read_raw(p, &n.left)?;
                let r = tx.read_raw(p, &n.right)?;
                let repl = match (l, r) {
                    (None, x) => Some(x),
                    (x, None) => Some(x),
                    _ => None, // two children: skip (keeps the test simple)
                };
                if let Some(repl) = repl {
                    match prev {
                        None => tx.write_raw(p, root, repl)?,
                        Some(ph) => {
                            let pn = arena.get(ph);
                            if went_left {
                                tx.write_raw(p, &pn.left, repl)?;
                            } else {
                                tx.write_raw(p, &pn.right, repl)?;
                            }
                        }
                    }
                    arena.free(tx, h);
                }
            }
        }
        Ok(())
    }

    std::thread::scope(|s| {
        for t in 0..8u64 {
            let ctx = stm.register_thread();
            let (p, arena, root, ops_done) =
                (p.clone(), arena.clone(), root.clone(), ops_done.clone());
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..30_000 {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let k = r % 64;
                    let insert = (r >> 33) & 1 == 0;
                    ctx.run(|tx| bst_op(tx, &p, &arena, &root, k, insert));
                    ops_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(ops_done.load(Ordering::Relaxed), 240_000);
    // Committed tree must be a valid BST with unique keys.
    let mut keys = Vec::new();
    fn walk(arena: &Arena<TreeNode>, h: Option<Handle<TreeNode>>, out: &mut Vec<u64>) {
        if let Some(h) = h {
            let n = arena.get(h);
            walk(arena, n.left.load_direct(), out);
            out.push(n.key.load_direct());
            walk(arena, n.right.load_direct(), out);
        }
    }
    walk(&arena, root.load_direct(), &mut keys);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted, "in-order walk must be strictly sorted");
    let _ = Option::<Handle<TreeNode>>::from_word(0); // silence unused TxWord import
}

/// The key step of the write-acquisition argument (`txn` module docs,
/// "writes"): acquiring an orec whose version is past the snapshot extends
/// the snapshot, and the extension validates the reads of that orec. Here
/// attempt 0 reads `x`, a second thread context commits `x += 100`, then
/// attempt 0 writes `x`. Without the extension in front of the lock the
/// write would land on a stale read (`x == 11`, no abort).
#[test]
fn acquisition_past_the_snapshot_catches_a_true_conflict() {
    let stm = Stm::new();
    let p =
        stm.new_partition(PartitionConfig::named("one").granularity(Granularity::PartitionLock));
    let x = p.tvar(1u64);
    let (ctx, other) = (stm.register_thread(), stm.register_thread());
    ctx.run(|tx| {
        let v = tx.read(&x)?;
        if tx.attempts() == 0 {
            other.run(|tx2| tx2.modify(&x, |v| v + 100).map(|_| ()));
        }
        tx.write(&x, v + 10)
    });
    assert_eq!(x.load_direct(), 111, "no lost update");
    let st = p.stats();
    assert_eq!(st.aborts_validation, 1);
    assert_eq!(st.conflicts_true, 1);
    assert_eq!(st.conflicts_aliased, 0);
}

/// As above, but the interfering commit writes `y`, which shares `x`'s
/// only orec: the extension's validation failure is classified aliased.
#[test]
fn acquisition_past_the_snapshot_classifies_an_aliased_conflict() {
    let stm = Stm::new();
    let p =
        stm.new_partition(PartitionConfig::named("one").granularity(Granularity::PartitionLock));
    let (x, y) = (p.tvar(1u64), p.tvar(2u64));
    let (ctx, other) = (stm.register_thread(), stm.register_thread());
    ctx.run(|tx| {
        let v = tx.read(&x)?;
        if tx.attempts() == 0 {
            other.run(|tx2| tx2.write(&y, 20));
        }
        tx.write(&x, v + 10)
    });
    assert_eq!((x.load_direct(), y.load_direct()), (11, 20));
    let st = p.stats();
    assert_eq!(st.aborts_validation, 1);
    assert_eq!(st.conflicts_aliased, 1);
    assert_eq!(st.conflicts_true, 0);
}

/// The arena's reuse barrier is an ordinary snapshot extension: taking a
/// slot freed after this attempt's snapshot extends it once, and the
/// extension is counted against the first touched partition.
#[test]
fn allocating_a_slot_freed_after_the_snapshot_extends_once() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("a"));
    let arena: Arena<Node> = Arena::new();
    let (z, w) = (p.tvar(0u64), p.tvar(0u64));
    let (ctx, other) = (stm.register_thread(), stm.register_thread());
    let h = ctx.run(|tx| arena.alloc(tx));
    let before = p.stats().extensions;
    let reused = ctx.run(|tx| {
        tx.read(&z)?;
        if tx.attempts() == 0 {
            // An update commit, so the free's tag is past our snapshot.
            other.run(|tx2| {
                arena.free(tx2, h);
                tx2.write(&w, 1)
            });
        }
        arena.alloc(tx)
    });
    assert_eq!(reused, h, "the freed slot is reused");
    assert_eq!(p.stats().extensions - before, 1);
    assert_eq!(p.stats().aborts_validation, 0);
}

/// Partition views borrow their partition: touching it in an update or a
/// snapshot transaction, through the bound or the raw tier, leaves its
/// reference count alone, during the attempt and after commit.
#[test]
fn transactions_leave_the_partition_refcount_alone() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("a"));
    let bound = p.tvar(1u64);
    let raw = TVar::new(2u64);
    let ctx = stm.register_thread();
    let before = Arc::strong_count(&p);
    ctx.run(|tx| {
        let v = tx.read(&bound)? + tx.read_raw(&p, &raw)?;
        tx.write(&bound, v)?;
        tx.write_raw(&p, &raw, v)?;
        assert_eq!(Arc::strong_count(&p), before, "update attempt");
        Ok(())
    });
    assert_eq!(Arc::strong_count(&p), before, "after update commit");
    let sum = ctx.snapshot_read(|tx| {
        let v = tx.read(&bound)? + tx.read_raw(&p, &raw)?;
        assert_eq!(Arc::strong_count(&p), before, "snapshot attempt");
        Ok(v)
    });
    assert_eq!(sum, 6);
    assert_eq!(Arc::strong_count(&p), before, "after snapshot commit");
}

//! Criterion microbenches for the STM engine's primitive costs:
//! transactional read/write under both visibilities, read-only vs update
//! commits, writes behind a large read set, snapshot extension, two
//! threads sharing one partition, and the cost profile the paper's tuning
//! decisions trade against each other.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

use partstm_core::{Granularity, PVar, PartitionConfig, ReadMode, Stm, TVar, ThreadCtx};

fn bench_reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("txn_reads");
    for (label, mode) in [
        ("invisible", ReadMode::Invisible),
        ("visible", ReadMode::Visible),
    ] {
        for n in [1usize, 16, 64, 256] {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("p").read_mode(mode));
            let vars: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();
            let ctx = stm.register_thread();
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let sum = ctx.run(|tx| {
                        let mut s = 0u64;
                        for v in &vars {
                            s = s.wrapping_add(tx.read_raw(&p, v)?);
                        }
                        Ok(s)
                    });
                    black_box(sum)
                })
            });
        }
    }
    g.finish();
}

fn bench_writes(c: &mut Criterion) {
    let mut g = c.benchmark_group("txn_writes");
    for (label, acquire) in [
        ("encounter", partstm_core::AcquireMode::Encounter),
        ("commit", partstm_core::AcquireMode::Commit),
    ] {
        for n in [1usize, 16, 64] {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("p").acquire(acquire));
            let vars: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();
            let ctx = stm.register_thread();
            let mut i = 0u64;
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    i += 1;
                    ctx.run(|tx| {
                        for v in &vars {
                            tx.write_raw(&p, v, i)?;
                        }
                        Ok(())
                    });
                })
            });
        }
    }
    g.finish();
}

/// N invisible reads, then 16 encounter-time writes to other words, all in
/// one transaction: what an orec acquisition costs once the read set is
/// large (the write path of a read-heavy update such as STAMP vacation's).
fn bench_write_after_reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("txn_write_after_reads");
    for n in [16usize, 256, 1024] {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("p"));
        let reads: Vec<TVar<u64>> = (0..n as u64).map(TVar::new).collect();
        let writes: Vec<TVar<u64>> = (0..16u64).map(TVar::new).collect();
        let ctx = stm.register_thread();
        let mut i = 0u64;
        g.bench_with_input(BenchmarkId::new("w16", n), &n, |b, _| {
            b.iter(|| {
                i += 1;
                ctx.run(|tx| {
                    let mut s = 0u64;
                    for v in &reads {
                        s = s.wrapping_add(tx.read_raw(&p, v)?);
                    }
                    for v in &writes {
                        tx.write_raw(&p, v, s ^ i)?;
                    }
                    Ok(())
                });
            })
        });
    }
    g.finish();
}

fn bench_granularity_mapping(c: &mut Criterion) {
    let mut g = c.benchmark_group("granularity");
    for (label, gran) in [
        ("word", Granularity::Word),
        ("stripe6", Granularity::Stripe { shift: 6 }),
        ("plock", Granularity::PartitionLock),
    ] {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("p").granularity(gran));
        let vars: Vec<TVar<u64>> = (0..64u64).map(TVar::new).collect();
        let ctx = stm.register_thread();
        g.bench_function(label, |b| {
            b.iter(|| {
                ctx.run(|tx| {
                    let mut s = 0u64;
                    for v in &vars {
                        s = s.wrapping_add(tx.read_raw(&p, v)?);
                    }
                    Ok(black_box(s))
                })
            })
        });
    }
    g.finish();
}

fn bench_read_own_writes(c: &mut Criterion) {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("p"));
    let vars: Vec<TVar<u64>> = (0..64u64).map(TVar::new).collect();
    let ctx = stm.register_thread();
    c.bench_function("read_own_writes_64", |b| {
        b.iter(|| {
            ctx.run(|tx| {
                for (i, v) in vars.iter().enumerate() {
                    tx.write_raw(&p, v, i as u64)?;
                }
                let mut s = 0u64;
                for v in &vars {
                    s = s.wrapping_add(tx.read_raw(&p, v)?);
                }
                Ok(black_box(s))
            })
        })
    });
}

fn bench_empty_txn(c: &mut Criterion) {
    let stm = Stm::new();
    let ctx = stm.register_thread();
    c.bench_function("empty_txn", |b| {
        b.iter(|| ctx.run(|_tx| Ok(black_box(0u64))))
    });
}

/// One bank operation on a thread's own accounts.
type BankOp = fn(&ThreadCtx, &[PVar<i64>]);

/// Snapshot read of eight accounts.
fn snapshot_read_8r(ctx: &ThreadCtx, accounts: &[PVar<i64>]) {
    let sum = ctx.snapshot_read(|tx| {
        let mut s = 0i64;
        for a in &accounts[..8] {
            s += tx.read(a)?;
        }
        Ok(s)
    });
    black_box(sum);
}

/// Update transaction moving one unit between two accounts.
fn transfer_2w(ctx: &ThreadCtx, accounts: &[PVar<i64>]) {
    ctx.run(|tx| {
        let (from, to) = (&accounts[0], &accounts[1]);
        let f = tx.read(from)?;
        let t = tx.read(to)?;
        tx.write(from, f - 1)?;
        tx.write(to, t + 1)
    });
}

/// One partition, two threads: a helper thread runs the same operation on
/// its own accounts of the same partition while the bench iterates. The
/// threads share no data, only the partition, so what this measures
/// beyond the one-thread cost is the partition metadata the operation
/// writes (reference count, statistics) moving between cores.
fn bench_shared_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("shared_partition");
    let ops: [(&str, BankOp); 2] = [
        ("snapshot_read_8r", snapshot_read_8r),
        ("transfer_2w", transfer_2w),
    ];
    for (label, op) in ops {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("p"));
        let accounts: Vec<PVar<i64>> = (0..16).map(|_| p.tvar(1_000)).collect();
        let (mine, helpers) = accounts.split_at(8);
        let ctx = stm.register_thread();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let ctx = stm.register_thread();
                while !stop.load(Ordering::Relaxed) {
                    op(&ctx, helpers);
                }
            });
            g.bench_function(BenchmarkId::new("2t", label), |b| b.iter(|| op(&ctx, mine)));
            stop.store(true, Ordering::Relaxed);
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_empty_txn,
    bench_reads,
    bench_writes,
    bench_write_after_reads,
    bench_granularity_mapping,
    bench_read_own_writes,
    bench_shared_partition
);
criterion_main!(benches);

//! Criterion microbenches for the STM engine's primitive costs:
//! transactional read/write under both visibilities, read-only vs update
//! commits, writes behind a large read set, snapshot extension, and the
//! cost profile the paper's tuning decisions trade against each other.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use partstm_core::{Granularity, PartitionConfig, ReadMode, Stm, TVar};

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

criterion_group!(
    benches,
    bench_empty_txn,
    bench_reads,
    bench_writes,
    bench_write_after_reads,
    bench_granularity_mapping,
    bench_read_own_writes
);
criterion_main!(benches);

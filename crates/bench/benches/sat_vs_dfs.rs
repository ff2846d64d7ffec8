//! `sat_vs_dfs`: the dbcop-style engine comparison (`npc_vs_sat` in
//! their repo). Three verdict engines on the same histories:
//!
//! * `cycle` — Elle's sound-but-incomplete cycle search (linear-ish),
//! * `sat`   — the complete CEGAR order solver (`elle-sat`),
//! * `dfs`   — the WGL-style linearization search (`elle-knossos`),
//!   exponential in concurrency (Figure 4's blow-up).
//!
//! Three sweeps: history length at fixed concurrency (where `sat`
//! should track `cycle` within a constant factor), concurrency at fixed
//! length (where `dfs` departs), and a *hostile* sweep of adversarial
//! register histories built to detonate the DFS — the blow-up the
//! simulator's valid histories never trigger because their real-time
//! order guides the search straight to a linearization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elle_core::{CheckOptions, Checker};
use elle_dbsim::{DbConfig, IsolationLevel, ObjectKind};
use elle_gen::{run_workload, GenParams};
use elle_history::{History, HistoryBuilder};
use elle_knossos::KnossosOptions;
use elle_sat::SatModel;
use std::time::Duration;

/// `CRITERION_QUICK=1` (the CI smoke) truncates all three sweeps.
fn quick() -> bool {
    std::env::var_os("CRITERION_QUICK").is_some_and(|v| v == "1")
}

/// A serializable list-append run the DFS can also digest: low
/// concurrency, list objects only.
fn history(n_txns: usize, processes: usize) -> History {
    let params = GenParams {
        n_txns,
        min_txn_len: 1,
        max_txn_len: 4,
        active_keys: 4,
        writes_per_key: 32,
        read_prob: 0.5,
        kind: ObjectKind::ListAppend,
        seed: (n_txns as u64) ^ ((processes as u64) << 32),
        final_reads: false,
    };
    let db = DbConfig::new(IsolationLevel::StrictSerializable, ObjectKind::ListAppend)
        .with_processes(processes)
        .with_seed(n_txns as u64 + processes as u64);
    run_workload(params, db).expect("history pairs")
}

fn bench_length(c: &mut Criterion) {
    let mut g = c.benchmark_group("sat_vs_dfs_length");
    g.sample_size(10);
    let sizes: &[usize] = if quick() {
        &[50, 100]
    } else {
        &[50, 100, 200, 400, 800]
    };
    for &n in sizes {
        let h = history(n, 3);
        g.bench_with_input(BenchmarkId::new("cycle", n), &h, |b, h| {
            b.iter(|| Checker::new(CheckOptions::serializable()).check(h))
        });
        g.bench_with_input(BenchmarkId::new("sat", n), &h, |b, h| {
            b.iter(|| elle_sat::check(h, SatModel::Serializable))
        });
        g.bench_with_input(BenchmarkId::new("dfs", n), &h, |b, h| {
            b.iter(|| {
                elle_knossos::check(
                    h,
                    KnossosOptions::default().with_budget(Duration::from_secs(10)),
                )
            })
        });
    }
    g.finish();
}

fn bench_concurrency(c: &mut Criterion) {
    let mut g = c.benchmark_group("sat_vs_dfs_concurrency");
    g.sample_size(10);
    let procs: &[usize] = if quick() { &[2, 4] } else { &[2, 4, 6, 8] };
    for &p in procs {
        let h = history(120, p);
        g.bench_with_input(BenchmarkId::new("cycle", p), &h, |b, h| {
            b.iter(|| Checker::new(CheckOptions::serializable()).check(h))
        });
        g.bench_with_input(BenchmarkId::new("sat", p), &h, |b, h| {
            b.iter(|| elle_sat::check(h, SatModel::Serializable))
        });
        g.bench_with_input(BenchmarkId::new("dfs", p), &h, |b, h| {
            b.iter(|| {
                elle_knossos::check(
                    h,
                    KnossosOptions::default().with_budget(Duration::from_secs(10)),
                )
            })
        });
    }
    g.finish();
}

/// A hostile register history for the WGL search (duplicated as a
/// correctness pin in `crates/bench/tests/hostile_generators.rs`):
/// writer 0 is fenced in real time before `writers - 1` mutually
/// concurrent overwrites of the same register, and a trailing read
/// observes a stale value.
///
/// * `valid = true` — the **needle**: the read observes writer 1, so a
///   linearization exists but only with writer 1 ordered *last* in the
///   concurrent block. The completion-order-guided DFS tries it first
///   and backtracks through most of the block before finding it.
/// * `valid = false` — the **refutation**: the read observes the fenced
///   writer 0, which real-time order makes impossible. Proving that
///   requires exhausting every interleaving of the block: states and
///   time grow as `~writers · 2^writers` (Figure 4's blow-up), where
///   the valid sweeps above stay near-linear.
///
/// The refutation is also an incompleteness witness for the other two
/// engines: the cycle search's register version inference cannot order
/// the concurrent unread overwrites (no cycle, verdict stays ok), and
/// the SAT engine's PL-3 model carries no real-time obligations — only
/// the exponential DFS refutes this history.
fn hostile_register(writers: usize, valid: bool) -> History {
    let mut b = HistoryBuilder::new();
    // The fence: completes before every other writer invokes.
    b.txn(0).write(0, 0).at(0, Some(1)).commit();
    let base = 2;
    for i in 1..writers {
        b.txn(i as u32)
            .write(0, i as u64)
            .at(base + i, Some(base + writers + i))
            .commit();
    }
    let tail = base + 2 * writers + 2;
    let target = if valid { 1 } else { 0 };
    b.txn(writers as u32)
        .read_register(0, Some(target))
        .at(tail, Some(tail + 1))
        .commit();
    b.build()
}

fn bench_hostile(c: &mut Criterion) {
    let mut g = c.benchmark_group("sat_vs_dfs_hostile");
    g.sample_size(10);
    let writers: &[usize] = if quick() {
        &[8, 10]
    } else {
        &[8, 10, 12, 14, 16]
    };
    for &n in writers {
        for (tag, valid) in [("needle", true), ("refute", false)] {
            let h = hostile_register(n, valid);
            g.bench_with_input(BenchmarkId::new(&format!("cycle_{tag}"), n), &h, |b, h| {
                b.iter(|| Checker::new(CheckOptions::strict_serializable()).check(h))
            });
            g.bench_with_input(BenchmarkId::new(&format!("sat_{tag}"), n), &h, |b, h| {
                b.iter(|| elle_sat::check(h, SatModel::Serializable))
            });
            g.bench_with_input(BenchmarkId::new(&format!("dfs_{tag}"), n), &h, |b, h| {
                b.iter(|| {
                    elle_knossos::check(
                        h,
                        KnossosOptions::default().with_budget(Duration::from_secs(60)),
                    )
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_length, bench_concurrency, bench_hostile);
criterion_main!(benches);

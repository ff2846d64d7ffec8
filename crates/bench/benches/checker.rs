//! Criterion microbenchmarks for the checker itself: §7.5's claim is
//! linearity in history length and insensitivity to concurrency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use elle_core::{CheckOptions, Checker};
use elle_dbsim::{DbConfig, IsolationLevel, ObjectKind};
use elle_gen::{run_workload, GenParams};
use elle_history::History;

/// `CRITERION_QUICK=1` (the CI smoke) truncates the length series —
/// still a multi-point sweep so the extended-series path is exercised,
/// but without the 512k/1M points whose generation alone is minutes
/// (those are recorded offline into `BENCH_checker.json`).
fn quick() -> bool {
    std::env::var_os("CRITERION_QUICK").is_some_and(|v| v == "1")
}

fn history(n_txns: usize, processes: usize, iso: IsolationLevel) -> History {
    let params = GenParams::paper_perf(n_txns).with_seed(n_txns as u64);
    let db = DbConfig::new(iso, ObjectKind::ListAppend)
        .with_processes(processes)
        .with_seed(n_txns as u64 + processes as u64);
    run_workload(params, db).expect("history pairs")
}

fn bench_length(c: &mut Criterion) {
    let mut g = c.benchmark_group("elle_check_length");
    g.sample_size(10);
    let sizes: &[usize] = if quick() {
        &[1_000, 4_000, 16_000]
    } else {
        &[
            1_000, 4_000, 10_000, 16_000, 64_000, 256_000, 512_000, 1_000_000,
        ]
    };
    for &n in sizes {
        let h = history(n, 20, IsolationLevel::Serializable);
        g.throughput(Throughput::Elements(h.mop_count() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| Checker::new(CheckOptions::strict_serializable()).check(h))
        });
    }
    g.finish();
}

/// The IDSG the checker searches: list-append inference plus session
/// and real-time orders, frozen.
fn idsg(h: &History) -> (elle_core::DepGraph, elle_graph::Csr) {
    use elle_core::datatype::{run_mode, Parallelism};
    use elle_core::{add_process_edges, add_realtime_edges, DataType, KeyTypes, ProvenanceIndex};
    let elems = ProvenanceIndex::build(h);
    let keys = KeyTypes::infer(h).keys_of(DataType::List);
    let out = run_mode::<elle_core::list_append::ListAppend>(
        h,
        &elems,
        &keys,
        (),
        Parallelism::Sequential,
    );
    let mut deps = out.deps;
    add_process_edges(&mut deps, h);
    add_realtime_edges(&mut deps, h);
    let csr = deps.freeze();
    (deps, csr)
}

/// The early-acyclic certificate on a clean history: one Tarjan pass
/// under the full mask versus the per-class passes it skips.
fn bench_acyclic_certificate(c: &mut Criterion) {
    use elle_core::{find_cycle_anomalies_frozen, CycleSearchOptions};
    let n = if quick() { 2_000 } else { 16_000 };
    let h = history(n, 20, IsolationLevel::Serializable);
    let (deps, csr) = idsg(&h);
    let base = CycleSearchOptions::default();

    let mut g = c.benchmark_group("elle_cycle_search_clean");
    g.sample_size(10);
    for (name, certificate) in [("certificate", true), ("all_class_passes", false)] {
        g.bench_function(&format!("{name}_{n}"), |b| {
            b.iter(|| {
                find_cycle_anomalies_frozen(
                    &deps,
                    &csr,
                    &h,
                    CycleSearchOptions {
                        certificate,
                        ..base
                    },
                )
            })
        });
    }
    g.finish();
}

/// Cycle search on an anomalous history — a read-committed list-append
/// history on 10 active keys: thousands of candidate cycles, of which
/// the per-type cap keeps a few dozen.
fn bench_cycle_search_anomalous(c: &mut Criterion) {
    use elle_core::{find_cycle_anomalies_frozen, CycleSearchOptions};
    let n = if quick() { 4_000 } else { 16_000 };
    let params = GenParams {
        active_keys: 10,
        ..GenParams::paper_perf(n)
    }
    .with_seed(n as u64);
    let db = DbConfig::new(IsolationLevel::ReadCommitted, ObjectKind::ListAppend)
        .with_processes(20)
        .with_seed(n as u64 + 20);
    let h = run_workload(params, db).expect("history pairs");
    let (deps, csr) = idsg(&h);

    let mut g = c.benchmark_group("elle_cycle_search_anomalous");
    g.sample_size(10);
    g.bench_function(&format!("read_committed_{n}"), |b| {
        b.iter(|| find_cycle_anomalies_frozen(&deps, &csr, &h, CycleSearchOptions::default()))
    });
    g.finish();
}

/// Loading an NDJSON event log, `NdjsonIngestor::feed_str` + `finish`,
/// on the read-committed list-append log with 10 active keys: in the
/// writer's compact layout, which the writer-layout lane reads, and
/// spaced out (`, ` and `: `), which departs from that layout at the
/// first key and so is read by the tolerant reader.
fn bench_ingest_ndjson(c: &mut Criterion) {
    use elle_history::{events_to_ndjson, NdjsonIngestor, RecoveryPolicy};
    let n = if quick() { 4_000 } else { 16_000 };
    let params = GenParams {
        active_keys: 10,
        ..GenParams::paper_perf(n)
    }
    .with_seed(n as u64);
    let db = DbConfig::new(IsolationLevel::ReadCommitted, ObjectKind::ListAppend)
        .with_processes(20)
        .with_seed(n as u64 + 20);
    let compact = events_to_ndjson(&elle_gen::run_workload_log(params, db));
    let spaced = compact.replace(',', ", ").replace(':', ": ");

    let mut g = c.benchmark_group("elle_ingest_ndjson");
    g.sample_size(10);
    for (layout, text) in [("compact", &compact), ("spaced", &spaced)] {
        g.throughput(Throughput::Bytes(text.len() as u64));
        g.bench_function(&format!("{layout}_{n}"), |b| {
            b.iter(|| {
                let mut ingestor = NdjsonIngestor::new(RecoveryPolicy::Strict);
                ingestor.feed_str(text).expect("the generated log loads");
                ingestor.finish()
            })
        });
    }
    g.finish();
}

/// One epoch's incremental seal versus re-running the batch checker on
/// the same prefix: the streaming pitch in one number. The stream is
/// pre-ingested up to the final epoch; the benchmark then measures the
/// cost of analyzing the last epoch's delta (clone-reset per iteration
/// is hoisted out by re-ingesting; see `stream_epochs` for the full
/// per-epoch series).
fn bench_stream_epoch(c: &mut Criterion) {
    use elle_history::EventLog;
    use elle_stream::StreamChecker;
    let n = if quick() { 2_000 } else { 16_000 };
    let epoch = n / 8;
    let params = GenParams::paper_perf(n).with_seed(n as u64);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(20)
        .with_seed(n as u64 + 20);
    let log = elle_gen::run_workload_log(params, db);
    let events = log.events();

    let mut g = c.benchmark_group("elle_stream_epoch");
    g.sample_size(10);
    // Incremental: ingest everything, sealing along the way; measure a
    // fresh full run divided into epochs (amortized per-seal cost).
    g.bench_function(&format!("incremental_all_epochs_{n}"), |b| {
        b.iter(|| {
            let mut s = StreamChecker::new(CheckOptions::strict_serializable());
            let mut txns = 0usize;
            let mut reports = 0usize;
            for ev in events {
                if ev.kind == elle_history::EventKind::Invoke {
                    txns += 1;
                }
                s.ingest_event(ev).unwrap();
                if txns == epoch {
                    s.seal_epoch();
                    reports += 1;
                    txns = 0;
                }
            }
            s.seal_epoch();
            reports + 1
        })
    });
    // Batch: re-check each prefix from scratch (what a non-incremental
    // service pays for the same verdict cadence).
    g.bench_function(&format!("batch_recheck_all_epochs_{n}"), |b| {
        b.iter(|| {
            let mut txns = 0usize;
            let mut reports = 0usize;
            let mut cut = 0usize;
            for (i, ev) in events.iter().enumerate() {
                if ev.kind == elle_history::EventKind::Invoke {
                    txns += 1;
                }
                if txns == epoch || i + 1 == events.len() {
                    cut = i + 1;
                    let prefix = EventLog::from_events(events[..cut].to_vec())
                        .unwrap()
                        .pair()
                        .unwrap();
                    Checker::new(CheckOptions::strict_serializable()).check(&prefix);
                    reports += 1;
                    txns = 0;
                }
            }
            (reports, cut)
        })
    });
    g.finish();
}

fn bench_concurrency(c: &mut Criterion) {
    let mut g = c.benchmark_group("elle_check_concurrency");
    g.sample_size(10);
    for procs in [1usize, 10, 100] {
        let h = history(4_000, procs, IsolationLevel::Serializable);
        g.bench_with_input(BenchmarkId::from_parameter(procs), &h, |b, h| {
            b.iter(|| Checker::new(CheckOptions::strict_serializable()).check(h))
        });
    }
    g.finish();
}

fn bench_anomalous(c: &mut Criterion) {
    // Checking a history *with* anomalies (cycle search does real work).
    let mut g = c.benchmark_group("elle_check_anomalous");
    g.sample_size(10);
    let h = history(4_000, 20, IsolationLevel::ReadCommitted);
    g.bench_function("read_committed_4k", |b| {
        b.iter(|| Checker::new(CheckOptions::strict_serializable()).check(&h))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_length,
    bench_concurrency,
    bench_anomalous,
    bench_acyclic_certificate,
    bench_cycle_search_anomalous,
    bench_ingest_ndjson,
    bench_stream_epoch
);
criterion_main!(benches);

//! Per-epoch cost series for the streaming checker: feed a large
//! generated stream through `StreamChecker` with a fixed epoch size and
//! record each seal's wall-clock cost, next to what re-running the
//! batch checker over the same prefix would cost. The acceptance
//! criterion for `elle-stream` is that the incremental seal cost tracks
//! the epoch *delta* (near-flat across epochs) while the batch-recheck
//! cost grows with prefix length.
//!
//! ```sh
//! cargo run --release -p elle-bench --bin stream_epochs -- [txns] [epoch]
//! ```
//!
//! Prints a JSON object suitable for pasting into BENCH_checker.json.

use elle_core::{CheckOptions, Checker};
use elle_dbsim::{DbConfig, IsolationLevel, ObjectKind};
use elle_gen::GenParams;
use elle_history::EventLog;
use elle_stream::StreamChecker;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_txns: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64_000);
    let epoch_txns: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8_000);
    let batch_every: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    let params = GenParams::paper_perf(n_txns).with_seed(n_txns as u64);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(20)
        .with_seed(n_txns as u64 + 20);
    eprintln!("generating {n_txns}-txn stream…");
    let log = elle_gen::run_workload_log(params, db);
    let events = log.events();
    let opts = CheckOptions::strict_serializable();

    let mut stream = StreamChecker::new(opts);
    let mut rows: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        stream.ingest_event(ev).expect("well-formed stream");
        let fed = i + 1;
        if stream.txns_this_epoch() >= epoch_txns || fed == events.len() {
            let t0 = Instant::now();
            let epoch = stream.seal_epoch();
            let seal_ms = t0.elapsed().as_secs_f64() * 1e3;
            let epoch_ix = epoch.epoch;

            // Batch re-check of the same prefix (the cost a non-
            // incremental service would pay per epoch). Sampled every
            // `batch_every` epochs to keep large runs affordable.
            let batch_ms = if epoch_ix.is_multiple_of(batch_every) {
                let prefix = EventLog::from_events(events[..fed].to_vec())
                    .unwrap()
                    .pair()
                    .unwrap();
                let t0 = Instant::now();
                let report = Checker::new(opts).check(&prefix);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    serde_json::to_string(&epoch.report).unwrap(),
                    "streaming differential violated at epoch {epoch_ix}"
                );
                format!("{ms:.3}")
            } else {
                "null".to_string()
            };
            rows.push(format!(
                "    {{\"epoch\": {}, \"prefix_txns\": {}, \"seal_ms\": {:.3}, \"batch_recheck_ms\": {}, \"dirty_keys\": {}, \"extended_keys\": {}, \"scoped_txns\": {}, \"rebuilt\": {}}}",
                epoch_ix,
                epoch.txns,
                seal_ms,
                batch_ms,
                epoch.frontier.dirty_keys,
                epoch.frontier.extended_keys,
                epoch.frontier.scoped_txns,
                epoch.rebuilt,
            ));
            eprintln!(
                "epoch {epoch_ix}: prefix {} txns, seal {seal_ms:.1} ms, batch {batch_ms} ms",
                epoch.txns
            );
        }
    }

    println!("{{");
    println!("  \"stream\": \"{n_txns} txns, {epoch_txns}-txn epochs, list-append paper_perf, serializable sim\",");
    println!("  \"epochs\": [");
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}

//! §7.5 scaling claims, Elle only: "able to check histories of hundreds
//! of thousands of transactions in tens of seconds … primarily linear in
//! the length of a history and effectively constant with respect to
//! concurrency."
//!
//! Sweeps history length (to 300k txns by default, 1M with `--full`) and
//! concurrency, printing CSV: `txns,ops,concurrency,elle_s,ops_per_s`.
//!
//! `--lengths 256000,1000000` overrides the length sweep (and skips the
//! concurrency sweep); `--samples 3` re-checks each row that many times
//! and reports the median — the container's wall clock is noisy, so
//! paired before/after comparisons want medians over single shots.

use elle_core::{CheckOptions, Checker};
use elle_dbsim::{DbConfig, IsolationLevel, ObjectKind};
use elle_gen::{run_workload, GenParams};
use std::time::Instant;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let timing = std::env::args().any(|a| a == "--timing");
    let samples: usize = arg_value("--samples")
        .map(|v| v.parse().expect("--samples N"))
        .unwrap_or(1)
        .max(1);
    let lengths_override: Option<Vec<usize>> = arg_value("--lengths").map(|v| {
        v.split(',')
            .map(|s| s.trim().parse().expect("--lengths n1,n2,…"))
            .collect()
    });
    let lengths: Vec<usize> = match &lengths_override {
        Some(l) => l.clone(),
        None if full => vec![10_000, 30_000, 100_000, 300_000, 512_000, 1_000_000],
        None => vec![10_000, 30_000, 100_000, 300_000],
    };

    println!("txns,ops,concurrency,elle_s,ops_per_s");
    // Length sweep at fixed concurrency.
    for &n in &lengths {
        row(n, 20, timing, samples);
    }
    // Concurrency sweep at fixed length: "effectively constant".
    if lengths_override.is_none() {
        for c in [1, 5, 10, 20, 40, 100, 1000] {
            row(if full { 100_000 } else { 30_000 }, c, timing, samples);
        }
    }
}

fn row(n_txns: usize, c: usize, timing: bool, samples: usize) {
    let params = GenParams::paper_perf(n_txns).with_seed(n_txns as u64);
    let db = DbConfig::new(IsolationLevel::Serializable, ObjectKind::ListAppend)
        .with_processes(c)
        .with_seed(n_txns as u64 + c as u64);
    let h = run_workload(params, db).expect("history pairs");
    let ops = h.mop_count();
    let checker = Checker::new(CheckOptions::strict_serializable());
    let mut times = Vec::with_capacity(samples);
    let mut last_stages = None;
    for _ in 0..samples {
        let t0 = Instant::now();
        let (report, stages) = if timing {
            let (r, s) = checker.check_timed(&h);
            (r, Some(s))
        } else {
            (checker.check(&h), None)
        };
        times.push(t0.elapsed().as_secs_f64());
        last_stages = stages;
        assert!(report.ok(), "serializable engine must stay clean");
    }
    times.sort_by(f64::total_cmp);
    let secs = times[times.len() / 2];
    println!(
        "{n_txns},{ops},{c},{secs:.3},{:.0}",
        ops as f64 / secs.max(1e-9)
    );
    if let Some(stages) = last_stages {
        eprintln!("# {n_txns} txns, {c} procs:");
        eprint!("{}", stages.render(&[]));
    }
}

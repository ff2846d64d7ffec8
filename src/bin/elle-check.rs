//! Command-line checker: read a JSON history (as produced by
//! `elle_history::history_to_json` or any compatible harness) or an
//! NDJSON event stream (`*.ndjson`), run Elle, and print the report.
//!
//! ```sh
//! elle-check history.json --model snapshot-isolation --realtime --process
//! elle-check events.ndjson --quarantine     # salvage a damaged stream
//! elle-check history.json --json            # machine-readable report
//! elle-check --demo                         # check a built-in example
//! ```
//!
//! Exit status: 0 when the expected model holds, 1 when violated, 2 on
//! usage or input errors, 3 on an internal checker error, an exhausted
//! engine budget (verdict unknown), or an `--engine both` disagreement.

use elle::cli::{self, Args, Cli, Status, Stop};
use elle::history::{NdjsonIngestor, RecoveryPolicy};
use elle::prelude::*;
use std::process::ExitCode;
use std::time::Duration;

/// Which verdict engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Elle's sound cycle search over the inferred dependency graph.
    Cycle,
    /// The complete SAT cross-checker (`elle::sat`).
    Sat,
    /// The WGL-style DFS linearization search (`elle::knossos`).
    Dfs,
    /// Cycle and SAT, diffed; disagreement is exit 3.
    Both,
}

fn parse_engine(s: &str) -> Option<Engine> {
    match s {
        "cycle" => Some(Engine::Cycle),
        "sat" => Some(Engine::Sat),
        "dfs" => Some(Engine::Dfs),
        "both" => Some(Engine::Both),
        _ => None,
    }
}

const CLI: Cli = Cli {
    about: "\
usage: elle-check <history.json | events.ndjson> [options]

A *.ndjson input is parsed as an event stream (one invoke/ok/fail/info
event per line) and paired; anything else as a JSON history.",
    options: "\
--engine <name>  verdict engine (default cycle):
                   cycle  Elle's sound cycle search over the inferred IDSG
                   sat    complete SAT check; requires --model serializable
                          or snapshot-isolation, decodes a witness order or
                          a minimal counterexample
                   dfs    WGL-style DFS linearization search; only for the
                          default strict-serializable model on list/register
                          histories
                   both   run cycle and sat on the same history and diff
                          the verdicts (disagreement is exit 3)
--time-budget-ms <n>  dfs: wall-clock budget (default 100000)
--max-states <n>      dfs: explored-state cap
--quarantine     salvage damaged .ndjson input: skip undecodable or
                 misordered lines, adopt orphan completions, abandon
                 overlapping invocations (one stderr diagnostic each)
--json           print the full report as JSON
--timing         print a per-stage wall-clock breakdown on stderr
--demo           check a built-in anomalous example",
    exit_notes: "\
2 also covers a history the chosen engine cannot model; 3 also covers an
engine budget exhausted (verdict unknown) and an --engine both disagreement.",
};

fn demo_history() -> History {
    // The paper's §7.1 TiDB trio.
    let mut b = HistoryBuilder::new();
    b.txn(9).append(34, 2).commit();
    b.txn(9).append(34, 1).commit();
    b.txn(0)
        .read_list(34, [2, 1])
        .append(36, 5)
        .append(34, 4)
        .at(4, Some(20))
        .commit();
    b.txn(1).append(34, 5).at(5, Some(19)).commit();
    b.txn(2)
        .read_list(34, [2, 1, 5, 4])
        .at(21, Some(22))
        .commit();
    b.build()
}

fn main() -> ExitCode {
    elle::serve::signal::default_sigpipe();
    CLI.run(run)
}

fn run(args: &mut Args) -> Result<Status, Stop> {
    let mut path: Option<String> = None;
    let mut opts = CheckOptions::strict_serializable()
        .with_process_edges(false)
        .with_realtime_edges(false);
    let mut as_json = false;
    let mut timing = false;
    let mut demo = false;
    let mut recovery = RecoveryPolicy::Strict;
    let mut engine = Engine::Cycle;
    let mut time_budget_ms: u64 = 100_000;
    let mut max_states: Option<usize> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--engine" => engine = args.parse_with(parse_engine)?,
            "--time-budget-ms" => time_budget_ms = args.parse()?,
            "--max-states" => max_states = Some(args.parse()?),
            "--json" => as_json = true,
            "--timing" => timing = true,
            "--demo" => demo = true,
            "--quarantine" => recovery = RecoveryPolicy::Quarantine,
            "--help" | "-h" => return Err(Stop::Help),
            flag if cli::check_flag(flag, args, &mut opts)? => {}
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string());
            }
            other => return Err(Stop::unrecognized(other)),
        }
    }

    let parse_start = std::time::Instant::now();
    let mut quarantined = 0usize;
    let history = if demo {
        demo_history()
    } else {
        let Some(path) = path else {
            return Err(Stop::Usage(None));
        };
        let raw = std::fs::read_to_string(&path)
            .map_err(|e| Stop::Input(format!("cannot read {path}: {e}")))?;
        if path.ends_with(".ndjson") {
            let mut ingestor = NdjsonIngestor::new(recovery);
            ingestor
                .feed_str(&raw)
                .map_err(|e| Stop::Input(format!("cannot ingest {path}: {e}")))?;
            let (h, diags) = ingestor.finish();
            for d in &diags {
                eprintln!("quarantined: {d}");
            }
            quarantined = diags.len();
            h
        } else {
            elle::history::history_from_json(&raw)
                .map_err(|e| Stop::Input(format!("cannot parse {path}: {e}")))?
        }
    };
    let parse_secs = parse_start.elapsed().as_secs_f64();

    match engine {
        Engine::Cycle => {}
        Engine::Sat => return Ok(run_sat(&history, opts.expected, as_json, timing)),
        Engine::Dfs => {
            return Ok(run_dfs(
                &history,
                opts.expected,
                time_budget_ms,
                max_states,
                as_json,
            ))
        }
        Engine::Both => return Ok(run_both(&history, opts, as_json, timing)),
    }

    let checker = Checker::new(opts);
    let report = if timing {
        let guarded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checker.check_timed(&history)
        }));
        let (report, stages) = match guarded {
            Ok(out) => out,
            Err(p) => {
                eprintln!(
                    "internal checker error: {}",
                    elle::core::panic_message(p.as_ref())
                );
                return Ok(Status::Unknown);
            }
        };
        eprintln!("timing (wall clock):");
        eprintln!("  {:<26}  {:>9.3} ms", "parse + pairing", parse_secs * 1e3);
        eprint!(
            "{}",
            stages.render(&[("quarantined", quarantined, "events")])
        );
        report
    } else {
        match checker.try_check(&history) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return Ok(Status::Unknown);
            }
        }
    };
    if as_json {
        // The report object itself is checker output (kept byte-stable);
        // ingest-level degradation rides alongside as a top-level gauge,
        // present only when something was actually quarantined.
        let mut v = serde::Serialize::serialize(&report);
        if quarantined > 0 {
            if let serde::Value::Map(entries) = &mut v {
                entries.push((
                    "quarantined".to_string(),
                    serde::Value::UInt(quarantined as u64),
                ));
            }
        }
        print_pretty(&v);
    } else {
        print!("{}", report.summary());
        for w in &report.warnings {
            println!("warning: {w}");
        }
        for a in report.anomalies.iter().take(opts.max_cycles_per_type) {
            println!("\n{a}");
        }
    }
    Ok(Status::verdict(report.ok()))
}

fn print_pretty(v: &serde::Value) {
    println!(
        "{}",
        serde_json::to_string_pretty(v).expect("report serializes")
    );
}

/// The SAT engine's model universe: the two isolation levels the
/// encoding covers. Any other model is a usage error for `--engine`.
fn sat_model_of(m: ConsistencyModel, engine: &str) -> Option<SatModel> {
    match m {
        ConsistencyModel::Serializable => Some(SatModel::Serializable),
        ConsistencyModel::SnapshotIsolation => Some(SatModel::SnapshotIsolation),
        _ => {
            eprintln!(
                "--engine {engine} checks --model serializable or snapshot-isolation \
                 (expected model is {m})"
            );
            None
        }
    }
}

fn sat_verdict_word(v: &SatVerdict) -> &'static str {
    match v {
        SatVerdict::Satisfiable { .. } => "satisfiable",
        SatVerdict::Violated { .. } => "violated",
        SatVerdict::Unknown { .. } => "unknown",
        SatVerdict::Unsupported { .. } => "unsupported",
    }
}

fn sat_exit(v: &SatVerdict) -> Status {
    match v {
        SatVerdict::Satisfiable { .. } => Status::Holds,
        SatVerdict::Violated { .. } => Status::Violated,
        SatVerdict::Unsupported { .. } => Status::BadInput,
        SatVerdict::Unknown { .. } => Status::Unknown,
    }
}

/// The SAT report as JSON: an `engine` discriminator plus
/// verdict-specific fields (witness array, decoded order). Only the new
/// engines emit this shape — default cycle output stays byte-identical.
fn sat_json(model: SatModel, report: &SatReport) -> serde::Value {
    use serde::Value;
    let ids = |ts: &[TxnId]| Value::Array(ts.iter().map(|t| Value::UInt(t.0 as u64)).collect());
    let mut m: Vec<(String, Value)> = vec![
        ("engine".into(), Value::Str("sat".into())),
        ("model".into(), Value::Str(model.to_string())),
        (
            "verdict".into(),
            Value::Str(sat_verdict_word(&report.verdict).into()),
        ),
    ];
    match &report.verdict {
        SatVerdict::Satisfiable { order } => m.push(("order".into(), ids(order))),
        SatVerdict::Violated {
            witness,
            minimized,
            explanation,
        } => {
            m.push(("witness".into(), ids(witness)));
            m.push(("minimized".into(), Value::Bool(*minimized)));
            m.push(("explanation".into(), Value::Str(explanation.clone())));
        }
        SatVerdict::Unknown { reason } | SatVerdict::Unsupported { reason } => {
            m.push(("reason".into(), Value::Str(reason.clone())));
        }
    }
    let s = &report.stats;
    m.push((
        "stats".into(),
        Value::Map(vec![
            ("included".into(), Value::UInt(s.included as u64)),
            ("events".into(), Value::UInt(s.events as u64)),
            ("vars".into(), Value::UInt(s.vars as u64)),
            ("clauses".into(), Value::UInt(s.clauses as u64)),
            ("rounds".into(), Value::UInt(s.rounds as u64)),
            ("conflicts".into(), Value::UInt(s.conflicts)),
            ("decisions".into(), Value::UInt(s.decisions)),
            ("propagations".into(), Value::UInt(s.propagations)),
            (
                "minimize_solves".into(),
                Value::UInt(s.minimize_solves as u64),
            ),
            (
                "elapsed_ms".into(),
                Value::Float(s.elapsed.as_secs_f64() * 1e3),
            ),
        ]),
    ));
    Value::Map(m)
}

fn print_sat_human(model: SatModel, report: &SatReport) {
    match &report.verdict {
        SatVerdict::Satisfiable { order } => {
            println!("sat: {model} satisfiable");
            const SHOW: usize = 24;
            let shown: Vec<String> = order.iter().take(SHOW).map(|t| t.to_string()).collect();
            let more = order.len().saturating_sub(SHOW);
            if more > 0 {
                println!("  order: {} … (+{more} more)", shown.join(" < "));
            } else if !shown.is_empty() {
                println!("  order: {}", shown.join(" < "));
            }
        }
        SatVerdict::Violated {
            witness,
            minimized,
            explanation,
        } => {
            println!("sat: {model} violated");
            let w: Vec<String> = witness.iter().map(|t| t.to_string()).collect();
            println!(
                "  witness{}: {}",
                if *minimized { " (minimal)" } else { "" },
                w.join(", ")
            );
            println!("  {explanation}");
        }
        SatVerdict::Unknown { reason } => println!("sat: {model} unknown ({reason})"),
        SatVerdict::Unsupported { reason } => println!("sat: {model} unsupported ({reason})"),
    }
}

fn sat_timing_line(report: &SatReport) {
    let s = &report.stats;
    eprintln!(
        "sat: {} included txns, {} events, {} vars, {} clauses, {} rounds, \
         {} conflicts, {} minimize solves, {:.3} ms",
        s.included,
        s.events,
        s.vars,
        s.clauses,
        s.rounds,
        s.conflicts,
        s.minimize_solves,
        s.elapsed.as_secs_f64() * 1e3
    );
}

fn run_sat(history: &History, expected: ConsistencyModel, as_json: bool, timing: bool) -> Status {
    let Some(model) = sat_model_of(expected, "sat") else {
        return Status::BadInput;
    };
    let report = elle::sat::check(history, model);
    if timing {
        sat_timing_line(&report);
    }
    if as_json {
        print_pretty(&sat_json(model, &report));
    } else {
        print_sat_human(model, &report);
    }
    sat_exit(&report.verdict)
}

fn run_dfs(
    history: &History,
    expected: ConsistencyModel,
    time_budget_ms: u64,
    max_states: Option<usize>,
    as_json: bool,
) -> Status {
    if expected != ConsistencyModel::StrictSerializable {
        eprintln!("--engine dfs checks strict-serializable only (expected model is {expected})");
        return Status::BadInput;
    }
    let unsupported = history.txns().iter().flat_map(|t| t.mops.iter()).any(|m| {
        matches!(m, Mop::Increment { .. } | Mop::AddToSet { .. })
            || matches!(
                m,
                Mop::Read {
                    value: Some(ReadValue::Counter(_) | ReadValue::Set(_)),
                    ..
                }
            )
    });
    if unsupported {
        eprintln!(
            "--engine dfs models list/register histories only \
             (found counter/set operations)"
        );
        return Status::BadInput;
    }
    let mut k = KnossosOptions::default().with_budget(Duration::from_millis(time_budget_ms));
    if let Some(n) = max_states {
        k = k.with_max_states(n);
    }
    let res = elle::knossos::check(history, k);
    if as_json {
        use serde::Value;
        let word = match res.outcome {
            KnossosOutcome::Ok => "ok",
            KnossosOutcome::Violation => "violation",
            KnossosOutcome::Unknown => "unknown",
        };
        let v = Value::Map(vec![
            ("engine".into(), Value::Str("dfs".into())),
            ("model".into(), Value::Str(expected.name().into())),
            ("verdict".into(), Value::Str(word.into())),
            (
                "states_explored".into(),
                Value::UInt(res.states_explored as u64),
            ),
            (
                "elapsed_ms".into(),
                Value::Float(res.elapsed.as_secs_f64() * 1e3),
            ),
        ]);
        print_pretty(&v);
    } else {
        let word = match res.outcome {
            KnossosOutcome::Ok => "ok",
            KnossosOutcome::Violation => "violation",
            KnossosOutcome::Unknown => "unknown (budget exhausted)",
        };
        println!(
            "dfs: strict-serializable {word} ({} states, {:.3} ms)",
            res.states_explored,
            res.elapsed.as_secs_f64() * 1e3
        );
    }
    match res.outcome {
        KnossosOutcome::Ok => Status::Holds,
        KnossosOutcome::Violation => Status::Violated,
        KnossosOutcome::Unknown => Status::Unknown,
    }
}

fn run_both(history: &History, opts: CheckOptions, as_json: bool, timing: bool) -> Status {
    let Some(model) = sat_model_of(opts.expected, "both") else {
        return Status::BadInput;
    };
    if opts.process_edges || opts.realtime_edges || opts.timestamp_edges {
        // Derived-order obligations (session/real-time/timestamp) are
        // cycle-engine-only; diffing against a SAT encoding that does
        // not model them would manufacture disagreements.
        eprintln!("--engine both does not combine with --process/--realtime/--timestamps");
        return Status::BadInput;
    }
    let cycle = match Checker::new(opts).try_check(history) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return Status::Unknown;
        }
    };
    let sat = elle::sat::check(history, model);
    if timing {
        sat_timing_line(&sat);
    }
    // The cycle engine is sound: any anomaly it reports must make the
    // SAT encoding unsatisfiable. The converse does not hold — SAT is
    // complete where the cycle search is not — so a SAT-only violation
    // is the documented completeness gap, not a disagreement.
    let disagreement = !cycle.ok() && sat.verdict.is_satisfiable();
    if as_json {
        use serde::Value;
        let v = Value::Map(vec![
            ("engine".into(), Value::Str("both".into())),
            ("disagreement".into(), Value::Bool(disagreement)),
            ("cycle".into(), serde::Serialize::serialize(&cycle)),
            ("sat".into(), sat_json(model, &sat)),
        ]);
        print_pretty(&v);
    } else {
        if cycle.ok() {
            println!("cycle: {} ok", opts.expected);
        } else {
            println!(
                "cycle: {} violated ({} anomalies)",
                opts.expected,
                cycle.anomalies.len()
            );
        }
        print_sat_human(model, &sat);
        if disagreement {
            println!(
                "DISAGREEMENT: the cycle engine found an anomaly but the SAT \
                 engine found a legal {model} order — one of them is wrong"
            );
        } else if !cycle.ok() && sat.verdict.is_violated() {
            println!("engines agree: {model} is violated");
        } else if cycle.ok() && sat.verdict.is_satisfiable() {
            println!("engines agree: no {model} violation");
        }
    }
    if disagreement {
        return Status::Unknown;
    }
    match &sat.verdict {
        SatVerdict::Unsupported { .. } => Status::BadInput,
        SatVerdict::Unknown { .. } => Status::Unknown,
        _ if !cycle.ok() || sat.verdict.is_violated() => Status::Violated,
        _ => Status::Holds,
    }
}

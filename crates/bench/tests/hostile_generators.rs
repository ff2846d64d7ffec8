//! Correctness pins for the hostile-history generator used by the
//! `sat_vs_dfs_hostile` bench sweep (see
//! `crates/bench/benches/sat_vs_dfs.rs`, where the generator is
//! documented and duplicated — criterion benches cannot export code).
//! Small sizes only: the point here is the *shape* (exponential DFS
//! state growth, verdicts per engine), not the timings.

use elle_core::{CheckOptions, Checker};
use elle_history::{History, HistoryBuilder};
use elle_knossos::{KnossosOptions, KnossosOutcome};
use elle_sat::{SatModel, SatVerdict};
use std::time::Duration;

/// Keep in sync with `hostile_register` in benches/sat_vs_dfs.rs.
fn hostile_register(writers: usize, valid: bool) -> History {
    let mut b = HistoryBuilder::new();
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

fn dfs(h: &History) -> elle_knossos::KnossosResult {
    elle_knossos::check(
        h,
        KnossosOptions::default().with_budget(Duration::from_secs(30)),
    )
}

#[test]
fn needle_is_valid_but_forces_backtracking() {
    let r = dfs(&hostile_register(10, true));
    assert_eq!(r.outcome, KnossosOutcome::Ok);
    // Ten txns linearize in ten steps when the search is guided; the
    // needle forces three orders of magnitude more exploration.
    assert!(r.states_explored > 1_000, "only {}", r.states_explored);
}

#[test]
fn refutation_exhausts_exponentially_many_states() {
    let small = dfs(&hostile_register(8, false));
    let large = dfs(&hostile_register(10, false));
    assert_eq!(small.outcome, KnossosOutcome::Violation);
    assert_eq!(large.outcome, KnossosOutcome::Violation);
    // Two more concurrent writers must roughly quadruple the explored
    // state count (~writers * 2^writers); a guided search would grow
    // linearly and a broken fence would collapse it entirely.
    assert!(
        large.states_explored >= 3 * small.states_explored,
        "no blow-up: {} -> {}",
        small.states_explored,
        large.states_explored
    );
}

/// The refutation is found by the DFS *alone*: the cycle engine's
/// register inference cannot order the concurrent unread overwrites
/// (sound, not complete — the verdict stays ok), and the SAT engine's
/// PL-3 model has no real-time obligations, so it happily linearizes
/// the stale read. This asymmetry is the reason the hostile sweep
/// exists: on valid simulator histories dfs looks like the *cheapest*
/// engine, which badly misrepresents its worst case.
#[test]
fn only_the_dfs_refutes_the_stale_fenced_read() {
    let h = hostile_register(10, false);
    assert_eq!(dfs(&h).outcome, KnossosOutcome::Violation);
    let cy = Checker::new(CheckOptions::strict_serializable()).check(&h);
    assert!(
        cy.ok(),
        "cycle engine grew complete on registers — update the hostile sweep notes"
    );
    let sat = elle_sat::check(&h, SatModel::Serializable);
    assert!(
        matches!(sat.verdict, SatVerdict::Satisfiable { .. }),
        "PL-3 SAT model grew real-time obligations — update the hostile sweep notes"
    );
}

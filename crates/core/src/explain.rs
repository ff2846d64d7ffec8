//! Figure-2-style human-readable cycle explanations, and Figure-3-style
//! DOT export.

use crate::anomaly::{CycleStep, Witness};
use elle_history::{History, TxnId};

/// One step's justification: "`T1` did not observe `T2`'s append of 8 to
/// key 255", etc.
pub fn witness_text(w: &Witness, from: TxnId, to: TxnId) -> String {
    match w {
        Witness::WwList { key, prev, next } => {
            format!("{to} appended {next} directly after {from} appended {prev} to key {key}")
        }
        Witness::WrList { key, elem } => {
            format!("{to} observed {from}'s append of {elem} to key {key}")
        }
        Witness::RwList {
            key,
            read_last,
            next,
        } => match read_last {
            Some(last) => format!(
                "{from} did not observe {to}'s append of {next} to key {key} \
                 (it read up to {last})"
            ),
            None => format!(
                "{from} read key {key} in its initial (empty) state, missing {to}'s \
                 append of {next}"
            ),
        },
        Witness::WwReg { key, prev, next } => match prev {
            Some(p) => {
                format!("{to} overwrote {from}'s write of {p} to register {key} with {next}")
            }
            None => format!(
                "{to} wrote {next} over the initial state of register {key}, which \
                 {from} established"
            ),
        },
        Witness::WrReg { key, elem } => {
            format!("{to} read {from}'s write of {elem} to register {key}")
        }
        Witness::RwReg { key, read, next } => match read {
            Some(r) => {
                format!("{from} read {r} from register {key}, which {to} overwrote with {next}")
            }
            None => format!("{from} read register {key} as nil, missing {to}'s write of {next}"),
        },
        Witness::WrSet { key, elem } => {
            format!("{to} observed {from}'s add of {elem} to set {key}")
        }
        Witness::RwSet { key, elem } => {
            format!("{from} did not observe {to}'s add of {elem} to set {key}")
        }
        Witness::Rr { key } => {
            format!("{from} observed an earlier state of key {key} than {to}")
        }
        Witness::Process { process } => {
            format!("{from} and {to} both ran on process {process}, and {from} completed first")
        }
        Witness::Realtime { complete, invoke } => {
            format!("{from} completed (event {complete}) before {to} was invoked (event {invoke})")
        }
        Witness::Timestamp { commit, start } => format!(
            "{from} committed at database timestamp {commit}, before {to} started at {start}"
        ),
    }
}

/// Render a full cycle explanation in the paper's Figure-2 format:
///
/// ```text
/// Let:
///   T1 = ...
///   T2 = ...
/// Then:
///   - T1 < T2, because ...
///   - However, T2 < T1, because ...: a contradiction!
/// ```
pub fn explain_cycle(history: &History, steps: &[CycleStep]) -> String {
    let mut s = String::from("Let:\n");
    let mut listed = Vec::new();
    for st in steps {
        if !listed.contains(&st.from) {
            listed.push(st.from);
        }
        if !listed.contains(&st.to) {
            listed.push(st.to);
        }
    }
    for t in &listed {
        s.push_str("  ");
        s.push_str(&history.get(*t).to_notation());
        s.push('\n');
    }
    s.push_str("Then:\n");
    for (i, st) in steps.iter().enumerate() {
        let reason = witness_text(&st.witness, st.from, st.to);
        if i + 1 == steps.len() {
            s.push_str(&format!(
                "  - However, {} < {}, because {reason}: a contradiction!\n",
                st.from, st.to
            ));
        } else {
            s.push_str(&format!("  - {} < {}, because {reason}.\n", st.from, st.to));
        }
    }
    s
}

/// Render a cycle as Graphviz DOT (Figure 3 style), labeling each edge with
/// its presented dependency class.
pub fn cycle_dot(steps: &[CycleStep]) -> String {
    let mut s = String::from("digraph cycle {\n  rankdir=LR;\n  node [shape=box];\n");
    for st in steps {
        s.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
            st.from,
            st.to,
            st.class.label()
        ));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use elle_graph::EdgeClass;
    use elle_history::{Elem, HistoryBuilder, Key};

    #[test]
    fn figure2_shape() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(255, 8).commit();
        b.txn(1).read_list(255, [8]).commit();
        let h = b.build();
        let steps = vec![
            CycleStep {
                from: TxnId(0),
                to: TxnId(1),
                class: EdgeClass::Wr,
                witness: Witness::WrList {
                    key: Key(255),
                    elem: Elem(8),
                },
            },
            CycleStep {
                from: TxnId(1),
                to: TxnId(0),
                class: EdgeClass::Rw,
                witness: Witness::RwList {
                    key: Key(255),
                    read_last: Some(Elem(8)),
                    next: Elem(9),
                },
            },
        ];
        let text = explain_cycle(&h, &steps);
        assert!(text.starts_with("Let:\n"));
        assert!(text.contains("Then:"));
        assert!(text.contains("T1 < T0"), "{text}");
        assert!(text.contains("However"));
        assert!(text.trim_end().ends_with("a contradiction!"));
        // Paper-style phrasing:
        assert!(
            text.contains("observed T0's append of 8 to key 255"),
            "{text}"
        );
    }

    #[test]
    fn dot_output() {
        let steps = vec![CycleStep {
            from: TxnId(0),
            to: TxnId(1),
            class: EdgeClass::Rw,
            witness: Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(5),
            },
        }];
        let dot = cycle_dot(&steps);
        assert!(dot.contains("\"T0\" -> \"T1\" [label=\"rw\"]"));
    }

    #[test]
    fn witness_texts_cover_all_variants() {
        use elle_history::ProcessId;
        let cases: Vec<Witness> = vec![
            Witness::WwList {
                key: Key(1),
                prev: Elem(1),
                next: Elem(2),
            },
            Witness::WrList {
                key: Key(1),
                elem: Elem(2),
            },
            Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(2),
            },
            Witness::RwList {
                key: Key(1),
                read_last: Some(Elem(1)),
                next: Elem(2),
            },
            Witness::WwReg {
                key: Key(1),
                prev: None,
                next: Elem(2),
            },
            Witness::WwReg {
                key: Key(1),
                prev: Some(Elem(1)),
                next: Elem(2),
            },
            Witness::WrReg {
                key: Key(1),
                elem: Elem(2),
            },
            Witness::RwReg {
                key: Key(1),
                read: None,
                next: Elem(2),
            },
            Witness::RwReg {
                key: Key(1),
                read: Some(Elem(1)),
                next: Elem(2),
            },
            Witness::WrSet {
                key: Key(1),
                elem: Elem(2),
            },
            Witness::RwSet {
                key: Key(1),
                elem: Elem(2),
            },
            Witness::Rr { key: Key(1) },
            Witness::Process {
                process: ProcessId(3),
            },
            Witness::Realtime {
                complete: 4,
                invoke: 9,
            },
            Witness::Timestamp {
                commit: 3,
                start: 8,
            },
        ];
        for w in cases {
            let text = witness_text(&w, TxnId(0), TxnId(1));
            assert!(!text.is_empty());
            assert!(text.contains("T0") || text.contains("T1"));
        }
    }
}

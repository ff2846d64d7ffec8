//! Graphviz DOT export, for Figure-3-style cycle plots.
//!
//! Rendering reads the frozen [`Csr`], whose rows are sorted by neighbour
//! id, so the emitted edge order is a deterministic function of the edge
//! set — two graphs with the same edges produce byte-identical DOT no
//! matter the order their edges were inserted in.

use crate::{Csr, EdgeMask};

/// Render the subgraph induced by `vertices` (or the whole graph if `None`)
/// to DOT. `name_of` supplies vertex labels (e.g. `T1`).
pub fn to_dot(
    g: &Csr,
    vertices: Option<&[u32]>,
    allowed: EdgeMask,
    name_of: &dyn Fn(u32) -> String,
) -> String {
    let mut s = String::from("digraph deps {\n  rankdir=LR;\n  node [shape=box];\n");
    let in_scope: Option<Vec<bool>> = vertices.map(|vs| {
        let mut b = vec![false; g.vertex_count()];
        for &v in vs {
            b[v as usize] = true;
        }
        b
    });
    let ok = |v: u32| in_scope.as_ref().is_none_or(|b| b[v as usize]);

    if let Some(vs) = vertices {
        for &v in vs {
            s.push_str(&format!("  \"{}\";\n", name_of(v)));
        }
    }
    for (a, b, m) in g.edges() {
        if !ok(a) || !ok(b) {
            continue;
        }
        let km = EdgeMask(m.0 & allowed.0);
        if km.is_empty() {
            continue;
        }
        let label: Vec<&str> = km.iter().map(|c| c.label()).collect();
        s.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
            name_of(a),
            name_of(b),
            label.join(",")
        ));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::tests::csr_of;
    use crate::EdgeClass;

    #[test]
    fn renders_edges_and_labels() {
        let g = csr_of(2, &[(0, 1, EdgeClass::Wr), (1, 0, EdgeClass::Rw)]);
        let dot = to_dot(&g, None, EdgeMask::ALL, &|v| format!("T{v}"));
        assert!(dot.contains("\"T0\" -> \"T1\" [label=\"wr\"]"));
        assert!(dot.contains("\"T1\" -> \"T0\" [label=\"rw\"]"));
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn scoping_and_masking() {
        let csr = csr_of(3, &[(0, 1, EdgeClass::Ww), (1, 2, EdgeClass::Rw)]);
        let dot = to_dot(&csr, Some(&[0, 1]), EdgeMask::WW, &|v| format!("T{v}"));
        assert!(dot.contains("T0"));
        assert!(!dot.contains("T2"));
        let dot2 = to_dot(&csr, None, EdgeMask::RW, &|v| format!("T{v}"));
        assert!(!dot2.contains("ww"));
        assert!(dot2.contains("rw"));
    }

    #[test]
    fn output_independent_of_insertion_order() {
        let a = csr_of(
            3,
            &[
                (2, 0, EdgeClass::Ww),
                (0, 2, EdgeClass::Wr),
                (0, 1, EdgeClass::Rw),
            ],
        );
        let b = csr_of(
            3,
            &[
                (0, 1, EdgeClass::Rw),
                (0, 2, EdgeClass::Wr),
                (2, 0, EdgeClass::Ww),
            ],
        );
        let name = |v: u32| format!("T{v}");
        assert_eq!(
            to_dot(&a, None, EdgeMask::ALL, &name),
            to_dot(&b, None, EdgeMask::ALL, &name)
        );
    }
}

//! # elle-graph
//!
//! Graph substrate for the Elle checker: a frozen directed graph whose
//! edges carry a small bitmask of *dependency classes*, plus the algorithms
//! §6 of the paper calls for:
//!
//! * [Tarjan's strongly-connected components][tarjan] (iterative — histories
//!   have hundreds of thousands of vertices, so no recursion),
//! * breadth-first short-cycle search restricted to edge classes,
//!   including the paper's "exactly one read-write edge" search used for
//!   G-single,
//! * transitive reduction of interval orders (used for real-time edges,
//!   §5.1's `O(n · p)` construction),
//! * DOT export for the Figure-3-style visualizations.
//!
//! There is one graph type, the immutable [`Csr`]: flat sorted adjacency,
//! no hash maps, mask filtering at traversal time, and reusable
//! [`Scratch`] working memory for every search (see the [`Csr`] docs).
//! It is built by [`EdgeBuf::build`] from edges pushed in any order, or by
//! [`Csr::from_sorted_edges`] from an already-sorted edge list.
//!
//! The crate is independent of Elle's domain types: vertices are dense
//! `u32` indices; callers map transactions onto them.
//!
//! [tarjan]: https://doi.org/10.1137/0201010

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod class;
mod csr;
mod cycles;
mod dot;
mod reduction;
mod tarjan;

pub use class::{EdgeClass, EdgeMask};
pub use csr::{Csr, EdgeBuf, Scratch};
pub use cycles::CycleSpec;
pub use dot::to_dot;
pub use reduction::{interval_order_reduction, Interval};

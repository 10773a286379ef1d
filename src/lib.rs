//! Workspace root crate for the BSOR reproduction.
//!
//! This crate exists to host the repository-level `examples/` and the
//! cross-crate integration tests in `tests/`. It re-exports the member
//! crates under stable names so examples and tests can use a single
//! dependency.

#![forbid(unsafe_code)]

pub use bsor;
pub use bsor_cdg as cdg;
pub use bsor_flow as flow;
pub use bsor_lp as lp;
pub use bsor_netgraph as netgraph;
pub use bsor_routing as routing;
pub use bsor_sim as sim;
pub use bsor_topology as topology;
pub use bsor_workloads as workloads;

/// Compiles and runs README's Rust snippets as doctests, so the
/// documented API cannot drift from the real one.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

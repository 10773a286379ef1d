//! # bsor-netgraph
//!
//! A compact, from-scratch directed-graph substrate used by the BSOR
//! reproduction for channel dependence graphs (CDGs) and the flow networks
//! derived from them.
//!
//! The graphs manipulated by BSOR are small (hundreds to a few thousand
//! vertices) but are queried intensively: cycle detection while breaking CDG
//! cycles, Dijkstra during route selection, and exhaustive bounded path
//! enumeration for the MILP selector. This crate provides exactly those
//! operations with no external dependencies.
//!
//! ## Quick start
//!
//! ```
//! use bsor_netgraph::{DiGraph, algo};
//!
//! let mut g: DiGraph<&str, f64> = DiGraph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, 1.0);
//! g.add_edge(b, c, 2.0);
//! assert!(algo::is_acyclic(&g));
//! let order = algo::toposort(&g).expect("acyclic");
//! assert_eq!(order, vec![a, b, c]);
//! ```

#![forbid(unsafe_code)]

pub mod algo;
pub mod graph;

pub use graph::{DiGraph, EdgeId, NodeId};

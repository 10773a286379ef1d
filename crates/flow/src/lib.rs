//! # bsor-flow
//!
//! Flows (the application's data transfers) and the flow network `GA`
//! derived from an acyclic channel dependence graph, following paper
//! §3.1 (Definitions) and §3.4 (Deriving a Flow Graph from an Acyclic
//! CDG).
//!
//! A [`Flow`] is a `(source, sink, demand)` triple. The [`FlowNetwork`]
//! view pairs a topology with an acyclic CDG and answers the queries the
//! route selectors need: which CDG vertices can begin or end a flow's
//! route, minimum route lengths, capacities. [`LoadState`] accumulates
//! per-channel bandwidth loads as routes are chosen and computes the
//! **maximum channel load (MCL)**, the quantity BSOR minimizes; and
//! [`WeightParams`] implements the Dijkstra selector's reciprocal
//! residual-capacity metric `w(e) = 1 / (a(e) − dᵢ + M)` (paper §3.6).
//!
//! ```
//! use bsor_topology::Topology;
//! use bsor_cdg::{AcyclicCdg, TurnModel};
//! use bsor_flow::{Flow, FlowId, FlowNetwork};
//!
//! let mesh = Topology::mesh2d(3, 3);
//! let acyclic = AcyclicCdg::turn_model(&mesh, 1, &TurnModel::west_first())
//!     .expect("valid turn model");
//! let ga = FlowNetwork::new(&mesh, &acyclic);
//! let flow = Flow::new(
//!     FlowId(0),
//!     mesh.node_at(0, 0).unwrap(),
//!     mesh.node_at(2, 2).unwrap(),
//!     25.0,
//! );
//! // Minimal route length in channels equals the Manhattan distance.
//! assert_eq!(ga.min_route_links(&flow), Some(4));
//! ```

#![forbid(unsafe_code)]

pub mod flow;
pub mod network;

pub use flow::{Flow, FlowId, FlowSet, FlowSetError};
pub use network::{FlowNetwork, LoadState, WeightParams};

//! # bsor-cdg
//!
//! Channel dependence graphs (CDGs) and the cycle-breaking strategies that
//! turn them into acyclic CDGs, the deadlock-freedom foundation of BSOR
//! (paper §3.1–3.4, §3.7).
//!
//! A CDG has one vertex per directed channel of the network (per virtual
//! channel when `vcs > 1`) and an edge between two vertices when a packet
//! can traverse the corresponding channels consecutively; 180° turns are
//! disallowed from the start. By Dally & Aoki's theorem (paper Lemma 1),
//! any set of routes conforming to an *acyclic* CDG is deadlock-free, so
//! this crate provides several ways to remove cycles:
//!
//! * [`TurnModel`] two-turn prohibitions (west-first, north-last,
//!   negative-first, and the full set of 12 deadlock-free combinations on
//!   a 2-D mesh),
//! * ad-hoc randomized cycle breaking ([`AcyclicCdg::ad_hoc`]),
//! * random-priority-order breaking ([`AcyclicCdg::random_order`]),
//! * virtual-channel expansions: per-layer virtual networks
//!   ([`AcyclicCdg::virtual_networks`]) and the "any turn if the packet
//!   climbs to a higher VC" expansion ([`AcyclicCdg::escalating_vc`]).
//!
//! ```
//! use bsor_topology::Topology;
//! use bsor_cdg::{AcyclicCdg, Cdg, TurnModel};
//!
//! let mesh = Topology::mesh2d(3, 3);
//! let full = Cdg::build(&mesh, 1);
//! assert_eq!(full.graph().node_count(), 24); // one vertex per channel
//!
//! let acyclic = AcyclicCdg::turn_model(&mesh, 1, &TurnModel::west_first())
//!     .expect("west-first breaks all mesh CDG cycles");
//! // The paper's Figure 3-3: the turn model removes 8 dependence edges
//! // from the 3x3 mesh CDG.
//! assert_eq!(acyclic.removed_edges(), 8);
//! ```

#![forbid(unsafe_code)]

pub mod acyclic;
pub mod cdg;
pub mod render;
pub mod turn;

pub use acyclic::{AcyclicCdg, LayerRecipe};
pub use cdg::{Cdg, CdgError, CdgVertex, VcId};
pub use turn::{Turn, TurnModel};

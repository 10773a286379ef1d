//! # bsor-workloads
//!
//! The six workloads of the paper's evaluation (Chapter 5): three
//! synthetic bit-permutation patterns and three applications whose flow
//! graphs are transcribed from the paper's figures and tables.
//!
//! | Workload | Source | Flows on 8×8 |
//! |---|---|---|
//! | transpose | §5.1.2, `d = (y, x)` | 56 |
//! | bit-complement | §5.1.1, `dᵢ = ¬sᵢ` | 64 |
//! | shuffle | §5.1.3, `dᵢ = s_{i−1 mod b}` | 62 |
//! | H.264 decoder | Figure 5-1 | 15 |
//! | performance modeling | Figure 5-2 | 11 |
//! | 802.11a/g transmitter | Table 5.2 | 20 |
//!
//! Synthetic flows all carry [`SYNTHETIC_DEMAND`] = 25 MB/s, which makes
//! the dimension-order MCLs land exactly on the paper's Table 6.3 values
//! (e.g. transpose XY = 175 MB/s = 7 × 25). Application demands are the
//! paper's own MB/s figures (the transmitter's Mbit/s rates are divided
//! by 8, which is how 58.72 Mbit/s appears as 7.34 MB/s in Table 6.3).
//!
//! Module→node placements for the applications are **not** specified in
//! the paper; the placements here spread modules across the mesh so that
//! the single-largest-flow MCL lower bound is attainable, matching the
//! shape of the paper's results. See `DESIGN.md` for the substitution
//! notes.
//!
//! ```
//! use bsor_topology::Topology;
//! use bsor_workloads::{transpose, SYNTHETIC_DEMAND};
//!
//! let mesh = Topology::mesh2d(8, 8);
//! let w = transpose(&mesh).expect("8x8 is square");
//! assert_eq!(w.flows.len(), 56);
//! assert_eq!(w.flows.max_demand(), SYNTHETIC_DEMAND);
//! ```

#![forbid(unsafe_code)]

pub mod apps;
pub mod patterns;
pub mod registry;
pub mod synthetic;

pub use apps::{h264_decoder, performance_modeling, wifi_transmitter};
pub use patterns::{
    bit_reversal, hotspot, hotspot_nodes, neighbor, rand_perm, tornado, uniform_random,
};
pub use registry::{workload_by_name, WorkloadFactory, WorkloadFamilyFactory, WorkloadRegistry};
pub use synthetic::{bit_complement, shuffle, transpose, SYNTHETIC_DEMAND};

use bsor_flow::FlowSet;
use bsor_topology::Topology;
use std::error::Error;
use std::fmt;

/// A named traffic workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name used in the tables ("transpose", "H.264", …).
    pub name: String,
    /// The flows with their bandwidth demands.
    pub flows: FlowSet,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, flows: FlowSet) -> Workload {
        Workload {
            name: name.into(),
            flows,
        }
    }
}

/// Why a workload could not be instantiated on a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// Bit-permutation patterns need a square mesh.
    NotSquare,
    /// Bit-permutation patterns need a power-of-two node count.
    NotPowerOfTwo,
    /// The topology has fewer nodes than the application has modules.
    TooSmall {
        /// Modules required.
        required: usize,
        /// Nodes available.
        available: usize,
    },
    /// No workload is registered under the requested name (see
    /// [`WorkloadRegistry`]).
    UnknownWorkload {
        /// The name that failed to resolve.
        name: String,
    },
    /// A parameterized spec string named a known family but carried a
    /// malformed or out-of-range argument (e.g. `hotspot:lots`).
    BadSpec {
        /// The full offending spec string.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The pattern produces no flows on this topology (e.g. tornado on a
    /// 2×2 grid, where every shift is zero).
    EmptyWorkload {
        /// The workload that degenerated.
        name: String,
    },
    /// The pattern walks grid coordinates, which this topology family
    /// does not have (dragonfly, fat-tree, full-mesh and file-loaded
    /// graphs are laid out as a 1 × n line, so a coordinate walk would
    /// silently produce a meaningless pattern).
    RequiresGrid {
        /// The workload that needs a grid.
        name: String,
        /// The offending topology family.
        kind: bsor_topology::TopologyKind,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NotSquare => write!(f, "synthetic patterns require a square mesh"),
            WorkloadError::NotPowerOfTwo => {
                write!(f, "synthetic patterns require a power-of-two node count")
            }
            WorkloadError::TooSmall {
                required,
                available,
            } => write!(
                f,
                "application needs {required} module nodes but the topology has {available}"
            ),
            WorkloadError::UnknownWorkload { name } => write!(f, "unknown workload '{name}'"),
            WorkloadError::BadSpec { spec, reason } => {
                write!(f, "bad workload spec '{spec}': {reason}")
            }
            WorkloadError::EmptyWorkload { name } => {
                write!(f, "workload '{name}' produces no flows on this topology")
            }
            WorkloadError::RequiresGrid { name, kind } => {
                write!(
                    f,
                    "workload '{name}' requires a grid topology, not {kind:?}"
                )
            }
        }
    }
}

impl Error for WorkloadError {}

/// All six evaluation workloads on `topo` (paper §6.1), in the order the
/// paper's tables list them.
///
/// # Errors
///
/// Any [`WorkloadError`] raised by a member workload (e.g. a non-square
/// or too-small topology).
pub fn all_six(topo: &Topology) -> Result<Vec<Workload>, WorkloadError> {
    Ok(vec![
        transpose(topo)?,
        bit_complement(topo)?,
        shuffle(topo)?,
        h264_decoder(topo)?,
        performance_modeling(topo)?,
        wifi_transmitter(topo)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_build_on_8x8() {
        let topo = Topology::mesh2d(8, 8);
        let all = all_six(&topo).expect("8x8 supports every workload");
        assert_eq!(all.len(), 6);
        for w in &all {
            w.flows.validate(&topo).expect("valid flows");
            assert!(!w.flows.is_empty());
        }
        let names: Vec<&str> = all.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "transpose",
                "bit-complement",
                "shuffle",
                "H.264",
                "perf. modeling",
                "transmitter"
            ]
        );
    }

    #[test]
    fn error_display() {
        assert!(!WorkloadError::NotSquare.to_string().is_empty());
        assert!(!WorkloadError::NotPowerOfTwo.to_string().is_empty());
        assert!(!WorkloadError::TooSmall {
            required: 9,
            available: 4
        }
        .to_string()
        .is_empty());
        let e = WorkloadError::BadSpec {
            spec: "hotspot:lots".into(),
            reason: "k must be a positive integer".into(),
        };
        assert!(e.to_string().contains("hotspot:lots"));
        let e = WorkloadError::EmptyWorkload {
            name: "tornado".into(),
        };
        assert!(e.to_string().contains("tornado"));
        let e = WorkloadError::RequiresGrid {
            name: "tornado".into(),
            kind: bsor_topology::TopologyKind::Dragonfly,
        };
        assert!(e.to_string().contains("grid"));
    }
}

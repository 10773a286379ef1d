//! The one pipeline error: a flat [`Error`] enum with one variant per
//! root cause and a stable machine-readable [`Error::code`] for
//! protocol boundaries.
//!
//! Every entry point of the scenario → plan → evaluate pipeline returns
//! it: [`ScenarioBuilder::build`](crate::ScenarioBuilder::build),
//! [`RouteAlgorithm::routes`](crate::RouteAlgorithm::routes),
//! [`Planner::plan`](crate::Planner::plan) and
//! [`Evaluator::evaluate`](crate::Evaluator::evaluate). The leaf errors
//! stay in the crates that raise them ([`SelectError`], [`RouteError`],
//! [`FlowSetError`], [`CdgError`], [`SimError`], [`WorkloadError`]) and
//! each converts with one `From` impl, so `?` works anywhere:
//!
//! ```
//! use bsor_sim::{Error, Scenario};
//! use bsor_flow::FlowSet;
//! use bsor_topology::Topology;
//!
//! fn build(width: u16) -> Result<Scenario, Error> {
//!     let topo = Topology::mesh2d(width, width);
//!     let flows = bsor_workloads::transpose(&topo)?.flows; // WorkloadError
//!     Scenario::builder(topo, flows).vcs(2).build()
//! }
//!
//! let err = build(3).unwrap_err(); // transpose needs a power-of-two
//! assert_eq!(err.code(), "bad-workload");
//! ```
//!
//! # Code stability
//!
//! [`Error::code`] values are part of the serve protocol: existing
//! codes never change meaning or spelling; new variants may introduce
//! new codes. The full vocabulary is documented on [`Error::code`].

use crate::config::SimError;
use bsor_cdg::CdgError;
use bsor_flow::FlowSetError;
use bsor_routing::{RouteError, SelectError};
use bsor_topology::TopologyKind;
use bsor_workloads::WorkloadError;
use std::fmt;

/// Any failure the scenario → plan → evaluate pipeline can produce, one
/// variant per root cause.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A route selector failed (unroutable flow, missing VCs, MILP,
    /// size budget).
    Select(SelectError),
    /// The algorithm does not apply to this topology family (e.g.
    /// dimension-order routing on a hypercube, whose links carry no grid
    /// direction).
    UnsupportedTopology {
        /// Algorithm display name.
        algorithm: String,
        /// The offending topology family.
        kind: TopologyKind,
    },
    /// A framework-level algorithm failure (e.g. no explored CDG was
    /// usable).
    Algorithm(String),
    /// The algorithm produced malformed routes (wrong endpoints,
    /// non-adjacent hops, …).
    InvalidRoutes(RouteError),
    /// The routes' induced channel dependence graph is cyclic — running
    /// them could deadlock (paper Lemma 1), so no plan is produced.
    Deadlock {
        /// The offending algorithm's display name.
        algorithm: String,
        /// Length of the dependence cycle found.
        cycle_len: usize,
    },
    /// The flow set failed validation against the topology.
    InvalidFlows(FlowSetError),
    /// No acyclic CDG could be derived for the scenario.
    Cdg(CdgError),
    /// The simulator rejected the configuration or traffic.
    Sim(SimError),
    /// Instantiating a workload on a topology failed.
    Workload(WorkloadError),
}

impl Error {
    /// The stable machine-readable code, for JSON protocol boundaries.
    ///
    /// The vocabulary (existing entries never change):
    ///
    /// | code | meaning |
    /// |------|---------|
    /// | `select-failed` | a route selector failed (unroutable flow, missing VCs, MILP) |
    /// | `budget-exceeded` | an LP-based selector refused the topology as over its size budget |
    /// | `unsupported-topology` | the algorithm does not apply to the topology family |
    /// | `algorithm-failed` | a framework-level algorithm failure |
    /// | `invalid-routes` | malformed routes (endpoints, adjacency, VCs) |
    /// | `deadlock` | the routes' induced channel dependence graph is cyclic |
    /// | `invalid-flows` | the flow set failed validation against the topology |
    /// | `cdg-underivable` | no acyclic CDG could be derived |
    /// | `sim-rejected` | the simulator rejected the configuration or traffic |
    /// | `unknown-workload` | no workload registered under the name |
    /// | `bad-workload-spec` | a known family with a malformed argument |
    /// | `bad-workload` | the workload cannot instantiate on the topology |
    pub fn code(&self) -> &'static str {
        match self {
            Error::Select(SelectError::BudgetExceeded { .. }) => "budget-exceeded",
            Error::Select(_) => "select-failed",
            Error::UnsupportedTopology { .. } => "unsupported-topology",
            Error::Algorithm(_) => "algorithm-failed",
            Error::InvalidRoutes(_) => "invalid-routes",
            Error::Deadlock { .. } => "deadlock",
            Error::InvalidFlows(_) => "invalid-flows",
            Error::Cdg(_) => "cdg-underivable",
            Error::Sim(_) => "sim-rejected",
            Error::Workload(WorkloadError::UnknownWorkload { .. }) => "unknown-workload",
            Error::Workload(WorkloadError::BadSpec { .. }) => "bad-workload-spec",
            Error::Workload(_) => "bad-workload",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Select(e) => write!(f, "{e}"),
            Error::UnsupportedTopology { algorithm, kind } => {
                write!(f, "{algorithm} does not support {kind:?} topologies")
            }
            Error::Algorithm(msg) => write!(f, "{msg}"),
            Error::InvalidRoutes(e) => write!(f, "invalid routes: {e}"),
            Error::Deadlock {
                algorithm,
                cycle_len,
            } => write!(
                f,
                "{algorithm} produced routes with a {cycle_len}-long channel dependence \
                 cycle (not deadlock-free, refusing to plan)"
            ),
            Error::InvalidFlows(e) => write!(f, "invalid flow set: {e}"),
            Error::Cdg(e) => write!(f, "cannot derive an acyclic CDG: {e}"),
            Error::Sim(e) => write!(f, "{e}"),
            Error::Workload(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Select(e) => Some(e),
            Error::InvalidRoutes(e) => Some(e),
            Error::InvalidFlows(e) => Some(e),
            Error::Cdg(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Workload(e) => Some(e),
            Error::UnsupportedTopology { .. } | Error::Algorithm(_) | Error::Deadlock { .. } => {
                None
            }
        }
    }
}

impl From<SelectError> for Error {
    fn from(e: SelectError) -> Self {
        Error::Select(e)
    }
}

impl From<RouteError> for Error {
    fn from(e: RouteError) -> Self {
        Error::InvalidRoutes(e)
    }
}

impl From<FlowSetError> for Error {
    fn from(e: FlowSetError) -> Self {
        Error::InvalidFlows(e)
    }
}

impl From<CdgError> for Error {
    fn from(e: CdgError) -> Self {
        Error::Cdg(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<WorkloadError> for Error {
    fn from(e: WorkloadError) -> Self {
        Error::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_flow::FlowId;

    /// One instance per variant (two for the split `Select` and
    /// `Workload` codes): the whole 12-code vocabulary, pinned.
    #[test]
    fn codes_are_stage_independent_and_stable() {
        let table: Vec<(Error, &str)> = vec![
            (
                SelectError::Unroutable { flow: FlowId(0) }.into(),
                "select-failed",
            ),
            (
                SelectError::BudgetExceeded {
                    links: 224,
                    max_links: 16,
                }
                .into(),
                "budget-exceeded",
            ),
            (
                Error::UnsupportedTopology {
                    algorithm: "XY".into(),
                    kind: TopologyKind::Hypercube,
                },
                "unsupported-topology",
            ),
            (Error::Algorithm("boom".into()), "algorithm-failed"),
            (RouteError::MissingRoute(FlowId(0)).into(), "invalid-routes"),
            (
                Error::Deadlock {
                    algorithm: "x".into(),
                    cycle_len: 3,
                },
                "deadlock",
            ),
            (FlowSetError::SelfFlow(FlowId(0)).into(), "invalid-flows"),
            (CdgError::NotAGrid.into(), "cdg-underivable"),
            (
                SimError::BadRate {
                    flow: 0,
                    rate: -1.0,
                }
                .into(),
                "sim-rejected",
            ),
            (
                WorkloadError::UnknownWorkload { name: "x".into() }.into(),
                "unknown-workload",
            ),
            (
                WorkloadError::BadSpec {
                    spec: "hotspot:lots".into(),
                    reason: "not a number".into(),
                }
                .into(),
                "bad-workload-spec",
            ),
            (WorkloadError::NotSquare.into(), "bad-workload"),
        ];
        let codes: Vec<&str> = table.iter().map(|(e, _)| e.code()).collect();
        let expected: Vec<&str> = table.iter().map(|&(_, c)| c).collect();
        assert_eq!(codes, expected);
        let mut distinct = codes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 12, "every code is distinct");
    }

    #[test]
    fn budget_refusals_classify_separately_from_selector_failures() {
        let budget: Error = SelectError::BudgetExceeded {
            links: 224,
            max_links: 16,
        }
        .into();
        let unroutable: Error = SelectError::Unroutable { flow: FlowId(0) }.into();
        assert_eq!(budget.code(), "budget-exceeded");
        assert_eq!(unroutable.code(), "select-failed");
    }

    #[test]
    fn workload_codes_separate_spec_name_and_shape_failures() {
        let unknown: Error = WorkloadError::UnknownWorkload { name: "x".into() }.into();
        let bad_spec: Error = WorkloadError::BadSpec {
            spec: "hotspot:lots".into(),
            reason: "not a number".into(),
        }
        .into();
        let shape: Error = WorkloadError::NotSquare.into();
        assert_eq!(unknown.code(), "unknown-workload");
        assert_eq!(bad_spec.code(), "bad-workload-spec");
        assert_eq!(shape.code(), "bad-workload");
    }

    #[test]
    fn display_and_source_defer_to_the_wrapped_error() {
        let e: Error = WorkloadError::NotSquare.into();
        assert_eq!(e.to_string(), WorkloadError::NotSquare.to_string());
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::UnsupportedTopology {
            algorithm: "XY".into(),
            kind: TopologyKind::FullMesh,
        };
        assert_eq!(e.to_string(), "XY does not support FullMesh topologies");
        assert!(std::error::Error::source(&e).is_none());
    }
}

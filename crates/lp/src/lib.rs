//! # bsor-lp
//!
//! A from-scratch linear-programming and mixed-integer-linear-programming
//! toolkit used by the BSOR MILP route selector.
//!
//! The paper solves its route-selection MILP with CPLEX; no MILP solver is
//! available in this build environment, so this crate implements the two
//! pieces BSOR needs:
//!
//! * a dense **two-phase primal simplex** solver ([`simplex`]) for linear
//!   programs in the natural `min cᵀx, Ax ⋈ b, l ≤ x ≤ u` form, and
//! * a **branch-and-bound** layer ([`milp`]) for models with binary /
//!   integer variables, with node- and time-limits so it can also be used
//!   as the "ILP as heuristic" mode the thesis describes for large
//!   problems.
//!
//! Models are built with [`Model`]:
//!
//! ```
//! use bsor_lp::{Model, Cmp, VarKind};
//!
//! # fn main() -> Result<(), bsor_lp::LpError> {
//! // min -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 2, x,y >= 0
//! let mut m = Model::minimize();
//! let x = m.add_var(VarKind::Continuous, 0.0, 3.0, -1.0);
//! let y = m.add_var(VarKind::Continuous, 0.0, 2.0, -2.0);
//! m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! let sol = m.solve()?;
//! assert!((sol.objective() - (-6.0)).abs() < 1e-6);
//! assert!((sol.value(x) - 2.0).abs() < 1e-6);
//! assert!((sol.value(y) - 2.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod milp;
pub mod problem;
pub mod simplex;

pub use milp::{MilpOptions, MilpStats};
pub use problem::{Cmp, LpError, Model, Solution, VarId, VarKind};

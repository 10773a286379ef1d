//! Regenerates the paper's CDG illustrations as GraphViz DOT:
//!
//! * **Figure 3-1** — the full (cyclic) CDG of the 3×3 mesh,
//! * **Figure 3-3(a)/(b)** — acyclic CDGs from the north-last and
//!   west-first turn models (8 edges removed),
//! * **Figure 3-4** — an ad-hoc random derivation (more edges removed),
//! * **Figure 3-6(a)** — the VC-expanded CDG of a 2×2 mesh with z = 2.
//!
//! Pipe any section into `dot -Tsvg` to render.
//!
//! ```text
//! cargo run -p bsor-bench --release --bin fig_3_x
//! ```

#![forbid(unsafe_code)]

use bsor_cdg::render::{acyclic_to_dot, cdg_to_dot};
use bsor_cdg::{AcyclicCdg, TurnModel};
use bsor_topology::Topology;

fn main() {
    let mesh = Topology::mesh2d(3, 3);
    println!(
        "{}",
        cdg_to_dot(&mesh, 1, "Figure 3-1: CDG of the 3x3 mesh")
    );

    for model in [TurnModel::north_last(), TurnModel::west_first()] {
        let acyclic = AcyclicCdg::turn_model(&mesh, 1, &model).expect("valid model");
        println!(
            "{}",
            acyclic_to_dot(
                &acyclic,
                &format!(
                    "Figure 3-3: acyclic CDG via {} ({} edges removed)",
                    model.name(),
                    acyclic.removed_edges()
                ),
            )
        );
    }

    let ad_hoc = AcyclicCdg::ad_hoc(&mesh, 1, 4);
    println!(
        "{}",
        acyclic_to_dot(
            &ad_hoc,
            &format!(
                "Figure 3-4: ad hoc acyclic CDG ({} edges removed)",
                ad_hoc.removed_edges()
            ),
        )
    );

    let sub = Topology::mesh2d(2, 2);
    println!(
        "{}",
        cdg_to_dot(
            &sub,
            2,
            "Figure 3-6(a): 2x2 mesh CDG with 2 virtual channels"
        )
    );
}

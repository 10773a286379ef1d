//! Regenerates **Table 6.3**: "Comparison of Maximum Channel Load (MCL)
//! in MB/second presented by various routing algorithms" — XY, YX, ROMM,
//! Valiant, BSOR_MILP and BSOR_Dijkstra (each BSOR taking the best CDG of
//! its exploration, as in the paper). An O1TURN column is added as an
//! extension. Every column is one `RouteAlgorithm` planned through the
//! same `Planner`; the MCL printed is the plan's `predicted_mcl` — the
//! static metric the table reports needs no simulation at all.
//!
//! ```text
//! cargo run -p bsor-bench --release --bin table_6_3 [--quick] [--csv]
//! ```

#![forbid(unsafe_code)]

use bsor_bench::{csv_mode, fmt_row, run_mode, scenario_for, standard_algorithms, standard_mesh};
use bsor_routing::Baseline;
use bsor_sim::{ExperimentError, Planner, RouteAlgorithm};
use bsor_workloads::all_six;

fn main() {
    let topo = standard_mesh();
    let workloads = all_six(&topo).expect("8x8 supports all workloads");
    let csv = csv_mode();
    let mode = run_mode();

    println!("Table 6.3: MCL (MB/s) by routing algorithm (+O1TURN extension)");
    let header: Vec<String> = vec![
        "Traffic".into(),
        "XY".into(),
        "YX".into(),
        "ROMM".into(),
        "Valiant".into(),
        "BSOR-MILP".into(),
        "BSOR-Dijkstra".into(),
        "O1TURN".into(),
    ];
    let widths = [16usize, 8, 8, 8, 8, 10, 14, 8];
    if csv {
        println!("{}", header.join(","));
    } else {
        println!("{}", fmt_row(&header, &widths));
    }
    // The six standard columns plus the O1TURN extension, all through
    // the one RouteAlgorithm trait.
    let mut algorithms: Vec<(String, Box<dyn RouteAlgorithm + Send + Sync>)> =
        standard_algorithms(mode);
    algorithms.push(("O1TURN".into(), Box::new(Baseline::O1Turn { seed: 9 })));
    let planner = Planner::new();
    for w in &workloads {
        let scenario = scenario_for(&topo, w, 2);
        let mut cells: Vec<String> = vec![w.name.clone()];
        for (_, algo) in &algorithms {
            cells.push(match planner.plan(&scenario, algo.as_ref()) {
                Ok(plan) => format!("{:.2}", plan.predicted_mcl()),
                Err(e) => format!("({})", ExperimentError::from(e)),
            });
        }
        if csv {
            println!("{}", cells.join(","));
        } else {
            println!("{}", fmt_row(&cells, &widths));
        }
    }
}

//! Regenerates **Table 6.1**: "Finding the routes with the minimum MCL
//! (in MB/second) by exploring different acyclic CDGs using BSOR_MILP."
//!
//! Rows are the six workloads, columns the five acyclic CDGs
//! (paper-oriented turn models plus two ad-hoc derivations).
//!
//! ```text
//! cargo run -p bsor-bench --release --bin table_6_1 [--quick] [--csv]
//! ```

#![forbid(unsafe_code)]

use bsor::SelectorKind;
use bsor_bench::{csv_mode, fmt_row, mcl_for, run_mode, standard_mesh, table_cdgs, table_milp};
use bsor_workloads::all_six;

fn main() {
    let topo = standard_mesh();
    let workloads = all_six(&topo).expect("8x8 supports all workloads");
    let cdgs = table_cdgs();
    let csv = csv_mode();
    let mode = run_mode();

    println!("Table 6.1: minimum MCL (MB/s) per acyclic CDG, BSOR_MILP selector");
    let mut header: Vec<String> = vec!["Example".into()];
    header.extend(cdgs.iter().map(|(n, _)| n.clone()));
    let widths = [16usize, 12, 12, 14, 10, 10];
    if csv {
        println!("{}", header.join(","));
    } else {
        println!("{}", fmt_row(&header, &widths));
    }
    for w in &workloads {
        let mut cells: Vec<String> = vec![w.name.clone()];
        for (_, strategy) in &cdgs {
            let cell = match mcl_for(&topo, w, 2, strategy, SelectorKind::Milp(table_milp(mode))) {
                Ok(mcl) => format!("{mcl:.2}"),
                Err(e) => format!("({e})"),
            };
            cells.push(cell);
        }
        if csv {
            println!("{}", cells.join(","));
        } else {
            println!("{}", fmt_row(&cells, &widths));
        }
    }
}

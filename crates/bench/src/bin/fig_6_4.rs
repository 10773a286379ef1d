//! Regenerates **Figure 6-4**: network throughput and average latency
//! versus offered injection rate for the H.264 Decoder workload
//! under XY, YX, ROMM, Valiant and the two BSOR selectors (8×8 mesh,
//! 2 VCs).
//!
//! ```text
//! cargo run -p bsor-bench --release --bin fig_6_4 [--quick] [--paper] [--csv]
//! ```

#![forbid(unsafe_code)]

use bsor_bench::{
    csv_mode, rates_for, run_mode, standard_mesh, sweep_for, write_figure, StdoutSink,
};
use bsor_workloads::h264_decoder;

fn main() {
    let topo = standard_mesh();
    let workload = h264_decoder(&topo).expect("8x8 supports the workload");
    let mode = run_mode();
    let cfg = sweep_for(mode, 2);
    write_figure(
        &mut StdoutSink,
        "Figure 6-4: H.264 Decoder — throughput & latency vs offered rate",
        &topo,
        &workload,
        &cfg,
        &rates_for(mode),
        mode,
        csv_mode(),
    )
    .expect("stdout writes cannot fail");
}

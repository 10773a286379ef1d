//! Regenerates **Figure 6-9**: algorithm performance under **25%**
//! run-time bandwidth variation for transpose and the H.264 decoder.
//! Routes stay fixed (computed from the original estimates, §5.3) while
//! injection rates wander via the two-stage Markov-modulated process.
//!
//! ```text
//! cargo run -p bsor-bench --release --bin fig_6_9 [--quick] [--paper] [--csv]
//! ```

#![forbid(unsafe_code)]

use bsor_bench::{
    csv_mode, rates_for, run_mode, standard_mesh, sweep_for, write_figure, StdoutSink,
};
use bsor_sim::MarkovVariation;
use bsor_workloads::{h264_decoder, transpose};

fn main() {
    let topo = standard_mesh();
    let mode = run_mode();
    let variation = MarkovVariation::new(0.25, 200.0);
    for workload in [
        transpose(&topo).expect("square"),
        h264_decoder(&topo).expect("fits"),
    ] {
        let cfg = sweep_for(mode, 2).with_variation(variation);
        write_figure(
            &mut StdoutSink,
            &format!("Figure 6-9: {} with 25% bandwidth variation", workload.name),
            &topo,
            &workload,
            &cfg,
            &rates_for(mode),
            mode,
            csv_mode(),
        )
        .expect("stdout writes cannot fail");
    }
}

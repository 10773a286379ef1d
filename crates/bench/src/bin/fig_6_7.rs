//! Regenerates **Figure 6-7**: "Varying the number of VCs for transpose
//! and H.264 Decoder." Throughput vs offered rate with 1, 2, 4 and 8
//! virtual channels, BSOR selectors vs dimension-order routing. With a
//! single VC only the DOR algorithms and BSOR are compared (ROMM and
//! Valiant would deadlock), exactly as in §6.2.7. The whole sweep runs
//! through the unified scenario pipeline (`bsor_bench::write_vc_sweep`)
//! and streams rows as they are computed.
//!
//! ```text
//! cargo run -p bsor-bench --release --bin fig_6_7 [--quick] [--paper] [--csv]
//! ```

#![forbid(unsafe_code)]

use bsor_bench::{csv_mode, run_mode, standard_mesh, write_vc_sweep, StdoutSink};

fn main() {
    write_vc_sweep(&mut StdoutSink, &standard_mesh(), run_mode(), csv_mode())
        .expect("stdout writes cannot fail");
}

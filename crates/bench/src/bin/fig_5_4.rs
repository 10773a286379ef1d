//! Regenerates **Figure 5-4**: "Transpose Node 52 Injection Rates when
//! modeling burstiness" — the rate-multiplier trace of one flow's
//! two-stage Markov-modulated process during a 25% bandwidth-variation
//! run, rendered as an ASCII strip chart (or CSV).
//!
//! ```text
//! cargo run -p bsor-bench --release --bin fig_5_4 [--csv]
//! ```

#![forbid(unsafe_code)]

use bsor_bench::csv_mode;
use bsor_sim::MarkovVariation;

fn main() {
    let variation = MarkovVariation::new(0.25, 200.0);
    // Node 52's flow on the 8x8 transpose; the seed picks its process.
    let trace = variation.sample_trace(52, 4_000);
    if csv_mode() {
        println!("cycle,multiplier");
        for (c, m) in trace.iter().enumerate() {
            println!("{c},{m:.4}");
        }
        return;
    }
    println!("Figure 5-4: injection-rate multiplier, node 52, 25% variation");
    println!("(each row = 100 cycles; columns min/mean/max of the window)");
    for (i, window) in trace.chunks(100).enumerate() {
        let min = window.iter().copied().fold(f64::INFINITY, f64::min);
        let max = window.iter().copied().fold(0.0, f64::max);
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        let bar_len = ((mean - 0.7) / 0.6 * 40.0).clamp(0.0, 40.0) as usize;
        println!(
            "{:>5}  {:.3} {:.3} {:.3}  |{}{}|",
            i * 100,
            min,
            mean,
            max,
            "#".repeat(bar_len),
            " ".repeat(40 - bar_len)
        );
    }
}

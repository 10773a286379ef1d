//! Engine throughput on the paper's transpose scenarios — the
//! microbench behind `BENCH_engine.json`.
//!
//! Each case simulates a fixed-seed transpose workload under XY routing
//! and reports wall time for the whole run (warmup + measurement +
//! drain). The 8×8 case matches the golden-digest configuration; the
//! 32×32 cases match the saturation-sweep shape where the occupancy
//! tracker and idle fast-forward dominate. Simulation results are
//! byte-identical with fast-forward on or off (see
//! `crates/sim/tests/engine_determinism_properties.rs`), so this bench
//! measures pure wall-clock, never accuracy.
//!
//! ```text
//! BSOR_BENCH_JSON=BENCH_engine.json cargo bench -p bsor_bench --bench engine_scale
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bsor_routing::Baseline;
use bsor_sim::{SimConfig, SimReport, Simulator, TrafficSpec};
use bsor_topology::Topology;
use bsor_workloads::transpose;

struct Case {
    name: &'static str,
    side: u16,
    rate: f64,
    warmup: u64,
    measurement: u64,
}

const CASES: &[Case] = &[
    Case {
        name: "8x8_transpose_xy_r0.80",
        side: 8,
        rate: 0.8,
        warmup: 2_000,
        measurement: 10_000,
    },
    Case {
        name: "32x32_transpose_xy_r0.05",
        side: 32,
        rate: 0.05,
        warmup: 1_000,
        measurement: 5_000,
    },
    Case {
        name: "32x32_transpose_xy_r0.20",
        side: 32,
        rate: 0.2,
        warmup: 1_000,
        measurement: 5_000,
    },
    Case {
        name: "32x32_transpose_xy_r0.80",
        side: 32,
        rate: 0.8,
        warmup: 1_000,
        measurement: 5_000,
    },
];

fn run_case(case: &Case) -> SimReport {
    let topo = Topology::mesh2d(case.side, case.side);
    let w = transpose(&topo).expect("square power-of-two grid");
    let routes = Baseline::XY.select(&topo, &w.flows, 2).expect("xy");
    let traffic = TrafficSpec::proportional(&w.flows, case.rate);
    let config = SimConfig::new(2)
        .with_warmup(case.warmup)
        .with_measurement(case.measurement);
    let mut sim = Simulator::new(&topo, &w.flows, &routes, traffic, config).expect("valid");
    sim.run()
}

fn bench_engine_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_scale");
    g.sample_size(10);
    for case in CASES {
        // The `_t1` suffix keeps the names comparable with the serial
        // rows of `BENCH_engine.json`.
        g.bench_function(format!("{}_t1", case.name), |b| {
            b.iter(|| black_box(run_case(case)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine_scale);
criterion_main!(benches);

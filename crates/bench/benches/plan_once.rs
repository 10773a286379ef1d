//! Plan-once saturation bisection on a 4×4 mesh — the microbench
//! behind `BENCH_plan.json`'s `plan_once_evaluate_n_*` rows.
//!
//! `plan_once_evaluate_n` plans once through a cached `Planner` and
//! evaluates every probe of the bisection on the plan's precompiled
//! tables — the shape `bsor-sweep --saturation` has.
//!
//! ```text
//! BSOR_BENCH_JSON=BENCH_plan.json cargo bench -p bsor_bench --bench plan_once
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bsor::BsorAlgorithm;
use bsor_sim::{EvalPoint, Evaluator, PlanCache, Planner, Scenario, SimConfig, SimEvaluator};
use bsor_topology::Topology;
use bsor_workloads::transpose;

fn config() -> SimConfig {
    SimConfig::new(2).with_warmup(200).with_measurement(1_000)
}

/// The sweep harness's saturation search, parameterized over how each
/// probe obtains its mean latency: baseline at 0.05, knee at 4× the
/// baseline, upper probe at 4.0, then six bisection steps.
fn bisect(mut latency_at: impl FnMut(f64) -> Option<f64>) -> f64 {
    let base = latency_at(0.05).expect("4x4 transpose delivers at 0.05");
    let threshold = 4.0 * base;
    let mut saturated = |rate: f64| latency_at(rate).is_none_or(|l| l > threshold);
    let (mut lo, mut hi) = (0.05, 4.0);
    if !saturated(hi) {
        return hi;
    }
    for _ in 0..6 {
        let mid = 0.5 * (lo + hi);
        if saturated(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

fn bench_plan_once(c: &mut Criterion) {
    let mesh = Topology::mesh2d(4, 4);
    let w = transpose(&mesh).expect("square");
    let evaluator = SimEvaluator::new();
    // Both framework selectors: the Dijkstra exploration is cheap, the
    // MILP is the paper's expensive solve.
    let algorithms: Vec<(&str, BsorAlgorithm)> = vec![
        ("dijkstra", BsorAlgorithm::dijkstra()),
        (
            "milp",
            BsorAlgorithm::milp("bsor-milp", bsor::registry::sweep_milp()),
        ),
    ];
    let mut g = c.benchmark_group("saturation_bisection_4x4");
    g.sample_size(10);

    for (name, algo) in &algorithms {
        g.bench_function(format!("plan_once_evaluate_n_{name}"), |b| {
            b.iter(|| {
                let scenario = Scenario::builder(mesh.clone(), w.flows.clone())
                    .vcs(2)
                    .build()
                    .expect("valid");
                let planner = Planner::new().with_cache(PlanCache::shared());
                black_box(bisect(|rate| {
                    // One solve, then cache hits on precompiled tables.
                    let plan = planner.plan(&scenario, algo).expect("routable");
                    evaluator
                        .evaluate(&plan, &EvalPoint::new(rate, config()))
                        .expect("simulates")
                        .mean_latency
                }))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_plan_once);
criterion_main!(benches);

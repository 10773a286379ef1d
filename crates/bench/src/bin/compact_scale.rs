//! `compact_scale` — dense vs interval-compressed routing-state bench
//! across 64x64–256x256 meshes, committed as `BENCH_compact.json`.
//!
//! For every (mesh size, workload, algorithm) cell the bench selects
//! routes directly (no planner, no certificate — this measures table
//! state, not the pipeline), compiles both the dense `NodeTables` and
//! the interval-compressed `CompactTables`, and records measured bytes,
//! bytes per node and build/solve wall times. Combinations that cannot
//! run at a size are *typed records*, never silent gaps:
//!
//! * `skipped` — over the bench's time budget (all-pairs workloads past
//!   64x64, CDG-exploring or walk-based selectors past their last
//!   feasible size), with the reason recorded;
//! * `refused` — the algorithm itself refused with a typed error
//!   (`ac-oblivious` over its directed-link budget), recorded verbatim.
//!
//! That is the point of the artifact: it locates where each algorithm's
//! memory and solve time break as the mesh grows, and what compression
//! buys before that point.
//!
//! ```text
//! cargo run -p bsor_bench --release --bin compact_scale [--quick] [--out PATH]
//! ```
//!
//! `--quick` swaps the size axis for 16x16/32x32 so CI can smoke the
//! bin in seconds; the committed artifact is a full run. Wall times
//! make the artifact non-reproducible byte for byte, so CI asserts on
//! its *shape* (schema, statuses, the headline ratio), not its bytes.
//!
//! Exit codes: 0 on success, 2 when the headline 64x64 uniform-random
//! compression ratio misses the <= 25% acceptance bound, 1 on bad
//! arguments or write failure.

#![forbid(unsafe_code)]

use bsor::{AlgorithmRegistry, Scenario};
use bsor_bench::json::Json;
use bsor_routing::selectors::AcObliviousSelector;
use bsor_routing::tables::RouteTables;
use bsor_routing::{Baseline, CompactTables, NodeTables, RouteSet};
use bsor_topology::{NodeId, Topology};
use bsor_workloads::{tornado, uniform_random, Workload};
use std::process::ExitCode;
use std::time::Instant;

/// Seed matching the registry's randomized baselines.
const SEED: u64 = 9;

/// The acceptance bound: headline compact bytes must be at most this
/// fraction of the dense bytes.
const HEADLINE_MAX_RATIO: f64 = 0.25;

struct Cell {
    size: String,
    workload: &'static str,
    algorithm: &'static str,
    json: Json,
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Measures both table representations for an already-selected route
/// set and renders the `ok` record body.
fn measure_tables(topo: &Topology, routes: &RouteSet, flows: usize, solve_ms: f64) -> (Json, f64) {
    let nodes = topo.num_nodes() as f64;
    let started = Instant::now();
    let dense = NodeTables::build(topo, routes);
    let dense_ms = ms(started);
    let dense_bytes = dense.table_bytes();
    drop(dense);
    let started = Instant::now();
    let compact = CompactTables::build(topo, routes);
    let compact_ms = ms(started);
    let compact_bytes = compact.table_bytes();
    let mode = compact.mode();
    let ratio = compact_bytes as f64 / dense_bytes as f64;
    let body = Json::object(vec![
        ("status", Json::from("ok")),
        ("reason", Json::Null),
        ("flows", Json::from(flows)),
        ("solve_ms", Json::from(solve_ms)),
        (
            "dense",
            Json::object(vec![
                ("bytes", Json::from(dense_bytes)),
                ("bytes_per_node", Json::from(dense_bytes as f64 / nodes)),
                ("build_ms", Json::from(dense_ms)),
            ]),
        ),
        (
            "compact",
            Json::object(vec![
                ("bytes", Json::from(compact_bytes)),
                ("bytes_per_node", Json::from(compact_bytes as f64 / nodes)),
                ("build_ms", Json::from(compact_ms)),
                ("mode", Json::from(mode)),
                ("intervals", Json::from(compact.num_intervals())),
            ]),
        ),
        ("compact_over_dense", Json::from(ratio)),
    ]);
    (body, ratio)
}

fn skipped(reason: String) -> Json {
    Json::object(vec![
        ("status", Json::from("skipped")),
        ("reason", Json::from(reason)),
    ])
}

fn refused(reason: String) -> Json {
    Json::object(vec![
        ("status", Json::from("refused")),
        ("reason", Json::from(reason)),
    ])
}

/// Selects with a deterministic baseline and measures its tables.
fn baseline_cell(topo: &Topology, baseline: Baseline, w: &Workload) -> (Json, f64) {
    let started = Instant::now();
    match baseline.select(topo, &w.flows, 2) {
        Ok(routes) => {
            let solve_ms = ms(started);
            measure_tables(topo, &routes, w.flows.len(), solve_ms)
        }
        Err(e) => (refused(e.to_string()), 0.0),
    }
}

/// Selects through the registry (the framework / selector algorithms)
/// and measures the resulting tables.
fn registry_cell(
    registry: &AlgorithmRegistry,
    topo: &Topology,
    name: &str,
    w: &Workload,
) -> (Json, f64) {
    let scenario = match Scenario::builder(topo.clone(), w.flows.clone())
        .named(&w.name)
        .vcs(2)
        .build()
    {
        Ok(s) => s,
        Err(e) => return (refused(e.to_string()), 0.0),
    };
    let algorithm = registry.get(name).expect("standard registry");
    let started = Instant::now();
    match scenario.select_routes(algorithm) {
        Ok(routes) => {
            let solve_ms = ms(started);
            measure_tables(topo, &routes, w.flows.len(), solve_ms)
        }
        Err(e) => (refused(e.to_string()), 0.0),
    }
}

/// Attempts the `ac-oblivious` LP on the topology's commodity set so
/// its typed directed-link refusal lands in the artifact verbatim.
fn ac_oblivious_cell(topo: &Topology, w: &Workload) -> Json {
    let commodities: Vec<(NodeId, NodeId)> = w.flows.iter().map(|f| (f.src, f.dst)).collect();
    let started = Instant::now();
    match AcObliviousSelector::new().solve(topo, &commodities) {
        // At these sizes the default 16-directed-link budget refuses
        // long before the tableau allocates; a success would mean the
        // budget was raised, and the LP has no per-flow tables to
        // compress, so only the refusal is interesting here.
        Ok(_) => Json::object(vec![
            ("status", Json::from("ok")),
            ("reason", Json::Null),
            ("solve_ms", Json::from(ms(started))),
        ]),
        Err(e) => refused(format!("{e} (raise with --max-links on bsor-sweep)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = "BENCH_compact.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(path) => out = path.clone(),
                None => {
                    eprintln!("compact_scale: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("compact_scale: unknown option '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let sizes: &[u16] = if quick { &[16, 32] } else { &[64, 128, 256] };
    // The headline (uniform-random all-pairs) runs at the smallest
    // size; n^2-flow workloads past it are typed skips.
    let headline_size = sizes[0];
    let registry = AlgorithmRegistry::standard();
    let mut cells: Vec<Cell> = Vec::new();
    let mut headline: Option<Json> = None;
    let mut headline_ratio: Option<f64> = None;
    for &n in sizes {
        let size = format!("{n}x{n}");
        let topo = Topology::mesh2d(n, n);
        let tornado_w = tornado(&topo).expect("meshes support tornado");
        let mut push = |workload: &'static str, algorithm: &'static str, json: Json| {
            cells.push(Cell {
                size: size.clone(),
                workload,
                algorithm,
                json,
            });
        };
        // --- uniform-random (all ordered pairs, n^2-ish flows) ---
        if n == headline_size {
            let ur = uniform_random(&topo).expect("meshes support uniform-random");
            eprintln!(
                "compact_scale: {size} uniform-random ({} flows) ...",
                ur.flows.len()
            );
            let (xy, ratio) = baseline_cell(&topo, Baseline::XY, &ur);
            headline = Some(Json::object(vec![
                ("size", Json::from(size.as_str())),
                ("workload", Json::from("uniform-random")),
                ("algorithm", Json::from("xy")),
                ("max_ratio", Json::from(HEADLINE_MAX_RATIO)),
                ("measured", xy.clone()),
            ]));
            headline_ratio = Some(ratio);
            push("uniform-random", "xy", xy);
            let (yx, _) = baseline_cell(&topo, Baseline::YX, &ur);
            push("uniform-random", "yx", yx);
            for name in ["romm", "valiant"] {
                push(
                    "uniform-random",
                    name,
                    skipped(format!(
                        "randomized routes key tables per flow; {} all-pairs flows of \
                         flow-interval scratch exceed the bench time budget",
                        ur.flows.len()
                    )),
                );
            }
            push(
                "uniform-random",
                "bsor-dijkstra",
                skipped(format!(
                    "CDG exploration re-selects {} flows per candidate CDG; over the bench \
                     time budget",
                    ur.flows.len()
                )),
            );
            push(
                "uniform-random",
                "ac-oblivious",
                ac_oblivious_cell(&topo, &ur),
            );
        } else {
            let flows = u64::from(n) * u64::from(n) * (u64::from(n) * u64::from(n) - 1);
            for name in [
                "xy",
                "yx",
                "romm",
                "valiant",
                "bsor-dijkstra",
                "ac-oblivious",
            ] {
                push(
                    "uniform-random",
                    name,
                    skipped(format!(
                        "all-pairs workload is {flows} flows at {size}; over the bench \
                         memory/time budget"
                    )),
                );
            }
        }
        // --- tornado (one flow per node, O(n) scale) ---
        eprintln!(
            "compact_scale: {size} tornado ({} flows) ...",
            tornado_w.flows.len()
        );
        for (name, baseline) in [
            ("xy", Baseline::XY),
            ("yx", Baseline::YX),
            ("romm", Baseline::Romm { seed: SEED }),
            ("valiant", Baseline::Valiant { seed: SEED }),
        ] {
            let (cell, _) = baseline_cell(&topo, baseline, &tornado_w);
            push("tornado", name, cell);
        }
        if n <= headline_size {
            let (cell, _) = registry_cell(&registry, &topo, "bsor-dijkstra", &tornado_w);
            push("tornado", "bsor-dijkstra", cell);
        } else {
            push(
                "tornado",
                "bsor-dijkstra",
                skipped(format!(
                    "explores ~15 CDGs, each re-running weighted Dijkstra for {} flows on \
                     {} nodes; over the bench time budget past {headline_size}x{headline_size}",
                    tornado_w.flows.len(),
                    topo.num_nodes()
                )),
            );
        }
        push(
            "tornado",
            "ac-oblivious",
            ac_oblivious_cell(&topo, &tornado_w),
        );
    }
    let cases: Vec<Json> = cells
        .into_iter()
        .map(|c| {
            Json::object(vec![
                ("size", Json::from(c.size)),
                ("workload", Json::from(c.workload)),
                ("algorithm", Json::from(c.algorithm)),
                ("result", c.json),
            ])
        })
        .collect();
    let doc = Json::object(vec![
        ("schema", Json::from("bsor-compact-bench@1")),
        ("mode", Json::from(if quick { "quick" } else { "full" })),
        (
            "sizes",
            Json::array(
                sizes
                    .iter()
                    .map(|&n| Json::from(format!("{n}x{n}")))
                    .collect(),
            ),
        ),
        ("vcs", Json::UInt(2)),
        ("headline", headline.expect("headline size always measured")),
        ("cases", Json::array(cases)),
    ]);
    if let Err(e) = std::fs::write(&out, doc.pretty()) {
        eprintln!("compact_scale: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let ratio = headline_ratio.expect("headline measured");
    eprintln!(
        "compact_scale: wrote {out}; headline compact/dense = {ratio:.4} (bound {HEADLINE_MAX_RATIO})"
    );
    if ratio > HEADLINE_MAX_RATIO {
        eprintln!("compact_scale: headline ratio exceeds the acceptance bound");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

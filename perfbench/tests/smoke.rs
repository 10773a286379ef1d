//! Downsized runs of every workload, plus the correctness gate and the
//! staged-plan equality the traced run relies on.

use bsor_bench::json::Json;
use bsor_perfbench::serve_mix::{generate_round, universe, KeyExpect};
use bsor_perfbench::sweep::{self, plan_stages, selector_span, Case};
use bsor_perfbench::trace::Tracer;
use bsor_perfbench::{
    end_to_end, per_layer, per_layer_names, run, Options, Scale, Workload, END_TO_END,
};
use bsor_sim::Planner;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn expected_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected")
}

fn smoke(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 42,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        expected_dir: expected_dir(),
        write_expected: false,
    }
}

/// The metric names and units `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric_with_its_unit() {
    let e2e_declared = declared("end_to_end");
    let layer_declared = declared("per_layer");
    let names = |ms: &[bsor_perfbench::Metric]| -> Vec<(String, String)> {
        ms.iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect()
    };
    for workload in Workload::ALL {
        let plain = run(&smoke(workload, false)).expect("smoke run sets up");
        assert_eq!(plain.failed, 0, "{workload:?}: {:?}", plain.failures);
        assert!(plain.attempted > 0);
        let (e2e, _) = end_to_end(&plain, workload, 1.0);
        assert_eq!(names(&e2e), e2e_declared, "{workload:?}");
        for m in &e2e {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload:?}: {m:?}");
        }

        let traced = run(&smoke(workload, true)).expect("traced smoke run sets up");
        assert_eq!(traced.failed, 0, "{workload:?}: {:?}", traced.failures);
        let layers = per_layer(&traced);
        assert_eq!(names(&layers), layer_declared, "{workload:?}");
        assert!(layers.iter().all(|m| m.value.is_finite()));
    }
    assert_eq!(
        e2e_declared.len(),
        END_TO_END.len(),
        "BENCHMARK.json and the harness list the same end-to-end metrics"
    );
    assert_eq!(per_layer_names().len(), layer_declared.len());
}

/// Copies the expected outputs into a scratch directory with `label`'s
/// first field replaced.
fn corrupted(workload: Workload, label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("corrupt-{}", workload.name()));
    fs::create_dir_all(&dir).expect("scratch directory");
    let file = format!("{}.txt", workload.name());
    let text = fs::read_to_string(expected_dir().join(&file)).expect("expected outputs");
    let mut hit = false;
    let out: Vec<String> = text
        .lines()
        .map(|line| match line.strip_prefix(label) {
            Some(rest) if rest.starts_with(' ') => {
                hit = true;
                let mut fields: Vec<&str> = rest.split_whitespace().collect();
                fields[0] = "0123456789abcdef";
                format!("{label} {}", fields.join(" "))
            }
            _ => line.to_owned(),
        })
        .collect();
    assert!(hit, "{label} is stored");
    fs::write(dir.join(file), out.join("\n")).expect("write corrupted copy");
    dir
}

#[test]
fn the_gate_catches_a_wrong_expected_digest() {
    for (workload, label) in [
        (Workload::SweepBsor, "mesh:8x8/transpose/bsor-dijkstra"),
        (Workload::ServeMix, "mesh:8x8/transpose/xy"),
    ] {
        let mut opts = smoke(workload, false);
        opts.expected_dir = corrupted(workload, label);
        let outcome = run(&opts).expect("smoke run sets up");
        assert!(
            outcome.failed > 0,
            "{workload:?}: the wrong digest went unnoticed"
        );
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("0123456789abcdef")),
            "{workload:?}: {:?}",
            outcome.failures
        );
    }
}

#[test]
fn the_staged_plan_equals_planner_plan() {
    let cases = [
        Case {
            width: 8,
            height: 8,
            workload: "transpose",
            algorithm: "bsor-dijkstra",
        },
        Case {
            width: 16,
            height: 16,
            workload: "tornado",
            algorithm: "romm",
        },
    ];
    let (regs, prepared) = sweep::prepare(&cases).expect("cases build");
    for p in &prepared {
        let algorithm = regs.algorithms.get(p.case.algorithm).expect("registered");
        let plan = Planner::new().plan(&p.scenario, algorithm).expect("plans");
        let mut tr = Tracer::new(true, Instant::now());
        let stages = plan_stages(
            &p.scenario,
            algorithm,
            selector_span(p.case.algorithm),
            &mut tr,
        )
        .expect("stages run");
        assert_eq!(
            stages.differences(&plan),
            Vec::<String>::new(),
            "{:?}",
            p.case
        );
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "plan.key",
                selector_span(p.case.algorithm),
                "validate",
                "certify",
                "tables.compile",
                "demand"
            ]
        );
    }
}

#[test]
fn the_request_stream_is_a_function_of_the_seed() {
    let keys = universe(Scale::Smoke, "rand-perm:7");
    let expected: Vec<KeyExpect> = keys
        .iter()
        .map(|_| KeyExpect {
            plan: String::new(),
            mcl: String::new(),
            flows: 1,
            examine_mask: 0,
            evict_mask: 0,
        })
        .collect();
    let lines = |seed| -> Vec<String> {
        generate_round(seed, 0, &keys, &expected, Scale::Smoke)
            .epochs
            .iter()
            .flat_map(|e| e.iter().flatten().map(|r| r.line.clone()))
            .collect()
    };
    assert_eq!(lines(1), lines(1));
    assert_ne!(lines(1), lines(2));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the MILP solve takes minutes unoptimised")]
fn bsor_milp_reports_the_paper_mcl_on_8x8_transpose() {
    let case = Case {
        width: 8,
        height: 8,
        workload: "transpose",
        algorithm: "bsor-milp",
    };
    let (regs, prepared) = sweep::prepare(&[case]).expect("case builds");
    let algorithm = regs.algorithms.get("bsor-milp").expect("registered");
    let plan = Planner::new()
        .plan(&prepared[0].scenario, algorithm)
        .expect("plans");
    assert!(plan.certificate().verify(plan.routes()));
    assert_eq!(plan.predicted_mcl(), sweep::PAPER_TRANSPOSE_MCL);
}

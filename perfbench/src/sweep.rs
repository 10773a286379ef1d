//! The two sweep workloads: `sweep-bulk` and `sweep-bsor`.
//!
//! One operation is one case: a cold `Planner::plan` through a fresh
//! plan cache, then, for each rate, the plan re-requested from the cache
//! (as `bsor-sweep` does per point) and evaluated with `SimEvaluator`.
//! The case list is repeated in passes. Pass 0 is the warm-up: it
//! simulates at the fixed golden seed, checks the counters against the
//! expected outputs and is not timed. The timed passes follow until the
//! timed phase is over; each simulates every (case, rate) at a seed
//! drawn from the workload seed, the same in every pass, so every pass
//! repeats the same work and must repeat the same counters.
//!
//! The end-to-end metrics are read from each case's fastest pass: the
//! cases are short and repeated many times, and on a shared host whose
//! speed switches within seconds the fastest repeat reads the program's
//! own cost, while a mean or median reads the host's state.
//!
//! After each pass the set-up is made once more: the set-ups then sample
//! the machine across the whole run, so the median `setup_s` is steadier
//! than that of a burst at the start.
//!
//! The traced run follows each case with a stage breakdown, outside the
//! operation's time: the stages of `build_plan` called one by one under
//! spans, then the engine set-up and run at the first rate. It asserts
//! that the staged result equals `Planner::plan`'s.

use crate::expect::{self, Expected};
use crate::stats::SplitMix64;
use crate::trace::Tracer;
use crate::{Options, Outcome, Pass, Scale, Workload};
use bsor_bench::sweep::SweepRegistries;
use bsor_routing::tables::RouteTables;
use bsor_routing::{deadlock, AnyTables};
use bsor_sim::plan::PlanKey;
use bsor_sim::traffic::TrafficSpec;
use bsor_sim::{
    CacheStats, EvalPoint, Evaluation, Evaluator, PlanCache, Planner, RouteAlgorithm, RoutePlan,
    Scenario, SimConfig, SimEvaluator, Simulator, StaticMclEvaluator,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The simulation seed of pass 0, whose counters are stored.
pub const GOLDEN_SIM_SEED: u64 = 0xB50B;

/// The MCL the paper reports for 8x8 transpose under BSOR, MB/s.
pub const PAPER_TRANSPOSE_MCL: f64 = 75.0;

/// One sweep case: a mesh, a workload spec and an algorithm name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// Mesh width.
    pub width: u16,
    /// Mesh height.
    pub height: u16,
    /// Workload spec.
    pub workload: &'static str,
    /// Algorithm registry name.
    pub algorithm: &'static str,
}

impl Case {
    const fn new(width: u16, height: u16, workload: &'static str, algorithm: &'static str) -> Case {
        Case {
            width,
            height,
            workload,
            algorithm,
        }
    }

    /// The label the expected outputs are stored under.
    pub fn label(&self) -> String {
        format!(
            "mesh:{}x{}/{}/{}",
            self.width, self.height, self.workload, self.algorithm
        )
    }
}

/// Simulation shape of a sweep: window lengths and the rates, as
/// fractions of the case's static saturation rate.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Warmup cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measurement: u64,
    /// Offered rates as fractions of the rate that loads the busiest
    /// channel to one flit per cycle.
    pub rate_fractions: &'static [f64],
}

const BULK: [Case; 8] = [
    Case::new(32, 32, "tornado", "xy"),
    Case::new(32, 32, "bit-complement", "xy"),
    Case::new(32, 32, "transpose", "xy"),
    Case::new(32, 32, "shuffle", "xy"),
    Case::new(32, 32, "bit-reversal", "xy"),
    Case::new(32, 32, "neighbor", "xy"),
    Case::new(12, 12, "uniform-random", "xy"),
    Case::new(12, 12, "uniform-random", "romm"),
];

const BULK_SMOKE: [Case; 2] = [
    Case::new(32, 32, "tornado", "xy"),
    Case::new(32, 32, "bit-complement", "xy"),
];

const BSOR: [Case; 9] = [
    Case::new(8, 8, "transpose", "bsor-dijkstra"),
    Case::new(8, 8, "bit-complement", "bsor-dijkstra"),
    Case::new(8, 8, "shuffle", "bsor-dijkstra"),
    Case::new(8, 8, "h264", "bsor-dijkstra"),
    Case::new(8, 8, "perf-model", "bsor-dijkstra"),
    Case::new(8, 8, "wifi", "bsor-dijkstra"),
    Case::new(8, 8, "h264", "bsor-milp"),
    Case::new(8, 8, "perf-model", "bsor-milp"),
    Case::new(8, 8, "wifi", "bsor-milp"),
];

const BSOR_SMOKE: [Case; 3] = [
    Case::new(8, 8, "transpose", "bsor-dijkstra"),
    Case::new(8, 8, "h264", "bsor-dijkstra"),
    Case::new(8, 8, "h264", "bsor-milp"),
];

/// The cases of a sweep workload.
pub fn cases(workload: Workload, scale: Scale) -> Vec<Case> {
    match (workload, scale) {
        (Workload::SweepBulk, Scale::Full) => BULK.to_vec(),
        (Workload::SweepBulk, Scale::Smoke) => BULK_SMOKE.to_vec(),
        (Workload::SweepBsor, Scale::Full) => BSOR.to_vec(),
        (Workload::SweepBsor, Scale::Smoke) => BSOR_SMOKE.to_vec(),
        (Workload::ServeMix, _) => Vec::new(),
    }
}

/// The simulation shape of a sweep workload (the smoke scale runs a
/// subset of the cases at the same shape, so it shares the expected
/// outputs).
pub fn shape(workload: Workload) -> Shape {
    let (warmup, measurement) = match workload {
        Workload::SweepBulk => (100, 300),
        _ => (200, 1000),
    };
    let rate_fractions: &'static [f64] = match workload {
        Workload::SweepBulk => &[0.2],
        _ => &[0.25, 0.55, 0.85],
    };
    Shape {
        warmup,
        measurement,
        rate_fractions,
    }
}

/// The span a selector's `routes` call is recorded under.
pub fn selector_span(algorithm: &str) -> &'static str {
    match algorithm {
        "bsor-dijkstra" => "select.dijkstra",
        "bsor-milp" => "select.milp",
        _ => "select.baseline",
    }
}

/// A case with its scenario built.
pub struct Prepared {
    /// The case.
    pub case: Case,
    /// Its scenario (shared by cases on the same mesh and workload).
    pub scenario: Arc<Scenario>,
}

/// Builds the registries and every case's scenario.
///
/// # Errors
///
/// A topology, workload or scenario that cannot be built.
pub fn prepare(cases: &[Case]) -> Result<(SweepRegistries, Vec<Prepared>), String> {
    let regs = SweepRegistries::standard();
    let mut built: HashMap<(u16, u16, &str), Arc<Scenario>> = HashMap::new();
    let mut prepared = Vec::with_capacity(cases.len());
    for case in cases {
        if regs.algorithms.get(case.algorithm).is_none() {
            return Err(format!("unknown algorithm '{}'", case.algorithm));
        }
        let key = (case.width, case.height, case.workload);
        let scenario = match built.get(&key) {
            Some(s) => s.clone(),
            None => {
                let untraced = &mut Tracer::new(false, Instant::now());
                let s = Arc::new(
                    build_scenario(&regs, case.width, case.height, case.workload, untraced)?.0,
                );
                built.insert(key, s.clone());
                s
            }
        };
        prepared.push(Prepared {
            case: case.clone(),
            scenario,
        });
    }
    Ok((regs, prepared))
}

/// Builds a mesh, a workload on it and their scenario under spans;
/// returns the scenario, the flow count and the CDG edge count.
///
/// # Errors
///
/// A topology, workload or scenario that cannot be built.
pub fn build_scenario(
    regs: &SweepRegistries,
    width: u16,
    height: u16,
    workload: &str,
    tr: &mut Tracer,
) -> Result<(Scenario, usize, usize), String> {
    let label = format!("mesh:{width}x{height}/{workload}");
    let topo = tr
        .span("topology.build", || {
            regs.topologies.build("mesh", width, height)
        })
        .map_err(|e| format!("{label}: {e}"))?;
    let built = tr
        .span("workloads.build", || regs.workloads.build(&topo, workload))
        .map_err(|e| format!("{label}: {e}"))?;
    let flows = built.flows.len();
    let scenario = tr
        .span("scenario.build", || {
            Scenario::builder(topo, built.flows)
                .named(workload)
                .vcs(2)
                .build()
        })
        .map_err(|e| format!("{label}: {e}"))?;
    let edges = scenario.cdg().graph().edge_count();
    Ok((scenario, flows, edges))
}

fn sim_config(shape: &Shape, seed: u64) -> SimConfig {
    SimConfig::new(2)
        .with_warmup(shape.warmup)
        .with_measurement(shape.measurement)
        .with_seed(seed)
}

/// The offered rate that loads the plan's busiest channel to one flit
/// per cycle (the static knee), from the analytical evaluator.
fn static_knee(plan: &RoutePlan, shape: &Shape) -> Result<f64, String> {
    let ev = StaticMclEvaluator::new()
        .evaluate(
            plan,
            &EvalPoint::new(1.0, sim_config(shape, GOLDEN_SIM_SEED)),
        )
        .map_err(|e| e.to_string())?;
    if ev.max_channel_load > 0.0 {
        Ok(1.0 / ev.max_channel_load)
    } else {
        Err("plan loads no channel".to_owned())
    }
}

/// One evaluated rate of a case.
pub struct Point {
    /// Offered rate, packets/cycle.
    pub rate: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Latency of the cached re-plan, seconds.
    pub hit_s: f64,
    /// Host seconds in `SimEvaluator::evaluate`.
    pub sim_s: f64,
    /// The evaluation.
    pub evaluation: Evaluation,
}

/// One executed case.
pub struct CaseRun {
    /// The cold plan.
    pub plan: Arc<RoutePlan>,
    /// Cold plan latency, seconds.
    pub cold_s: f64,
    /// The evaluated rates.
    pub points: Vec<Point>,
    /// Whole-operation latency, seconds.
    pub op_s: f64,
    /// Problems found while running (hits that were not the cold plan).
    pub problems: Vec<String>,
    /// The case's plan-cache counters.
    pub cache: CacheStats,
}

/// Runs one case: cold plan, knee, then per rate a cached re-plan and a
/// simulation. `seed_of(i)` is the simulation seed of rate `i`.
///
/// # Errors
///
/// The plan or an evaluation failed.
pub fn run_case(
    prepared: &Prepared,
    algorithm: &dyn RouteAlgorithm,
    shape: &Shape,
    seed_of: impl Fn(usize) -> u64,
    tr: &mut Tracer,
) -> Result<CaseRun, String> {
    let started = Instant::now();
    let op = tr.begin("op");
    let planner = Planner::new().with_cache(PlanCache::shared());
    let scenario = &*prepared.scenario;
    let t = Instant::now();
    let plan = tr
        .span("plan.cold", || planner.plan(scenario, algorithm))
        .map_err(|e| e.to_string())?;
    let cold_s = t.elapsed().as_secs_f64();
    let knee = tr.span("eval.static", || static_knee(&plan, shape))?;
    let mut points = Vec::with_capacity(shape.rate_fractions.len());
    let mut problems = Vec::new();
    for (i, fraction) in shape.rate_fractions.iter().enumerate() {
        let rate = fraction * knee;
        let seed = seed_of(i);
        let t = Instant::now();
        let hit = tr
            .span("plan.hit", || planner.plan(scenario, algorithm))
            .map_err(|e| e.to_string())?;
        let hit_s = t.elapsed().as_secs_f64();
        if !Arc::ptr_eq(&hit, &plan) {
            problems.push(format!("rate {i}: re-plan was not served from the cache"));
        }
        let point = EvalPoint::new(rate, sim_config(shape, seed));
        let t = Instant::now();
        let evaluation = tr
            .span("eval.sim", || SimEvaluator::new().evaluate(&hit, &point))
            .map_err(|e| format!("rate {rate}: {e}"))?;
        let sim_s = t.elapsed().as_secs_f64();
        points.push(Point {
            rate,
            seed,
            hit_s,
            sim_s,
            evaluation,
        });
    }
    tr.end(op);
    let cache = planner.cache().expect("planner has a cache").stats();
    Ok(CaseRun {
        plan,
        cold_s,
        points,
        op_s: started.elapsed().as_secs_f64(),
        problems,
        cache,
    })
}

/// Checks a case's outputs: the certificate verifies, the plan id, MCL
/// and flow count match the stored ones, every simulation ran its full
/// window without deadlock, and (golden pass) the simulation counters
/// match the stored ones. The 8x8 transpose BSOR cases must also report
/// the paper's 75 MB/s.
pub fn check_case(
    case: &Case,
    run: &CaseRun,
    shape: &Shape,
    golden: bool,
    expected: &mut Expected,
) -> Vec<String> {
    let mut problems = run.problems.clone();
    let plan = &run.plan;
    if !plan.certificate().verify(plan.routes()) {
        problems.push("deadlock certificate does not verify".to_owned());
    }
    let label = case.label();
    let fields = vec![
        plan.id().to_string(),
        expect::float(plan.predicted_mcl()),
        plan.flows().len().to_string(),
    ];
    if let Err(e) = expected.check(&label, fields) {
        problems.push(e);
    }
    if case.width == 8
        && case.height == 8
        && case.workload == "transpose"
        && case.algorithm.starts_with("bsor-")
        && plan.predicted_mcl() != PAPER_TRANSPOSE_MCL
    {
        problems.push(format!(
            "MCL {} MB/s, the paper reports {PAPER_TRANSPOSE_MCL}",
            plan.predicted_mcl()
        ));
    }
    let window = shape.warmup + shape.measurement;
    for (i, p) in run.points.iter().enumerate() {
        let ev = &p.evaluation;
        if ev.deadlocked || ev.cycles != window || ev.delivered == 0 {
            problems.push(format!(
                "rate {i}: deadlocked={} cycles={} (want {window}) delivered={}",
                ev.deadlocked, ev.cycles, ev.delivered
            ));
        }
    }
    if golden {
        let counters = run
            .points
            .iter()
            .map(|p| {
                let ev = &p.evaluation;
                format!("{}:{}:{}", ev.generated, ev.delivered, ev.max_latency)
            })
            .collect();
        if let Err(e) = expected.check(&format!("{label}#sim"), counters) {
            problems.push(e);
        }
    }
    problems
}

/// The stage breakdown of one case (see the module docs), asserting
/// that it reproduces `run`'s plan and first evaluation.
///
/// # Errors
///
/// A stage failed; mismatches are returned as `Ok` problems.
pub fn staged(
    regs: &SweepRegistries,
    case: &Case,
    algorithm: &dyn RouteAlgorithm,
    shape: &Shape,
    run: &CaseRun,
    tr: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Vec<String>, String> {
    let open = tr.begin("stages");
    let result = staged_inner(regs, case, algorithm, shape, run, tr, outcome);
    tr.end(open);
    result
}

fn staged_inner(
    regs: &SweepRegistries,
    case: &Case,
    algorithm: &dyn RouteAlgorithm,
    shape: &Shape,
    run: &CaseRun,
    tr: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Vec<String>, String> {
    let (scenario, flows, edges) =
        build_scenario(regs, case.width, case.height, case.workload, tr)?;
    outcome.add("workloads.flows", flows as f64);
    outcome.add("cdg.edges", edges as f64);
    let stages = plan_stages(&scenario, algorithm, selector_span(case.algorithm), tr)?;
    outcome.add("select.flows", stages.routes.len() as f64);
    outcome.add(
        "certify.dependencies",
        stages.certificate.dependencies() as f64,
    );
    outcome.add("tables.bytes", stages.tables.table_bytes() as f64);

    let plan = &run.plan;
    let mut problems = stages.differences(plan);
    let first = run.points.first().ok_or("case has no evaluated rate")?;
    let (topo, flows) = (scenario.topology(), scenario.flows());
    let traffic = TrafficSpec::proportional(flows, first.rate);
    let config = sim_config(shape, first.seed);
    let mut sim = tr
        .span("engine.setup", || {
            Simulator::with_tables(topo, flows, &stages.routes, &stages.tables, traffic, config)
        })
        .map_err(|e| e.to_string())?;
    let (report, _timing) = tr.span("engine.run", || sim.run_timed());
    outcome.add("engine.cycles", report.cycles as f64);
    outcome.add("engine.generated_packets", report.generated_packets as f64);
    outcome.add("engine.delivered_packets", report.delivered_packets as f64);
    outcome.add("engine.delivered_flits", report.delivered_flits as f64);
    let ev = &first.evaluation;
    let same_report = report.generated_packets == ev.generated
        && report.delivered_packets == ev.delivered
        && report.cycles == ev.cycles
        && report.deadlocked == ev.deadlocked
        && report.max_latency() == ev.max_latency
        && report.throughput() == ev.throughput
        && report.mean_latency() == ev.mean_latency
        && report.max_channel_load() == ev.max_channel_load;
    if !same_report {
        problems.push("staged simulation report differs from SimEvaluator's".to_owned());
    }
    Ok(problems)
}

/// The products of the planning stages, computed one by one.
pub struct Stages {
    /// `PlanKey::new`'s content address.
    pub id: bsor_sim::PlanId,
    /// Selected routes.
    pub routes: bsor_routing::RouteSet,
    /// Lemma-1 certificate.
    pub certificate: deadlock::DeadlockCertificate,
    /// Compiled dense tables.
    pub tables: AnyTables,
    /// Static per-channel loads.
    pub link_demands: Vec<f64>,
    /// Their maximum.
    pub mcl: f64,
}

impl Stages {
    /// How these stages differ from `plan` (empty when equal).
    pub fn differences(&self, plan: &RoutePlan) -> Vec<String> {
        let mut problems = Vec::new();
        let mut differ = |what: &str, same: bool| {
            if !same {
                problems.push(format!("staged {what} differs from Planner::plan's"));
            }
        };
        differ("plan id", self.id == plan.id());
        differ("routes", self.routes == *plan.routes());
        differ(
            "certificate",
            self.certificate.verify(&self.routes) && self.certificate == *plan.certificate(),
        );
        differ("tables", self.tables == *plan.tables());
        differ("link demands", self.link_demands == plan.link_demands());
        differ("MCL", self.mcl == plan.predicted_mcl());
        problems
    }
}

/// Runs `build_plan`'s stages one by one, each under its span: key,
/// select, validate, certify, compile, link demand.
///
/// # Errors
///
/// The stage that failed.
pub fn plan_stages(
    scenario: &Scenario,
    algorithm: &dyn RouteAlgorithm,
    select_span: &'static str,
    tr: &mut Tracer,
) -> Result<Stages, String> {
    let (topo, flows, vcs) = (scenario.topology(), scenario.flows(), scenario.vcs());
    let key = tr.span("plan.key", || {
        PlanKey::new(scenario, &algorithm.cache_key())
    });
    let routes = tr
        .span(select_span, || algorithm.routes(&scenario.ctx()))
        .map_err(|e| format!("select: {e}"))?;
    tr.span("validate", || routes.validate(topo, flows, vcs))
        .map_err(|e| format!("validate: {e}"))?;
    let certificate = tr
        .span("certify", || deadlock::certify(topo, &routes, vcs))
        .map_err(|cycle| format!("certify: dependence cycle of {} channels", cycle.len()))?;
    let tables = tr.span("tables.compile", || AnyTables::build(topo, &routes, false));
    let link_demands = tr.span("demand", || routes.link_loads(topo, flows));
    let mcl = link_demands.iter().copied().fold(0.0, f64::max);
    Ok(Stages {
        id: key.id(),
        routes,
        certificate,
        tables,
        link_demands,
        mcl,
    })
}

/// The fastest timings of one case over the timed passes, and the
/// simulation counters every timed pass must repeat.
struct Best {
    op_s: f64,
    cold_s: f64,
    flows: f64,
    hit_s: Vec<f64>,
    sim_s: Vec<f64>,
    cycles: Vec<f64>,
    flits: Vec<f64>,
    counters: Vec<(u64, u64, u64)>,
}

impl Best {
    fn new(run: &CaseRun, packet_len: u64) -> Best {
        let points = &run.points;
        Best {
            op_s: run.op_s,
            cold_s: run.cold_s,
            flows: run.plan.flows().len() as f64,
            hit_s: points.iter().map(|p| p.hit_s).collect(),
            sim_s: points.iter().map(|p| p.sim_s).collect(),
            cycles: points.iter().map(|p| p.evaluation.cycles as f64).collect(),
            flits: points
                .iter()
                .map(|p| (p.evaluation.delivered * packet_len) as f64)
                .collect(),
            counters: points.iter().map(|p| counters(&p.evaluation)).collect(),
        }
    }

    /// Keeps the faster of each timing; a problem when `run`'s
    /// simulations did not repeat the first timed pass's counters.
    fn absorb(&mut self, run: &CaseRun) -> Option<String> {
        self.op_s = self.op_s.min(run.op_s);
        self.cold_s = self.cold_s.min(run.cold_s);
        for (i, p) in run.points.iter().enumerate() {
            self.hit_s[i] = self.hit_s[i].min(p.hit_s);
            self.sim_s[i] = self.sim_s[i].min(p.sim_s);
        }
        let again: Vec<_> = run.points.iter().map(|p| counters(&p.evaluation)).collect();
        (again != self.counters).then(|| {
            format!(
                "simulation counters {again:?} differ from the first timed pass's {:?}",
                self.counters
            )
        })
    }
}

fn counters(ev: &Evaluation) -> (u64, u64, u64) {
    (ev.generated, ev.delivered, ev.max_latency)
}

/// The one pass the end-to-end metrics are read from: every case at its
/// fastest. Rates are work over the sum of the fastest times; latencies
/// are the fastest time of each case (of each rate for the cached
/// re-plans).
fn fastest_pass(best: &[Best]) -> Pass {
    let ms = |v: f64| v * 1e3;
    Pass {
        ops: best.len() as f64,
        secs: best.iter().map(|b| b.op_s).sum(),
        plan_flows: best.iter().map(|b| b.flows).sum(),
        plan_s: best.iter().map(|b| b.cold_s).sum(),
        sim_cycles: best.iter().flat_map(|b| &b.cycles).sum(),
        sim_flits: best.iter().flat_map(|b| &b.flits).sum(),
        sim_s: best.iter().flat_map(|b| &b.sim_s).sum(),
        hit_ms: best
            .iter()
            .flat_map(|b| b.hit_s.iter().map(|&s| ms(s)))
            .collect(),
        miss_ms: best.iter().map(|b| ms(b.cold_s)).collect(),
        request_ms: best.iter().map(|b| ms(b.op_s)).collect(),
    }
}

/// Runs a sweep workload.
///
/// # Errors
///
/// Set-up failed: no expected outputs, or an unbuildable case.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut expected = if opts.write_expected {
        Expected::recorder()
    } else {
        Expected::load(&opts.expected_path())?
    };
    let cases = cases(opts.workload, opts.scale);
    let shape = shape(opts.workload);
    let packet_len = sim_config(&shape, GOLDEN_SIM_SEED).packet_len as u64;
    let mut outcome = Outcome::default();

    let t = Instant::now();
    let (regs, prepared) = prepare(&cases)?;
    outcome.samples.setup_s.push(t.elapsed().as_secs_f64());

    let mut tr = Tracer::new(opts.trace, Instant::now());
    let mut best: Vec<Option<Best>> = prepared.iter().map(|_| None).collect();
    let mut timed_from = None;
    let mut pass: u64 = 0;
    loop {
        for (i, p) in prepared.iter().enumerate() {
            let op_id = pass * prepared.len() as u64 + i as u64;
            tr.set_op(op_id);
            let algorithm = regs
                .algorithms
                .get(p.case.algorithm)
                .expect("checked in prepare");
            let seed_of = |rate: usize| {
                if pass == 0 {
                    GOLDEN_SIM_SEED
                } else {
                    SplitMix64::new(opts.seed, i as u64 * 16 + rate as u64).next_u64()
                }
            };
            let label = p.case.label();
            let run = match run_case(p, algorithm, &shape, seed_of, &mut tr) {
                Ok(run) => run,
                Err(e) => {
                    outcome.record(&label, vec![e]);
                    continue;
                }
            };
            let mut problems = check_case(&p.case, &run, &shape, pass == 0, &mut expected);
            if pass > 0 {
                match &mut best[i] {
                    Some(b) => problems.extend(b.absorb(&run)),
                    None => best[i] = Some(Best::new(&run, packet_len)),
                }
            }
            if opts.trace {
                outcome.add("cache.hits", run.cache.hits as f64);
                outcome.add("cache.misses", run.cache.misses as f64);
                outcome.add("cache.dedup_waits", run.cache.dedup_waits as f64);
                outcome.add("cache.solves", run.cache.solves as f64);
                outcome.add("cache.solve_ms", run.cache.solve_ns_total as f64 / 1e6);
                outcome.max("cache.bytes", run.cache.bytes as f64);
                match staged(
                    &regs,
                    &p.case,
                    algorithm,
                    &shape,
                    &run,
                    &mut tr,
                    &mut outcome,
                ) {
                    Ok(more) => problems.extend(more),
                    Err(e) => problems.push(e),
                }
            }
            outcome.record(&label, problems);
        }
        let t = Instant::now();
        let again = prepare(&cases);
        outcome.samples.setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = again {
            outcome.record("repeated set-up", vec![e]);
        }
        if opts.write_expected {
            break;
        }
        pass += 1;
        let timed = *timed_from.get_or_insert_with(Instant::now);
        // At least two timed passes, so the repeated counters are checked.
        if pass > 2 && timed.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let best: Vec<Best> = best.into_iter().flatten().collect();
    outcome.samples.passes.push(fastest_pass(&best));
    outcome.spans = tr.spans().to_vec();
    if opts.write_expected {
        expected.write(
            &opts.expected_path(),
            &format!(
                "Expected outputs of {}: per case the plan id, predicted MCL (MB/s) and\n\
                 flow count; per case#sim, for each rate at simulation seed {GOLDEN_SIM_SEED:#x},\n\
                 generated:delivered packets and the worst packet latency.\n\
                 Regenerate with: perfbench --workload {} --write-expected",
                opts.workload.name(),
                opts.workload.name()
            ),
        )?;
    }
    Ok(outcome)
}

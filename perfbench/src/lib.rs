//! The repo benchmark: three workloads that drive the BSOR pipeline
//! through the public functions of `bsor_bench`, `bsor_sim`,
//! `bsor_routing`, `bsor_workloads` and `bsor_topology`, measure it end
//! to end, and (traced) layer by layer.
//!
//! * `sweep-bulk` — cold plans with the cheap oblivious selectors on
//!   many-flow inputs, each evaluated in the engine at one low rate;
//! * `sweep-bsor` — the paper's selectors on the paper's inputs, each
//!   evaluated at three rates up to just under the case's knee;
//! * `serve-mix` — two closed-loop clients calling
//!   `PlanService::handle_line` with a seeded Zipf request stream.
//!
//! Every workload checks its outputs against `perfbench/expected/` and
//! counts each mismatch as a failed operation.

pub mod expect;
pub mod serve_mix;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Span;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold oblivious-selector plans on many-flow inputs.
    SweepBulk,
    /// The paper's selectors on the paper's inputs.
    SweepBsor,
    /// The plan service under a Zipf request mix.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SweepBulk, Workload::SweepBsor, Workload::ServeMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepBulk => "sweep-bulk",
            Workload::SweepBsor => "sweep-bsor",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `miss_ms.tail` is read at. It is fixed per
    /// workload, so a faster or slower run reads the same statistic:
    /// p95 on `serve-mix`, which runs until it has the 200 misses that
    /// leave ten beyond it, and the maximum on the sweeps, whose misses
    /// are the fastest cold plan of each case.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::SweepBulk | Workload::SweepBsor => 100.0,
            Workload::ServeMix => 95.0,
        }
    }
}

/// Input size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured inputs.
    Full,
    /// A downsized subset for the benchmark's own tests.
    Smoke,
}

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: drives the request stream, the `rand-perm` spec
    /// and the simulation seeds.
    pub seed: u64,
    /// Length of the timed phase; it ends at the first pass (sweeps) or
    /// round (serve) boundary after this many seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory holding the expected outputs.
    pub expected_dir: PathBuf,
    /// Record the observed outputs instead of checking them.
    pub write_expected: bool,
}

impl Options {
    /// The expected-output file of this run's workload.
    pub fn expected_path(&self) -> PathBuf {
        self.expected_dir
            .join(format!("{}.txt", self.workload.name()))
    }
}

/// Work and time of one serve round, or of a sweep's cases at their
/// fastest.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Operations completed.
    pub ops: f64,
    /// Seconds they took (traced runs exclude the breakdowns).
    pub secs: f64,
    /// Flows planned by cold plans.
    pub plan_flows: f64,
    /// Seconds spent in cold plans.
    pub plan_s: f64,
    /// Simulated cycles.
    pub sim_cycles: f64,
    /// Delivered flits.
    pub sim_flits: f64,
    /// Host seconds spent simulating.
    pub sim_s: f64,
    /// Latency of requests answered from the plan cache, ms.
    pub hit_ms: Vec<f64>,
    /// Latency of requests that solved a plan, ms.
    pub miss_ms: Vec<f64>,
    /// Latency of every operation, ms.
    pub request_ms: Vec<f64>,
}

impl Pass {
    /// Adds another thread's counts and latencies (not its seconds).
    pub fn absorb(&mut self, other: Pass) {
        self.ops += other.ops;
        self.plan_flows += other.plan_flows;
        self.plan_s += other.plan_s;
        self.sim_cycles += other.sim_cycles;
        self.sim_flits += other.sim_flits;
        self.sim_s += other.sim_s;
        self.hit_ms.extend(other.hit_ms);
        self.miss_ms.extend(other.miss_ms);
        self.request_ms.extend(other.request_ms);
    }
}

/// Raw end-to-end measurements of one run.
///
/// `serve-mix` closes one pass per round; its rates are taken per round
/// and reported as the median over rounds, and its latencies are pooled.
/// The sweeps close a single pass that holds every case at its fastest
/// repeat (see the `sweep` module).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Completed passes.
    pub passes: Vec<Pass>,
    /// The pass in progress.
    pub current: Pass,
}

impl Samples {
    /// Closes the current pass, which took `secs`.
    pub fn end_pass(&mut self, secs: f64) {
        let mut pass = std::mem::take(&mut self.current);
        pass.secs = secs;
        self.passes.push(pass);
    }

    /// Median over passes of `num / den`.
    fn rate(&self, num: impl Fn(&Pass) -> f64, den: impl Fn(&Pass) -> f64) -> f64 {
        let rates: Vec<f64> = self.passes.iter().map(|p| ratio(num(p), den(p))).collect();
        stats::median(&rates)
    }

    /// The latencies `field` of every completed pass, pooled.
    pub fn pooled(&self, field: impl Fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| field(p).iter().copied())
            .collect()
    }

    /// Quantile `q` of the latencies `field`, pooled over the passes.
    fn latency(&self, field: impl Fn(&Pass) -> &Vec<f64>, q: f64) -> f64 {
        stats::quantile(&self.pooled(field), q)
    }
}

/// What one run did.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or returned an unexpected output.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
    /// End-to-end measurements.
    pub samples: Samples,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
    /// Per-layer work counters (traced runs).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one attempted operation, failed when `problems` is not
    /// empty.
    pub fn record(&mut self, op: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{op}: {p}")));
        }
    }

    /// Folds another thread's failures and counters into this outcome.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        for (name, v) in other.counts {
            self.add(name, v);
        }
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Raises counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.counts.entry(name).or_insert(0.0);
        *e = e.max(v);
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("plan_flows_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("sim_flits_per_s", "1/s"),
    ("hit_ms.p50", "ms"),
    ("hit_ms.p99", "ms"),
    ("miss_ms.p50", "ms"),
    ("miss_ms.tail", "ms"),
    ("request_ms.p50", "ms"),
    ("request_ms.p99", "ms"),
];

/// Timed layers: span name and metric name. Each reports its total and
/// per-call p50; the spans that nest others also report self time.
pub const TIMED_LAYERS: [(&str, &str); 23] = [
    ("op", "op_ms"),
    ("stages", "stages_ms"),
    ("topology.build", "topology.build_ms"),
    ("workloads.build", "workloads.build_ms"),
    ("scenario.build", "scenario.build_ms"),
    ("plan.key", "plan.key_ms"),
    ("plan.cold", "plan.cold_ms"),
    ("plan.hit", "plan.hit_ms"),
    ("select.baseline", "select.baseline_ms"),
    ("select.dijkstra", "select.dijkstra_ms"),
    ("select.milp", "select.milp_ms"),
    ("validate", "validate.ms"),
    ("certify", "certify.ms"),
    ("tables.compile", "tables.compile_ms"),
    ("demand", "demand.ms"),
    ("eval.static", "eval.static_ms"),
    ("eval.sim", "eval.sim_ms"),
    ("engine.setup", "engine.setup_ms"),
    ("engine.run", "engine.run_ms"),
    ("json.parse", "json.parse_ms"),
    ("serve.handle", "serve.handle_ms"),
    ("json.render", "json.render_ms"),
    ("cache.invalidate", "cache.invalidate_ms"),
];

/// Spans that enclose others, reported with self time.
pub const NESTING_SPANS: [&str; 2] = ["op", "stages"];

/// Error codes the serve mix provokes, each with its per-layer counter.
pub const SERVE_ERRORS: [(&str, &str); 5] = [
    ("bad-json", "serve.errors.bad-json"),
    ("bad-request", "serve.errors.bad-request"),
    ("unknown-op", "serve.errors.unknown-op"),
    ("unknown-workload", "serve.errors.unknown-workload"),
    ("bad-workload-spec", "serve.errors.bad-workload-spec"),
];

/// Per-layer counters with their units.
pub const COUNTED_LAYERS: [(&str, &str); 19] = [
    ("workloads.flows", "count"),
    ("cdg.edges", "count"),
    ("select.flows", "count"),
    ("certify.dependencies", "count"),
    ("tables.bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.dedup_waits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.solves", "count"),
    ("cache.solve_ms", "ms"),
    ("cache.evicted_invalidated", "count"),
    ("cache.recertified", "count"),
    ("cache.bytes", "bytes"),
    ("engine.cycles", "count"),
    ("engine.generated_packets", "count"),
    ("engine.delivered_flits", "count"),
    ("engine.delivered_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Names and units of every per-layer metric, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (span, metric) in TIMED_LAYERS {
        out.push((metric.to_owned(), "ms"));
        out.push((format!("{metric}.p50"), "ms"));
        if NESTING_SPANS.contains(&span) {
            out.push((format!("{metric}.self"), "ms"));
        }
    }
    for (name, unit) in COUNTED_LAYERS {
        out.push((name.to_owned(), unit));
    }
    for (_, counter) in SERVE_ERRORS {
        out.push((counter.to_owned(), "count"));
    }
    out
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up failure (unreadable expected outputs, an unbuildable
/// input): nothing was measured.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = match opts.workload {
        Workload::SweepBulk | Workload::SweepBsor => sweep::run(opts)?,
        Workload::ServeMix => serve_mix::run(opts)?,
    };
    let percentile = opts.workload.tail_percentile();
    let need = stats::tail_min_samples(percentile);
    let have = outcome.samples.pooled(|p| &p.miss_ms).len();
    if !opts.write_expected && have < need {
        outcome.record(
            "miss_ms.tail",
            vec![format!(
                "p{percentile} needs {need} miss samples, the run has {have}"
            )],
        );
    }
    Ok(outcome)
}

/// The process's peak resident memory (`VmHWM`), MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of a run of `workload`, plus the tail
/// `miss_ms.tail` was read at.
pub fn end_to_end(
    outcome: &Outcome,
    workload: Workload,
    peak_rss_mb: f64,
) -> (Vec<Metric>, stats::Tail) {
    let s = &outcome.samples;
    let percentile = workload.tail_percentile();
    let tail = stats::Tail {
        value: s.latency(|p| &p.miss_ms, percentile / 100.0),
        percentile,
        samples: s.pooled(|p| &p.miss_ms).len(),
    };
    let values = [
        stats::median(&s.setup_s),
        s.rate(|p| p.ops, |p| p.secs),
        peak_rss_mb,
        s.rate(|p| p.plan_flows, |p| p.plan_s),
        s.rate(|p| p.sim_cycles, |p| p.sim_s),
        s.rate(|p| p.sim_flits, |p| p.sim_s),
        s.latency(|p| &p.hit_ms, 0.5),
        s.latency(|p| &p.hit_ms, 0.99),
        s.latency(|p| &p.miss_ms, 0.5),
        tail.value,
        s.latency(|p| &p.request_ms, 0.5),
        s.latency(|p| &p.request_ms, 0.99),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_owned(),
            value,
            unit,
        })
        .collect();
    (metrics, tail)
}

/// The per-layer metrics of a traced `outcome`.
pub fn per_layer(outcome: &Outcome) -> Vec<Metric> {
    let summary = trace::summarize(&outcome.spans);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (span, metric) in TIMED_LAYERS {
        let s = summary.get(span).cloned().unwrap_or_default();
        values.insert(metric.to_owned(), s.total_ms);
        values.insert(format!("{metric}.p50"), s.p50());
        values.insert(format!("{metric}.self"), s.self_ms);
    }
    for (name, v) in &outcome.counts {
        values.insert((*name).to_owned(), *v);
    }
    let count = |name: &str| outcome.counts.get(name).copied().unwrap_or(0.0);
    let lookups = count("cache.hits") + count("cache.misses") + count("cache.dedup_waits");
    values.insert(
        "cache.hit_ratio".to_owned(),
        ratio(count("cache.hits"), lookups),
    );
    values.insert(
        "engine.delivered_ratio".to_owned(),
        ratio(
            count("engine.delivered_packets"),
            count("engine.generated_packets"),
        ),
    );
    values.insert("trace.spans".to_owned(), outcome.spans.len() as f64);
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(",")
    )
}

/// A finite JSON number with every digit (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

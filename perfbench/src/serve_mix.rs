//! `serve-mix`: two closed-loop clients calling
//! `PlanService::handle_line` in-process with a seeded Zipf stream.
//!
//! The key universe is a fixed, ranked list of (mesh, workload,
//! algorithm) keys; Zipf(1.1), the exponent of the `bsor-serve-bench`
//! harness, draws a rank, so the seed changes the sequence but not which
//! keys are popular. The `rand-perm` keys take their permutation seed
//! from the workload seed. Each key is owned by one client, so a key's
//! requests never overlap and whether a request hits the plan cache is
//! decided by the stream: it hits when an earlier request for its key
//! completed and no invalidation since evicted it.
//!
//! A round is four epochs on a fresh service (the default `bsor-serve`
//! cache: 256 plans, 8 shards). After each epoch both clients meet at a
//! barrier and one sends an `invalidate` delta, so the re-solve count
//! repeats from run to run. Rounds repeat until the timed phase is over
//! and the run has the misses `miss_ms.tail` needs. Every response is
//! checked: plan ids, predicted MCL and flow counts against the expected
//! outputs, typed error codes for the malformed lines, and the
//! invalidation outcome and the cache counters against the stream's
//! model. At each barrier, outside the round's time, the deadlock
//! certificate of every plan the service solved since the last barrier
//! is verified, and the set-up is made once more for `setup_s`.
//!
//! The traced run records `json.parse`, `serve.handle` and
//! `json.render` per request, and follows each keyed request with a
//! breakdown outside its latency: the plan key on a hit, the planning
//! stages on a miss (checked against the served plan id and MCL).

use crate::expect::{self, Expected};
use crate::stats::{SplitMix64, Zipf};
use crate::sweep::{self, plan_stages, selector_span};
use crate::trace::Tracer;
use crate::{Options, Outcome, Samples, Scale};
use bsor_bench::json::Json;
use bsor_bench::serve::{PlanService, ServeConfig, ServeError};
use bsor_bench::sweep::SweepRegistries;
use bsor_sim::plan::PlanKey;
use bsor_sim::{PlanCacheConfig, Planner, RouteAlgorithm, RoutePlan, Scenario};
use bsor_topology::NodeId;
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Weak};
use std::time::{Duration, Instant};

/// One key of the universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key {
    /// Mesh width.
    pub width: u16,
    /// Mesh height.
    pub height: u16,
    /// Workload spec.
    pub workload: String,
    /// Algorithm registry name.
    pub algorithm: &'static str,
}

impl Key {
    fn new(width: u16, workload: &str, algorithm: &'static str) -> Key {
        Key {
            width,
            height: width,
            workload: workload.to_owned(),
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

    fn nodes(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Whether the workload spec depends on the workload seed.
    fn seeded(&self) -> bool {
        self.workload.starts_with("rand-perm:")
    }

    fn fields(&self) -> String {
        format!(
            "\"topology\":\"mesh\",\"width\":{},\"height\":{},\"workload\":\"{}\",\"algorithm\":\"{}\",\"vcs\":2",
            self.width, self.height, self.workload, self.algorithm
        )
    }
}

/// The invalidation deltas: one after each epoch. The first three are
/// 16x16 links every 16x16 plan uses, so each re-solves the 16x16 keys
/// in the next epoch; the 16x16 transpose `bsor-dijkstra` solves are
/// then over 10% of the misses and set `miss_ms.tail`. The last is a
/// vertical 8x8 link (not a 16x16 link) sent when the round's requests
/// are done: it evicts most 8x8 plans and re-certifies the ones that
/// route nothing over it (the h264 plans, among others), without adding
/// 8x8 re-solves, whose latency sits between the cheap and the
/// `bsor-dijkstra` solves and would put `miss_ms.p50` on that edge.
pub const DELTAS: [(u32, u32); 4] = [(200, 201), (120, 136), (136, 137), (0, 8)];

/// Zipf exponent of the key ranks, as in the `bsor-serve-bench` harness.
pub const ZIPF_S: f64 = 1.1;

/// The ranked key universe (rank 0 is the most popular).
pub fn universe(scale: Scale, rand_perm: &str) -> Vec<Key> {
    match scale {
        Scale::Full => vec![
            Key::new(8, "transpose", "xy"),
            Key::new(8, "h264", "bsor-dijkstra"),
            Key::new(8, "shuffle", "yx"),
            Key::new(8, "bit-complement", "xy"),
            Key::new(8, "tornado", "bsor-dijkstra"),
            Key::new(8, "hotspot:4", "yx"),
            Key::new(16, "uniform-random", "xy"),
            Key::new(8, rand_perm, "xy"),
            Key::new(16, "uniform-random", "romm"),
            Key::new(8, "transpose", "bsor-dijkstra"),
            Key::new(8, "shuffle", "xy"),
            Key::new(16, "transpose", "bsor-dijkstra"),
            Key::new(8, "h264", "xy"),
            Key::new(8, "bit-complement", "bsor-dijkstra"),
            Key::new(8, "tornado", "yx"),
            Key::new(8, "hotspot:4", "bsor-dijkstra"),
            Key::new(8, rand_perm, "bsor-dijkstra"),
            Key::new(8, "transpose", "yx"),
            Key::new(8, "shuffle", "bsor-dijkstra"),
            Key::new(8, "h264", "yx"),
            Key::new(8, "bit-complement", "yx"),
            Key::new(8, "tornado", "xy"),
            Key::new(8, "hotspot:4", "xy"),
            Key::new(8, rand_perm, "yx"),
        ],
        Scale::Smoke => vec![
            Key::new(8, "transpose", "xy"),
            Key::new(8, "h264", "bsor-dijkstra"),
            Key::new(8, rand_perm, "xy"),
            Key::new(16, "transpose", "xy"),
            Key::new(8, "transpose", "bsor-dijkstra"),
        ],
    }
}

/// The `rand-perm` spec of a workload seed.
pub fn rand_perm_spec(seed: u64) -> String {
    format!(
        "rand-perm:{}",
        SplitMix64::new(seed, 0x5EED).next_u64() % 1_000_000_000
    )
}

/// What a key's plan must look like.
#[derive(Clone, Debug)]
pub struct KeyExpect {
    /// Plan id.
    pub plan: String,
    /// Predicted MCL, shortest round-trip form.
    pub mcl: String,
    /// Flow count.
    pub flows: usize,
    /// Bit `d` set: the key's topology has delta `d`'s link, so the
    /// delta examines the plan.
    pub examine_mask: u32,
    /// Bit `d` set: delta `d` evicts the plan.
    pub evict_mask: u32,
}

/// Malformed lines and the error code each must get (`{id}` is replaced
/// by the request id; lines without one echo `null`).
const MALFORMED: [(&str, &str); 7] = [
    ("this is not json", "bad-json"),
    ("{\"id\":{id},\"op\":\"teleport\"}", "unknown-op"),
    ("[1,2,3]", "bad-request"),
    (
        "{\"id\":{id},\"op\":\"plan\",\"workload\":\"transpose\"}",
        "bad-request",
    ),
    (
        "{\"id\":{id},\"op\":\"plan\",\"workload\":\"no-such-pattern\",\"algorithm\":\"xy\"}",
        "unknown-workload",
    ),
    (
        "{\"id\":{id},\"op\":\"plan\",\"workload\":\"hotspot:lots\",\"algorithm\":\"xy\"}",
        "bad-workload-spec",
    ),
    (
        "{\"id\":{id},\"op\":\"evaluate\",\"workload\":\"transpose\",\"algorithm\":\"xy\"}",
        "bad-request",
    ),
];

/// Simulation window of the `sim` evaluate requests.
const SIM_WARMUP: u64 = 100;
const SIM_MEASUREMENT: u64 = 500;
const PACKET_LEN: u64 = 8;

/// What a request is and what its response must say.
#[derive(Clone, Debug)]
pub enum Kind {
    /// `plan` for a key.
    Plan { key: usize, hit: bool },
    /// `evaluate` on the static backend.
    Static { key: usize, hit: bool },
    /// `evaluate` on the simulating backend.
    Sim { key: usize, hit: bool },
    /// `stats`.
    Stats,
    /// A malformed line and its error code.
    Malformed { code: &'static str, has_id: bool },
    /// `invalidate`: `(examined, evicted, recertified)` or an error code.
    Invalidate(Result<(u64, u64, u64), &'static str>),
}

/// One line of the stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request id.
    pub id: u64,
    /// The protocol line.
    pub line: String,
    /// Its expectation.
    pub kind: Kind,
}

impl Request {
    fn key(&self) -> Option<(usize, bool)> {
        match self.kind {
            Kind::Plan { key, hit } | Kind::Static { key, hit } | Kind::Sim { key, hit } => {
                Some((key, hit))
            }
            _ => None,
        }
    }
}

/// One round: per epoch, each client's requests; the invalidation that
/// follows each epoch; and the cache counters the round must end with.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// `epochs[e][client]`.
    pub epochs: Vec<[Vec<Request>; 2]>,
    /// `cached[e][key]`: the key's plan is cached at the end of epoch `e`,
    /// before its invalidation.
    pub cached: Vec<Vec<bool>>,
    /// `invalidates[e]` runs after epoch `e`.
    pub invalidates: Vec<Request>,
    /// Expected cache hits.
    pub hits: u64,
    /// Expected cache misses (one solve each).
    pub misses: u64,
    /// Flows planned by those solves.
    pub solved_flows: u64,
    /// Expected invalidation evictions.
    pub evicted: u64,
    /// Expected re-certifications.
    pub recertified: u64,
}

fn epoch_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1000,
        Scale::Smoke => 60,
    }
}

/// Generates round `index` of the stream for `seed`, modelling the
/// cache to decide hits and invalidation outcomes.
pub fn generate_round(
    seed: u64,
    index: u64,
    keys: &[Key],
    expected: &[KeyExpect],
    scale: Scale,
) -> Round {
    let mut rng = SplitMix64::new(seed, 1000 + index);
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let mut cached = vec![false; keys.len()];
    let mut round = Round::default();
    let mut id = index * 1_000_000;
    for (epoch, &(a, b)) in DELTAS.iter().enumerate() {
        let mut clients: [Vec<Request>; 2] = [Vec::new(), Vec::new()];
        for j in 0..epoch_len(scale) {
            id += 1;
            let u = rng.next_f64();
            let request = if u < 0.02 {
                let (template, code) = MALFORMED[rng.next_u64() as usize % MALFORMED.len()];
                Request {
                    id,
                    line: template.replace("{id}", &id.to_string()),
                    kind: Kind::Malformed {
                        code,
                        has_id: template.contains("{id}"),
                    },
                }
            } else if u < 0.04 {
                Request {
                    id,
                    line: format!("{{\"id\":{id},\"op\":\"stats\"}}"),
                    kind: Kind::Stats,
                }
            } else {
                let sim = u < 0.06;
                let mut key = zipf.sample(&mut rng);
                while sim && keys[key].nodes() > 64 {
                    key = zipf.sample(&mut rng);
                }
                let hit = cached[key];
                cached[key] = true;
                if hit {
                    round.hits += 1;
                } else {
                    round.misses += 1;
                    round.solved_flows += expected[key].flows as u64;
                }
                let fields = keys[key].fields();
                if sim {
                    let sim_seed = rng.next_u64() % 1_000_000;
                    Request {
                        id,
                        line: format!(
                            "{{\"id\":{id},\"op\":\"evaluate\",{fields},\"rate\":0.05,\"backend\":\"sim\",\"warmup\":{SIM_WARMUP},\"measurement\":{SIM_MEASUREMENT},\"seed\":{sim_seed}}}"
                        ),
                        kind: Kind::Sim { key, hit },
                    }
                } else if u < 0.18 {
                    Request {
                        id,
                        line: format!(
                            "{{\"id\":{id},\"op\":\"evaluate\",{fields},\"rate\":0.1,\"backend\":\"static\"}}"
                        ),
                        kind: Kind::Static { key, hit },
                    }
                } else {
                    Request {
                        id,
                        line: format!("{{\"id\":{id},\"op\":\"plan\",{fields}}}"),
                        kind: Kind::Plan { key, hit },
                    }
                }
            };
            let client = request.key().map_or(j % 2, |(key, _)| key % 2);
            clients[client].push(request);
        }
        round.epochs.push(clients);
        round.cached.push(cached.clone());
        id += 1;
        let outcome = model_invalidate(keys, expected, &mut cached, epoch, a, b);
        if let Ok((_, evicted, recertified)) = outcome {
            round.evicted += evicted;
            round.recertified += recertified;
        }
        round.invalidates.push(Request {
            id,
            line: format!("{{\"id\":{id},\"op\":\"invalidate\",\"links\":[[{a},{b}]]}}"),
            kind: Kind::Invalidate(outcome),
        });
    }
    round
}

/// The service's invalidation rule applied to the model: ids must be
/// below the largest cached node count; plans on topologies with the
/// link are examined, and evicted when they route demand over it.
fn model_invalidate(
    keys: &[Key],
    expected: &[KeyExpect],
    cached: &mut [bool],
    delta: usize,
    a: u32,
    b: u32,
) -> Result<(u64, u64, u64), &'static str> {
    let max_nodes = keys
        .iter()
        .zip(cached.iter())
        .filter(|(_, &c)| c)
        .map(|(k, _)| k.nodes())
        .max();
    if let Some(nodes) = max_nodes {
        if a.max(b) as usize >= nodes {
            return Err("bad-request");
        }
    }
    let (mut examined, mut evicted) = (0, 0);
    for i in 0..keys.len() {
        if cached[i] && expected[i].examine_mask & (1 << delta) != 0 {
            examined += 1;
            if expected[i].evict_mask & (1 << delta) != 0 {
                evicted += 1;
                cached[i] = false;
            }
        }
    }
    Ok((examined, evicted, examined - evicted))
}

/// Everything set-up builds: registries, the benchmark-side scenario of
/// every key, the expected plans and the request stream.
pub struct Setup {
    /// Registries for the breakdown's algorithms.
    pub regs: SweepRegistries,
    /// The ranked keys.
    pub keys: Vec<Key>,
    /// Scenario per key.
    pub scenarios: Vec<Arc<Scenario>>,
    /// Expected plan per key.
    pub expected: Vec<KeyExpect>,
    /// Pre-generated rounds (round `r` runs `rounds[r % len]`).
    pub rounds: Vec<Round>,
}

/// Rounds generated at set-up.
const ROUNDS: u64 = 8;

/// The expected plan of every key: the stored ones, and the `rand-perm`
/// keys, whose spec follows the workload seed, planned with a cache-less
/// `Planner`. This is the benchmark's reference, not the service's
/// set-up, so it is made once and `setup_s` leaves it out.
///
/// # Errors
///
/// A missing or malformed stored value, or a key that cannot be planned.
pub fn expectations(opts: &Options) -> Result<Vec<KeyExpect>, String> {
    let stored = Expected::load(&opts.expected_path())?;
    let regs = SweepRegistries::standard();
    let untraced = &mut Tracer::new(false, Instant::now());
    universe(opts.scale, &rand_perm_spec(opts.seed))
        .iter()
        .map(|key| {
            if key.seeded() {
                let (scenario, _, _) =
                    sweep::build_scenario(&regs, key.width, key.height, &key.workload, untraced)?;
                reference(&regs, key, &scenario)
            } else {
                let fields = stored
                    .get(&key.label())
                    .ok_or_else(|| format!("{}: no expected value stored", key.label()))?;
                parse_expect(&key.label(), fields)
            }
        })
        .collect()
}

/// Builds the set-up. `tr` records the topology, workload and scenario
/// builds.
///
/// # Errors
///
/// A key that cannot be built.
pub fn setup(
    opts: &Options,
    expected: &[KeyExpect],
    tr: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Setup, String> {
    let regs = SweepRegistries::standard();
    let keys = universe(opts.scale, &rand_perm_spec(opts.seed));
    let mut built: HashMap<(u16, String), Arc<Scenario>> = HashMap::new();
    let mut scenarios = Vec::with_capacity(keys.len());
    for key in &keys {
        let scenario = match built.get(&(key.width, key.workload.clone())) {
            Some(s) => s.clone(),
            None => {
                let s = Arc::new(build_scenario(&regs, key, tr, outcome)?);
                built.insert((key.width, key.workload.clone()), s.clone());
                s
            }
        };
        scenarios.push(scenario);
    }
    let rounds = (0..ROUNDS)
        .map(|r| generate_round(opts.seed, r, &keys, expected, opts.scale))
        .collect();
    Ok(Setup {
        regs,
        keys,
        scenarios,
        expected: expected.to_vec(),
        rounds,
    })
}

fn build_scenario(
    regs: &SweepRegistries,
    key: &Key,
    tr: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Scenario, String> {
    let (scenario, flows, edges) =
        sweep::build_scenario(regs, key.width, key.height, &key.workload, tr)?;
    if tr.enabled() {
        outcome.add("workloads.flows", flows as f64);
        outcome.add("cdg.edges", edges as f64);
    }
    Ok(scenario)
}

fn algorithm<'r>(
    regs: &'r SweepRegistries,
    key: &Key,
) -> Result<&'r (dyn RouteAlgorithm + Send + Sync), String> {
    regs.algorithms
        .get(key.algorithm)
        .ok_or_else(|| format!("unknown algorithm '{}'", key.algorithm))
}

/// The expected plan of `key`, planned directly with a cache-less
/// `Planner` (for keys whose spec depends on the seed, and to record
/// the stored ones).
fn reference(regs: &SweepRegistries, key: &Key, scenario: &Scenario) -> Result<KeyExpect, String> {
    let plan = Planner::new()
        .plan(scenario, algorithm(regs, key)?)
        .map_err(|e| format!("{}: {e}", key.label()))?;
    let topo = plan.topology();
    let (mut examine_mask, mut evict_mask) = (0, 0);
    for (d, &(a, b)) in DELTAS.iter().enumerate() {
        let links: Vec<_> = [(a, b), (b, a)]
            .iter()
            .filter_map(|&(s, t)| topo.find_link(NodeId(s), NodeId(t)))
            .collect();
        if !links.is_empty() {
            examine_mask |= 1 << d;
        }
        if links.iter().any(|l| plan.link_demands()[l.index()] > 0.0) {
            evict_mask |= 1 << d;
        }
    }
    Ok(KeyExpect {
        plan: plan.id().to_string(),
        mcl: expect::float(plan.predicted_mcl()),
        flows: plan.flows().len(),
        examine_mask,
        evict_mask,
    })
}

fn parse_expect(label: &str, fields: &[String]) -> Result<KeyExpect, String> {
    match fields {
        [plan, mcl, flows, examine, evict] => Ok(KeyExpect {
            plan: plan.clone(),
            mcl: mcl.clone(),
            flows: flows
                .parse()
                .map_err(|_| format!("{label}: bad flow count"))?,
            examine_mask: examine
                .parse()
                .map_err(|_| format!("{label}: bad examine mask"))?,
            evict_mask: evict
                .parse()
                .map_err(|_| format!("{label}: bad evict mask"))?,
        }),
        _ => Err(format!("{label}: expected 5 fields, got {}", fields.len())),
    }
}

/// What one client measured in one round.
struct ClientRun {
    outcome: Outcome,
    samples: Samples,
    tracer: Tracer,
    /// Time in traced breakdowns, left out of the round's time.
    breakdown: Duration,
    /// Time in certificate checks and repeated set-ups, left out of the
    /// round's time.
    untimed: Duration,
    /// Cache lookups (all hits) the certificate checks made.
    lookups: u64,
    /// Plans whose certificate was verified.
    verified: u64,
}

/// The default `bsor-serve` configuration: 256 plans over 8 shards.
fn service() -> PlanService {
    PlanService::new(ServeConfig {
        cache: PlanCacheConfig::new().max_plans(256).shards(8),
        ..ServeConfig::default()
    })
}

/// Handles `line` as `handle_line` does, with spans around parsing,
/// handling and rendering. Evaluate and invalidate requests also get a
/// span named after what they do around the handling.
fn handle_traced(service: &PlanService, line: &str, kind: &Kind, tr: &mut Tracer) -> String {
    let parsed = tr.span("json.parse", || Json::parse(line.trim()));
    let id = parsed
        .as_ref()
        .ok()
        .and_then(|req| req.get("id").cloned())
        .unwrap_or(Json::Null);
    let outcome = match parsed {
        Ok(request) => {
            let what = match kind {
                Kind::Static { .. } => Some("eval.static"),
                Kind::Sim { .. } => Some("eval.sim"),
                Kind::Invalidate(_) => Some("cache.invalidate"),
                _ => None,
            };
            let open = what.map(|name| tr.begin(name));
            let result = tr.span("serve.handle", || service.handle(&request));
            if let Some(open) = open {
                tr.end(open);
            }
            result
        }
        Err(e) => Err(ServeError::from(e)),
    };
    tr.span("json.render", || {
        let body = match outcome {
            Ok(result) => vec![("id", id), ("ok", Json::Bool(true)), ("result", result)],
            Err(e) => vec![
                ("id", id),
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::object(vec![
                        ("code", Json::from(e.code())),
                        ("message", Json::from(e.to_string())),
                    ]),
                ),
            ],
        };
        Json::object(body).compact()
    })
}

/// Checks one response; returns the problems found.
fn check_response(
    request: &Request,
    response: &str,
    expected: &[KeyExpect],
    samples: &mut Samples,
    latency_s: f64,
    outcome: &mut Outcome,
) -> Vec<String> {
    let mut problems = Vec::new();
    let Ok(json) = Json::parse(response) else {
        return vec![format!("unparseable response {response}")];
    };
    let ok = json.get("ok").and_then(Json::as_bool) == Some(true);
    let code = json
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    if let Some(&(_, counter)) = crate::SERVE_ERRORS.iter().find(|(c, _)| Some(*c) == code) {
        outcome.add(counter, 1.0);
    }
    let echoed = json.get("id").and_then(Json::as_u64);
    let has_id = !matches!(request.kind, Kind::Malformed { has_id: false, .. });
    if has_id && echoed != Some(request.id) {
        problems.push(format!("id {:?} echoed as {echoed:?}", request.id));
    }
    let result = json.get("result");
    let field = |name: &str| result.and_then(|r| r.get(name));
    // Every keyed request must be served the expected plan.
    let served_plan = |key: usize, problems: &mut Vec<String>| {
        let want = &expected[key];
        if !ok {
            problems.push(format!("error {code:?} for a valid request"));
            return false;
        }
        let plan = field("plan").and_then(Json::as_str);
        let mcl = field("predicted_mcl")
            .and_then(Json::as_f64)
            .map(expect::float);
        if plan != Some(want.plan.as_str()) || mcl.as_deref() != Some(want.mcl.as_str()) {
            problems.push(format!(
                "plan {plan:?} mcl {mcl:?}, expected {} {}",
                want.plan, want.mcl
            ));
        }
        true
    };
    match &request.kind {
        Kind::Plan { key, .. } => {
            if served_plan(*key, &mut problems) {
                let flows = field("flows").and_then(Json::as_u64);
                if flows != Some(expected[*key].flows as u64) {
                    problems.push(format!("flows {flows:?}"));
                }
            }
        }
        Kind::Static { key, .. } => {
            if served_plan(*key, &mut problems)
                && field("backend").and_then(Json::as_str) != Some("static-mcl")
            {
                problems.push("static evaluation from another backend".to_owned());
            }
        }
        Kind::Sim { key, hit } => {
            if served_plan(*key, &mut problems) {
                let cycles = field("cycles").and_then(Json::as_u64).unwrap_or(0);
                let delivered = field("delivered").and_then(Json::as_u64).unwrap_or(0);
                let deadlocked = field("deadlocked").and_then(Json::as_bool);
                if cycles != SIM_WARMUP + SIM_MEASUREMENT
                    || delivered == 0
                    || deadlocked != Some(false)
                {
                    problems.push(format!(
                        "sim cycles {cycles} delivered {delivered} deadlocked {deadlocked:?}"
                    ));
                }
                // A miss also pays for the solve; only hits time the
                // simulation.
                if *hit {
                    samples.current.sim_cycles += cycles as f64;
                    samples.current.sim_flits += (delivered * PACKET_LEN) as f64;
                    samples.current.sim_s += latency_s;
                }
            }
        }
        Kind::Stats => {
            if !ok || field("hits").and_then(Json::as_u64).is_none() {
                problems.push("stats without counters".to_owned());
            }
        }
        Kind::Malformed { code: want, .. } => {
            if ok || code != Some(*want) {
                problems.push(format!("code {code:?}, expected {want}"));
            }
        }
        Kind::Invalidate(Ok((examined, evicted, recertified))) => {
            let got = (
                field("examined").and_then(Json::as_u64),
                field("evicted").and_then(Json::as_u64),
                field("recertified").and_then(Json::as_u64),
            );
            if !ok || got != (Some(*examined), Some(*evicted), Some(*recertified)) {
                problems.push(format!(
                    "invalidate {got:?}, expected ({examined}, {evicted}, {recertified})"
                ));
            }
        }
        Kind::Invalidate(Err(want)) => {
            if ok || code != Some(*want) {
                problems.push(format!("invalidate code {code:?}, expected {want}"));
            }
        }
    }
    problems
}

/// Sends one request, times it, checks the response and (traced) runs
/// the breakdown.
fn send(setup: &Setup, service: &PlanService, request: &Request, trace: bool, run: &mut ClientRun) {
    let tr = &mut run.tracer;
    tr.set_op(request.id);
    let op = tr.begin("op");
    let started = Instant::now();
    let response = if trace {
        handle_traced(service, &request.line, &request.kind, tr)
    } else {
        service.handle_line(&request.line)
    };
    let latency_s = started.elapsed().as_secs_f64();
    tr.end(op);
    let latency_ms = latency_s * 1e3;
    let samples = &mut run.samples;
    samples.current.ops += 1.0;
    samples.current.request_ms.push(latency_ms);
    match request.key() {
        Some((_, true)) => samples.current.hit_ms.push(latency_ms),
        Some((_, false)) => samples.current.miss_ms.push(latency_ms),
        None => {}
    }
    let mut problems = check_response(
        request,
        &response,
        &setup.expected,
        &mut run.samples,
        latency_s,
        &mut run.outcome,
    );
    if let (true, Some((key, hit))) = (trace, request.key()) {
        let t = Instant::now();
        if let Err(e) = breakdown(setup, key, hit, &mut run.tracer, &mut run.outcome) {
            problems.push(e);
        }
        run.breakdown += t.elapsed();
    }
    run.outcome
        .record(&format!("request {}", request.id), problems);
}

/// The traced breakdown of a keyed request: the plan key of a hit, or
/// the planning stages of a miss (checked against the expected plan).
fn breakdown(
    setup: &Setup,
    key: usize,
    hit: bool,
    tr: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let scenario = &*setup.scenarios[key];
    let k = &setup.keys[key];
    let algorithm = algorithm(&setup.regs, k)?;
    if hit {
        tr.span("plan.key", || {
            PlanKey::new(scenario, &algorithm.cache_key())
        });
        return Ok(());
    }
    let open = tr.begin("stages");
    let stages = plan_stages(scenario, algorithm, selector_span(k.algorithm), tr);
    tr.end(open);
    let stages = stages?;
    outcome.add("select.flows", stages.routes.len() as f64);
    outcome.add(
        "certify.dependencies",
        stages.certificate.dependencies() as f64,
    );
    outcome.add(
        "tables.bytes",
        bsor_routing::tables::RouteTables::table_bytes(&stages.tables) as f64,
    );
    let want = &setup.expected[key];
    if stages.id.to_string() != want.plan || expect::float(stages.mcl) != want.mcl {
        return Err(format!(
            "{}: staged plan {} mcl {} differs from the served {} {}",
            k.label(),
            stages.id,
            stages.mcl,
            want.plan,
            want.mcl
        ));
    }
    Ok(())
}

/// Verifies the deadlock certificate of every plan the service holds at
/// the end of epoch `epoch` and has not been verified since it was
/// solved. Every solve makes a new plan, so each is verified once; the
/// weak handles keep no evicted plan alive.
fn verify_cached(
    setup: &Setup,
    service: &PlanService,
    round: &Round,
    epoch: usize,
    verified: &mut [Weak<RoutePlan>],
    run: &mut ClientRun,
) {
    let mut problems = Vec::new();
    for (i, key) in setup.keys.iter().enumerate() {
        if !round.cached[epoch][i] {
            continue;
        }
        let plan_key = match algorithm(&setup.regs, key) {
            Ok(a) => PlanKey::new(&setup.scenarios[i], &a.cache_key()),
            Err(e) => {
                problems.push(e);
                continue;
            }
        };
        run.lookups += 1;
        let Some(plan) = service.cache().get(&plan_key) else {
            problems.push(format!("{}: plan missing from the cache", key.label()));
            continue;
        };
        if Weak::ptr_eq(&verified[i], &Arc::downgrade(&plan)) {
            continue;
        }
        if !plan.certificate().verify(plan.routes()) {
            problems.push(format!(
                "{}: deadlock certificate does not verify",
                key.label()
            ));
        }
        run.verified += 1;
        verified[i] = Arc::downgrade(&plan);
    }
    run.outcome
        .record(&format!("epoch {epoch} certificates"), problems);
}

/// Makes the set-up again, untraced, and records its time: repeated at
/// every barrier, the set-ups sample the machine across the whole run,
/// so their median is steadier than that of a burst at the start.
fn setup_again(opts: &Options, setup: &Setup, run: &mut ClientRun) {
    let untraced = &mut Tracer::new(false, Instant::now());
    let t = Instant::now();
    let again = self::setup(opts, &setup.expected, untraced, &mut Outcome::default());
    run.samples.setup_s.push(t.elapsed().as_secs_f64());
    let problems = again.err().into_iter().collect();
    run.outcome.record("repeated set-up", problems);
}

/// One client's share of a round.
fn client(
    opts: &Options,
    setup: &Setup,
    round: &Round,
    index: usize,
    service: &PlanService,
    barrier: &Barrier,
    origin: Instant,
) -> ClientRun {
    let trace = opts.trace;
    let mut run = ClientRun {
        outcome: Outcome::default(),
        samples: Samples::default(),
        tracer: Tracer::new(trace, origin),
        breakdown: Duration::ZERO,
        untimed: Duration::ZERO,
        lookups: 0,
        verified: 0,
    };
    let mut verified: Vec<Weak<RoutePlan>> = (0..setup.keys.len()).map(|_| Weak::new()).collect();
    for (epoch, (clients, invalidate)) in round.epochs.iter().zip(&round.invalidates).enumerate() {
        for request in &clients[index] {
            send(setup, service, request, trace, &mut run);
        }
        barrier.wait();
        if index == 0 {
            let t = Instant::now();
            verify_cached(setup, service, round, epoch, &mut verified, &mut run);
            setup_again(opts, setup, &mut run);
            run.untimed += t.elapsed();
            send(setup, service, invalidate, trace, &mut run);
        }
        barrier.wait();
    }
    run
}

/// Runs `serve-mix`.
///
/// # Errors
///
/// Set-up failed.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.write_expected {
        return write_expected(opts);
    }
    let mut outcome = Outcome::default();
    let origin = Instant::now();
    let expected = expectations(opts)?;
    let mut tr = Tracer::new(opts.trace, origin);
    let t = Instant::now();
    let setup = setup(opts, &expected, &mut tr, &mut outcome)?;
    outcome.samples.setup_s.push(t.elapsed().as_secs_f64());

    let need_misses = crate::stats::tail_min_samples(opts.workload.tail_percentile());
    let phase = Instant::now();
    let mut round_index = 0;
    loop {
        let round_started = Instant::now();
        let round = &setup.rounds[round_index % setup.rounds.len()];
        round_index += 1;
        let service = service();
        let barrier = Barrier::new(2);
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let (setup, service, barrier) = (&setup, &service, &barrier);
                    s.spawn(move || client(opts, setup, round, c, service, barrier, origin))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let (mut round_breakdown, mut untimed, mut lookups, mut verified) =
            (Duration::ZERO, Duration::ZERO, 0, 0);
        for run in runs {
            round_breakdown = round_breakdown.max(run.breakdown);
            untimed += run.untimed;
            outcome.samples.setup_s.extend(&run.samples.setup_s);
            lookups += run.lookups;
            verified += run.verified;
            outcome.merge(run.outcome);
            tr.absorb(run.tracer);
            outcome.samples.current.absorb(run.samples.current);
        }
        let stats = service.cache().stats();
        outcome.samples.current.plan_flows += round.solved_flows as f64;
        outcome.samples.current.plan_s += stats.solve_ns_total as f64 / 1e9;
        outcome.samples.end_pass(
            round_started
                .elapsed()
                .saturating_sub(untimed + round_breakdown)
                .as_secs_f64(),
        );
        // The certificate checks' lookups are hits the stream did not make.
        let hits = stats.hits.saturating_sub(lookups);
        let got = (
            hits,
            stats.misses,
            stats.solves,
            stats.dedup_waits,
            stats.evicted_invalidated,
            stats.recertified,
            verified,
        );
        let want = (
            round.hits,
            round.misses,
            round.misses,
            0,
            round.evicted,
            round.recertified,
            round.misses,
        );
        let problems = if got == want {
            Vec::new()
        } else {
            vec![format!(
                "cache (hits, misses, solves, dedup waits, evicted, recertified) and \
                 verified plans = {got:?}, expected {want:?}"
            )]
        };
        outcome.record(&format!("round {round_index} counters"), problems);
        if opts.trace {
            outcome.add("cache.hits", hits as f64);
            outcome.add("cache.misses", stats.misses as f64);
            outcome.add("cache.dedup_waits", stats.dedup_waits as f64);
            outcome.add("cache.solves", stats.solves as f64);
            outcome.add("cache.solve_ms", stats.solve_ns_total as f64 / 1e6);
            outcome.add(
                "cache.evicted_invalidated",
                stats.evicted_invalidated as f64,
            );
            outcome.add("cache.recertified", stats.recertified as f64);
            outcome.max("cache.bytes", stats.bytes as f64);
        }
        // A round without misses cannot bring the run nearer the count
        // the tail needs; the run then reports the shortfall.
        let misses = outcome.samples.pooled(|p| &p.miss_ms).len();
        let enough = misses >= need_misses || round.misses == 0;
        if phase.elapsed().as_secs_f64() >= opts.seconds && enough {
            break;
        }
    }
    outcome.spans = tr.spans().to_vec();
    Ok(outcome)
}

/// Records the expected plan of every fixed key of both scales.
fn write_expected(opts: &Options) -> Result<Outcome, String> {
    let regs = SweepRegistries::standard();
    let mut recorder = Expected::recorder();
    let mut outcome = Outcome::default();
    let mut tr = Tracer::new(false, Instant::now());
    let mut keys = universe(Scale::Full, "");
    keys.extend(universe(Scale::Smoke, ""));
    for key in keys
        .iter()
        .filter(|k| !k.seeded() && !k.workload.is_empty())
    {
        let scenario = build_scenario(&regs, key, &mut tr, &mut outcome)?;
        let e = reference(&regs, key, &scenario)?;
        recorder.check(
            &key.label(),
            vec![
                e.plan,
                e.mcl,
                e.flows.to_string(),
                e.examine_mask.to_string(),
                e.evict_mask.to_string(),
            ],
        )?;
        outcome.record(&key.label(), Vec::new());
    }
    recorder.write(
        &opts.expected_path(),
        "Expected plans of serve-mix keys: plan id, predicted MCL (MB/s), flow count\n\
         and the examine and evict masks (bit d set: invalidation delta d examines,\n\
         or evicts, the plan).\n\
         rand-perm keys depend on the workload seed and are planned at set-up.\n\
         Regenerate with: perfbench --workload serve-mix --write-expected",
    )?;
    Ok(outcome)
}

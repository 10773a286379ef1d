//! `bsor-serve-bench` — multi-client load driver for the `bsor-serve`
//! plan service, writing `BENCH_serve.json`.
//!
//! Three phases over a Zipf-distributed key universe (every key is a
//! distinct `(topology, workload, algorithm, vcs)` scenario):
//!
//! 1. **Cached replay** — N client threads hammer one shared
//!    [`PlanService`] with seeded Zipf draws; reports throughput and
//!    the cache hit rate (the single-flight sharded cache should make
//!    all but one request per unique key a lookup).
//! 2. **Uncached replay** — the *identical* clients and draw sequences
//!    run the full per-request pipeline (topology, workload, scenario,
//!    route solve) through a cache-less `Planner`, the cost the
//!    service exists to amortize; the throughput ratio is the headline
//!    speedup.
//! 3. **Invalidate selectivity** — fill a fresh service with every key,
//!    fail one physical link, and replay the universe: the re-solve
//!    count must equal the eviction count (survivors were re-certified,
//!    not re-planned).
//!
//! The driver exits non-zero if the run misses the service's headline
//! targets (hit rate > 90%, cached throughput >= 5x uncached,
//! selective invalidation), so CI can run it as an assertion.
//!
//! ```text
//! cargo run -p bsor_bench --release --bin bsor-serve-bench -- [options]
//!
//!   --clients N     client threads                  (default 4)
//!   --requests N    requests per client per phase   (default 600)
//!   --seed N        Zipf draw seed                  (default 46347)
//!   --quick         CI smoke sizing (2 clients, 1000 requests)
//!   --out PATH      output path                     (default BENCH_serve.json)
//! ```

#![forbid(unsafe_code)]

use bsor_bench::json::Json;
use bsor_bench::serve::{PlanService, ServeConfig};
use bsor_bench::sweep::SweepRegistries;
use bsor_sim::{Planner, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

/// One entry of the key universe: a distinct plannable scenario.
#[derive(Clone)]
struct Key {
    workload: String,
    algorithm: &'static str,
    width: u16,
    height: u16,
    vcs: u8,
}

impl Key {
    fn request(&self) -> String {
        format!(
            r#"{{"op":"plan","topology":"mesh","width":{},"height":{},"workload":"{}","algorithm":"{}","vcs":{}}}"#,
            self.width, self.height, self.workload, self.algorithm, self.vcs
        )
    }
}

/// The benchmark's 27-key universe: nine workload specs by three
/// scalable algorithms on the paper's 8x8 substrate (uniform-random is
/// left out — its 240-flow matrix makes `bsor-dijkstra` a seconds-long
/// outlier that would swamp every other key's cost).
fn key_universe() -> Vec<Key> {
    let workloads = [
        "transpose",
        "bit-complement",
        "shuffle",
        "tornado",
        "bit-reversal",
        "neighbor",
        "hotspot:4",
        "rand-perm:7",
        "rand-perm:4242",
    ];
    let algorithms = ["xy", "yx", "bsor-dijkstra"];
    let mut keys = Vec::new();
    for workload in workloads {
        for algorithm in algorithms {
            keys.push(Key {
                workload: workload.to_string(),
                algorithm,
                width: 8,
                height: 8,
                vcs: 2,
            });
        }
    }
    keys
}

/// Zipf(s = 1.1) sampler over `n` ranks: precomputed cumulative weights
/// walked with one uniform draw.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(1.1);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty universe");
        let draw = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= draw)
    }
}

struct Options {
    clients: usize,
    requests: usize,
    seed: u64,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        clients: 4,
        requests: 600,
        seed: 46347,
        out: "BENCH_serve.json".to_string(),
    };
    if args.iter().any(|a| a == "--quick") {
        options.clients = 2;
        options.requests = 1000;
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parse = |name: &str, raw: String| -> Result<usize, String> {
            raw.parse().map_err(|_| format!("bad {name} '{raw}'"))
        };
        match arg.as_str() {
            "--quick" => {}
            "--clients" => {
                options.clients = parse("--clients", value("--clients")?)?;
                if options.clients == 0 {
                    return Err("--clients needs at least one client".to_string());
                }
            }
            "--requests" => options.requests = parse("--requests", value("--requests")?)?,
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--out" => options.out = value("--out")?,
            "--help" | "-h" => {
                println!("bsor-serve-bench: load driver writing BENCH_serve.json");
                println!();
                println!("options: --clients N --requests N --seed N --quick");
                println!("         --out PATH --help");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok(options)
}

/// Phase 1: N clients replay Zipf draws against one shared service.
fn cached_replay(options: &Options, keys: &[Key], zipf: &Zipf) -> (Json, f64, f64) {
    let service = PlanService::new(ServeConfig::default());
    let requests: Vec<String> = keys.iter().map(Key::request).collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..options.clients {
            let (service, requests) = (&service, &requests);
            let mut rng = StdRng::seed_from_u64(options.seed.wrapping_add(client as u64));
            scope.spawn(move || {
                for _ in 0..options.requests {
                    let response = service.handle_line(&requests[zipf.sample(&mut rng)]);
                    assert!(response.contains(r#""ok":true"#), "plan failed: {response}");
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats = service.cache().stats();
    let total = (options.clients * options.requests) as f64;
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses) as f64;
    let rps = total / elapsed;
    let json = Json::object(vec![
        ("clients", Json::from(options.clients)),
        ("requests", Json::from(total)),
        ("elapsed_s", Json::from(elapsed)),
        ("requests_per_s", Json::from(rps)),
        ("hit_rate", Json::from(hit_rate)),
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("solves", Json::from(stats.solves)),
        ("dedup_waits", Json::from(stats.dedup_waits)),
        ("plans", Json::from(stats.plans)),
        ("bytes", Json::from(stats.bytes)),
    ]);
    (json, rps, hit_rate)
}

/// Phase 2: the identical Zipf draws pay the full pipeline per request.
fn uncached_replay(options: &Options, keys: &[Key], zipf: &Zipf) -> (Json, f64) {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..options.clients {
            let mut rng = StdRng::seed_from_u64(options.seed.wrapping_add(client as u64));
            scope.spawn(move || {
                let regs = SweepRegistries::standard();
                let planner = Planner::new();
                for _ in 0..options.requests {
                    let key = &keys[zipf.sample(&mut rng)];
                    let topo = regs
                        .topologies
                        .build("mesh", key.width, key.height)
                        .expect("mesh builds");
                    let workload = regs
                        .workloads
                        .build(&topo, &key.workload)
                        .expect("universe workloads build");
                    let scenario = Scenario::builder(topo, workload.flows)
                        .named(&key.workload)
                        .vcs(key.vcs)
                        .build()
                        .expect("universe scenarios build");
                    let algorithm = regs
                        .algorithms
                        .get(key.algorithm)
                        .expect("universe algorithms resolve");
                    planner
                        .plan(&scenario, algorithm)
                        .expect("universe keys plan");
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let total = (options.clients * options.requests) as f64;
    let rps = total / elapsed;
    let json = Json::object(vec![
        ("clients", Json::from(options.clients)),
        ("requests", Json::from(total)),
        ("elapsed_s", Json::from(elapsed)),
        ("requests_per_s", Json::from(rps)),
    ]);
    (json, rps)
}

/// Phase 3: fill a fresh service, fail one link, replay every key, and
/// count re-solves against evictions.
fn invalidate_selectivity(keys: &[Key]) -> (Json, bool) {
    let service = PlanService::new(ServeConfig::default());
    for key in keys {
        let response = service.handle_line(&key.request());
        assert!(response.contains(r#""ok":true"#), "fill failed: {response}");
    }
    let before = service.cache().stats();
    // Node 0 -> node 1: the first horizontal hop of the mesh, demanded
    // by most x-first routes but not all (YX plans survive via
    // re-certification).
    let response = service.handle_line(r#"{"op":"invalidate","links":[[0,1]]}"#);
    let outcome = Json::parse(&response).expect("valid invalidate response");
    let result = outcome.get("result").expect("invalidate succeeds").clone();
    let evicted = result.get("evicted").and_then(Json::as_u64).unwrap_or(0);
    for key in keys {
        service.handle_line(&key.request());
    }
    let after = service.cache().stats();
    let resolves = after.solves - before.solves;
    let selective = resolves == evicted && evicted > 0 && evicted < keys.len() as u64;
    let json = Json::object(vec![
        ("plans", Json::from(keys.len())),
        (
            "examined",
            result.get("examined").cloned().unwrap_or(Json::Null),
        ),
        ("evicted", Json::from(evicted)),
        (
            "recertified",
            result.get("recertified").cloned().unwrap_or(Json::Null),
        ),
        ("resolves_after_invalidate", Json::from(resolves)),
        ("selective", Json::Bool(selective)),
    ]);
    (json, selective)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("bsor-serve-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let keys = key_universe();
    let zipf = Zipf::new(keys.len());
    eprintln!(
        "bsor-serve-bench: {} keys, {} clients x {} requests per phase",
        keys.len(),
        options.clients,
        options.requests
    );
    let (cached, cached_rps, hit_rate) = cached_replay(&options, &keys, &zipf);
    eprintln!(
        "bsor-serve-bench: cached {cached_rps:.0} req/s, hit rate {:.1}%",
        hit_rate * 100.0
    );
    let (uncached, uncached_rps) = uncached_replay(&options, &keys, &zipf);
    let speedup = cached_rps / uncached_rps;
    eprintln!("bsor-serve-bench: uncached {uncached_rps:.0} req/s ({speedup:.1}x speedup)");
    let (invalidate, selective) = invalidate_selectivity(&keys);
    let doc = Json::object(vec![
        ("name", Json::from("bsor-serve-bench")),
        ("keys", Json::from(keys.len())),
        ("zipf_s", Json::from(1.1)),
        ("seed", Json::from(options.seed)),
        ("cached", cached),
        ("uncached", uncached),
        ("speedup", Json::from(speedup)),
        ("invalidate", invalidate),
    ]);
    if let Err(e) = std::fs::write(&options.out, doc.pretty()) {
        eprintln!("bsor-serve-bench: cannot write {}: {e}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!("bsor-serve-bench: wrote {}", options.out);
    // The headline targets double as CI assertions.
    let mut failed = false;
    if hit_rate <= 0.90 {
        eprintln!("bsor-serve-bench: FAIL hit rate {hit_rate:.3} <= 0.90");
        failed = true;
    }
    if speedup < 5.0 {
        eprintln!("bsor-serve-bench: FAIL speedup {speedup:.1}x < 5x");
        failed = true;
    }
    if !selective {
        eprintln!("bsor-serve-bench: FAIL invalidation was not selective");
        failed = true;
    }
    if failed {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

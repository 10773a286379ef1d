//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-bulk|sweep-bsor|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A run whose outputs differ from the expected ones exits 1.
//! Each run also writes its machine record, metrics, set-up and pass
//! times, miss latencies and (traced) spans under `.bench_out/`.
//!
//! Other flags: `--compare-trace` runs the workload untraced and traced
//! and prints the tracing overhead per end-to-end metric;
//! `--write-expected` records the expected outputs under
//! `perfbench/expected/`.

use bsor_bench::json::Json;
use bsor_perfbench::{
    end_to_end, peak_rss_mb, per_layer, result_json, trace, Metric, Options, Outcome, Scale,
    Workload,
};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn usage() -> String {
    "usage: perfbench --workload sweep-bulk|sweep-bsor|serve-mix --seed N --seconds S \
     --trace 0|1 [--compare-trace] [--write-expected]"
        .to_owned()
}

struct Cli {
    opts: Options,
    compare_trace: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::SweepBulk,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        expected_dir: PathBuf::from("perfbench/expected"),
        write_expected: false,
    };
    let mut compare_trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("bad --seconds".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--write-expected" => opts.write_expected = true,
            "--compare-trace" => compare_trace = true,
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    opts.workload = workload.ok_or_else(usage)?;
    Ok(Cli {
        opts,
        compare_trace,
    })
}

/// Output of a command, trimmed; `unknown` when it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine and build this run measured on.
fn machine_record(opts: &Options) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::object(vec![
        ("workload", Json::from(opts.workload.name())),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("nproc", Json::from(nproc)),
        ("profile", Json::from(profile)),
        (
            "commit",
            Json::from(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(command_output("rustc", &["-V"]))),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    Json::object(vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Writes the run record (and spans) under `.bench_out/`.
fn write_record(opts: &Options, machine: Json, metrics: &[Metric], outcome: &Outcome) {
    let dir = PathBuf::from(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let record = Json::object(vec![
        ("machine", machine),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(metrics)),
        ("setup_s", Json::from(outcome.samples.setup_s.clone())),
        (
            "pass_s",
            Json::from(
                outcome
                    .samples
                    .passes
                    .iter()
                    .map(|p| p.secs)
                    .collect::<Vec<f64>>(),
            ),
        ),
        (
            "miss_ms",
            Json::from(outcome.samples.pooled(|p| &p.miss_ms)),
        ),
    ]);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record.pretty()))
        .and_then(|()| {
            if opts.trace {
                std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    trace::to_json_lines(&outcome.spans),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the run record under .bench_out: {e}");
    }
}

/// Runs the workload untraced and traced in child processes and prints
/// the traced run's end-to-end metrics against the untraced ones.
fn compare_trace(opts: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let run = |trace: &str| -> Result<Json, String> {
        let out = Command::new(&exe)
            .args([
                "--workload",
                opts.workload.name(),
                "--seed",
                &opts.seed.to_string(),
                "--seconds",
                &opts.seconds.to_string(),
                "--trace",
                trace,
            ])
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("--trace {trace} run failed: {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = if trace == "0" {
            stdout.lines().last()
        } else {
            stdout
                .lines()
                .find_map(|l| l.strip_prefix("perfbench: traced end_to_end "))
        };
        let parsed = line.map(Json::parse).ok_or("no metrics printed")?;
        let json = parsed.map_err(|e| e.to_string())?;
        Ok(if trace == "0" {
            json.get("metrics").cloned().unwrap_or(Json::Null)
        } else {
            json
        })
    };
    let (plain, traced) = (run("0")?, run("1")?);
    println!(
        "{:<20} {:>16} {:>16} {:>10}",
        "metric", "untraced", "traced", "overhead"
    );
    for (name, _) in bsor_perfbench::END_TO_END {
        let value = |j: &Json| {
            j.get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        if let (Some(a), Some(b)) = (value(&plain), value(&traced)) {
            let overhead = if a != 0.0 { (b - a) / a * 100.0 } else { 0.0 };
            println!("{name:<20} {a:>16.4} {b:>16.4} {overhead:>9.1}%");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = cli.opts;
    if cli.compare_trace {
        return match compare_trace(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let machine = machine_record(&opts);
    println!("perfbench: machine {}", machine.compact());
    let outcome = match bsor_perfbench::run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.write_expected {
        println!(
            "perfbench: wrote {} ({} entries)",
            opts.expected_path().display(),
            outcome.attempted
        );
        return ExitCode::SUCCESS;
    }
    for failure in outcome.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {failure}");
    }
    let (e2e, tail) = end_to_end(&outcome, opts.workload, peak_rss_mb());
    let failed_ratio = if outcome.attempted > 0 {
        outcome.failed as f64 / outcome.attempted as f64
    } else {
        1.0
    };
    println!(
        "perfbench: {} seed {}: {} attempted, {} failed, failed_ratio {failed_ratio}; \
         miss_ms.tail is p{} of {} samples",
        opts.workload.name(),
        opts.seed,
        outcome.attempted,
        outcome.failed,
        tail.percentile,
        tail.samples
    );
    let metrics = if opts.trace {
        println!(
            "perfbench: traced end_to_end {}",
            metrics_json(&e2e).compact()
        );
        per_layer(&outcome)
    } else {
        e2e
    };
    for m in &metrics {
        println!("perfbench:   {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    write_record(&opts, machine, &metrics, &outcome);
    println!("{}", result_json(&outcome, &metrics));
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

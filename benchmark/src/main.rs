//! The repo's benchmark: five named workloads through the real `hybridd`
//! unix socket, end-to-end metrics from an untraced run and an outside-in
//! per-layer ledger from a traced one. See `README.md` beside this crate.
//!
//! ```text
//! hybrid-benchmark run   [--seed N] [--seconds S] [--trace] [--update-golden]
//! hybrid-benchmark run   --workload NAME --seed N --seconds S --trace 0|1
//! hybrid-benchmark agree [--runs N] [--seed N] [--seconds S]
//! hybrid-benchmark spread [--workload NAME] [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! With `--workload` the process runs that one workload and ends its
//! standard output with the one-line JSON result. Without it the process
//! re-executes itself once per workload (so peak memory and every cache
//! are per workload) and prints every metric by name with its unit;
//! `--trace` adds the traced set and the tracing overhead; `agree` runs two
//! sets and compares their medians with the benchmark's own bounds; `spread`
//! runs every workload on N consecutive seeds and prints each metric's
//! run-to-run spread beside its bound.

mod golden;
mod host;
mod layers;
mod metrics;
mod programs;
mod report;
mod rng;
mod run;
mod service;
mod stats;
mod table;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hybrid_bench::json::Json;

use crate::golden::{golden_path, Expected, Golden};
use crate::metrics::END_TO_END;
use crate::programs::Lane;
use crate::run::RunConfig;
use crate::service::{Pinned, Service};
use crate::table::Table;
use crate::trace::Tracer;
use crate::workload::{Class, Slot, Stream, Workload};

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;

/// Environment variables that silently change which simulator runs; a
/// benchmark taken with one of them set measures something else.
const FORBIDDEN_ENV: [&str; 2] = ["HYBRID_SIM_INTERPRET", "HYBRID_SIM_THREADS"];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Run,
    Agree,
    Spread,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    /// Runs per workload (and set) of `spread` and `agree`.
    runs: Option<usize>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    update_golden: bool,
}

fn usage() -> String {
    "usage: hybrid-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
     [--update-golden]\n       hybrid-benchmark agree [--runs N] [--seed N] [--seconds S]\n       \
     hybrid-benchmark spread [--workload NAME] [--runs N] [--seed N] [--seconds S]\n\
     workloads: cold_gallery warm_mem tune_simulated mixed_load table_repro"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::Run,
        runs: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        update_golden: false,
    };
    let mut it = args.iter().peekable();
    match it.next().map(String::as_str) {
        Some("run") => {}
        Some("agree") => parsed.mode = Mode::Agree,
        Some("spread") => parsed.mode = Mode::Spread,
        _ => return Err(usage()),
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                // `--trace 0|1` from the driver, a bare `--trace` by hand.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--update-golden" => parsed.update_golden = true,
            "--runs" => {
                parsed.runs = Some(
                    value("a number of runs")?
                        .parse()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or("--runs needs a whole number of at least 2")?,
                )
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    let plain = parsed.workload.is_none() && !parsed.trace && !parsed.update_golden;
    match parsed.mode {
        Mode::Run if parsed.runs.is_some() => {
            return Err("--runs belongs to spread and agree".to_string())
        }
        Mode::Agree if !plain => {
            return Err("agree takes only --runs, --seed and --seconds".to_string())
        }
        Mode::Spread if parsed.trace || parsed.update_golden => {
            return Err("spread takes only --workload, --runs, --seed and --seconds".to_string())
        }
        _ => {}
    }
    Ok(parsed)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_config(args: &Args, workload: Workload) -> RunConfig {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        bench_dir: bench_dir(),
        out_dir: bench_dir().join("out"),
        nproc,
        pinned: Pinned::for_host(nproc),
    }
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}

fn report_path(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir.join(format!(
        "report-{}-{}.json",
        cfg.workload.name(),
        if cfg.trace { "traced" } else { "untraced" }
    ))
}

/// One workload in this process; prints the result line last.
fn run_workload(cfg: &RunConfig) -> Result<(), String> {
    let origin = Instant::now();
    let (measured, layers, tracer) = if cfg.workload == Workload::TableRepro {
        let (measured, run) = run::run_table(cfg)?;
        let mut tracer = Tracer::new(origin);
        let layers = cfg
            .trace
            .then(|| layers::replay_table(cfg, &run, &measured, &mut tracer))
            .transpose()?;
        (measured, layers, tracer)
    } else {
        let (measured, mut service_run) = run::run_service(cfg)?;
        let mut tracer = Tracer::new(origin);
        let layers = cfg
            .trace
            .then(|| layers::replay_service(cfg, &mut service_run, &measured, &mut tracer))
            .transpose()?;
        let run::ServiceRun {
            service, clients, ..
        } = service_run;
        drop(clients);
        service.stop().map_err(|e| format!("service stop: {e}"))?;
        (measured, layers, tracer)
    };
    let e2e = report::end_to_end_values(&measured);
    let report = report::workload_report(cfg, &measured, &e2e, layers.as_ref());
    write_json(&report_path(cfg), &report)?;

    let e = &measured.end_to_end;
    let line = match &layers {
        None => report::result_line(e.attempted, e.failed, &e2e),
        Some(layers) => {
            let trace_doc = Json::obj(vec![
                ("workload", Json::str(cfg.workload.name())),
                ("meta", report::meta_json(cfg)),
                ("spans", tracer.to_json()),
            ]);
            let path = cfg
                .out_dir
                .join(format!("trace-{}.json", cfg.workload.name()));
            write_json(&path, &trace_doc)?;
            report::result_line(
                e.attempted + layers.sampled_ops,
                e.failed + layers.failures.len(),
                &report::layer_values(layers),
            )
        }
    };
    for failure in measured
        .failures()
        .chain(layers.iter().flat_map(|l| l.failures.iter().cloned()))
    {
        eprintln!("hybrid-benchmark: FAILED {failure}");
    }
    println!("{line}");
    Ok(())
}

/// Re-executes this binary for one workload and returns the report file
/// the child wrote.
fn run_child(args: &Args, workload: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cfg = RunConfig {
        trace,
        ..run_config(args, workload)
    };
    // A stale report from an earlier run must not be read as this one's.
    let _ = std::fs::remove_file(report_path(&cfg));
    let output = std::process::Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} run: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "the {} run ended with {}",
            workload.name(),
            output.status
        ));
    }
    let text = std::fs::read_to_string(report_path(&cfg))
        .map_err(|e| format!("{}: {e}", report_path(&cfg).display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", report_path(&cfg).display()))
}

/// One set of runs: every workload once, each in its own process.
fn run_set(args: &Args, trace: bool) -> Result<Vec<Json>, String> {
    Workload::ALL
        .into_iter()
        .map(|w| {
            eprintln!(
                "hybrid-benchmark: {} ({}, seed {}, {} s)",
                w.name(),
                if trace { "traced" } else { "untraced" },
                args.seed,
                args.seconds
            );
            run_child(args, w, trace)
        })
        .collect()
}

fn failed_ops(set: &[Json]) -> u64 {
    set.iter()
        .map(|r| r.get("failed").and_then(Json::as_u64).unwrap_or(0))
        .sum()
}

/// `run` without `--workload`: the whole benchmark, printed by name.
fn run_all(args: &Args) -> Result<bool, String> {
    let untraced = run_set(args, false)?;
    let traced = if args.trace {
        run_set(args, true)?
    } else {
        Vec::new()
    };
    let meta = report::meta_json(&run_config(args, Workload::ColdGallery));
    println!("meta {}", meta.render_compact());
    for (i, report) in untraced.iter().enumerate() {
        report::print_table(report, "end_to_end");
        let Some(traced) = traced.get(i) else {
            continue;
        };
        report::print_table(traced, "per_layer");
        // End-to-end numbers come from the untraced run only; the traced
        // run's throughput is shown against it as the tracing overhead.
        if let (Some(plain), Some(with_trace)) = (
            report::metric_of(report, "end_to_end", "ops_per_s"),
            report::metric_of(traced, "per_layer", "bench.trace.ops_per_s"),
        ) {
            println!(
                "  {:<34} {:>16.6} ratio",
                "trace_overhead_share",
                1.0 - with_trace / plain
            );
        }
    }
    // The per-op lists stay in the per-workload report files: a trajectory
    // point is compared with `git diff`.
    let summary = |set: &[Json]| {
        Json::Arr(
            set.iter()
                .map(|report| match report {
                    Json::Obj(pairs) => {
                        Json::Obj(pairs.iter().filter(|(k, _)| k != "ops").cloned().collect())
                    }
                    other => other.clone(),
                })
                .collect(),
        )
    };
    let doc = Json::obj(vec![
        ("meta", meta),
        ("untraced", summary(&untraced)),
        ("traced", summary(&traced)),
    ]);
    let path = bench_dir().join("out").join("BENCH_e2e.json");
    write_json(&path, &doc)?;
    println!("\nwrote {}", path.display());
    Ok(failed_ops(&untraced) + failed_ops(&traced) == 0)
}

/// One set of a workload's untraced runs: per end-to-end metric (in
/// [`END_TO_END`] order) its value in every run, and the failed ops.
#[derive(Clone, Default)]
struct RunSet {
    values: Vec<Vec<f64>>,
    /// The host's slowdown over the timed phase of every run.
    host_slowdown: Vec<f64>,
    failed: u64,
}

/// `sets` sets of `runs` untraced runs of one workload on consecutive seeds.
/// The sets alternate run by run (seed 1 of each set, then seed 2 of each,
/// ...), so the host's slow drift in speed falls on all of them alike.
fn seeded_runs(
    args: &Args,
    workload: Workload,
    runs: usize,
    sets: usize,
) -> Result<Vec<RunSet>, String> {
    let mut out = vec![
        RunSet {
            values: vec![Vec::new(); END_TO_END.len()],
            host_slowdown: Vec::new(),
            failed: 0,
        };
        sets
    ];
    for run in 0..runs {
        let seeded = Args {
            seed: args.seed + run as u64,
            ..*args
        };
        for set in &mut out {
            eprintln!(
                "hybrid-benchmark: {} (seed {}, {} s)",
                workload.name(),
                seeded.seed,
                seeded.seconds
            );
            let report = run_child(&seeded, workload, false)?;
            set.failed += failed_ops(std::slice::from_ref(&report));
            set.host_slowdown
                .extend(report.get("host_slowdown").and_then(Json::as_f64));
            for (metric, values) in END_TO_END.iter().zip(&mut set.values) {
                values.push(
                    report::metric_of(&report, "end_to_end", metric.name)
                        .ok_or_else(|| format!("{}: no {}", workload.name(), metric.name))?,
                );
            }
        }
    }
    Ok(out)
}

/// `agree`: two alternating sets of untraced runs of the same code on the
/// same seeds (`--runs` per workload and set, 3 unless given); their medians are
/// compared on every end-to-end metric × workload with the benchmark's own
/// bounds, the way the driver compares two sets of ten.
fn agree(args: &Args) -> Result<bool, String> {
    let runs = args.runs.unwrap_or(3);
    let mut all_agree = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>6}  verdict (medians of {runs})",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for workload in Workload::DRIVEN {
        let sets = seeded_runs(args, workload, runs, 2)?;
        let (first, second) = (&sets[0], &sets[1]);
        all_agree &= first.failed + second.failed == 0;
        for ((metric, first), second) in END_TO_END.iter().zip(&first.values).zip(&second.values) {
            let x = stats::median(first).expect("runs >= 2");
            let y = stats::median(second).expect("runs >= 2");
            let ok = stats::agrees(x, y, metric.better, metric.bound);
            all_agree &= ok;
            println!(
                "{:<16} {:<24} {x:>14.6} {y:>14.6} {:>7.2}% {:>5.0}%  {}",
                workload.name(),
                metric.name,
                100.0 * stats::worse_by(x, y, metric.better),
                100.0 * metric.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        println!(
            "{:<16} failed ops: {} and {}",
            workload.name(),
            first.failed,
            second.failed
        );
    }
    Ok(all_agree)
}

/// `spread`: every workload (or `--workload`) on `--runs` consecutive seeds
/// (10 unless given); for each end-to-end metric the distance between the
/// first and third quartile of its values as a share of their median
/// (Python's `statistics.quantiles(v, n=4)`), beside the metric's bound.
/// False when a spread exceeds its bound or an op failed.
fn spread(args: &Args) -> Result<bool, String> {
    let runs = args.runs.unwrap_or(10);
    let mut within = true;
    let workloads = args.workload.map_or(Workload::DRIVEN.to_vec(), |w| vec![w]);
    for workload in workloads {
        let RunSet {
            values,
            host_slowdown,
            failed,
        } = seeded_runs(args, workload, runs, 1)?.remove(0);
        within &= failed == 0;
        println!(
            "== {} ({runs} runs, seeds {}.., {failed} failed ops)",
            workload.name(),
            args.seed
        );
        for (metric, values) in END_TO_END.iter().zip(&values) {
            let spread = stats::quartile_spread(values).unwrap_or(f64::INFINITY);
            // The set-up time's spread is reported but not held to the bound.
            let ok = spread <= metric.bound || metric.name == "setup_s";
            within &= ok;
            println!(
                "  {:<24} median {:>12.4} {:<12} spread {:>6.2}%  bound {:>5.1}%  {}",
                metric.name,
                stats::median(values).unwrap_or(f64::NAN),
                metric.unit,
                100.0 * spread,
                100.0 * metric.bound,
                if !ok {
                    "OVER THE BOUND"
                } else if spread <= metric.bound / 3.0 {
                    "steady"
                } else {
                    "within the bound"
                }
            );
        }
        println!(
            "  {:<24} median {:>12.4} {:<12} spread {:>6.2}%  (the host's drift, divided out above)",
            "host_slowdown",
            stats::median(&host_slowdown).unwrap_or(f64::NAN),
            "ratio",
            100.0 * stats::quartile_spread(&host_slowdown).unwrap_or(f64::NAN),
        );
    }
    Ok(within)
}

/// `run --update-golden`: compiles every class any workload can issue, and
/// every table cell, once, and rewrites `golden/expected.json`.
fn update_golden(args: &Args) -> Result<(), String> {
    let cfg = run_config(args, Workload::WarmMem);
    let service = Service::start(&cfg.out_dir, "golden", cfg.pinned)
        .map_err(|e| format!("service start: {e}"))?;
    let mut client = service.connect().map_err(|e| format!("connect: {e}"))?;
    let mut golden = Golden::default();
    let mut stream = Stream::new(Workload::WarmMem, args.seed, Lane::WarmUp);
    for workload in Workload::ALL {
        // Two blocks: odd blocks swap the devices.
        let classes: Vec<Class> = Stream::new(workload, args.seed, Lane::Conn(0))
            .take(2 * workload.block().len())
            .map(|op| op.slot.class)
            .collect();
        for class in classes {
            if golden.programs.contains_key(&class.key()) {
                continue;
            }
            // Expected outputs do not depend on the seeded coefficient, so
            // the example file itself stands for its whole class.
            let slot = Slot {
                class,
                cold: false,
                deadline_ms: None,
            };
            let op = stream.op_for(slot, golden.programs.len(), 0);
            let response = client
                .call(&op.line)
                .map_err(|e| format!("{}: {e}", op.id))?;
            let expected = Expected::from_response(&response)
                .filter(|_| response.get("verified").and_then(Json::as_bool) == Some(true))
                .ok_or_else(|| format!("{}: {}", class.key(), response.render_compact()))?;
            eprintln!("hybrid-benchmark: {} -> {expected:?}", class.key());
            golden.programs.insert(class.key(), expected);
        }
    }
    drop(client);
    service.stop().map_err(|e| format!("service stop: {e}"))?;

    let table = Table::new();
    let device = gpusim::DeviceConfig::gtx470();
    for cell in table.cells() {
        let g = table.measure(cell, &device).gstencils;
        eprintln!("hybrid-benchmark: {} -> {g}", table.key(cell));
        golden.table.insert(table.key(cell), g);
    }
    let path = golden_path(&cfg.bench_dir);
    std::fs::write(&path, golden.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    for name in FORBIDDEN_ENV {
        if std::env::var_os(name).is_some() {
            eprintln!(
                "hybrid-benchmark: refusing to run with {name} set: it changes which simulator \
                 the service runs, and the numbers would not be this benchmark's"
            );
            return ExitCode::from(2);
        }
    }
    let outcome = if args.mode == Mode::Agree {
        agree(&args)
    } else if args.mode == Mode::Spread {
        spread(&args)
    } else if args.update_golden {
        update_golden(&args).map(|()| true)
    } else if let Some(workload) = args.workload {
        // Failed ops are reported in the result line, not the exit code.
        run_workload(&run_config(&args, workload)).map(|()| true)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("hybrid-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&argv(
            "run --workload warm_mem --seed 7 --seconds 15 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::WarmMem));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, false));
        let a = parse_args(&argv("run --workload table_repro --trace 1 --seed 2")).unwrap();
        assert!(a.trace);
        assert_eq!(a.seed, 2);
    }

    #[test]
    fn bare_trace_and_errors() {
        let a = parse_args(&argv("run --trace --seed 3")).unwrap();
        assert!(a.trace && a.workload.is_none());
        assert_eq!(a.seed, 3);
        assert_eq!(
            parse_args(&argv("agree --seed 4")).unwrap().mode,
            Mode::Agree
        );
        assert!(parse_args(&argv("agree --trace")).is_err());
        let s = parse_args(&argv("spread --runs 4 --seconds 5")).unwrap();
        assert_eq!((s.mode, s.runs, s.seconds), (Mode::Spread, Some(4), 5.0));
        assert!(parse_args(&argv("spread --runs 1")).is_err());
        assert!(parse_args(&argv("run --runs 3")).is_err());
        assert!(parse_args(&argv("run --workload nope")).is_err());
        assert!(parse_args(&argv("run --seconds 0")).is_err());
        assert!(parse_args(&argv("walk")).is_err());
        assert!(parse_args(&[]).is_err());
    }
}

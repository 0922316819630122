//! The §6 tile-size autotuner and the parallel-executor speedup gate.
//!
//! Sweeps the `(h, w0, w1, ..)` space for the selected stencils under the
//! Fermi shared-memory/register budgets, verifies the surviving schedules,
//! scores each candidate on the block-parallel simulator, and prints a
//! ranked table. Also measures the production executor's wall clock at
//! one worker vs `--threads` workers on the Table-3 gallery and writes
//! everything to
//! `BENCH_autotune.json` (the CI artifact).
//!
//! Usage:
//!
//! ```text
//! autotune [--smoke] [--threads N] [--device gtx470|nvs5200m]
//!          [--min-speedup X] [--min-compiled-speedup X] [--model-gate]
//!          [--race-gate] [--out PATH]
//! ```
//!
//! * `--smoke` — tiny sweep and workloads (the CI `bench-smoke` mode);
//! * `--threads N` — worker-pool width (default: `HYBRID_SIM_THREADS`
//!   or the machine's available parallelism; `0` means auto);
//! * `--min-speedup X` — exit non-zero if the aggregate speedup of
//!   `--threads` workers over one worker (same compiled executor on both
//!   sides) falls below `X`. Only enforced when more than one worker is
//!   actually in use: on a single-core host both sides run the same
//!   one-worker loop and a speedup gate would only measure timer noise.
//! * `--min-compiled-speedup X` — exit non-zero if the aggregate
//!   single-thread speedup of the compiled-bytecode executor over the
//!   interpreter falls below `X`. Unlike the parallel gate this one has
//!   no host-cpu escape hatch: compilation must never lose to
//!   re-interpretation, even on one core.
//! * `--model-gate` — exit non-zero unless the analytical shortlist pays
//!   at least 5x fewer simulator scorings than the exhaustive sweep over
//!   the full 2-D space while every stencil's shortlist winner scores
//!   within 10% of the exhaustive winner.
//! * `--race-gate` — exit non-zero unless the parallel racing sweep with
//!   the successive-halving fidelity ladder pays at least 2x fewer
//!   full-fidelity simulations than the sequential full-fidelity sweep,
//!   every stencil's top-1 plan scores within 10% of the sequential
//!   winner's, the racing wall clock is no slower than sequential, and
//!   on no stencil does the tile-size model's front half take longer
//!   than the sequential sweep's scoring round. The paired wall clocks
//!   (and the front half's `model_ms`) land in the `race` block of the
//!   JSON as a `tune_wall_ms` trend.
//! * `--out PATH` — where to write the JSON (default `BENCH_autotune.json`).
//! * `--baseline PATH` — compare this run's per-stencil
//!   `points_per_sec_compiled` against a checked-in earlier run of the
//!   same shape (e.g. `BENCH_baseline.json`) and exit non-zero if any
//!   stencil regressed more than 30%. Because absolute throughput
//!   tracks the host, the comparison is normalized by each run's
//!   aggregate *interpreter* throughput — the interpreter is the
//!   stable code path, so the ratio isolates regressions in the
//!   compiled executor from runner-speed variance.
//!
//! Every gate asked for prints its verdict (`... gate passed` or `FAIL:
//! ...`) before the run exits non-zero, so one failing gate does not hide
//! the others.

use gpusim::DeviceConfig;
use hybrid_bench::autotune::{
    autotune_program, measure_exec_throughput, measure_speedup, model_gate_sample, race_gate_sample,
};
use hybrid_bench::json::Json;
use stencil::gallery;

struct Args {
    smoke: bool,
    threads: usize,
    device: DeviceConfig,
    min_speedup: Option<f64>,
    min_compiled_speedup: Option<f64>,
    model_gate: bool,
    race_gate: bool,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: gpusim::sim_threads(),
        device: DeviceConfig::gtx470(),
        min_speedup: None,
        min_compiled_speedup: None,
        model_gate: false,
        race_gate: false,
        out: "BENCH_autotune.json".into(),
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                let v = it.next().expect("--threads needs a value");
                let n: usize = v.parse().expect("--threads takes a non-negative integer");
                // 0 means auto, the same contract as HYBRID_SIM_THREADS=0
                // and `hybridc --threads 0`.
                args.threads = gpusim::resolve_sim_threads(n);
            }
            "--device" => {
                let v = it.next().expect("--device needs a value");
                args.device = match v.as_str() {
                    "gtx470" => DeviceConfig::gtx470(),
                    "nvs5200m" => DeviceConfig::nvs5200m(),
                    other => panic!("unknown device {other:?} (gtx470|nvs5200m)"),
                };
            }
            "--min-speedup" => {
                let v = it.next().expect("--min-speedup needs a value");
                args.min_speedup = Some(v.parse().expect("--min-speedup takes a number"));
            }
            "--min-compiled-speedup" => {
                let v = it.next().expect("--min-compiled-speedup needs a value");
                args.min_compiled_speedup =
                    Some(v.parse().expect("--min-compiled-speedup takes a number"));
            }
            "--model-gate" => args.model_gate = true,
            "--race-gate" => args.race_gate = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--baseline" => args.baseline = Some(it.next().expect("--baseline needs a path")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "autotune: device = {}, threads = {}, host cpus = {}, mode = {}",
        args.device.name,
        args.threads,
        host_cpus,
        if args.smoke { "smoke" } else { "full" }
    );

    // --- Sweep: 2D stencils cover the (h, w0, w1) space of §6. ---
    let sweep_stencils = if args.smoke {
        vec![gallery::jacobi2d()]
    } else {
        vec![gallery::laplacian2d(), gallery::heat2d(), gallery::heat3d()]
    };
    let mut sweep_json = Vec::new();
    for program in &sweep_stencils {
        let report = autotune_program(program, &args.device, args.threads, args.smoke);
        println!(
            "\n{}: {} candidates examined, {} infeasible schedule, {} over smem, \
             {} over regs, {} pruned, {} rejected by scorer",
            program.name(),
            report.examined,
            report.rejected_schedule,
            report.rejected_smem,
            report.rejected_regs,
            report.pruned,
            report.rejected_scorer,
        );
        println!(
            "{:>4} {:>4} {:>12} {:>10} {:>12} {:>14}",
            "h", "w", "ratio", "smem KB", "GStencils/s", ""
        );
        for (rank, e) in report.ranked.iter().enumerate() {
            println!(
                "{:>4} {:>4?} {:>12.4} {:>10.1} {:>12.3} {:>14}",
                e.model.params.h,
                e.model.params.w,
                e.model.ratio(),
                e.model.smem_bytes as f64 / 1024.0,
                e.score,
                if rank == 0 { "<- selected" } else { "" }
            );
        }
        sweep_json.push(Json::obj(vec![
            ("stencil", Json::str(program.name())),
            ("examined", Json::UInt(report.examined as u64)),
            (
                "rejected_schedule",
                Json::UInt(report.rejected_schedule as u64),
            ),
            ("rejected_smem", Json::UInt(report.rejected_smem as u64)),
            ("rejected_regs", Json::UInt(report.rejected_regs as u64)),
            ("pruned", Json::UInt(report.pruned as u64)),
            ("rejected_scorer", Json::UInt(report.rejected_scorer as u64)),
            (
                "ranked",
                Json::Arr(
                    report
                        .ranked
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("h", Json::Int(e.model.params.h)),
                                (
                                    "w",
                                    Json::Arr(
                                        e.model.params.w.iter().map(|&w| Json::Int(w)).collect(),
                                    ),
                                ),
                                ("iterations", Json::UInt(e.model.iterations)),
                                ("steady_loads", Json::UInt(e.model.steady_loads)),
                                ("load_to_compute_ratio", Json::Num(e.model.ratio())),
                                ("smem_bytes", Json::UInt(e.model.smem_bytes)),
                                ("gstencils_per_s", Json::Num(e.score)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }

    // --- Model gate: exhaustive vs analytical-shortlist sweeps. ---
    // Always over the *full* 2-D space so the simulation counts are
    // meaningful even in smoke mode (the smoke space has too few
    // candidates for a shortlist to save anything).
    println!("\nmodel-guided shortlist vs exhaustive sweep (full 2-D space):");
    println!(
        "{:<14} {:>5} {:>10} {:>10} {:>10} {:>9}",
        "stencil", "k", "sims full", "sims top-k", "reduction", "quality"
    );
    let gate_stencils = vec![
        gallery::laplacian2d(),
        gallery::heat2d(),
        gallery::jacobi2d(),
    ];
    let mut gate_samples = Vec::new();
    for program in &gate_stencils {
        let s = model_gate_sample(program, &args.device, args.threads);
        println!(
            "{:<14} {:>5} {:>10} {:>10} {:>9.1}x {:>8.1}%",
            s.stencil,
            s.top_k,
            s.exhaustive_simulations,
            s.shortlist_simulations,
            s.sim_reduction(),
            s.quality() * 100.0,
        );
        gate_samples.push(s);
    }
    let gate_exhaustive: usize = gate_samples.iter().map(|s| s.exhaustive_simulations).sum();
    let gate_shortlist: usize = gate_samples.iter().map(|s| s.shortlist_simulations).sum();
    let gate_reduction = if gate_shortlist > 0 {
        gate_exhaustive as f64 / gate_shortlist as f64
    } else {
        f64::INFINITY
    };
    println!(
        "{:<14} {:>5} {:>10} {:>10} {:>9.1}x",
        "total", "", gate_exhaustive, gate_shortlist, gate_reduction
    );

    // --- Race gate: sequential full-fidelity vs parallel ladder sweeps. ---
    // Same full 2-D space as the model gate so the full-simulation
    // counts are meaningful in smoke mode too.
    let budget = gpusim::resolve_sim_threads(args.threads);
    println!("\nracing ladder vs sequential full-fidelity sweep (budget {budget} threads):");
    println!(
        "{:<14} {:>7} {:>10} {:>10} {:>10} {:>9} {:>8} {:>8} {:>9}",
        "stencil",
        "workers",
        "seq full",
        "lad full",
        "lad proxy",
        "reduction",
        "quality",
        "wall",
        "model ms"
    );
    let mut race_samples = Vec::new();
    for program in &gate_stencils {
        let s = race_gate_sample(program, &args.device, budget);
        println!(
            "{:<14} {:>7} {:>10} {:>10} {:>10} {:>8.1}x {:>7.1}% {:>7.2}x {:>9.2}",
            s.stencil,
            s.workers,
            s.seq_full_simulations,
            s.ladder_full_simulations,
            s.ladder_proxy_simulations,
            s.full_sim_reduction(),
            s.quality() * 100.0,
            s.wall_speedup(),
            s.seq_model_ms,
        );
        race_samples.push(s);
    }
    let race_seq_full: usize = race_samples.iter().map(|s| s.seq_full_simulations).sum();
    let race_ladder_full: usize = race_samples.iter().map(|s| s.ladder_full_simulations).sum();
    let race_reduction = if race_ladder_full > 0 {
        race_seq_full as f64 / race_ladder_full as f64
    } else {
        f64::INFINITY
    };
    let race_seq_wall: f64 = race_samples.iter().map(|s| s.seq_wall_ms).sum();
    let race_ladder_wall: f64 = race_samples.iter().map(|s| s.ladder_wall_ms).sum();
    let race_wall_speedup = if race_ladder_wall > 0.0 {
        race_seq_wall / race_ladder_wall
    } else {
        1.0
    };
    println!(
        "{:<14} {:>7} {:>10} {:>10} {:>10} {:>8.1}x {:>8} {:>7.2}x",
        "total", "", race_seq_full, race_ladder_full, "", race_reduction, "", race_wall_speedup
    );

    // --- Speedup: the production executor, 1 worker vs N (Table-3 gallery). ---
    println!(
        "\nproduction executor, {} workers vs 1 (Table-3 gallery):",
        args.threads
    );
    println!(
        "{:<14} {:>10} {:>10} {:>9} {:>9}",
        "stencil", "seq (s)", "par (s)", "speedup", "launches"
    );
    let mut samples = Vec::new();
    let mut total_seq = 0.0;
    let mut total_par = 0.0;
    for program in gallery::table3_stencils() {
        // Best-of-3 in smoke mode keeps the CI gate robust to runner
        // noise; full-mode workloads are long enough for a single run.
        let repeats = if args.smoke { 3 } else { 1 };
        let s = measure_speedup(&program, &args.device, args.threads, args.smoke, repeats);
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>8.2}x {:>9}",
            s.stencil,
            s.seq_seconds,
            s.par_seconds,
            s.speedup(),
            s.launches
        );
        total_seq += s.seq_seconds;
        total_par += s.par_seconds;
        samples.push(s);
    }
    let aggregate = if total_par > 0.0 {
        total_seq / total_par
    } else {
        1.0
    };
    println!(
        "{:<14} {:>10.4} {:>10.4} {:>8.2}x   ({} workers)",
        "total", total_seq, total_par, aggregate, args.threads
    );

    // --- Executor throughput: interpreted vs compiled bytecode, 1 thread. ---
    println!("\ncompiled-bytecode executor vs interpreter (single thread):");
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>16} {:>16}",
        "stencil", "interp (s)", "compiled (s)", "speedup", "pts/s interp", "pts/s compiled"
    );
    let mut exec_samples = Vec::new();
    let mut total_interp = 0.0;
    let mut total_compiled = 0.0;
    for program in gallery::table3_stencils() {
        let repeats = if args.smoke { 3 } else { 1 };
        let s = measure_exec_throughput(&program, &args.device, args.smoke, repeats);
        println!(
            "{:<14} {:>12.4} {:>12.4} {:>8.2}x {:>16.0} {:>16.0}",
            s.stencil,
            s.interpreted_seconds,
            s.compiled_seconds,
            s.speedup(),
            s.points_per_sec_interpreted(),
            s.points_per_sec_compiled(),
        );
        total_interp += s.interpreted_seconds;
        total_compiled += s.compiled_seconds;
        exec_samples.push(s);
    }
    let compiled_aggregate = if total_compiled > 0.0 {
        total_interp / total_compiled
    } else {
        1.0
    };
    println!(
        "{:<14} {:>12.4} {:>12.4} {:>8.2}x",
        "total", total_interp, total_compiled, compiled_aggregate
    );

    let doc = Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("device", Json::str(args.device.name.clone())),
                ("threads", Json::UInt(args.threads as u64)),
                ("host_cpus", Json::UInt(host_cpus as u64)),
                ("smoke", Json::Bool(args.smoke)),
            ]),
        ),
        ("autotune", Json::Arr(sweep_json)),
        (
            "model_guided",
            Json::obj(vec![
                ("aggregate_sim_reduction", Json::Num(gate_reduction)),
                ("exhaustive_simulations", Json::UInt(gate_exhaustive as u64)),
                ("shortlist_simulations", Json::UInt(gate_shortlist as u64)),
                (
                    "per_stencil",
                    Json::Arr(
                        gate_samples
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("stencil", Json::str(s.stencil.clone())),
                                    ("top_k", Json::UInt(s.top_k as u64)),
                                    (
                                        "exhaustive_simulations",
                                        Json::UInt(s.exhaustive_simulations as u64),
                                    ),
                                    (
                                        "shortlist_simulations",
                                        Json::UInt(s.shortlist_simulations as u64),
                                    ),
                                    ("exhaustive_best", Json::Num(s.exhaustive_best)),
                                    ("shortlist_best", Json::Num(s.shortlist_best)),
                                    ("sim_reduction", Json::Num(s.sim_reduction())),
                                    ("quality", Json::Num(s.quality())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "race",
            Json::obj(vec![
                ("aggregate_full_sim_reduction", Json::Num(race_reduction)),
                ("aggregate_wall_speedup", Json::Num(race_wall_speedup)),
                ("seq_full_simulations", Json::UInt(race_seq_full as u64)),
                (
                    "ladder_full_simulations",
                    Json::UInt(race_ladder_full as u64),
                ),
                // The wall-clock trend CI plots across runs: sequential
                // vs racing tune time per stencil, in milliseconds.
                (
                    "tune_wall_ms",
                    Json::Arr(
                        race_samples
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("stencil", Json::str(s.stencil.clone())),
                                    ("seq_wall_ms", Json::Num(s.seq_wall_ms)),
                                    ("model_ms", Json::Num(s.seq_model_ms)),
                                    ("ladder_wall_ms", Json::Num(s.ladder_wall_ms)),
                                    ("wall_speedup", Json::Num(s.wall_speedup())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "per_stencil",
                    Json::Arr(
                        race_samples
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("stencil", Json::str(s.stencil.clone())),
                                    ("workers", Json::UInt(s.workers as u64)),
                                    ("proxy_frac", Json::Num(s.proxy_frac)),
                                    (
                                        "seq_full_simulations",
                                        Json::UInt(s.seq_full_simulations as u64),
                                    ),
                                    (
                                        "ladder_full_simulations",
                                        Json::UInt(s.ladder_full_simulations as u64),
                                    ),
                                    (
                                        "ladder_proxy_simulations",
                                        Json::UInt(s.ladder_proxy_simulations as u64),
                                    ),
                                    ("seq_best", Json::Num(s.seq_best)),
                                    ("ladder_best", Json::Num(s.ladder_best)),
                                    ("full_sim_reduction", Json::Num(s.full_sim_reduction())),
                                    ("quality", Json::Num(s.quality())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "parallel_speedup",
            Json::obj(vec![
                ("aggregate", Json::Num(aggregate)),
                ("total_seq_seconds", Json::Num(total_seq)),
                ("total_par_seconds", Json::Num(total_par)),
                (
                    "per_stencil",
                    Json::Arr(
                        samples
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("stencil", Json::str(s.stencil.clone())),
                                    ("seq_seconds", Json::Num(s.seq_seconds)),
                                    ("par_seconds", Json::Num(s.par_seconds)),
                                    ("speedup", Json::Num(s.speedup())),
                                    ("launches", Json::UInt(s.launches)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "exec_throughput",
            Json::obj(vec![
                ("aggregate_speedup", Json::Num(compiled_aggregate)),
                ("total_interpreted_seconds", Json::Num(total_interp)),
                ("total_compiled_seconds", Json::Num(total_compiled)),
                (
                    "per_stencil",
                    Json::Arr(
                        exec_samples
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("stencil", Json::str(s.stencil.clone())),
                                    ("points", Json::UInt(s.points)),
                                    ("interpreted_seconds", Json::Num(s.interpreted_seconds)),
                                    ("compiled_seconds", Json::Num(s.compiled_seconds)),
                                    (
                                        "points_per_sec_interpreted",
                                        Json::Num(s.points_per_sec_interpreted()),
                                    ),
                                    (
                                        "points_per_sec_compiled",
                                        Json::Num(s.points_per_sec_compiled()),
                                    ),
                                    ("speedup", Json::Num(s.speedup())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    std::fs::write(&args.out, doc.render()).expect("write bench JSON");
    println!("\nwrote {}", args.out);

    let mut failed = false;
    if let Some(min) = args.min_speedup {
        let effective_workers = args.threads.min(host_cpus);
        if effective_workers <= 1 {
            println!(
                "speedup gate skipped: {effective_workers} effective worker(s) — the \
                 parallel path degenerates to the sequential executor here"
            );
        } else if aggregate < min {
            eprintln!(
                "FAIL: aggregate parallel speedup {aggregate:.2}x is below the \
                 required {min:.2}x at {} threads",
                args.threads
            );
            failed = true;
        } else {
            println!("speedup gate passed: {aggregate:.2}x >= {min:.2}x");
        }
    }

    if let Some(min) = args.min_compiled_speedup {
        if compiled_aggregate < min {
            eprintln!(
                "FAIL: aggregate compiled-executor speedup {compiled_aggregate:.2}x is \
                 below the required {min:.2}x (compilation must not lose to \
                 re-interpretation)"
            );
            failed = true;
        } else {
            println!("compiled-executor gate passed: {compiled_aggregate:.2}x >= {min:.2}x");
        }
    }

    if args.model_gate {
        let mut failures = Vec::new();
        if gate_reduction < MODEL_GATE_MIN_REDUCTION {
            failures.push(format!(
                "aggregate simulation reduction {gate_reduction:.1}x is below the \
                 required {MODEL_GATE_MIN_REDUCTION:.0}x"
            ));
        }
        for s in &gate_samples {
            if s.quality() < MODEL_GATE_MIN_QUALITY {
                failures.push(format!(
                    "{}: shortlist best {:.3} GSt/s is only {:.0}% of the exhaustive \
                     best {:.3} (floor {:.0}%)",
                    s.stencil,
                    s.shortlist_best,
                    s.quality() * 100.0,
                    s.exhaustive_best,
                    MODEL_GATE_MIN_QUALITY * 100.0,
                ));
            }
        }
        if failures.is_empty() {
            println!(
                "model gate passed: {gate_reduction:.1}x fewer simulations, every \
                 stencil within {:.0}% of the exhaustive best",
                (1.0 - MODEL_GATE_MIN_QUALITY) * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            failed = true;
        }
    }

    if args.race_gate {
        let mut failures = Vec::new();
        if race_reduction < RACE_GATE_MIN_FULL_SIM_REDUCTION {
            failures.push(format!(
                "aggregate full-fidelity simulation reduction {race_reduction:.1}x is \
                 below the required {RACE_GATE_MIN_FULL_SIM_REDUCTION:.0}x"
            ));
        }
        if race_wall_speedup < RACE_GATE_MIN_WALL_SPEEDUP {
            failures.push(format!(
                "racing wall clock lost to sequential: {race_wall_speedup:.2}x speedup \
                 is below the required {RACE_GATE_MIN_WALL_SPEEDUP:.2}x"
            ));
        }
        for s in &race_samples {
            // Both terms come from one sweep in this process, so runner
            // speed cancels.
            if s.model_share_of_scoring() > RACE_GATE_MAX_MODEL_SHARE {
                failures.push(format!(
                    "{}: the tile-size model's front half took {:.1} ms, more than the \
                     {:.1} ms the exhaustive sweep spent scoring",
                    s.stencil,
                    s.seq_model_ms,
                    s.seq_wall_ms - s.seq_model_ms,
                ));
            }
            if s.quality() < RACE_GATE_MIN_QUALITY {
                failures.push(format!(
                    "{}: ladder best {:.3} GSt/s is only {:.0}% of the sequential \
                     best {:.3} (floor {:.0}%)",
                    s.stencil,
                    s.ladder_best,
                    s.quality() * 100.0,
                    s.seq_best,
                    RACE_GATE_MIN_QUALITY * 100.0,
                ));
            }
        }
        if failures.is_empty() {
            println!(
                "race gate passed: {race_reduction:.1}x fewer full-fidelity simulations \
                 at {race_wall_speedup:.2}x wall clock, every stencil within {:.0}% of \
                 the sequential best",
                (1.0 - RACE_GATE_MIN_QUALITY) * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            failed = true;
        }
    }

    if let Some(path) = &args.baseline {
        let current = doc.get("exec_throughput").expect("doc has exec_throughput");
        if let Err(msg) = compare_against_baseline(path, current) {
            eprintln!("FAIL: {msg}");
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
}

/// Regression window of the `--baseline` gate: a stencil may lose at
/// most 30% of its (machine-speed-normalized) compiled throughput.
const BASELINE_FLOOR: f64 = 0.70;

/// `--model-gate` floors: the analytical shortlist must pay at least 5x
/// fewer simulator scorings than the exhaustive sweep...
const MODEL_GATE_MIN_REDUCTION: f64 = 5.0;
/// ...while each stencil's shortlist winner scores within 10% of the
/// exhaustive winner.
const MODEL_GATE_MIN_QUALITY: f64 = 0.90;

/// `--race-gate` floors: the fidelity ladder must pay at least 2x fewer
/// full-fidelity simulations than the sequential sweep...
const RACE_GATE_MIN_FULL_SIM_REDUCTION: f64 = 2.0;
/// ...with each stencil's racing top-1 within 10% of the sequential
/// winner...
const RACE_GATE_MIN_QUALITY: f64 = 0.90;
/// ...and a racing wall clock no slower than the sequential sweep's...
const RACE_GATE_MIN_WALL_SPEEDUP: f64 = 1.0;
/// ...and, per stencil, a front half no longer than the scoring round of
/// the exhaustive simulated sweep. Counting tiles reads under 1 % on
/// the gate's 2-D stencils; enumerating them point by point read
/// 28–79 %, so the gate has slack and only trips on a return of the
/// per-point pattern.
const RACE_GATE_MAX_MODEL_SHARE: f64 = 1.0;

/// Compares this run's `exec_throughput` block against a checked-in
/// baseline file, normalizing for host speed via each run's aggregate
/// interpreter throughput. Fails when any stencil's normalized
/// `points_per_sec_compiled` fell below [`BASELINE_FLOOR`] of the
/// baseline's, or when a baseline stencil is missing from this run
/// (silent coverage loss would shrink the gate).
struct BaselineSample {
    stencil: String,
    pps_compiled: f64,
    points: f64,
    interpreted_seconds: f64,
}

fn compare_against_baseline(path: &str, current: &Json) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let base = Json::parse(&text).map_err(|e| format!("baseline {path} is not JSON: {e}"))?;
    let base = base
        .get("exec_throughput")
        .ok_or_else(|| format!("baseline {path} has no exec_throughput block"))?;

    let per_stencil = |doc: &Json| -> Vec<BaselineSample> {
        doc.get("per_stencil")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| {
                Some(BaselineSample {
                    stencil: s.get("stencil")?.as_str()?.to_string(),
                    pps_compiled: s.get("points_per_sec_compiled")?.as_f64()?,
                    points: s.get("points")?.as_f64()?,
                    interpreted_seconds: s.get("interpreted_seconds")?.as_f64()?,
                })
            })
            .collect()
    };
    // Host-speed proxy: aggregate interpreter points/sec of a run
    // (same estimator on both sides). The interpreter is the code path
    // neither the tuner nor the compiler touches, so the ratio of the
    // two runs' interpreter throughput is the machine-speed scale
    // between them.
    let machine_speed = |stencils: &[BaselineSample]| -> f64 {
        let secs: f64 = stencils.iter().map(|s| s.interpreted_seconds).sum();
        if secs > 0.0 {
            stencils.iter().map(|s| s.points).sum::<f64>() / secs
        } else {
            0.0
        }
    };
    let base_stencils = per_stencil(base);
    let cur_stencils = per_stencil(current);
    if base_stencils.is_empty() {
        return Err(format!("baseline {path} has no per-stencil samples"));
    }
    let base_speed = machine_speed(&base_stencils);
    let scale = if base_speed > 0.0 {
        machine_speed(&cur_stencils) / base_speed
    } else {
        1.0
    };
    println!(
        "\nbaseline gate ({path}): host-speed scale {scale:.2}x, floor {:.0}%:",
        BASELINE_FLOOR * 100.0
    );

    let mut failures = Vec::new();
    for b in &base_stencils {
        let name = &b.stencil;
        let Some(c) = cur_stencils.iter().find(|c| c.stencil == *name) else {
            failures.push(format!(
                "stencil {name} is in the baseline but not this run"
            ));
            continue;
        };
        let required = BASELINE_FLOOR * b.pps_compiled * scale;
        let cur_pps = c.pps_compiled;
        let verdict = if cur_pps < required { "FAIL" } else { "ok" };
        println!(
            "  {name:<14} compiled {cur_pps:>14.0} pts/s vs required {required:>14.0}  {verdict}"
        );
        if cur_pps < required {
            failures.push(format!(
                "{name}: points_per_sec_compiled {cur_pps:.0} is below {required:.0} \
                 ({:.0}% of the baseline's {:.0} at scale {scale:.2}x)",
                BASELINE_FLOOR * 100.0,
                b.pps_compiled
            ));
        }
    }
    if failures.is_empty() {
        println!("baseline gate passed: no stencil regressed more than 30%");
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

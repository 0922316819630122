//! The outside-in per-layer ledger of the traced run.
//!
//! The harness cannot put spans inside the program, so for a seeded sample
//! of the timed ops it nests three outside measurements — the socket round
//! trip, `FleetRouter::handle_line` called directly, and
//! `driver::compile_source_with` called directly — and then replays the
//! compile's stages through public functions with the compile's own
//! `params`, `dims` and `steps`. Cold ops use a fresh sibling program at
//! every nesting level, so every level is genuinely cold. The replay is
//! also the second, independent output check: the harness re-executes the
//! plan itself (`generate_hybrid` → `GpuSim` → bit-compare with
//! `ReferenceExecutor`) instead of trusting the compiler's own verdict.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gpu_codegen::hybrid_gen::alignment_offset_words;
use gpu_codegen::{generate_hybrid, LaunchPlan};
use gpusim::{timing, GpuSim};
use hybrid_bench::autotune::{proxy_workload, simulate_score_with, sweep_space};
use hybrid_bench::driver::{
    compile_source_with, device_fingerprint, CacheSource, CompileOutcome, DriverConfig, TuneMode,
    PROXY_KEEP_FRAC,
};
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::{hybrid_params, plan_for, point_updates, Compiler};
use hybrid_tiling::tilesize::autotune::{
    autotune_parallel_cancellable, split_thread_budget, AutotuneConfig, Fidelity,
};
use hybrid_tiling::tilesize::{evaluate_tile, TileSizeModel};
use hybrid_tiling::{verify_schedule, CancelToken, HybridSchedule, TileParams};
use polylib::{lp, Aff, BasicSet, Objective, Set};
use stencil::domain::ScheduledDomain;
use stencil::parse::parse_stencil;
use stencil::{Grid, ReferenceExecutor, StencilProgram};

use crate::golden::close;
use crate::metrics::PER_LAYER;
use crate::programs::Lane;
use crate::rng::SplitMix64;
use crate::run::{Measured, RunConfig, ServiceRun, TableRun};
use crate::service::{base_config, Reply};
use crate::stats::median;
use crate::table::{cell_workload, SAMPLES};
use crate::trace::{SpanId, Tracer};
use crate::workload::{Slot, Stream};

/// Ops replayed per traced run, at most (the time budget usually ends the
/// sampling earlier).
const MAX_SAMPLED_OPS: usize = 32;

/// The spans that re-run one compile's stages; their sum over the
/// compile's own duration is the run's *accounted share*.
const STAGES: [&str; 7] = [
    "stencil.parse",
    "core.tune",
    "codegen.generate",
    "codegen.emit",
    "gpusim.run",
    "stencil.oracle",
    "gpusim.timing",
];

/// What the traced run adds to the report.
pub struct LayerReport {
    /// One value per [`PER_LAYER`] entry.
    pub values: BTreeMap<&'static str, f64>,
    /// Median self time per span name, largest first.
    pub self_ranking: Vec<(&'static str, f64)>,
    /// Replay checks that failed (chosen tiles, bit-exactness, simulated
    /// statistics, cache provenance); they count as failed ops.
    pub failures: Vec<String>,
    pub sampled_ops: usize,
}

/// Gathers the numbers that do not come from spans.
#[derive(Default)]
struct Gauges {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Gauges {
    fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.values.get(name).and_then(|v| median(v)).unwrap_or(0.0)
    }
}

/// The simulator inputs the driver builds for one plan.
fn fresh_sim(
    program: &StencilProgram,
    params: &TileParams,
    cfg: &DriverConfig,
    dims: &[usize],
) -> (GpuSim, Vec<Grid>) {
    let init: Vec<Grid> = (0..program.num_fields())
        .map(|f| Grid::random(dims, 1234 + f as u64))
        .collect();
    let planes = program.max_dt() as usize + 1;
    let align = alignment_offset_words(program, params, &cfg.opts);
    let sim = GpuSim::with_global_offset(cfg.device.clone(), &init, planes, align);
    (sim, init)
}

/// The driver's tuning sweep, rebuilt from public parts: `sweep_space`,
/// the Fermi budgets, and the driver's two scorers (`generate_hybrid`
/// feasibility for static, `simulate_score_with` for simulated).
fn replay_tune(
    program: &StencilProgram,
    cfg: &DriverConfig,
    dims: &[usize],
    steps: usize,
) -> Option<TileParams> {
    let space = sweep_space(program.spatial_dims(), cfg.smoke);
    let tune_cfg = AutotuneConfig {
        smem_limit: cfg.device.shared_limit as u64,
        verify_domain: None,
        max_candidates: 12,
        top_k: cfg.top_k,
        proxy_frac: cfg.proxy,
        keep_frac: PROXY_KEEP_FRAC,
        ..AutotuneConfig::fermi()
    };
    let (proxy_dims, proxy_steps) = proxy_workload(dims, steps, cfg.proxy);
    let (workers, sim_threads) = if cfg.tune_workers > 0 {
        (cfg.tune_workers, cfg.sim_threads.max(1))
    } else {
        let candidates = if cfg.top_k > 0 { cfg.top_k } else { 12 };
        split_thread_budget(gpusim::resolve_sim_threads(0), candidates)
    };
    let scorer = |model: &TileSizeModel, fidelity: Fidelity| -> Option<f64> {
        match cfg.tune {
            TuneMode::Static => {
                let plan = generate_hybrid(program, &model.params, dims, steps, cfg.opts).ok()?;
                let fits = plan
                    .kernels
                    .iter()
                    .all(|k| k.shared_bytes() <= cfg.device.shared_limit);
                fits.then(|| -model.ratio())
            }
            TuneMode::Simulated => {
                let (d, s) = match fidelity {
                    Fidelity::Proxy => (&proxy_dims[..], proxy_steps),
                    Fidelity::Full => (dims, steps),
                };
                simulate_score_with(
                    program,
                    &model.params,
                    &cfg.device,
                    d,
                    s,
                    sim_threads,
                    cfg.opts,
                )
            }
        }
    };
    let report = autotune_parallel_cancellable(
        program,
        &space,
        &tune_cfg,
        &CancelToken::never(),
        workers,
        scorer,
    )
    .ok()?;
    report.best().map(|best| best.model.params.clone())
}

/// The four operations of `crates/bench/benches/polylib_ops.rs` (simplex
/// LP, Fourier–Motzkin projection, point count, set subtraction), once.
fn polylib_kernel() {
    let hexagon = BasicSet::new(2)
        .with_ge(Aff::var(2, 0))
        .with_ge(Aff::from_ints(&[-1, 0], 7))
        .with_ge(Aff::from_ints(&[-1, 1], 4))
        .with_ge(Aff::from_ints(&[-1, -1], 14))
        .with_ge(Aff::from_ints(&[1, 1], -3))
        .with_ge(Aff::from_ints(&[1, -1], 8));
    let objective = Aff::from_ints(&[1, 3], 0);
    black_box(lp(
        hexagon.constraints(),
        black_box(&objective),
        Objective::Maximize,
    ));
    black_box(black_box(&hexagon).project_out(1));
    black_box(black_box(&hexagon).count_points());
    let big = Set::from_basic(BasicSet::box_set(&[(0, 20), (0, 20)]));
    let diamond = Set::from_basic(
        BasicSet::new(2)
            .with_ge(Aff::from_ints(&[1, 1], -10))
            .with_ge(Aff::from_ints(&[-1, -1], 30))
            .with_ge(Aff::from_ints(&[1, -1], 10))
            .with_ge(Aff::from_ints(&[-1, 1], 10)),
    );
    black_box(big.subtract(black_box(&diamond)).count_points());
}

/// Times the tile-model, schedule and verifier entry points on the chosen
/// tile, and the polyhedral kernel below them.
fn probe_core(tracer: &mut Tracer, op: &str, program: &StencilProgram, params: &TileParams) {
    tracer.time("core.evaluate_tile", op, None, || {
        black_box(evaluate_tile(program, params).is_ok())
    });
    let (schedule, _) = tracer.time("core.schedule", op, None, || {
        HybridSchedule::compute_executable(program, params)
    });
    if let Ok(schedule) = schedule {
        // The small exhaustive-verification domains of `autotune_program`.
        let (dims, steps): (&[usize], usize) = match program.spatial_dims() {
            2 => (&[16, 12], 8),
            3 => (&[8, 8, 10], 4),
            _ => (&[40], 10),
        };
        let domain = ScheduledDomain::new(program, dims, steps);
        tracer.time("core.verify_schedule", op, None, || {
            black_box(verify_schedule(&schedule, program, &domain).is_ok())
        });
    }
    const REPEATS: usize = 20;
    let t = Instant::now();
    for _ in 0..REPEATS {
        polylib_kernel();
    }
    // Recorded as one span per repeat-averaged kernel: a single pass is a
    // few microseconds, below what one clock reading resolves well.
    let per_pass = t.elapsed() / REPEATS as u32;
    tracer.record("polylib.kernel", op, None, t, t + per_pass);
}

/// The per-request configuration `serve::request_config` derives from a
/// request line, rebuilt from the op's class (that function is private).
fn direct_config(member_cfg: &DriverConfig, slot: &Slot) -> DriverConfig {
    let mut cfg = member_cfg.clone();
    cfg.verify = true;
    match slot.class.tune.sweep() {
        None => cfg.tune = TuneMode::Static,
        Some((top_k, proxy)) => {
            cfg.tune = TuneMode::Simulated;
            cfg.workload = slot.class.tune.workload_override(slot.class.shape);
            cfg.top_k = top_k as usize;
            cfg.proxy = proxy;
        }
    }
    cfg
}

struct Replay<'a> {
    tracer: &'a mut Tracer,
    gauges: Gauges,
    failures: Vec<String>,
    accounted: Vec<f64>,
    /// Threads of the parallel-executor comparison.
    nproc: usize,
}

impl Replay<'_> {
    fn fail(&mut self, op: &str, what: impl std::fmt::Display) {
        self.failures.push(format!("replay of {op}: {what}"));
    }

    /// Replays one compile's stages as children of `compile` and returns
    /// the plan's simulated throughput.
    fn replay_stages(
        &mut self,
        op: &str,
        compile: SpanId,
        source: &str,
        slot: &Slot,
        cfg: &DriverConfig,
        outcome: &CompileOutcome,
    ) -> Option<f64> {
        let parent = Some(compile);
        let (params, dims, steps) = (&outcome.params, &outcome.dims[..], outcome.steps);
        let (program, _) = self.tracer.time("stencil.parse", op, parent, || {
            parse_stencil(slot.class.shape.name(), source)
        });
        let program = match program {
            Ok(p) => p,
            Err(e) => {
                self.fail(op, format!("parse: {e}"));
                return None;
            }
        };
        if slot.cold {
            let (chosen, _) = self.tracer.time("core.tune", op, parent, || {
                replay_tune(&program, cfg, dims, steps)
            });
            if chosen.as_ref() != Some(params) {
                self.fail(
                    op,
                    format!("the replayed sweep chose {chosen:?}, the compile chose {params:?}"),
                );
            }
        }
        let (plan, _) = self.tracer.time("codegen.generate", op, parent, || {
            generate_hybrid(&program, params, dims, steps, cfg.opts)
        });
        let plan: LaunchPlan = match plan {
            Ok(plan) => plan,
            Err(e) => {
                self.fail(op, format!("generate_hybrid: {e}"));
                return None;
            }
        };
        self.gauges
            .push("codegen.kernels_per_plan", plan.kernels.len() as f64);
        let backend = cfg.backend.backend();
        let (bytes, _) = self.tracer.time("codegen.emit", op, parent, || {
            backend.emit_plan(&plan).len() + backend.emit_aux(&plan).map_or(0, |aux| aux.len())
        });
        self.gauges.push("codegen.emit_bytes", bytes as f64);

        // The executor entry the driver takes at sim_threads = 1.
        let point_count = point_updates(&program, dims, steps);
        let points = point_count as f64;
        let ((mut sim, init), run) = self.tracer.time("gpusim.run", op, parent, || {
            let (mut sim, init) = fresh_sim(&program, params, cfg, dims);
            sim.run_plan(&plan);
            (sim, init)
        });
        sim.set_point_updates(point_count);
        let counters = *sim.counters();
        self.gauges
            .push("gpusim.launches", counters.launches as f64);
        let run_s = self.tracer.span(run).duration_ms() / 1e3;
        self.gauges
            .push("gpusim.points_per_s_interp", points / run_s);

        let (oracle, oracle_span) = self.tracer.time("stencil.oracle", op, parent, || {
            let mut oracle = ReferenceExecutor::new(&program, &init);
            oracle.run(steps);
            oracle
        });
        let oracle_s = self.tracer.span(oracle_span).duration_ms() / 1e3;
        self.gauges
            .push("stencil.oracle_points_per_s", points / oracle_s);
        let out = steps % (program.max_dt() as usize + 1);
        if (0..program.num_fields()).any(|f| !sim.plane(f, out).bit_equal(oracle.field(f))) {
            self.fail(op, "the simulated plan is not bit-equal to the reference");
        }
        let (gstencils, _) = self.tracer.time("gpusim.timing", op, parent, || {
            black_box(timing::estimate_time(sim.counters(), sim.device()));
            timing::gstencils_per_s(sim.counters(), sim.device())
        });

        // The same plan on the other two executors: host speed differs,
        // every simulated counter must not.
        for (span, gauge, threads) in [
            ("gpusim.exec_compiled", "gpusim.points_per_s_compiled", 0),
            (
                "gpusim.exec_parallel",
                "gpusim.points_per_s_parallel",
                self.nproc,
            ),
        ] {
            let (other, id) = self.tracer.time(span, op, None, || {
                let (mut sim, _) = fresh_sim(&program, params, cfg, dims);
                if threads == 0 {
                    sim.run_plan_compiled(&plan);
                } else {
                    sim.run_plan_parallel_with(&plan, threads);
                }
                sim.set_point_updates(counters.point_updates);
                *sim.counters()
            });
            let seconds = self.tracer.span(id).duration_ms() / 1e3;
            self.gauges.push(gauge, points / seconds);
            if other != counters {
                self.fail(
                    op,
                    format!("{span}: counters differ from the interpreter's"),
                );
            }
        }
        probe_core(self.tracer, op, &program, params);

        let stage_ms: f64 = STAGES
            .iter()
            .filter_map(|name| self.tracer.duration_of(name, op))
            .sum();
        self.accounted
            .push(stage_ms / self.tracer.span(compile).duration_ms());
        Some(gstencils)
    }
}

fn status_u64(status: &Json, key: &str) -> f64 {
    status.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

fn device_sum(status: &Json, key: &str) -> f64 {
    status
        .get("devices")
        .and_then(Json::as_arr)
        .map_or(0.0, |devices| {
            devices.iter().map(|d| status_u64(d, key)).sum::<f64>()
        })
}

/// The replay takes ops apart until it has used half of `--seconds` more
/// (or [`MAX_SAMPLED_OPS`]); the first op is always taken. Half, so that a
/// traced run stays within one and a half untraced ones: the driver's time
/// limit counts both.
fn keep_sampling(sampled: usize, since: Instant, seconds: f64) -> bool {
    sampled == 0 || (sampled < MAX_SAMPLED_OPS && since.elapsed().as_secs_f64() <= seconds / 2.0)
}

fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix64::new(seed ^ 0x7472_6163_655f_6f70).shuffle(&mut order);
    order
}

/// The traced replay of a service workload.
pub fn replay_service(
    cfg: &RunConfig,
    run: &mut ServiceRun,
    measured: &Measured,
    tracer: &mut Tracer,
) -> Result<LayerReport, String> {
    // Scheduling and cache counters of the timed phase, before the replay
    // adds its own requests.
    let status = run.clients[0]
        .call(r#"{"op":"status","id":"trace-status"}"#)
        .map_err(|e| format!("status op: {e}"))?;

    let timed: Vec<(&Reply, bool)> = run
        .replies
        .iter()
        .zip(&measured.samples)
        .flat_map(|(replies, samples)| {
            replies
                .iter()
                .zip(samples)
                .map(|(r, s)| (r, s.failure.is_none()))
        })
        .collect();
    let mut rtt = Vec::with_capacity(timed.len());
    for (reply, _) in &timed {
        rtt.push(tracer.record(
            "bench.serve.rtt",
            &reply.op.id,
            None,
            reply.sent,
            reply.received,
        ));
    }
    let cache_share = |name: &str| {
        timed
            .iter()
            .filter(|(r, _)| r.response.get("cache").and_then(Json::as_str) == Some(name))
            .count() as f64
            / timed.len() as f64
    };

    let mut replay = Replay {
        tracer,
        gauges: Gauges::default(),
        failures: Vec::new(),
        accounted: Vec::new(),
        nproc: cfg.nproc,
    };
    for (reply, _) in timed
        .iter()
        .filter(|(r, ok)| *ok && r.response.get("cache").and_then(Json::as_str) == Some("miss"))
    {
        for (gauge, field) in [
            ("core.tune_examined", "examined"),
            ("core.tune_shortlisted", "shortlisted"),
            ("core.tune_full_sims", "full_simulated"),
            ("core.tune_proxy_sims", "proxy_simulated"),
        ] {
            replay
                .gauges
                .push(gauge, status_u64(&reply.response, field));
        }
    }

    let router = run.service.router.clone();
    let mut siblings = Stream::new(cfg.workload, cfg.seed, Lane::TraceSibling);
    let budget = Instant::now();
    let mut sampled = 0;
    for &i in seeded_order(timed.len(), cfg.seed).iter() {
        if !keep_sampling(sampled, budget, cfg.seconds) {
            break;
        }
        let (reply, ok) = timed[i];
        if !ok {
            continue;
        }
        sampled += 1;
        let op = reply.op.id.as_str();
        let slot = reply.op.slot;
        let device = slot.class.device.config();
        let Some((_, member)) = router
            .members()
            .into_iter()
            .find(|(fp, _)| *fp == device_fingerprint(&device))
        else {
            replay.fail(op, "no fleet member serves the op's device");
            continue;
        };

        // Level 2: the router called directly, no socket, no queue.
        let direct = siblings.op_for(slot, 2 * sampled, 0);
        let (response, handle) =
            replay
                .tracer
                .time("bench.fleet.handle_line", op, Some(rtt[i]), || {
                    router.handle_line(0, &direct.line)
                });
        match response {
            Some(r) => {
                if let Err(e) = run.golden.check_response(&slot, &r) {
                    replay.fail(op, format!("handle_line: {e}"));
                }
            }
            None => replay.fail(op, "handle_line gave no response"),
        }

        // Level 3: the driver called directly, no line parse, no routing.
        let inner = siblings.op_for(slot, 2 * sampled + 1, 0);
        let direct_cfg = direct_config(member.cfg(), &slot);
        let label = Path::new("<benchmark>");
        let (outcome, compile) =
            replay
                .tracer
                .time("bench.driver.compile", op, Some(handle), || {
                    compile_source_with(
                        slot.class.shape.name(),
                        &inner.program,
                        label,
                        &direct_cfg,
                        Some(member.mem()),
                    )
                });
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                replay.fail(op, format!("compile_source_with: {e}"));
                continue;
            }
        };
        let want = if slot.cold {
            CacheSource::Fresh
        } else {
            CacheSource::Memory
        };
        if outcome.cache != want {
            replay.fail(
                op,
                format!(
                    "direct compile served from {:?}, expected {want:?}",
                    outcome.cache
                ),
            );
        }

        let gstencils =
            replay.replay_stages(op, compile, &inner.program, &slot, &direct_cfg, &outcome);
        let expected = run.golden.programs.get(&slot.class.key());
        if let (Some(g), Some(want)) = (gstencils, expected) {
            if !close(g, want.gstencils) || outcome.params.h != want.h || outcome.params.w != want.w
            {
                replay.fail(
                    op,
                    format!(
                        "re-executed plan: h={} w={:?} {g} GStencils/s, expected {want:?}",
                        outcome.params.h, outcome.params.w
                    ),
                );
            }
        }

        // Guards and the restart path.
        replay.tracer.time("bench.json.parse", op, None, || {
            black_box(Json::parse(&reply.op.line).is_ok())
        });
        replay.tracer.time("bench.metrics.render", op, None, || {
            black_box(router.handle_line(0, r#"{"op":"metrics"}"#))
        });
        let restarted = FleetRouter::new(
            base_config(run.service.dir(), cfg.pinned),
            FleetOptions::default(),
        );
        let (response, _) = replay.tracer.time("bench.driver.disk_hit", op, None, || {
            restarted.handle_line(0, &reply.op.line)
        });
        let cache = response
            .as_ref()
            .and_then(|r| r.get("cache"))
            .and_then(Json::as_str);
        if cache != Some("disk") {
            replay.fail(
                op,
                format!("a restarted service answered from {cache:?}, expected \"disk\""),
            );
        }
    }

    let Replay {
        tracer,
        gauges,
        failures,
        accounted,
        ..
    } = replay;
    let span_ms = |name: &str| tracer.median_ms(name).unwrap_or(0.0);
    let self_ms = |name: &str| tracer.median_self_ms(name).unwrap_or(0.0);
    let mut values = BTreeMap::new();
    for metric in &PER_LAYER {
        let value = match metric.name {
            "bench.serve.rtt_ms" => span_ms("bench.serve.rtt"),
            "bench.serve.transport_ms" => self_ms("bench.serve.rtt"),
            "bench.serve.queue_depth_peak" => status_u64(&status, "queue_depth_peak"),
            "bench.serve.edf_promotions" => status_u64(&status, "edf_promotions"),
            "bench.serve.deadline_misses" => status_u64(&status, "deadline_misses"),
            "bench.serve.contained_panics" => status_u64(&status, "contained_panics"),
            "bench.fleet.dispatch_ms" => self_ms("bench.fleet.handle_line"),
            "bench.json.parse_ms" => span_ms("bench.json.parse"),
            "bench.metrics.render_ms" => span_ms("bench.metrics.render"),
            "bench.driver.compile_ms" => span_ms("bench.driver.compile"),
            "bench.driver.self_ms" => self_ms("bench.driver.compile"),
            "bench.driver.mem_hit_share" => cache_share("mem"),
            "bench.driver.disk_hit_share" => cache_share("disk"),
            "bench.driver.coalesced" => device_sum(&status, "mem_coalesced"),
            "bench.driver.evictions" => device_sum(&status, "mem_evictions"),
            "bench.driver.disk_hit_ms" => span_ms("bench.driver.disk_hit"),
            "stencil.parse_ms" => span_ms("stencil.parse"),
            "stencil.oracle_ms" => span_ms("stencil.oracle"),
            "core.tune_ms" => span_ms("core.tune"),
            "core.evaluate_tile_ms" => span_ms("core.evaluate_tile"),
            "core.schedule_ms" => span_ms("core.schedule"),
            "core.verify_schedule_ms" => span_ms("core.verify_schedule"),
            "polylib.kernel_ms" => span_ms("polylib.kernel"),
            "codegen.generate_ms" => span_ms("codegen.generate"),
            "codegen.emit_ms" => span_ms("codegen.emit"),
            "gpusim.run_ms" => span_ms("gpusim.run"),
            "gpusim.timing_ms" => span_ms("gpusim.timing"),
            "bench.trace.accounted_share" => median(&accounted).unwrap_or(0.0),
            "bench.process.peak_rss_mb" => measured.peak_rss_mb,
            "bench.host.slowdown" => measured.end_to_end.host_slowdown,
            "bench.trace.ops_per_s" => measured.end_to_end.ops_per_s,
            "bench.trace.sampled_ops" => sampled as f64,
            // Layers no service workload enters.
            "gpusim.sampled_points_per_s" | "baselines.generate_ms" => 0.0,
            gauge => gauges.median(gauge),
        };
        values.insert(metric.name, value);
    }
    Ok(LayerReport {
        values,
        self_ranking: tracer.self_time_ranking(),
        failures,
        sampled_ops: sampled,
    })
}

/// The traced replay of `table_repro`: per sampled cell, the plan
/// generator and the sampled simulator are re-run on their own.
pub fn replay_table(
    cfg: &RunConfig,
    run: &TableRun,
    measured: &Measured,
    tracer: &mut Tracer,
) -> Result<LayerReport, String> {
    let device = gpusim::DeviceConfig::gtx470();
    let samples = &measured.samples[0];
    let cell_spans: Vec<SpanId> = samples
        .iter()
        .map(|s| tracer.record("bench.table.cell", &s.id, None, s.sent, s.received))
        .collect();
    let mut gauges = Gauges::default();
    let mut failures = Vec::new();
    let mut accounted = Vec::new();
    let budget = Instant::now();
    let mut sampled = 0;
    for &i in seeded_order(run.cells.len(), cfg.seed).iter() {
        if !keep_sampling(sampled, budget, cfg.seconds) {
            break;
        }
        let (cell, sample) = (run.cells[i], &samples[i]);
        if sample.failure.is_some() {
            continue;
        }
        sampled += 1;
        let op = sample.id.as_str();
        let parent = Some(cell_spans[i]);
        let program = run.table.program(&cell);
        let (dims, steps) = cell_workload(program);
        let generator = if cell.compiler == Compiler::Hybrid {
            "codegen.generate"
        } else {
            "baselines.generate"
        };
        let ((plan, align), generate) = tracer.time(generator, op, parent, || {
            plan_for(cell.compiler, program, &dims, steps)
        });
        gauges.push("codegen.kernels_per_plan", plan.kernels.len() as f64);
        let (sim, run_span) = tracer.time("gpusim.sampled_run", op, parent, || {
            let init: Vec<Grid> = (0..program.num_fields())
                .map(|f| Grid::random(&dims, 7 + f as u64))
                .collect();
            let planes = program.max_dt() as usize + 1;
            let mut sim = GpuSim::with_global_offset(device.clone(), &init, planes, align);
            sim.run_plan_sampled(&plan, SAMPLES);
            sim
        });
        let mut sim = sim;
        let points = point_updates(program, &dims, steps);
        sim.set_point_updates(points);
        gauges.push("gpusim.launches", sim.counters().launches as f64);
        gauges.push(
            "gpusim.sampled_points_per_s",
            points as f64 / (tracer.span(run_span).duration_ms() / 1e3),
        );
        let (gstencils, timing_span) = tracer.time("gpusim.timing", op, parent, || {
            black_box(timing::estimate_time(sim.counters(), sim.device()));
            timing::gstencils_per_s(sim.counters(), sim.device())
        });
        if let Err(e) = run.golden.check_cell(&sample.class, gstencils) {
            failures.push(format!("replay of {op}: {e}"));
        }
        let stage_ms: f64 = [generate, run_span, timing_span]
            .iter()
            .map(|&id| tracer.span(id).duration_ms())
            .sum();
        accounted.push(stage_ms / tracer.span(cell_spans[i]).duration_ms());
        if cell.compiler == Compiler::Hybrid {
            probe_core(tracer, op, program, &hybrid_params(program));
        }
    }
    let mut values = BTreeMap::new();
    for metric in &PER_LAYER {
        let span_ms = |name: &str| tracer.median_ms(name).unwrap_or(0.0);
        let value = match metric.name {
            "core.evaluate_tile_ms" => span_ms("core.evaluate_tile"),
            "core.schedule_ms" => span_ms("core.schedule"),
            "core.verify_schedule_ms" => span_ms("core.verify_schedule"),
            "polylib.kernel_ms" => span_ms("polylib.kernel"),
            "codegen.generate_ms" => span_ms("codegen.generate"),
            "baselines.generate_ms" => span_ms("baselines.generate"),
            "gpusim.run_ms" => span_ms("gpusim.sampled_run"),
            "gpusim.timing_ms" => span_ms("gpusim.timing"),
            "bench.trace.accounted_share" => median(&accounted).unwrap_or(0.0),
            "bench.process.peak_rss_mb" => measured.peak_rss_mb,
            "bench.host.slowdown" => measured.end_to_end.host_slowdown,
            "bench.trace.ops_per_s" => measured.end_to_end.ops_per_s,
            "bench.trace.sampled_ops" => sampled as f64,
            // `gauges` knows the counts; every service-side layer is 0.
            gauge => gauges.median(gauge),
        };
        values.insert(metric.name, value);
    }
    Ok(LayerReport {
        values,
        self_ranking: tracer.self_time_ranking(),
        failures,
        sampled_ops: sampled,
    })
}

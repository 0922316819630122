//! Simulator-backed tile-size autotuning and the executor measurements
//! behind `BENCH_autotune.json`.
//!
//! The sweep itself lives in [`hybrid_tiling::tilesize::autotune`] (which
//! cannot depend on the simulator); this module supplies the missing
//! half: a scorer that generates the hybrid kernels for each candidate,
//! runs them on the block-parallel [`GpuSim`], and returns simulated
//! GStencils/s — plus wall-clock instrumentation on the Table-3 gallery:
//! the production executor at one worker vs. many, and the reference
//! interpreter vs. the compiled executor.

use std::time::Instant;

use gpu_codegen::hybrid_gen::alignment_offset_words;
use gpu_codegen::ir::LaunchPlan;
use gpu_codegen::{generate_hybrid, CodegenOptions, HybridGeometry};
use gpusim::{timing, Counters, DeviceConfig, GpuSim};
use hybrid_tiling::cancel::CancelToken;
use hybrid_tiling::tilesize::autotune::{
    autotune, autotune_parallel_cancellable, split_thread_budget, AutotuneConfig, AutotuneReport,
    Fidelity,
};
use hybrid_tiling::{SearchSpace, TileParams};
use stencil::StencilProgram;

use crate::driver::PROXY_KEEP_FRAC;
use crate::{hybrid_params, loaded_sim, random_init};

/// Small workload used to score autotune candidates: large enough that
/// tile-grid geometry matters, small enough that a full (unsampled)
/// functional run per candidate stays cheap.
pub fn autotune_workload(program: &StencilProgram) -> (Vec<usize>, usize) {
    match program.spatial_dims() {
        2 => (vec![96, 96], 12),
        3 => (vec![20, 20, 36], 6),
        _ => (vec![256], 12),
    }
}

/// The reduced workload of the fidelity ladder's proxy round: every
/// dimension and the step count scaled by `frac`, floored so the grid
/// never shrinks below the stencil halo's needs (16 points per dimension,
/// 2 steps) and never grows past the full workload. `frac >= 1.0` returns
/// the workload unchanged (ladder disabled).
pub fn proxy_workload(dims: &[usize], steps: usize, frac: f64) -> (Vec<usize>, usize) {
    if !(frac > 0.0 && frac < 1.0) {
        return (dims.to_vec(), steps);
    }
    let scaled = |x: usize, floor: usize| -> usize {
        (((x as f64) * frac).ceil() as usize).clamp(floor.min(x), x)
    };
    (
        dims.iter().map(|&d| scaled(d, 16)).collect(),
        scaled(steps, 2),
    )
}

/// The §6 sweep space for `n` spatial dimensions. `smoke` shrinks it for
/// CI: every stage still runs, on a handful of candidates.
pub fn sweep_space(n: usize, smoke: bool) -> SearchSpace {
    if smoke {
        SearchSpace::for_dims(n, vec![1, 2], vec![1, 3], &[4], &[32])
    } else {
        SearchSpace::for_dims(n, vec![0, 1, 2, 3], vec![1, 3, 5], &[4, 8], &[32, 64])
    }
}

/// Scores one candidate under the default ([`CodegenOptions::best`])
/// code-generation options; see [`simulate_score_with`].
pub fn simulate_score(
    program: &StencilProgram,
    params: &TileParams,
    device: &DeviceConfig,
    dims: &[usize],
    steps: usize,
    threads: usize,
) -> Option<f64> {
    simulate_score_with(
        program,
        params,
        device,
        dims,
        steps,
        threads,
        CodegenOptions::best(),
    )
}

/// Scores one candidate: generates the hybrid plan with `opts` (the same
/// options the caller will emit the final plan with, so the ranking and
/// the emitted code cannot diverge), runs it in full on the
/// block-parallel simulator with `threads` workers, and returns simulated
/// GStencils/s. `None` when codegen fails or a kernel exceeds the
/// device's shared-memory limit (the candidate is infeasible on `device`
/// even if it fit the model's budget).
#[allow(clippy::too_many_arguments)]
pub fn simulate_score_with(
    program: &StencilProgram,
    params: &TileParams,
    device: &DeviceConfig,
    dims: &[usize],
    steps: usize,
    threads: usize,
    opts: CodegenOptions,
) -> Option<f64> {
    let geometry = HybridGeometry::new(program, params, dims, steps, opts).ok()?;
    if geometry.shared_bytes() > device.shared_limit {
        return None;
    }
    let plan = geometry.build_plan();
    let init = random_init(program, dims, 7);
    let align = geometry.alignment_offset_words();
    let mut sim = loaded_sim(program, device, &init, align, steps);
    sim.run_plan_parallel_with(&plan, threads);
    Some(timing::gstencils_per_s(sim.counters(), sim.device()))
}

/// Runs the full autotune pipeline for one program: sweep under Fermi
/// budgets, verify the top candidates' schedules exhaustively on a small
/// domain, score each on the parallel simulator.
pub fn autotune_program(
    program: &StencilProgram,
    device: &DeviceConfig,
    threads: usize,
    smoke: bool,
) -> AutotuneReport {
    let space = sweep_space(program.spatial_dims(), smoke);
    let verify_domain = match program.spatial_dims() {
        2 => (vec![16, 12], 8),
        3 => (vec![8, 8, 10], 4),
        _ => (vec![40], 10),
    };
    let cfg = AutotuneConfig {
        smem_limit: device.shared_limit as u64,
        verify_domain: Some(verify_domain),
        max_candidates: if smoke { 4 } else { 16 },
        ..AutotuneConfig::fermi()
    };
    let (dims, steps) = autotune_workload(program);
    autotune(program, &space, &cfg, |model| {
        simulate_score(program, &model.params, device, &dims, steps, threads)
    })
}

/// Shortlist width per spatial dimensionality, calibrated so the
/// analytical merit retains the simulator-best plan across the gallery
/// (2-D needs 3 survivors, 3-D 6, 1-D 2).
pub fn default_top_k(spatial_dims: usize) -> usize {
    match spatial_dims {
        2 => 3,
        3 => 6,
        _ => 2,
    }
}

/// Exhaustive-vs-model-guided sweep comparison for one stencil: same
/// full (non-smoke) space, same scorer and workload; only the analytical
/// shortlist differs. The evidence behind the `--model-gate` CI gate.
#[derive(Clone, Debug)]
pub struct ModelGateSample {
    /// Stencil name.
    pub stencil: String,
    /// Shortlist width used for the model-guided run.
    pub top_k: usize,
    /// Simulator scorings the exhaustive (`top_k = 0`) sweep paid.
    pub exhaustive_simulations: usize,
    /// Simulator scorings the shortlisted sweep paid.
    pub shortlist_simulations: usize,
    /// Best GStencils/s found by the exhaustive sweep.
    pub exhaustive_best: f64,
    /// Best GStencils/s found by the shortlisted sweep.
    pub shortlist_best: f64,
}

impl ModelGateSample {
    /// Exhaustive scorings per shortlist scoring (> 1 = the model saves work).
    pub fn sim_reduction(&self) -> f64 {
        if self.shortlist_simulations == 0 {
            return f64::INFINITY;
        }
        self.exhaustive_simulations as f64 / self.shortlist_simulations as f64
    }

    /// Shortlist winner's score as a fraction of the exhaustive winner's
    /// (1.0 = the shortlist retained the true best plan).
    pub fn quality(&self) -> f64 {
        if self.exhaustive_best <= 0.0 {
            return 1.0;
        }
        self.shortlist_best / self.exhaustive_best
    }
}

/// Runs one stencil's exhaustive and model-guided sweeps over the full
/// §6 space (no `max_candidates` truncation, so the simulation counts
/// measure the shortlist alone) and returns the paired sample.
pub fn model_gate_sample(
    program: &StencilProgram,
    device: &DeviceConfig,
    threads: usize,
) -> ModelGateSample {
    let space = sweep_space(program.spatial_dims(), false);
    let (dims, steps) = autotune_workload(program);
    let run = |top_k: usize| -> AutotuneReport {
        let cfg = AutotuneConfig {
            smem_limit: device.shared_limit as u64,
            max_candidates: usize::MAX,
            top_k,
            ..AutotuneConfig::fermi()
        };
        autotune(program, &space, &cfg, |model| {
            simulate_score(program, &model.params, device, &dims, steps, threads)
        })
    };
    let top_k = default_top_k(program.spatial_dims());
    let exhaustive = run(0);
    let shortlist = run(top_k);
    ModelGateSample {
        stencil: program.name().to_string(),
        top_k,
        exhaustive_simulations: exhaustive.simulated,
        shortlist_simulations: shortlist.simulated,
        exhaustive_best: exhaustive.ranked.first().map_or(0.0, |e| e.score),
        shortlist_best: shortlist.ranked.first().map_or(0.0, |e| e.score),
    }
}

/// Sequential-vs-racing sweep comparison for one stencil: the same full
/// (non-smoke) space and scorer, swept once candidate-by-candidate at
/// full fidelity (the pre-PR baseline) and once through the parallel
/// worker pool with the successive-halving fidelity ladder. The evidence
/// behind the `--race-gate` CI gate.
#[derive(Clone, Debug)]
pub struct RaceGateSample {
    /// Stencil name.
    pub stencil: String,
    /// Candidate workers the racing sweep used.
    pub workers: usize,
    /// Fidelity scale of the proxy round.
    pub proxy_frac: f64,
    /// Sequential sweep wall-clock in milliseconds.
    pub seq_wall_ms: f64,
    /// The part of `seq_wall_ms` the tile-size model took over the whole
    /// space (`AutotuneReport::model_ms`); the rest is the scoring round.
    pub seq_model_ms: f64,
    /// Racing (parallel + ladder) sweep wall-clock in milliseconds.
    pub ladder_wall_ms: f64,
    /// Full-fidelity simulations the sequential sweep paid.
    pub seq_full_simulations: usize,
    /// Full-fidelity simulations the ladder paid (survivors only).
    pub ladder_full_simulations: usize,
    /// Proxy-fidelity simulations the ladder paid.
    pub ladder_proxy_simulations: usize,
    /// Best GStencils/s found by the sequential sweep.
    pub seq_best: f64,
    /// Best GStencils/s found by the racing sweep.
    pub ladder_best: f64,
}

impl RaceGateSample {
    /// Sequential full-fidelity simulations per ladder full-fidelity
    /// simulation (≥ 2 = the ladder halves the expensive work).
    pub fn full_sim_reduction(&self) -> f64 {
        if self.ladder_full_simulations == 0 {
            return f64::INFINITY;
        }
        self.seq_full_simulations as f64 / self.ladder_full_simulations as f64
    }

    /// Racing winner's score as a fraction of the sequential winner's
    /// (1.0 = the ladder retained the true best plan).
    pub fn quality(&self) -> f64 {
        if self.seq_best <= 0.0 {
            return 1.0;
        }
        self.ladder_best / self.seq_best
    }

    /// The sequential sweep's front half as a fraction of its scoring
    /// round (`model_ms / (wall - model_ms)`): far below 1 while the model
    /// counts tiles, above 1 if it ever goes back to enumerating them.
    pub fn model_share_of_scoring(&self) -> f64 {
        self.seq_model_ms / (self.seq_wall_ms - self.seq_model_ms).max(f64::MIN_POSITIVE)
    }

    /// Sequential wall-clock over racing wall-clock (> 1 = racing wins).
    pub fn wall_speedup(&self) -> f64 {
        if self.ladder_wall_ms <= 0.0 {
            return 1.0;
        }
        self.seq_wall_ms / self.ladder_wall_ms
    }
}

/// Runs one stencil's sweeps both ways over the full §6 space — the
/// sequential full-fidelity oracle, then the racing sweep with `budget`
/// host threads split between candidate workers and per-candidate
/// simulator threads and a `proxy_frac = 0.5` fidelity ladder keeping
/// [`PROXY_KEEP_FRAC`] of the proxy round — and returns the paired
/// sample.
pub fn race_gate_sample(
    program: &StencilProgram,
    device: &DeviceConfig,
    budget: usize,
) -> RaceGateSample {
    let space = sweep_space(program.spatial_dims(), false);
    let (dims, steps) = autotune_workload(program);
    let base = AutotuneConfig {
        smem_limit: device.shared_limit as u64,
        max_candidates: usize::MAX,
        ..AutotuneConfig::fermi()
    };

    // The pre-PR baseline: one candidate at a time, full fidelity only,
    // single-threaded simulations.
    let t0 = Instant::now();
    let seq = autotune(program, &space, &base, |model| {
        simulate_score(program, &model.params, device, &dims, steps, 1)
    });
    let seq_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let proxy_frac = 0.5;
    let cfg = AutotuneConfig {
        proxy_frac,
        keep_frac: PROXY_KEEP_FRAC,
        ..base
    };
    let (pdims, psteps) = proxy_workload(&dims, steps, proxy_frac);
    let (workers, sim_threads) = split_thread_budget(budget, seq.simulated.max(1));
    let t1 = Instant::now();
    let ladder = autotune_parallel_cancellable(
        program,
        &space,
        &cfg,
        &CancelToken::never(),
        workers,
        |model: &hybrid_tiling::tilesize::TileSizeModel, fidelity: Fidelity| {
            let (d, s) = match fidelity {
                Fidelity::Proxy => (&pdims, psteps),
                Fidelity::Full => (&dims, steps),
            };
            simulate_score(program, &model.params, device, d, s, sim_threads)
        },
    )
    .expect("a never-token cannot cancel the sweep");
    let ladder_wall_ms = t1.elapsed().as_secs_f64() * 1e3;

    RaceGateSample {
        stencil: program.name().to_string(),
        workers,
        proxy_frac,
        seq_wall_ms,
        seq_model_ms: seq.model_ms,
        ladder_wall_ms,
        seq_full_simulations: seq.full_simulated,
        ladder_full_simulations: ladder.full_simulated,
        ladder_proxy_simulations: ladder.proxy_simulated,
        seq_best: seq.ranked.first().map_or(0.0, |e| e.score),
        ladder_best: ladder.ranked.first().map_or(0.0, |e| e.score),
    }
}

/// Wall-clock comparison of one plan on the production executor at one
/// worker vs. `threads` workers, cross-checked bit-exact.
#[derive(Clone, Debug)]
pub struct SpeedupSample {
    /// Stencil name.
    pub stencil: String,
    /// `run_plan_parallel_with(plan, 1)` wall time in seconds.
    pub seq_seconds: f64,
    /// `run_plan_parallel_with(plan, threads)` wall time in seconds.
    pub par_seconds: f64,
    /// Thread-block launches executed (workload size indicator).
    pub launches: u64,
}

impl SpeedupSample {
    /// One-worker time over `threads`-worker time (> 1 means the pool wins).
    pub fn speedup(&self) -> f64 {
        if self.par_seconds <= 0.0 {
            return 1.0;
        }
        self.seq_seconds / self.par_seconds
    }
}

/// Workload for the speedup measurement: big enough that per-launch pool
/// overhead amortizes, small enough for CI smoke runs.
pub fn speedup_workload(program: &StencilProgram, smoke: bool) -> (Vec<usize>, usize) {
    match (program.spatial_dims(), smoke) {
        (2, true) => (vec![96, 96], 8),
        (2, false) => (vec![256, 256], 16),
        (3, true) => (vec![20, 20, 36], 4),
        (3, false) => (vec![40, 40, 64], 8),
        (_, true) => (vec![512], 8),
        (_, false) => (vec![2048], 16),
    }
}

/// Times two executor entries against each other on one program's hybrid
/// plan (default tile parameters, [`speedup_workload`]): each runs
/// `repeats` times on a freshly loaded simulator and the **minimum**
/// (least-noise) wall time is kept, so a single noisy-neighbor stall on a
/// shared CI runner cannot flip a gate. Returns `(a_seconds, b_seconds,
/// counters)`.
///
/// # Panics
///
/// Panics if the two entries disagree on counters or grids — the speed of
/// a wrong answer is not worth reporting.
fn race_executors(
    program: &StencilProgram,
    device: &DeviceConfig,
    smoke: bool,
    repeats: usize,
    a: impl Fn(&mut GpuSim, &LaunchPlan),
    b: impl Fn(&mut GpuSim, &LaunchPlan),
) -> (f64, f64, Counters) {
    let params = hybrid_params(program);
    let opts = CodegenOptions::best();
    let (dims, steps) = speedup_workload(program, smoke);
    let plan = generate_hybrid(program, &params, &dims, steps, opts)
        .expect("default hybrid parameters are schedulable for gallery stencils");
    let align = alignment_offset_words(program, &params, &opts);
    let init = random_init(program, &dims, 7);
    let timed = |run: &dyn Fn(&mut GpuSim, &LaunchPlan), best: &mut f64| {
        let t0 = Instant::now();
        let mut sim = loaded_sim(program, device, &init, align, steps);
        run(&mut sim, &plan);
        *best = best.min(t0.elapsed().as_secs_f64());
        sim
    };
    let (mut a_seconds, mut b_seconds) = (f64::INFINITY, f64::INFINITY);
    let mut counters = Counters::default();
    for _ in 0..repeats.max(1) {
        let sim_a = timed(&a, &mut a_seconds);
        let sim_b = timed(&b, &mut b_seconds);
        assert_eq!(
            sim_b.counters(),
            sim_a.counters(),
            "{}: executor counters diverged",
            program.name()
        );
        for f in 0..program.num_fields() {
            for p in 0..=program.max_dt() as usize {
                assert!(
                    sim_b.plane(f, p).bit_equal(sim_a.plane(f, p)),
                    "{}: executor grids diverged (field {f} plane {p})",
                    program.name()
                );
            }
        }
        counters = *sim_b.counters();
    }
    (a_seconds, b_seconds, counters)
}

/// Measures the production executor at one worker against `threads`
/// workers (`race_executors`): what the thread pool buys, nothing else.
pub fn measure_speedup(
    program: &StencilProgram,
    device: &DeviceConfig,
    threads: usize,
    smoke: bool,
    repeats: usize,
) -> SpeedupSample {
    let (seq_seconds, par_seconds, counters) = race_executors(
        program,
        device,
        smoke,
        repeats,
        |sim, plan| sim.run_plan_parallel_with(plan, 1),
        |sim, plan| sim.run_plan_parallel_with(plan, threads),
    );
    SpeedupSample {
        stencil: program.name().to_string(),
        seq_seconds,
        par_seconds,
        launches: counters.launches,
    }
}

/// Wall-clock comparison of one plan on the interpreting vs. the
/// compiled-bytecode executor, both single-threaded, with a bit-exactness
/// cross-check before any time is reported. This is the `points_per_sec`
/// metric of `BENCH_autotune.json`: simulated stencil point updates per
/// wall-clock second of *simulator* time — the simulator's own
/// throughput, which bounds how many tuning candidates the fleet can
/// score per deadline (not to be confused with the simulated device's
/// GStencils/s).
#[derive(Clone, Debug)]
pub struct ExecThroughputSample {
    /// Stencil name.
    pub stencil: String,
    /// Interpreted (`run_plan`) wall time in seconds.
    pub interpreted_seconds: f64,
    /// Compiled (`run_plan_compiled`) wall time in seconds.
    pub compiled_seconds: f64,
    /// Logical stencil point updates the plan performs.
    pub points: u64,
}

impl ExecThroughputSample {
    /// Simulated point updates per second of interpreter wall time.
    pub fn points_per_sec_interpreted(&self) -> f64 {
        if self.interpreted_seconds <= 0.0 {
            return 0.0;
        }
        self.points as f64 / self.interpreted_seconds
    }

    /// Simulated point updates per second of compiled-executor wall time.
    pub fn points_per_sec_compiled(&self) -> f64 {
        if self.compiled_seconds <= 0.0 {
            return 0.0;
        }
        self.points as f64 / self.compiled_seconds
    }

    /// Interpreted time over compiled time (> 1 means compilation wins).
    pub fn speedup(&self) -> f64 {
        if self.compiled_seconds <= 0.0 {
            return 1.0;
        }
        self.interpreted_seconds / self.compiled_seconds
    }
}

/// Measures the reference interpreter against the compiled executor on
/// one worker (`race_executors`, same workload as [`measure_speedup`]).
pub fn measure_exec_throughput(
    program: &StencilProgram,
    device: &DeviceConfig,
    smoke: bool,
    repeats: usize,
) -> ExecThroughputSample {
    let (interpreted_seconds, compiled_seconds, counters) = race_executors(
        program,
        device,
        smoke,
        repeats,
        |sim, plan| sim.run_plan(plan),
        |sim, plan| sim.run_plan_compiled(plan),
    );
    ExecThroughputSample {
        stencil: program.name().to_string(),
        interpreted_seconds,
        compiled_seconds,
        points: counters.point_updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    #[test]
    fn scorer_produces_positive_throughput() {
        let p = gallery::jacobi2d();
        let (dims, steps) = autotune_workload(&p);
        let s = simulate_score(
            &p,
            &TileParams::new(2, &[3, 32]),
            &DeviceConfig::gtx470(),
            &dims,
            steps,
            2,
        )
        .unwrap();
        assert!(s > 0.0);
    }

    #[test]
    fn scorer_rejects_oversized_shared_memory() {
        let p = gallery::heat3d();
        let (dims, steps) = autotune_workload(&p);
        // A deliberately huge footprint: 27-point stencil with wide tile.
        let s = simulate_score(
            &p,
            &TileParams::new(3, &[7, 16, 64]),
            &DeviceConfig::gtx470(),
            &dims,
            steps,
            1,
        );
        assert!(s.is_none());
    }

    #[test]
    fn smoke_autotune_ranks_candidates() {
        let p = gallery::jacobi2d();
        let report = autotune_program(&p, &DeviceConfig::gtx470(), 2, true);
        assert!(!report.ranked.is_empty());
        assert!(report.ranked.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn speedup_sample_is_bit_exact_and_positive() {
        let p = gallery::jacobi2d();
        let s = measure_speedup(&p, &DeviceConfig::gtx470(), 2, true, 2);
        assert!(s.seq_seconds > 0.0);
        assert!(s.par_seconds > 0.0);
        assert!(s.launches > 0);
    }

    #[test]
    fn exec_throughput_sample_is_bit_exact_and_positive() {
        let p = gallery::jacobi2d();
        let s = measure_exec_throughput(&p, &DeviceConfig::gtx470(), true, 1);
        assert!(s.interpreted_seconds > 0.0);
        assert!(s.compiled_seconds > 0.0);
        assert!(s.points > 0);
        assert!(s.points_per_sec_interpreted() > 0.0);
        assert!(s.points_per_sec_compiled() > 0.0);
        assert!(s.speedup() > 0.0);
    }
}

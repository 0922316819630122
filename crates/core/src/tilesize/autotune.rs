//! Tile-size autotuning (§6): sweep the `(h, w0, w1, ..)` space subject to
//! the shared-memory and register-file constraints, and rank the surviving
//! candidates by a measured score.
//!
//! The paper tunes tile sizes per benchmark by combining the static
//! load-to-compute model of §3.7 with the hardware resource limits of §6
//! (48 KB of shared memory and a 32 K-register file per SM on Fermi) and a
//! measurement pass over the remaining candidates. This module reproduces
//! that pipeline:
//!
//! 1. **enumerate** every parameter choice in a [`SearchSpace`] and
//!    evaluate the exact per-tile model through one per-program
//!    [`TileEvaluator`] (racing sweeps spread the candidates over their
//!    worker pool);
//! 2. **prune** candidates whose shared-memory footprint or estimated
//!    register demand exceed the [`AutotuneConfig`] budgets;
//! 3. optionally **verify** each surviving schedule exhaustively on a
//!    small domain ([`crate::verify`]) — asserting the §3.3.3 properties
//!    the block-parallel simulator relies on (concurrent `S0` tiles are
//!    independent, so blocks of one launch never overlap writes);
//! 4. **score** candidates through a caller-supplied function and return
//!    the ranked table.
//!
//! The scorer is a plain closure because this crate sits below the
//! simulator in the dependency order: `hybrid_bench` plugs in a
//! `gpusim`-backed scorer (simulated GStencils/s on the device of
//! interest) and exposes the whole pipeline as the `autotune` binary.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use stencil::domain::ScheduledDomain;
use stencil::StencilProgram;

use crate::cancel::{CancelKind, CancelToken};
use crate::params::{TileError, TileParams};
use crate::schedule::HybridSchedule;
use crate::tilesize::{SearchSpace, TileEvaluator, TileSizeModel};
use crate::verify::verify_schedule_storage;

/// Resource budgets and knobs for one autotuning run.
#[derive(Clone, Debug)]
pub struct AutotuneConfig {
    /// Shared-memory budget per block in bytes (§6: 48 KB on Fermi).
    pub smem_limit: u64,
    /// Register-file budget per block in 4-byte registers (§6: 32 K per
    /// SM on Fermi, with one resident block charged the full file —
    /// a conservative single-occupancy reading of the constraint).
    pub regs_per_block: u64,
    /// Exhaustively verify each surviving candidate's executable schedule
    /// on this `(dims, steps)` domain before scoring. `None` skips
    /// verification (the schedules are still constructed, just not
    /// point-checked).
    pub verify_domain: Option<(Vec<usize>, usize)>,
    /// Keep at most this many candidates (best static load-to-compute
    /// ratio first) for the verify/score stages.
    pub max_candidates: usize,
    /// Model-guided shortlist: score only the `top_k` candidates ranked
    /// best by the [`analytical_merit`] figure of merit. `0` disables the
    /// shortlist — every candidate surviving the budgets (and
    /// `max_candidates`) reaches the scorer, which preserves the
    /// exhaustive sweep as the oracle.
    pub top_k: usize,
    /// Fidelity scale of the successive-halving proxy round in `(0, 1]`.
    /// `1.0` disables the ladder entirely; anything below enables it.
    /// The value is advisory to the *scorer*: the sweep passes
    /// [`Fidelity::Proxy`] on the first round and the scorer is expected
    /// to shrink its grid/steps by this fraction (the sweep itself never
    /// simulates, so it only uses the value as the on/off switch).
    pub proxy_frac: f64,
    /// Fraction of proxy-scored candidates that survive to the
    /// full-fidelity round: `ceil(keep_frac * scored)`, clamped to
    /// `[1, scored]`. Only consulted when the ladder is enabled.
    pub keep_frac: f64,
}

impl AutotuneConfig {
    /// Fermi-class budgets (GTX 470 / NVS 5200M): 48 KB shared memory and
    /// a 32 K-register file, no candidate cap, no verification domain,
    /// no model-guided shortlist.
    pub fn fermi() -> AutotuneConfig {
        AutotuneConfig {
            smem_limit: 48 * 1024,
            regs_per_block: 32 * 1024,
            verify_domain: None,
            max_candidates: usize::MAX,
            top_k: 0,
            proxy_frac: 1.0,
            keep_frac: 0.5,
        }
    }
}

/// Which rung of the successive-halving ladder a scorer invocation sits
/// on. [`autotune_parallel_cancellable`] passes `Proxy` for the cheap
/// first round (the scorer should simulate a grid/step count scaled by
/// [`AutotuneConfig::proxy_frac`]) and `Full` for the final ranking round.
/// The sequential sweep only ever runs `Full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Reduced-size, reduced-steps estimate used to pick survivors.
    Proxy,
    /// Full-workload score; the only fidelity that enters the ranking.
    Full,
}

/// One scored candidate.
#[derive(Clone, Debug)]
pub struct AutotuneEntry {
    /// The static per-tile model (parameters, iteration/load counts,
    /// shared-memory footprint).
    pub model: TileSizeModel,
    /// The scorer's figure of merit; **higher is better** (simulator-backed
    /// scorers return GStencils/s).
    pub score: f64,
}

/// The outcome of an autotuning sweep: the ranked table plus where the
/// rest of the space went.
#[derive(Clone, Debug, Default)]
pub struct AutotuneReport {
    /// Scored candidates, best first (ties broken toward the lower static
    /// load-to-compute ratio).
    pub ranked: Vec<AutotuneEntry>,
    /// Parameter choices examined in total.
    pub examined: usize,
    /// Rejected: no hybrid schedule exists for the parameters.
    pub rejected_schedule: usize,
    /// Rejected: shared-memory footprint exceeds the budget.
    pub rejected_smem: usize,
    /// Rejected: estimated register demand exceeds the budget.
    pub rejected_regs: usize,
    /// Dropped by the `max_candidates` cap after static ranking.
    pub pruned: usize,
    /// Candidates that survived the budgets and (when `top_k > 0`) the
    /// model-guided shortlist — the population the scorer sees.
    pub shortlisted: usize,
    /// Scorer invocations actually performed (simulator runs under a
    /// simulator-backed scorer), across *both* fidelity rungs. Differs
    /// from `shortlisted` only when a cancellation stopped the sweep
    /// mid-scoring or the fidelity ladder dropped non-survivors.
    pub simulated: usize,
    /// Scorer invocations at [`Fidelity::Proxy`] (the cheap ladder round).
    /// Always `0` for the sequential sweep or with the ladder disabled.
    pub proxy_simulated: usize,
    /// Scorer invocations at [`Fidelity::Full`]. With the ladder disabled
    /// this equals `simulated`; with it enabled, only survivors pay one.
    pub full_simulated: usize,
    /// Rejected by the scorer (`None` — e.g. device limits at codegen).
    pub rejected_scorer: usize,
    /// Wall-clock milliseconds the tile-size model took over the whole
    /// space (enumerate, evaluate, prune, shortlist — everything before
    /// verification and scoring). The one field of the report that is a
    /// measurement, not a function of the inputs.
    pub model_ms: f64,
}

impl AutotuneReport {
    /// The winning candidate, if any survived.
    pub fn best(&self) -> Option<&AutotuneEntry> {
        self.ranked.first()
    }
}

/// A sweep that did not run to completion.
#[derive(Clone, Debug)]
pub enum AutotuneError {
    /// The sweep observed its [`CancelToken`] between candidates and
    /// stopped. `partial` holds everything scored before the check fired
    /// (ranked, so a caller that wants a best-effort plan can still take
    /// `partial.best()`).
    Cancelled {
        /// Deadline or explicit flag.
        kind: CancelKind,
        /// The report as of the cancellation point.
        partial: AutotuneReport,
    },
}

impl AutotuneError {
    /// The cancellation reason.
    pub fn kind(&self) -> CancelKind {
        match self {
            AutotuneError::Cancelled { kind, .. } => *kind,
        }
    }
}

impl fmt::Display for AutotuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutotuneError::Cancelled { kind, partial } => write!(
                f,
                "tuning sweep {}: {} candidate(s) examined, {} scored before the stop",
                match kind {
                    CancelKind::Deadline => "exceeded its deadline",
                    CancelKind::Flag => "was cancelled",
                },
                partial.examined,
                partial.ranked.len(),
            ),
        }
    }
}

impl std::error::Error for AutotuneError {}

/// Threads per block the hybrid code generator will use for `params`:
/// the product of the classical widths `w[1..]` (the innermost width maps
/// to `threadIdx.x`, the next to `threadIdx.y`), with a warp-size floor
/// for 1D programs whose block covers the hexagon bounding box.
pub fn estimated_threads_per_block(params: &TileParams) -> u64 {
    let classical: u64 = params.w[1..].iter().map(|&w| w as u64).product();
    if params.w.len() == 1 {
        32
    } else {
        classical
    }
}

/// Estimated registers per block: the generated kernels hold one `f32`
/// register per distinct load of the widest statement plus an accumulator
/// (`n_regs = max_loads + 1` in the code generator), and roughly eight
/// integer registers for addressing — times the block's thread count.
pub fn estimated_regs_per_block(program: &StencilProgram, params: &TileParams) -> u64 {
    let max_loads = program
        .statements()
        .iter()
        .map(|s| s.expr.loads().len() as u64)
        .max()
        .unwrap_or(0);
    (max_loads + 1 + 8) * estimated_threads_per_block(params)
}

/// Fermi's per-SM residency ceilings (§6 hardware limits): at most 8
/// resident blocks and 1536 resident threads per multiprocessor.
const MAX_RESIDENT_BLOCKS: u64 = 8;
const MAX_RESIDENT_THREADS: u64 = 1536;

/// The pure analytical figure of merit behind the model-guided shortlist
/// (`AutotuneConfig::top_k`): **occupancy × compute-to-load ratio**,
/// penalized by shared-memory and register pressure against the device
/// budgets. No simulation runs — everything comes from the static
/// [`TileSizeModel`] and the [`AutotuneConfig`] budgets, so ranking a
/// whole sweep space costs microseconds.
///
/// * *compute-to-load* (`iterations / steady_loads`) is the inverse of
///   the §3.7 ratio the paper minimizes: points computed per value
///   fetched from global memory — the DRAM-roof term.
/// * *occupancy* is the resident-thread fraction per SM implied by how
///   many blocks fit under the shared-memory and register budgets
///   (capped at Fermi's 8 blocks / 1536 threads): wide shallow tiles
///   with tiny footprints score close to 1, monster tiles that
///   serialize the SM score near `threads / 1536`. The merit uses its
///   **fourth root**: occupancy buys latency hiding with steeply
///   diminishing returns, and on a bandwidth-limited roofline device a
///   half-occupied SM already sustains close to peak DRAM throughput —
///   a linear term was observed to evict the simulator-best plan from
///   the shortlist on the multi-field and 3D gallery stencils.
/// * the *pressure penalty* discounts candidates sitting close to either
///   budget — those are the ones whose real kernels spill registers or
///   fail codegen-time shared-memory checks even though the static model
///   squeaked under the limit.
///
/// Higher is better. The merit is a *ranking* device, not a throughput
/// prediction: `autotune_cancellable` uses it to decide which candidates
/// deserve a (expensive, simulator-backed) scoring pass.
pub fn analytical_merit(
    program: &StencilProgram,
    model: &TileSizeModel,
    cfg: &AutotuneConfig,
) -> f64 {
    let threads = estimated_threads_per_block(&model.params);
    let regs = estimated_regs_per_block(program, &model.params);
    let smem_limit = cfg.smem_limit.max(1);
    let regs_limit = cfg.regs_per_block.max(1);

    let blocks_by_smem = smem_limit
        .checked_div(model.smem_bytes)
        .map_or(MAX_RESIDENT_BLOCKS, |b| b.min(MAX_RESIDENT_BLOCKS));
    let blocks_by_regs = regs_limit
        .checked_div(regs)
        .map_or(MAX_RESIDENT_BLOCKS, |b| b.min(MAX_RESIDENT_BLOCKS));
    let resident = blocks_by_smem.min(blocks_by_regs);
    let occupancy = ((resident * threads) as f64 / MAX_RESIDENT_THREADS as f64)
        .clamp(0.0, 1.0)
        .sqrt()
        .sqrt();

    let compute_per_load = if model.steady_loads == 0 {
        model.iterations as f64
    } else {
        model.iterations as f64 / model.steady_loads as f64
    };

    // Pressure against either budget in [0, 1]; candidates at > 100% of
    // a budget never reach this function (the prune stage rejects them).
    let smem_pressure = (model.smem_bytes as f64 / smem_limit as f64).clamp(0.0, 1.0);
    let reg_pressure = (regs as f64 / regs_limit as f64).clamp(0.0, 1.0);
    let penalty = 1.0 - 0.5 * smem_pressure.max(reg_pressure);

    occupancy * compute_per_load * penalty
}

/// Every parameter combination of the space, in deterministic sweep order.
fn combinations(space: &SearchSpace) -> Vec<(i64, Vec<i64>)> {
    let mut tails: Vec<Vec<i64>> = vec![vec![]];
    for cands in &space.wi {
        let mut next = Vec::new();
        for prefix in &tails {
            for &w in cands {
                let mut v = prefix.clone();
                v.push(w);
                next.push(v);
            }
        }
        tails = next;
    }
    let mut out = Vec::new();
    for &h in &space.h {
        for &w0 in &space.w0 {
            for tail in &tails {
                let mut w = vec![w0];
                w.extend_from_slice(tail);
                out.push((h, w));
            }
        }
    }
    out
}

/// Runs the sweep: enumerate, prune against `cfg`, statically rank,
/// optionally verify, then score with `scorer` and rank by score.
///
/// The scorer receives each surviving model and returns its figure of
/// merit (higher is better) or `None` to reject the candidate.
///
/// # Panics
///
/// Panics if a candidate schedule fails exhaustive verification on
/// `cfg.verify_domain` — a legal-looking candidate with an illegal
/// schedule is a construction bug, not an infeasible choice, and silently
/// dropping it would hide exactly the property the parallel simulator
/// depends on.
pub fn autotune<F>(
    program: &StencilProgram,
    space: &SearchSpace,
    cfg: &AutotuneConfig,
    scorer: F,
) -> AutotuneReport
where
    F: FnMut(&TileSizeModel) -> Option<f64>,
{
    match autotune_cancellable(program, space, cfg, &CancelToken::never(), scorer) {
        Ok(report) => report,
        // A never-token cannot fire; keep the partial report anyway
        // rather than panicking on an impossible branch.
        Err(AutotuneError::Cancelled { partial, .. }) => partial,
    }
}

/// [`autotune`] under a [`CancelToken`]: the sweep checks the token
/// between candidates (during enumeration, verification, and scoring)
/// and returns [`AutotuneError::Cancelled`] with the partial report when
/// it fires. Everything scored before the stop is ranked exactly as a
/// completed sweep would rank it.
///
/// # Errors
///
/// [`AutotuneError::Cancelled`] when the token fires mid-sweep.
///
/// # Panics
///
/// Like [`autotune`], panics if a candidate fails exhaustive schedule
/// verification on `cfg.verify_domain` (a construction bug, not an
/// infeasible choice).
pub fn autotune_cancellable<F>(
    program: &StencilProgram,
    space: &SearchSpace,
    cfg: &AutotuneConfig,
    cancel: &CancelToken,
    mut scorer: F,
) -> Result<AutotuneReport, AutotuneError>
where
    F: FnMut(&TileSizeModel) -> Option<f64>,
{
    let (mut report, feasible) = prepare_candidates(program, space, cfg, cancel, 1)?;
    for model in feasible {
        if let Some(kind) = cancel.cancelled() {
            return stop(kind, report);
        }
        report.simulated += 1;
        report.full_simulated += 1;
        match scorer(&model) {
            Some(score) => report.ranked.push(AutotuneEntry { model, score }),
            None => report.rejected_scorer += 1,
        }
    }
    Ok(finish(report))
}

/// Final ranking: score descending, ties broken toward the lower static
/// load-to-compute ratio. The sort is stable, so candidates that tie on
/// both keys keep their static sweep order — the property that makes the
/// parallel sweep bit-identical to the sequential one.
fn finish(mut report: AutotuneReport) -> AutotuneReport {
    report.ranked.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.model.ratio().total_cmp(&b.model.ratio()))
    });
    report
}

fn stop(kind: CancelKind, report: AutotuneReport) -> Result<AutotuneReport, AutotuneError> {
    Err(AutotuneError::Cancelled {
        kind,
        partial: finish(report),
    })
}

/// Runs `job(i)` for every `i < n` on up to `workers` threads, each
/// claiming the next index from a shared counter and observing the
/// [`CancelToken`] *between* pickups. Results land in per-index slots, so
/// completion order never influences anything downstream. Returns the
/// per-index outcomes (`None` = never attempted) plus the cancellation,
/// if one fired. One worker runs on the caller's thread.
///
/// A job panic is re-raised on the caller's thread with its original
/// payload (not `thread::scope`'s opaque "a scoped thread panicked"),
/// so batch drivers that contain per-file panics still see the message.
fn race<T, F>(
    n: usize,
    workers: usize,
    cancel: &CancelToken,
    job: F,
) -> (Vec<Option<T>>, Option<CancelKind>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let stopped: Mutex<Option<CancelKind>> = Mutex::new(None);
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let worker = || loop {
        if let Some(kind) = cancel.cancelled() {
            stopped.lock().unwrap().get_or_insert(kind);
            return;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i))) {
            Ok(result) => *slots[i].lock().unwrap() = Some(result),
            Err(payload) => {
                panicked.lock().unwrap().get_or_insert(payload);
                return;
            }
        }
    };
    match workers.min(n) {
        0 | 1 => worker(),
        pool => std::thread::scope(|s| {
            for _ in 0..pool {
                s.spawn(worker);
            }
        }),
    }
    if let Some(payload) = panicked.into_inner().unwrap() {
        std::panic::resume_unwind(payload);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap())
        .collect();
    (results, stopped.into_inner().unwrap())
}

/// The tile-size model of every point of `space` with the program's
/// arity, in sweep order, evaluated on up to `workers` threads through
/// one [`TileEvaluator`] (cone and access table derived once, each
/// hexagon once per `(h, w0)`). `None` marks candidates a fired token
/// kept from being attempted.
pub(crate) fn evaluate_space(
    program: &StencilProgram,
    space: &SearchSpace,
    workers: usize,
    cancel: &CancelToken,
) -> (
    Vec<Option<Result<TileSizeModel, TileError>>>,
    Option<CancelKind>,
) {
    let candidates: Vec<TileParams> = combinations(space)
        .into_iter()
        .filter(|(_, w)| w.len() == program.spatial_dims())
        .map(|(h, w)| TileParams::new(h, &w))
        .collect();
    let evaluator = match TileEvaluator::new(program) {
        Ok(evaluator) => evaluator,
        // No cone, no schedule: every candidate fails the same way.
        Err(e) => return race(candidates.len(), 1, cancel, |_| Err(e.clone())),
    };
    // The sweep order is (h, w0)-major, so equal hexagons are adjacent.
    let mut hexes = Vec::new();
    let mut hex_of = Vec::with_capacity(candidates.len());
    let mut last = None;
    for p in &candidates {
        if last != Some((p.h, p.w[0])) {
            last = Some((p.h, p.w[0]));
            hexes.push(evaluator.hexagon(p.h, p.w[0]));
        }
        hex_of.push(hexes.len() - 1);
    }
    race(candidates.len(), workers, cancel, |i| {
        match &hexes[hex_of[i]] {
            Ok(hex) => evaluator.evaluate_on(hex, &candidates[i]),
            Err(e) => Err(e.clone()),
        }
    })
}

/// The deterministic front half of every sweep: enumerate, evaluate the
/// model on up to `workers` threads, prune against the budgets,
/// statically rank, apply `max_candidates` and the model-guided
/// shortlist, and (optionally) verify. Returns the report so far plus the
/// candidates the scorer will see, in static sweep order.
fn prepare_candidates(
    program: &StencilProgram,
    space: &SearchSpace,
    cfg: &AutotuneConfig,
    cancel: &CancelToken,
    workers: usize,
) -> Result<(AutotuneReport, Vec<TileSizeModel>), AutotuneError> {
    let started = Instant::now();
    let mut report = AutotuneReport::default();
    let mut feasible: Vec<TileSizeModel> = Vec::new();

    let (models, stopped) = evaluate_space(program, space, workers, cancel);
    for model in models.into_iter().flatten() {
        report.examined += 1;
        let Ok(model) = model else {
            report.rejected_schedule += 1;
            continue;
        };
        if model.smem_bytes > cfg.smem_limit {
            report.rejected_smem += 1;
            continue;
        }
        if estimated_regs_per_block(program, &model.params) > cfg.regs_per_block {
            report.rejected_regs += 1;
            continue;
        }
        feasible.push(model);
    }
    if let Some(kind) = stopped {
        return Err(cancelled(kind, report));
    }

    // Static pre-ranking: most promising load-to-compute ratio first, so
    // the candidate cap keeps the right ones.
    feasible.sort_by(|a, b| {
        a.ratio()
            .total_cmp(&b.ratio())
            .then(b.iterations.cmp(&a.iterations))
    });
    if feasible.len() > cfg.max_candidates {
        report.pruned = feasible.len() - cfg.max_candidates;
        feasible.truncate(cfg.max_candidates);
    }

    // Model-guided shortlist: rank the survivors by the analytical figure
    // of merit and keep only the best `top_k` for the expensive
    // verify/score stages. `top_k == 0` keeps everyone — the exhaustive
    // oracle the shortlist is validated against.
    if cfg.top_k > 0 && feasible.len() > cfg.top_k {
        let mut merited: Vec<(f64, TileSizeModel)> = feasible
            .drain(..)
            .map(|m| (analytical_merit(program, &m, cfg), m))
            .collect();
        merited.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then(a.1.ratio().total_cmp(&b.1.ratio()))
        });
        merited.truncate(cfg.top_k);
        feasible = merited.into_iter().map(|(_, m)| m).collect();
        // Restore the static sweep order so verification and scoring
        // proceed deterministically regardless of merit ties.
        feasible.sort_by(|a, b| {
            a.ratio()
                .total_cmp(&b.ratio())
                .then(b.iterations.cmp(&a.iterations))
        });
    }
    report.shortlisted = feasible.len();
    report.model_ms = started.elapsed().as_secs_f64() * 1e3;

    if let Some((dims, steps)) = &cfg.verify_domain {
        for model in &feasible {
            if let Some(kind) = cancel.cancelled() {
                return Err(cancelled(kind, report));
            }
            let schedule = HybridSchedule::compute_executable(program, &model.params)
                .expect("feasible candidate must have an executable schedule");
            let domain = ScheduledDomain::new(program, dims, *steps);
            verify_schedule_storage(&schedule, program, &domain).unwrap_or_else(|e| {
                panic!(
                    "candidate h={} w={:?} failed schedule verification: {e}",
                    model.params.h, model.params.w
                )
            });
        }
    }

    Ok((report, feasible))
}

fn cancelled(kind: CancelKind, report: AutotuneReport) -> AutotuneError {
    AutotuneError::Cancelled {
        kind,
        partial: finish(report),
    }
}

/// Splits a host thread budget between candidate-level workers and
/// per-candidate simulator threads: `workers × per_candidate ≤ budget`,
/// never oversubscribing the host. Candidate-level parallelism is
/// preferred — independent single-thread simulations beat one
/// merge-heavy parallel simulation — so `workers` saturates first
/// (capped by how many candidates there are to race) and only leftover
/// budget widens each simulation.
pub fn split_thread_budget(budget: usize, candidates: usize) -> (usize, usize) {
    let budget = budget.max(1);
    if candidates == 0 {
        return (1, budget);
    }
    let workers = budget.min(candidates);
    (workers, (budget / workers).max(1))
}

/// [`autotune_cancellable`] with concurrent candidate scoring and an
/// optional successive-halving fidelity ladder.
///
/// Up to `workers` pool threads race independent candidates through the
/// (`Sync`) scorer; the ranking is **bit-identical** to the sequential
/// sweep's under a deterministic scorer because results are collected by
/// static rank — not completion order — and sorted with the same stable
/// comparator. Cancellation is observed between candidate pickups.
///
/// When `cfg.proxy_frac < 1.0` and more than one candidate survives the
/// shortlist, a proxy round first scores *every* candidate at
/// [`Fidelity::Proxy`] (the scorer is expected to shrink its workload by
/// `proxy_frac`); the best `ceil(keep_frac × scored)` candidates by proxy
/// score (ties broken by static rank) then pay a [`Fidelity::Full`]
/// scoring, and **only full-fidelity scores enter the ranking**.
/// Candidates the proxy scorer rejects (`None`) are dropped as
/// `rejected_scorer` without a full-fidelity attempt.
///
/// # Errors
///
/// [`AutotuneError::Cancelled`] when the token fires mid-sweep; the
/// partial report ranks everything that finished a full-fidelity scoring.
///
/// # Panics
///
/// Like [`autotune`], panics if a candidate fails exhaustive schedule
/// verification on `cfg.verify_domain`.
pub fn autotune_parallel_cancellable<F>(
    program: &StencilProgram,
    space: &SearchSpace,
    cfg: &AutotuneConfig,
    cancel: &CancelToken,
    workers: usize,
    scorer: F,
) -> Result<AutotuneReport, AutotuneError>
where
    F: Fn(&TileSizeModel, Fidelity) -> Option<f64> + Sync,
{
    let (mut report, feasible) = prepare_candidates(program, space, cfg, cancel, workers)?;
    // One fidelity rung: per-index outcomes (`None` = never attempted,
    // `Some(None)` = scorer rejected) plus the cancellation, if any.
    let score_round = |models: &[TileSizeModel], fidelity: Fidelity| {
        race(models.len(), workers, cancel, |i| {
            scorer(&models[i], fidelity)
        })
    };

    // Proxy round: cheap estimates pick the survivors that deserve a
    // full-fidelity simulation. A single candidate skips the ladder —
    // it would pay a proxy run only to survive unconditionally.
    let pool: Vec<TileSizeModel> = if cfg.proxy_frac < 1.0 && feasible.len() > 1 {
        let (results, stopped) = score_round(&feasible, Fidelity::Proxy);
        let attempted = results.iter().filter(|r| r.is_some()).count();
        report.simulated += attempted;
        report.proxy_simulated += attempted;
        if let Some(kind) = stopped {
            return Err(cancelled(kind, report));
        }
        // Pair each candidate with its proxy score; `None` rejections
        // never reach the full round.
        let mut scored: Vec<(usize, f64, TileSizeModel)> = Vec::new();
        for (i, (model, result)) in feasible.into_iter().zip(results).enumerate() {
            match result.expect("uncancelled round attempts every candidate") {
                Some(s) => scored.push((i, s, model)),
                None => report.rejected_scorer += 1,
            }
        }
        let keep = if scored.is_empty() {
            0
        } else {
            ((cfg.keep_frac * scored.len() as f64).ceil() as usize).clamp(1, scored.len())
        };
        // Best proxy score first; ties broken by static rank so the
        // survivor set is deterministic. Then restore static order.
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(keep);
        scored.sort_by_key(|(i, _, _)| *i);
        scored.into_iter().map(|(_, _, m)| m).collect()
    } else {
        feasible
    };

    let (results, stopped) = score_round(&pool, Fidelity::Full);
    let attempted = results.iter().filter(|r| r.is_some()).count();
    report.simulated += attempted;
    report.full_simulated += attempted;
    for (model, result) in pool.into_iter().zip(results) {
        match result {
            Some(Some(score)) => report.ranked.push(AutotuneEntry { model, score }),
            Some(None) => report.rejected_scorer += 1,
            None => {} // cancelled before this candidate was picked up
        }
    }
    match stopped {
        Some(kind) => Err(cancelled(kind, report)),
        None => Ok(finish(report)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    fn small_space() -> SearchSpace {
        SearchSpace {
            h: vec![0, 1, 2],
            w0: vec![1, 3],
            wi: vec![vec![8, 16]],
        }
    }

    #[test]
    fn ranking_follows_scorer() {
        // A scorer preferring tall tiles must rank a taller h first.
        let p = gallery::jacobi2d();
        let report = autotune(&p, &small_space(), &AutotuneConfig::fermi(), |m| {
            Some(m.params.h as f64)
        });
        assert!(!report.ranked.is_empty());
        let best = report.best().unwrap();
        assert_eq!(best.model.params.h, 2);
        assert!(report.ranked.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn budgets_prune_candidates() {
        let p = gallery::jacobi2d();
        let all = autotune(&p, &small_space(), &AutotuneConfig::fermi(), |_| Some(1.0));
        // A budget strictly between the smallest and largest feasible
        // footprint must reject some candidates and keep others.
        let min = all.ranked.iter().map(|e| e.model.smem_bytes).min().unwrap();
        let max = all.ranked.iter().map(|e| e.model.smem_bytes).max().unwrap();
        assert!(min < max, "space too uniform for a pruning test");
        let tight = AutotuneConfig {
            smem_limit: (min + max) / 2,
            ..AutotuneConfig::fermi()
        };
        let pruned = autotune(&p, &small_space(), &tight, |_| Some(1.0));
        assert!(pruned.rejected_smem > 0);
        assert!(pruned.ranked.len() < all.ranked.len());
        assert_eq!(
            pruned.examined,
            pruned.ranked.len()
                + pruned.rejected_schedule
                + pruned.rejected_smem
                + pruned.rejected_regs
                + pruned.rejected_scorer
        );
    }

    #[test]
    fn register_budget_rejects_wide_blocks() {
        let p = gallery::jacobi2d();
        let cfg = AutotuneConfig {
            // jacobi2d: (5 loads + 1 + 8) * 16 threads = 224 regs; budget
            // below that rejects every w1 = 16 candidate.
            regs_per_block: 200,
            ..AutotuneConfig::fermi()
        };
        let report = autotune(&p, &small_space(), &cfg, |_| Some(1.0));
        assert!(report.rejected_regs > 0);
        assert!(report
            .ranked
            .iter()
            .all(|e| estimated_regs_per_block(&p, &e.model.params) <= 200));
    }

    #[test]
    fn max_candidates_caps_scoring() {
        let p = gallery::jacobi2d();
        let mut scored = 0usize;
        let cfg = AutotuneConfig {
            max_candidates: 3,
            ..AutotuneConfig::fermi()
        };
        let report = autotune(&p, &small_space(), &cfg, |_| {
            scored += 1;
            Some(1.0)
        });
        assert_eq!(scored, 3);
        assert_eq!(report.ranked.len(), 3);
        assert!(report.pruned > 0);
    }

    #[test]
    fn verified_sweep_passes_for_gallery_program() {
        let p = gallery::jacobi2d();
        let cfg = AutotuneConfig {
            verify_domain: Some((vec![14, 12], 6)),
            max_candidates: 4,
            ..AutotuneConfig::fermi()
        };
        let report = autotune(&p, &cfg_space(), &cfg, |m| Some(1.0 / (1.0 + m.ratio())));
        assert!(!report.ranked.is_empty());
    }

    fn cfg_space() -> SearchSpace {
        SearchSpace {
            h: vec![1, 2],
            w0: vec![1, 3],
            wi: vec![vec![8]],
        }
    }

    #[test]
    fn cancelled_sweep_returns_ranked_partial_result() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let p = gallery::jacobi2d();
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::with_flag(flag.clone());
        let mut scored = 0usize;
        // The scorer raises the flag after its first call: the sweep must
        // observe it before the second candidate is scored.
        let result =
            autotune_cancellable(&p, &small_space(), &AutotuneConfig::fermi(), &token, |m| {
                scored += 1;
                flag.store(true, Ordering::SeqCst);
                Some(m.params.h as f64)
            });
        assert_eq!(scored, 1, "cancellation must stop between candidates");
        match result {
            Err(AutotuneError::Cancelled { kind, partial }) => {
                assert_eq!(kind, CancelKind::Flag);
                assert_eq!(partial.ranked.len(), 1);
                assert!(partial.best().is_some());
                let msg = AutotuneError::Cancelled { kind, partial }.to_string();
                assert!(msg.contains("was cancelled"), "{msg}");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_cancels_before_any_scoring() {
        let p = gallery::jacobi2d();
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        let result = autotune_cancellable(
            &p,
            &small_space(),
            &AutotuneConfig::fermi(),
            &token,
            |_| -> Option<f64> { panic!("scorer must not run past an expired deadline") },
        );
        match result {
            Err(AutotuneError::Cancelled { kind, partial }) => {
                assert_eq!(kind, CancelKind::Deadline);
                assert!(partial.ranked.is_empty());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn never_token_matches_plain_autotune() {
        let p = gallery::jacobi2d();
        let plain = autotune(&p, &small_space(), &AutotuneConfig::fermi(), |m| {
            Some(-m.ratio())
        });
        let via_token = autotune_cancellable(
            &p,
            &small_space(),
            &AutotuneConfig::fermi(),
            &CancelToken::never(),
            |m| Some(-m.ratio()),
        )
        .unwrap();
        assert_eq!(plain.examined, via_token.examined);
        assert_eq!(plain.ranked.len(), via_token.ranked.len());
        assert_eq!(
            plain.best().map(|e| e.model.params.clone()),
            via_token.best().map(|e| e.model.params.clone())
        );
    }

    #[test]
    fn top_k_shortlist_caps_scorer_invocations() {
        let p = gallery::jacobi2d();
        let mut scored = 0usize;
        let cfg = AutotuneConfig {
            top_k: 2,
            ..AutotuneConfig::fermi()
        };
        let report = autotune(&p, &small_space(), &cfg, |m| {
            scored += 1;
            Some(-m.ratio())
        });
        assert_eq!(scored, 2, "only the shortlist reaches the scorer");
        assert_eq!(report.shortlisted, 2);
        assert_eq!(report.simulated, 2);
        assert_eq!(report.ranked.len(), 2);
        // The shortlist discards candidates without counting them as
        // budget rejections or max_candidates pruning.
        assert_eq!(report.pruned, 0);
    }

    #[test]
    fn top_k_zero_preserves_the_exhaustive_oracle() {
        let p = gallery::jacobi2d();
        let exhaustive = autotune(&p, &small_space(), &AutotuneConfig::fermi(), |m| {
            Some(-m.ratio())
        });
        assert_eq!(exhaustive.shortlisted, exhaustive.simulated);
        assert_eq!(exhaustive.simulated, exhaustive.ranked.len());
        // A top_k at least as large as the feasible set is also exhaustive.
        let wide = AutotuneConfig {
            top_k: exhaustive.shortlisted,
            ..AutotuneConfig::fermi()
        };
        let via_k = autotune(&p, &small_space(), &wide, |m| Some(-m.ratio()));
        assert_eq!(via_k.simulated, exhaustive.simulated);
        assert_eq!(
            via_k.best().map(|e| e.model.params.clone()),
            exhaustive.best().map(|e| e.model.params.clone())
        );
    }

    #[test]
    fn merit_is_deterministic_and_positive_for_feasible_candidates() {
        let p = gallery::jacobi2d();
        let cfg = AutotuneConfig::fermi();
        let report = autotune(&p, &small_space(), &cfg, |_| Some(1.0));
        assert!(!report.ranked.is_empty());
        for entry in &report.ranked {
            let m1 = analytical_merit(&p, &entry.model, &cfg);
            let m2 = analytical_merit(&p, &entry.model, &cfg);
            assert!(
                m1.is_finite() && m1 > 0.0,
                "merit {m1} for {:?}",
                entry.model.params
            );
            assert_eq!(m1.to_bits(), m2.to_bits(), "merit must be deterministic");
        }
    }

    #[test]
    fn shortlist_retains_a_high_merit_candidate() {
        // The top-1 shortlist must keep exactly the merit argmax.
        let p = gallery::jacobi2d();
        let cfg = AutotuneConfig {
            top_k: 1,
            ..AutotuneConfig::fermi()
        };
        let exhaustive = autotune(&p, &small_space(), &AutotuneConfig::fermi(), |_| Some(1.0));
        let best_by_merit = exhaustive
            .ranked
            .iter()
            .map(|e| &e.model)
            .max_by(|a, b| {
                analytical_merit(&p, a, &cfg)
                    .total_cmp(&analytical_merit(&p, b, &cfg))
                    .then(b.ratio().total_cmp(&a.ratio()))
            })
            .unwrap();
        let short = autotune(&p, &small_space(), &cfg, |_| Some(1.0));
        assert_eq!(short.ranked.len(), 1);
        assert_eq!(short.ranked[0].model.params, best_by_merit.params);
    }

    /// A deterministic scorer both sweeps can share: prefers low ratio,
    /// perturbed by the tile height so ties are broken interestingly.
    fn det_score(m: &TileSizeModel) -> Option<f64> {
        Some(-m.ratio() + 0.001 * m.params.h as f64)
    }

    fn assert_reports_identical(seq: &AutotuneReport, par: &AutotuneReport) {
        assert_eq!(seq.examined, par.examined);
        assert_eq!(seq.rejected_schedule, par.rejected_schedule);
        assert_eq!(seq.rejected_smem, par.rejected_smem);
        assert_eq!(seq.rejected_regs, par.rejected_regs);
        assert_eq!(seq.pruned, par.pruned);
        assert_eq!(seq.shortlisted, par.shortlisted);
        assert_eq!(seq.simulated, par.simulated);
        assert_eq!(seq.proxy_simulated, par.proxy_simulated);
        assert_eq!(seq.full_simulated, par.full_simulated);
        assert_eq!(seq.rejected_scorer, par.rejected_scorer);
        assert_eq!(seq.ranked.len(), par.ranked.len());
        for (a, b) in seq.ranked.iter().zip(&par.ranked) {
            assert_eq!(a.model.params, b.model.params);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let p = gallery::jacobi2d();
        let cfg = AutotuneConfig::fermi();
        let seq = autotune_cancellable(&p, &small_space(), &cfg, &CancelToken::never(), det_score)
            .unwrap();
        assert_eq!(seq.proxy_simulated, 0);
        assert_eq!(seq.full_simulated, seq.simulated);
        for workers in [1, 2, 8] {
            let par = autotune_parallel_cancellable(
                &p,
                &small_space(),
                &cfg,
                &CancelToken::never(),
                workers,
                |m, _| det_score(m),
            )
            .unwrap();
            assert_reports_identical(&seq, &par);
        }
    }

    #[test]
    fn fidelity_ladder_pays_fewer_full_simulations() {
        let p = gallery::jacobi2d();
        let cfg = AutotuneConfig {
            proxy_frac: 0.5,
            keep_frac: 0.4,
            ..AutotuneConfig::fermi()
        };
        let par = autotune_parallel_cancellable(
            &p,
            &small_space(),
            &cfg,
            &CancelToken::never(),
            2,
            |m, _| det_score(m),
        )
        .unwrap();
        let n = par.shortlisted;
        assert!(n > 1, "space too small for a ladder test");
        assert_eq!(par.proxy_simulated, n, "proxy round scores everyone");
        let keep = ((0.4 * n as f64).ceil() as usize).clamp(1, n);
        assert_eq!(par.full_simulated, keep, "only survivors pay full price");
        assert_eq!(par.simulated, n + keep);
        assert_eq!(par.ranked.len(), keep);
        // The proxy scorer here equals the full one, so the ladder keeps
        // the true winner: the final best matches the exhaustive sweep's.
        let seq = autotune(&p, &small_space(), &AutotuneConfig::fermi(), det_score);
        assert_eq!(
            par.best().map(|e| e.model.params.clone()),
            seq.best().map(|e| e.model.params.clone())
        );
    }

    #[test]
    fn proxy_survivors_are_chosen_by_proxy_score_with_static_tie_break() {
        // A proxy scorer that inverts the full scorer demotes the true
        // winner out of a keep_frac-sized survivor set: the ladder must
        // rank only survivors, proving full scores alone enter the
        // ranking and survivors come from the proxy round.
        let p = gallery::jacobi2d();
        let cfg = AutotuneConfig {
            proxy_frac: 0.5,
            keep_frac: 0.25,
            ..AutotuneConfig::fermi()
        };
        let par = autotune_parallel_cancellable(
            &p,
            &small_space(),
            &cfg,
            &CancelToken::never(),
            4,
            |m, fidelity| match fidelity {
                Fidelity::Proxy => det_score(m).map(|s| -s),
                Fidelity::Full => det_score(m),
            },
        )
        .unwrap();
        let seq = autotune(&p, &small_space(), &AutotuneConfig::fermi(), det_score);
        assert!(!par.ranked.is_empty());
        assert_ne!(
            par.best().map(|e| e.model.params.clone()),
            seq.best().map(|e| e.model.params.clone()),
            "an adversarial proxy must be able to evict the true winner"
        );
    }

    #[test]
    fn parallel_cancellation_stops_between_pickups() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let p = gallery::jacobi2d();
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::with_flag(flag.clone());
        let scored = AtomicUsize::new(0);
        // One worker raises the flag from inside the first scoring: no
        // second candidate may be picked up afterwards.
        let result = autotune_parallel_cancellable(
            &p,
            &small_space(),
            &AutotuneConfig::fermi(),
            &token,
            1,
            |m, _| {
                scored.fetch_add(1, Ordering::SeqCst);
                flag.store(true, Ordering::SeqCst);
                Some(m.params.h as f64)
            },
        );
        assert_eq!(scored.load(Ordering::SeqCst), 1);
        match result {
            Err(AutotuneError::Cancelled { kind, partial }) => {
                assert_eq!(kind, CancelKind::Flag);
                assert_eq!(partial.ranked.len(), 1);
                assert_eq!(partial.simulated, 1);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn race_collects_by_index_and_stops_between_pickups() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // Uncancelled: every index attempted, results in static order at
        // any worker count.
        for workers in [0, 1, 3, 64] {
            let (results, stopped) = race(20, workers, &CancelToken::never(), |i| i * i);
            assert_eq!(stopped, None);
            let expected: Vec<Option<usize>> = (0..20).map(|i| Some(i * i)).collect();
            assert_eq!(results, expected, "{workers} workers");
        }
        // A job raises the flag: one worker finishes exactly that job and
        // picks up nothing after it...
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::with_flag(flag.clone());
        let (results, stopped) = race(100, 1, &token, |i| {
            if i == 5 {
                flag.store(true, Ordering::SeqCst);
            }
            i
        });
        assert_eq!(stopped, Some(CancelKind::Flag));
        assert_eq!(results.iter().flatten().count(), 6);
        assert!(results[..6].iter().all(Option::is_some));
        // ...and in a pool, where every later job waits for the flag (so
        // the interleaving is forced, not hoped for), each worker ends
        // with the job it had in flight.
        flag.store(false, Ordering::SeqCst);
        let (results, stopped) = race(100, 4, &token, |i| {
            match i.cmp(&5) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => flag.store(true, Ordering::SeqCst),
                std::cmp::Ordering::Greater => {
                    while !flag.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
            }
            i
        });
        assert_eq!(stopped, Some(CancelKind::Flag));
        assert!(results.iter().flatten().count() <= 6 + 3, "{results:?}");
        for (i, r) in results.iter().enumerate() {
            assert!(r.is_none() || *r == Some(i), "slot {i} holds {r:?}");
        }
    }

    #[test]
    fn race_reraises_a_job_panic_with_its_payload() {
        for workers in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                race(8, workers, &CancelToken::never(), |i| {
                    assert!(i != 3, "job {i} exploded");
                    i
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("job 3 exploded"), "{msg}");
        }
    }

    #[test]
    fn thread_budget_splitter_never_oversubscribes() {
        // Candidate-level parallelism saturates first.
        assert_eq!(split_thread_budget(8, 20), (8, 1));
        // Leftover budget widens each simulation.
        assert_eq!(split_thread_budget(8, 2), (2, 4));
        assert_eq!(split_thread_budget(7, 2), (2, 3));
        // Degenerate inputs stay sane.
        assert_eq!(split_thread_budget(0, 5), (1, 1));
        assert_eq!(split_thread_budget(4, 0), (1, 4));
        assert_eq!(split_thread_budget(1, 1), (1, 1));
        for budget in 1..32 {
            for candidates in 0..32 {
                let (w, per) = split_thread_budget(budget, candidates);
                assert!(w * per <= budget.max(1), "({budget},{candidates})");
                assert!(w >= 1 && per >= 1);
            }
        }
    }

    #[test]
    fn thread_estimate_matches_block_shape() {
        // 2D: block x = w1; 3D: x = w2, y = w1.
        assert_eq!(
            estimated_threads_per_block(&TileParams::new(2, &[3, 32])),
            32
        );
        assert_eq!(
            estimated_threads_per_block(&TileParams::new(1, &[2, 4, 32])),
            128
        );
        assert_eq!(estimated_threads_per_block(&TileParams::new(2, &[3])), 32);
    }
}

//! The `hybridc` compiler driver: compile user-supplied `.stencil` DSL
//! files through the full pipeline, end to end.
//!
//! For each input file the driver runs the ladder the gallery binaries
//! hard-code:
//!
//! 1. **parse** — [`stencil::parse::parse_stencil`] (the documented DSL
//!    grammar: comments, named constants, multi-statement time loops);
//! 2. **validate** — canonical-form checks (done by the parser) plus the
//!    driver's own supportability checks (1–3 spatial dimensions);
//! 3. **plan** — tile-size selection under the device's shared-memory and
//!    register budgets via [`hybrid_tiling::tilesize::autotune`], scored
//!    either statically (load-to-compute ratio, the default) or on the
//!    block-parallel simulator ([`TuneMode::Simulated`]);
//! 4. **codegen** — hybrid hexagonal/classical kernels emitted as CUDA-C
//!    (`<name>.cu`) and pseudo-PTX (`<name>.ptx`) into the output
//!    directory;
//! 5. **execute + verify** — the plan runs on [`gpusim::GpuSim`] and the
//!    result is compared *bit-for-bit* against the sequential
//!    [`stencil::ReferenceExecutor`] oracle.
//!
//! Tile-size selection is the expensive step, so chosen plans are kept in
//! a **content-addressed plan cache**: the key is a fingerprint of the
//! program's canonical rendering plus the device parameters, codegen
//! options and tuning mode; the value is a hand-rolled JSON entry (see
//! [`crate::json`]) holding the chosen tile sizes and a schedule summary.
//! Repeated compiles and batch runs skip re-tuning; a stale or colliding
//! entry (the stored program text is compared on load) degrades to a
//! cache miss, never to a wrong plan.
//!
//! Batch compiles fan out over a thread pool ([`compile_batch`]), and
//! [`report_json`] renders the machine-readable per-stencil result table
//! behind `hybridc --report`.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use gpu_codegen::{BackendKind, CodegenOptions, HybridGeometry};
use gpusim::{timing, DeviceConfig, ExecError, GpuSim, RunEnd};
use hybrid_tiling::cancel::{CancelKind, CancelToken};
use hybrid_tiling::tilesize::autotune::{
    autotune_parallel_cancellable, estimated_regs_per_block, split_thread_budget, AutotuneConfig,
    AutotuneEntry, AutotuneError, Fidelity,
};
use hybrid_tiling::tilesize::{TileEvaluator, TileSizeModel};
use hybrid_tiling::{DepCone, TileParams};
use stencil::characteristics::{flop_count, load_count};
use stencil::parse::{parse_stencil, ParseError};
use stencil::{Grid, ReferenceExecutor, StencilProgram};

use crate::autotune::{autotune_workload, proxy_workload, sweep_space};
use crate::json::Json;
use crate::metrics::{Counters, Id};
use crate::{loaded_sim, random_init};

/// How tile sizes are scored during planning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TuneMode {
    /// Rank candidates by the §3.7 static load-to-compute ratio (fast;
    /// the default).
    Static,
    /// Score the shortlisted candidates on the block-parallel simulator
    /// (the §6 measurement pass; slower, workload-aware).
    Simulated,
}

impl TuneMode {
    /// Stable name used in fingerprints and reports.
    pub fn name(self) -> &'static str {
        match self {
            TuneMode::Static => "static",
            TuneMode::Simulated => "simulated",
        }
    }
}

/// Driver configuration shared by every file of one invocation.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Simulated device (budgets, timing model).
    pub device: DeviceConfig,
    /// Code-generation options (defaults to the full Table 4 ladder top).
    pub opts: CodegenOptions,
    /// Emission backend for artifacts (defaults to CUDA). Joins the
    /// plan fingerprint — a WGSL plan never aliases a CUDA one — and
    /// options the backend cannot lower are rejected up front with
    /// [`DriverError::Unsupported`].
    pub backend: BackendKind,
    /// Worker threads for one simulation ([`gpusim::parallel`]).
    pub sim_threads: usize,
    /// Concurrent file compiles in [`compile_batch`].
    pub jobs: usize,
    /// Tile-size scoring mode.
    pub tune: TuneMode,
    /// Shrink the sweep space (CI smoke mode).
    pub smoke: bool,
    /// Run the simulated plan and require bit-exact agreement with the
    /// reference executor.
    pub verify: bool,
    /// Where source artifacts are written (extension per backend:
    /// `.cu`+`.ptx`, `.wgsl`, `.hip.cpp`, `.cpu.c`).
    pub out_dir: PathBuf,
    /// Plan-cache directory; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Override the execution workload (`dims`, `steps`); defaults to a
    /// small per-arity workload.
    pub workload: Option<(Vec<usize>, usize)>,
    /// Test hook (this crate's unit tests only): replaces the tile-size
    /// scorer of both tune modes. The function pointer's address joins
    /// the fingerprint there, so plans chosen by a custom scorer never
    /// share an entry with the built-in scorers'.
    #[cfg(test)]
    pub scorer: Option<fn(&TileSizeModel) -> Option<f64>>,
    /// Cooperative cancellation for this compile: the tuning sweep (and
    /// the simulation/verification stages) check the token at stage and
    /// candidate boundaries and return
    /// [`DriverError::DeadlineExceeded`] / [`DriverError::Cancelled`]
    /// instead of running to completion. Defaults to
    /// [`CancelToken::never`].
    pub cancel: CancelToken,
    /// Model-guided shortlist size: when > 0, only the `top_k`
    /// candidates ranked best by the analytical figure of merit
    /// ([`hybrid_tiling::tilesize::autotune::analytical_merit`]) reach
    /// the scorer. `0` (the default) scores every candidate surviving
    /// the budgets — the exhaustive oracle. Participates in the plan
    /// fingerprint, so shortlist and exhaustive plans never share a
    /// cache entry.
    pub top_k: usize,
    /// Candidate-level tuning workers: how many shortlist candidates are
    /// scored concurrently (each on `sim_threads` simulator threads).
    /// `0` (the default) auto-splits the host's thread budget between
    /// candidate workers and per-candidate simulator threads via
    /// [`hybrid_tiling::tilesize::autotune::split_thread_budget`] so
    /// `workers × sim_threads` never exceeds
    /// [`gpusim::resolve_sim_threads`]`(0)`. Deliberately **not** part of
    /// the plan fingerprint: the parallel sweep's ranking is bit-identical
    /// to the sequential one, so any worker count may share a cache entry.
    pub tune_workers: usize,
    /// Successive-halving fidelity ladder: when in `(0, 1)`, a proxy
    /// round first scores every shortlisted candidate on a workload
    /// scaled down by this fraction, and only the best
    /// `ceil(PROXY_KEEP_FRAC × scored)` survivors pay a full-fidelity
    /// simulation. `1.0` (the default) disables the ladder. Participates
    /// in the plan fingerprint — the ladder can change which plan wins,
    /// so proxy-tuned and exhaustively-tuned plans never share an entry.
    pub proxy: f64,
    /// Warm-start hints: `(canonical program text, tile params)` pairs
    /// seeded from a near device's cached plans (the fleet router fills
    /// this for cold members). Hints whose program text matches the
    /// compile are **re-verified** — scored through the same scorer as
    /// swept candidates, never copied blindly — and merged into the
    /// ranked table, so a transferred plan wins only if it actually
    /// scores best on *this* device. Not part of the fingerprint: hints
    /// can only add scored candidates, so the chosen plan is never worse
    /// than the unhinted sweep's.
    pub warm_hints: Vec<(String, TileParams)>,
}

impl DriverConfig {
    /// Defaults: GTX 470, best codegen options, static tuning, cache
    /// enabled under `out_dir/cache`, verification on.
    pub fn new(out_dir: impl Into<PathBuf>) -> DriverConfig {
        let out_dir = out_dir.into();
        let cache_dir = out_dir.join("cache");
        DriverConfig {
            device: DeviceConfig::gtx470(),
            opts: CodegenOptions::best(),
            backend: BackendKind::Cuda,
            sim_threads: 1,
            jobs: 1,
            tune: TuneMode::Static,
            smoke: false,
            verify: true,
            out_dir,
            cache_dir: Some(cache_dir),
            workload: None,
            #[cfg(test)]
            scorer: None,
            cancel: CancelToken::never(),
            top_k: 0,
            tune_workers: 0,
            proxy: 1.0,
            warm_hints: Vec::new(),
        }
    }
}

/// Fraction of proxy-scored candidates that survive the fidelity ladder
/// into the full-fidelity round (`ceil(0.4 × scored)`, at least one).
/// 0.4 rather than 0.5 so that odd survivor counts still clear a 2×
/// full-simulation reduction — `ceil(0.5 × 21) = 11` would only be 1.9×.
pub const PROXY_KEEP_FRAC: f64 = 0.4;

/// A failure compiling one stencil file.
#[derive(Clone, Debug)]
pub enum DriverError {
    /// Filesystem failure (path and cause).
    Io(String),
    /// The DSL did not parse or validate.
    Parse(ParseError),
    /// The program parsed but the pipeline cannot compile it.
    Unsupported(String),
    /// No tile-size candidate survived the budgets and feasibility checks.
    NoFeasibleTiling(String),
    /// The simulated result diverged from the reference executor, or the
    /// simulated schedule violated concurrent-tile independence.
    Verify(String),
    /// A pipeline stage panicked and the panic was contained at the
    /// worker/request boundary. Always a bug worth reporting — but a
    /// per-file error entry, never a dead service.
    Internal(String),
    /// The request's deadline passed before the pipeline finished; the
    /// worker stopped cooperatively at a stage/candidate boundary.
    DeadlineExceeded(String),
    /// The request was explicitly cancelled (the serve protocol's
    /// `cancel` op) before the pipeline finished.
    Cancelled(String),
}

impl DriverError {
    /// Stable machine-readable discriminant for reports and the serve
    /// protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            DriverError::Io(_) => "io",
            DriverError::Parse(_) => "parse",
            DriverError::Unsupported(_) => "unsupported",
            DriverError::NoFeasibleTiling(_) => "no_feasible_tiling",
            DriverError::Verify(_) => "verify",
            DriverError::Internal(_) => "internal",
            DriverError::DeadlineExceeded(_) => "deadline_exceeded",
            DriverError::Cancelled(_) => "cancelled",
        }
    }
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Io(m) => write!(f, "io error: {m}"),
            DriverError::Parse(e) => write!(f, "{e}"),
            DriverError::Unsupported(m) => write!(f, "unsupported stencil: {m}"),
            DriverError::NoFeasibleTiling(m) => write!(f, "no feasible tiling: {m}"),
            DriverError::Verify(m) => write!(f, "verification failed: {m}"),
            DriverError::Internal(m) => write!(f, "internal error: {m}"),
            DriverError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            DriverError::Cancelled(m) => write!(f, "cancelled: {m}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Where a compile's tile plan came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheSource {
    /// Served by the shared in-memory plan cache (a `hybridd` hit, or a
    /// single-flight wait on a concurrent identical request).
    Memory,
    /// Loaded from the on-disk content-addressed cache.
    Disk,
    /// Freshly tuned this compile.
    Fresh,
}

impl CacheSource {
    /// Stable name used in reports (`"mem"` / `"disk"` / `"miss"`).
    pub fn name(self) -> &'static str {
        match self {
            CacheSource::Memory => "mem",
            CacheSource::Disk => "disk",
            CacheSource::Fresh => "miss",
        }
    }

    /// True when no tuning sweep ran.
    pub fn is_hit(self) -> bool {
        self != CacheSource::Fresh
    }
}

/// The result of compiling one stencil file end to end.
#[derive(Clone, Debug)]
pub struct CompileOutcome {
    /// Program name (sanitized file stem).
    pub name: String,
    /// Input path.
    pub source: PathBuf,
    /// Content-addressed plan-cache key.
    pub fingerprint: String,
    /// Chosen tile parameters.
    pub params: TileParams,
    /// True if the plan came from a cache (no tuning sweep ran).
    pub cache_hit: bool,
    /// Which cache layer (if any) served the plan.
    pub cache: CacheSource,
    /// Candidates examined by the tuning sweep (0 on a cache hit).
    pub examined: usize,
    /// Candidates surviving the model shortlist (0 on a cache hit; the
    /// whole feasible set when `top_k == 0`).
    pub shortlisted: usize,
    /// Scorer invocations, including warm-hint re-verifications and both
    /// fidelity-ladder rounds (0 on a cache hit).
    pub simulated: usize,
    /// Proxy-fidelity scorer invocations (0 with the ladder disabled or
    /// on a cache hit).
    pub proxy_simulated: usize,
    /// Full-fidelity scorer invocations; equals `simulated` minus the
    /// proxy round (0 on a cache hit).
    pub full_simulated: usize,
    /// Wall-clock milliseconds the tuning sweep took (0 on a cache hit
    /// — which is exactly why it is reported: cache-hit vs cold-tune
    /// cost becomes visible per request).
    pub tune_wall_ms: u64,
    /// The part of `tune_wall_ms` the tile-size model took — the sweep's
    /// front half, before any candidate was scored — in milliseconds at
    /// microsecond resolution (0 on a cache hit).
    pub tune_model_ms: f64,
    /// True when a cross-device warm hint matched this program and was
    /// re-verified during tuning.
    pub warm_start: bool,
    /// True when the chosen plan's parameters equal a warm hint's, whether
    /// or not the sweep found them too.
    pub warm_start_hit: bool,
    /// Where this request's execution time went (all 0 on a memory hit).
    pub stages: StageTimes,
    /// True if this request asked for verification (`cfg.verify`) and
    /// this plan passed the bit-exact check against the oracle **in this
    /// process** — during this compile, or, on a memory hit, during the
    /// compile that published the entry. False only when `cfg.verify` is
    /// off.
    pub verified: bool,
    /// Simulated throughput.
    pub gstencils: f64,
    /// Estimated device seconds for the workload.
    pub seconds: f64,
    /// Thread-block launches executed.
    pub launches: u64,
    /// Kernels in the launch plan.
    pub kernels: usize,
    /// Largest per-kernel shared-memory footprint in bytes.
    pub smem_bytes: u64,
    /// Distinct loads per statement (Table 3 "Loads").
    pub loads: Vec<usize>,
    /// FLOPs per statement (Table 3 "FLOPs/Stencil").
    pub flops: Vec<usize>,
    /// Workload the plan was executed on.
    pub dims: Vec<usize>,
    /// Time steps executed.
    pub steps: usize,
    /// Backend that emitted the artifacts.
    pub backend: BackendKind,
    /// Emitted source artifact (extension per backend).
    pub source_path: PathBuf,
    /// Emitted secondary artifact, if the backend has one (the CUDA
    /// backend's pseudo-PTX).
    pub aux_path: Option<PathBuf>,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The **canonical device fingerprint**: every architectural parameter
/// of the [`DeviceConfig`], rendered in a fixed field order. Two
/// logically identical device descriptions — a named preset, or an
/// inline device object with its JSON keys in any order — always
/// resolve to the same fingerprint, so they share cache entries and
/// one fleet member; two devices differing in *any* parameter (even
/// just the clock, which changes simulated tuning scores) key apart.
pub fn device_fingerprint(device: &DeviceConfig) -> String {
    format!(
        "{}|vendor={}|sms={}|cores={}|clock={}|dram={}|l2={}|l2b={}|smem={}|launch={}",
        device.name,
        device.vendor,
        device.sms,
        device.cores_per_sm,
        device.clock_ghz,
        device.dram_gbps,
        device.l2_gbps,
        device.l2_bytes,
        device.shared_limit,
        device.launch_overhead_s,
    )
}

/// The content-addressed cache key of `program` under `cfg`: everything
/// that influences tile-size selection is hashed — the canonical program
/// rendering, the full canonical device fingerprint (all architectural
/// parameters, not just the budgets: simulated scores depend on clocks
/// and bandwidths too), the codegen options, the tuning mode (smoke
/// sweeps search a smaller space, so they key separately), any workload
/// override (tuning scores candidates on the workload), and the fidelity
/// ladder's `proxy` fraction (the ladder can change which plan wins).
/// `tune_workers` is deliberately absent: the parallel sweep ranks
/// bit-identically to the sequential one, so every worker count shares
/// one cache entry.
pub fn fingerprint(program: &StencilProgram, cfg: &DriverConfig) -> String {
    fingerprint_text(&program.to_c_like(), cfg)
}

/// [`fingerprint`] over an already rendered canonical program text
/// ([`StencilProgram::to_c_like`]), for callers that need the text anyway.
pub fn fingerprint_text(program_text: &str, cfg: &DriverConfig) -> String {
    // A production build has no scorer hook; the slot it used to occupy
    // still renders the `None` it always held there, so existing disk
    // caches keep their keys (and no key ever holds an address, which
    // ASLR changes per process).
    #[cfg(not(test))]
    let scorer = None::<usize>;
    #[cfg(test)]
    let scorer = cfg.scorer.map(|f| f as usize);
    let ident = format!(
        "{}|{}|{:?}|backend={}|{}|{}|{:?}|{:?}|k={}|proxy={}",
        program_text,
        device_fingerprint(&cfg.device),
        cfg.opts,
        cfg.backend.name(),
        cfg.tune.name(),
        cfg.smoke,
        cfg.workload,
        scorer,
        cfg.top_k,
        cfg.proxy,
    );
    format!("{:016x}", fnv1a64(ident.as_bytes()))
}

/// Distance between two device descriptions: the sum of relative
/// differences over every numeric architectural parameter of
/// [`device_fingerprint`] (`|a−b| / max(|a|,|b|)`, so each parameter
/// contributes 0 for equal values and at most 1 for wildly different
/// ones). The name is deliberately excluded — a renamed but otherwise
/// identical device is distance 0. A **vendor** mismatch, by contrast,
/// adds a penalty far above any numeric distance: tuning plans do not
/// transfer across architecture families, so the fleet router must
/// never pick a cross-vendor member as "nearest" while a same-vendor
/// one exists. Used by the fleet router to pick the *nearest* warm
/// member when seeding a cold one's tuning shortlist.
pub fn device_distance(a: &DeviceConfig, b: &DeviceConfig) -> f64 {
    let vendor_penalty = if a.vendor == b.vendor { 0.0 } else { 1000.0 };
    fn rel(x: f64, y: f64) -> f64 {
        let denom = x.abs().max(y.abs());
        if denom == 0.0 {
            0.0
        } else {
            (x - y).abs() / denom
        }
    }
    vendor_penalty
        + rel(a.sms as f64, b.sms as f64)
        + rel(a.cores_per_sm as f64, b.cores_per_sm as f64)
        + rel(a.clock_ghz, b.clock_ghz)
        + rel(a.dram_gbps, b.dram_gbps)
        + rel(a.l2_gbps, b.l2_gbps)
        + rel(a.l2_bytes as f64, b.l2_bytes as f64)
        + rel(a.shared_limit as f64, b.shared_limit as f64)
        + rel(a.launch_overhead_s, b.launch_overhead_s)
}

/// Maps a cancellation into the driver's typed error for `what` (a
/// program name or fingerprint). Messages are deliberately free of
/// counts and timings so responses to identical cancelled requests are
/// bit-identical across runs.
fn cancel_error(kind: CancelKind, what: &str) -> DriverError {
    match kind {
        CancelKind::Deadline => {
            DriverError::DeadlineExceeded(format!("{what}: request deadline exceeded"))
        }
        CancelKind::Flag => DriverError::Cancelled(format!("{what}: cancelled by request")),
    }
}

/// Errors out if `token` has fired — the per-stage cancellation check.
fn check_cancel(token: &CancelToken, what: &str) -> Result<(), DriverError> {
    match token.cancelled() {
        Some(kind) => Err(cancel_error(kind, what)),
        None => Ok(()),
    }
}

/// Locks a possibly poisoned mutex: a panic that unwound through a
/// critical section (contained by the per-request `catch_unwind`
/// boundary) must not cascade into every later cache access.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Fixed per-entry bookkeeping overhead charged against the cache cap
/// (map key, timestamps, slot discriminant — a deliberate overestimate).
const MEM_ENTRY_OVERHEAD: u64 = 96;

/// What executing one plan on the simulator produced: the part of a
/// [`CompileOutcome`] that costs a simulation (and an oracle run) to
/// obtain. It is a pure function of the plan fingerprint, so a memory
/// entry carries it and a hit answers from it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExecRecord {
    /// The result matched the sequential oracle bit for bit (false when
    /// the executing request had `verify` off — the check did not run).
    pub verified: bool,
    /// Simulated throughput.
    pub gstencils: f64,
    /// Estimated device seconds for the workload.
    pub seconds: f64,
    /// Thread-block launches executed.
    pub launches: u64,
    /// Kernels in the launch plan.
    pub kernels: usize,
    /// Largest per-kernel shared-memory footprint in bytes.
    pub smem_bytes: u64,
}

/// The byte cost charged against the cache cap for one entry: the
/// retained strings (program text, fingerprints) plus the tile
/// parameters, the fixed-size execution record and the fixed overhead.
/// Public so eviction tests can model the accounting exactly.
pub fn mem_entry_bytes(fp: &str, device_fp: &str, program: &str, params: &TileParams) -> u64 {
    fp.len() as u64
        + device_fp.len() as u64
        + program.len() as u64
        + 8 * (1 + params.w.len() as u64)
        + std::mem::size_of::<ExecRecord>() as u64
        + MEM_ENTRY_OVERHEAD
}

/// One executed plan in the in-memory cache. The program text rides along
/// so fingerprint collisions degrade to a bypass, exactly like the
/// on-disk cache; the device fingerprint serves the per-device views, the
/// timestamps the LRU and the hit-age metric.
struct MemEntry {
    program: String,
    device_fp: String,
    params: TileParams,
    record: ExecRecord,
    /// Byte cost charged against the cap ([`mem_entry_bytes`]).
    bytes: u64,
    /// When the entry was published (hit age = now − inserted_at).
    inserted_at: Instant,
    /// Use tick; the LRU evicts the smallest.
    last_used: u64,
}

enum MemSlot {
    /// Some request is compiling this fingerprint right now.
    InFlight,
    /// A finished, executed plan.
    Ready(MemEntry),
}

/// Recent hit-age samples the hit-age quantiles are taken over.
const HIT_AGE_SAMPLES: usize = 1024;

/// Everything [`MemCache`]'s one mutex guards.
#[derive(Default)]
struct MemInner {
    map: HashMap<String, MemSlot>,
    /// Total byte cost of the Ready entries (in-flight markers are free).
    ready_bytes: u64,
    /// LRU clock, advanced by every lookup and publish.
    tick: u64,
    /// The most recent hit ages (ms since insert), oldest first.
    hit_ages: VecDeque<u64>,
}

impl MemInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn record_hit_age(&mut self, inserted_at: Instant) {
        if self.hit_ages.len() == HIT_AGE_SAMPLES {
            self.hit_ages.pop_front();
        }
        self.hit_ages
            .push_back(inserted_at.elapsed().as_millis() as u64);
    }

    /// The ready entries by fingerprint (in-flight markers skipped).
    fn ready(&self) -> impl Iterator<Item = (&String, &MemEntry)> {
        self.map.iter().filter_map(|(fp, slot)| match slot {
            MemSlot::Ready(e) => Some((fp, e)),
            MemSlot::InFlight => None,
        })
    }
}

/// The shared in-memory plan cache layered above the on-disk cache by
/// the `hybridd`/`hybridfleet` compile service: a **size-capped, exact
/// LRU** of **executed outcomes**. An entry holds the tile parameters
/// *and* the [`ExecRecord`] of running them — it is published once, after
/// the plan simulated (and, if requested, verified against the oracle)
/// successfully — so a hit is a lookup: no code generation, no
/// simulation, no oracle run. Unlike the on-disk cache (tile parameters
/// only, re-executed on every load) an entry cannot outlive the binary
/// that checked it, which is why a hit may report the publishing
/// compile's verdict.
///
/// Lookups are **single-flight**: the first request for a fingerprint
/// marks it in flight and compiles; concurrent requests for the same
/// fingerprint block on a condvar until the entry is ready and then count
/// as coalesced hits, so N clients hitting the same stencil cost one
/// tuning sweep and one simulation. A request that fails (or panics —
/// the guard cleans up on drop) publishes nothing and wakes the waiters,
/// which compile individually. Waits are bounded: a waiter whose
/// [`CancelToken`] fires stops waiting and gets [`MemLookup::Cancelled`].
///
/// One mutex guards the map and one condvar wakes the waiters. A fleet
/// member's cache serves a single device, and a hit holds the lock for
/// one map probe and a small copy. With a byte cap set, a publish that
/// takes the ready entries over it evicts the least-recently-used ready
/// entries until they fit again: the cap is global and exact, so a
/// working set that fits the cap stays whole. In-flight markers are never
/// evicted.
///
/// Counters ([`MemCache::get`]) are disjoint: every lookup is exactly
/// one of `MemHits` (immediately ready), `MemCoalesced` (ready after
/// waiting on an in-flight compile), `MemMisses` (became the tuner),
/// `MemBypasses` (fingerprint collision), or `MemCancelledWaits`;
/// `MemLookups` is their sum. `MemReexecuted` counts the subset of hits
/// whose record could not answer the request — published by a `verify:
/// false` compile, asked for with verification — and is 0 in steady
/// state (the re-execution upgrades the entry in place).
pub struct MemCache {
    inner: Mutex<MemInner>,
    /// Wakes single-flight waiters when an in-flight compile publishes or
    /// gives up.
    cv: Condvar,
    /// Byte cap over the ready entries; `None` = unbounded.
    cap_bytes: Option<u64>,
    /// The cache's stored series (`Id::MemLookups..=Id::MemReexecuted`).
    stats: Counters,
}

/// Outcome of a memory-cache lookup.
pub enum MemLookup<'a> {
    /// Ready entry (possibly after waiting on an in-flight compile): the
    /// tile parameters and what executing them produced.
    Hit(TileParams, ExecRecord),
    /// Nothing cached; the caller must tune, execute and then
    /// [`MemCacheGuard::fulfill`] (or drop the guard, which wakes
    /// waiters to compile for themselves).
    Miss(MemCacheGuard<'a>),
    /// Fingerprint collision with a different program: compile without
    /// touching the cache.
    Bypass,
    /// The caller's [`CancelToken`] fired while waiting on an in-flight
    /// compile of the same fingerprint.
    Cancelled(CancelKind),
}

/// The in-flight marker of a single-flight compile; see [`MemCache`].
pub struct MemCacheGuard<'a> {
    cache: &'a MemCache,
    fp: String,
    device_fp: String,
    done: bool,
}

impl MemCache {
    /// An unbounded cache.
    pub fn new() -> MemCache {
        MemCache::with_cap(None)
    }

    /// A cache capped at `cap_bytes` bytes of ready entries (`None` =
    /// unbounded). An entry larger than the whole cap is evicted right
    /// after it is published: the cap is a hard invariant, not a hint.
    pub fn with_cap(cap_bytes: Option<u64>) -> MemCache {
        MemCache {
            inner: Mutex::default(),
            cv: Condvar::new(),
            cap_bytes,
            stats: Counters::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        lock_ignore_poison(&self.inner)
    }

    /// Evicts least-recently-used ready entries until the cache fits its
    /// cap. The victim is found by a linear scan for the smallest use
    /// tick: only a publish over the cap pays it.
    fn evict_locked(&self, inner: &mut MemInner) {
        let Some(cap) = self.cap_bytes else {
            return;
        };
        while inner.ready_bytes > cap {
            let Some(fp) = inner
                .ready()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| fp.clone())
            else {
                break;
            };
            if let Some(MemSlot::Ready(e)) = inner.map.remove(&fp) {
                inner.ready_bytes = inner.ready_bytes.saturating_sub(e.bytes);
                self.stats.add(Id::MemEvictions, 1);
            }
        }
    }

    /// The (p50, p90, p99) hit-age quantiles in milliseconds over the
    /// most recent hits; `None` before the first hit. Quantile index =
    /// `q * (len - 1)` rounded to nearest, so a single sample reports
    /// itself at every quantile.
    pub fn hit_age_quantiles_ms(&self) -> Option<(u64, u64, u64)> {
        let mut ages = Vec::from(self.lock().hit_ages.clone());
        if ages.is_empty() {
            return None;
        }
        ages.sort_unstable();
        let at = |q: f64| ages[((ages.len() - 1) as f64 * q).round() as usize];
        Some((at(0.5), at(0.9), at(0.99)))
    }

    /// Ready entries (in-flight markers not counted).
    pub fn len(&self) -> usize {
        self.lock().ready().count()
    }

    /// True when no ready entry exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total byte cost of the ready entries.
    pub fn bytes(&self) -> u64 {
        self.lock().ready_bytes
    }

    /// The configured byte cap (`None` = unbounded).
    pub fn cap_bytes(&self) -> Option<u64> {
        self.cap_bytes
    }

    /// The stored counter `id` of this cache: one of
    /// `Id::MemLookups..=Id::MemReexecuted` (see the type docs; any
    /// other id reads 0).
    pub fn get(&self, id: Id) -> u64 {
        self.stats.get(id)
    }

    /// Ready entries whose device fingerprint equals `device_fp` — the
    /// per-device view behind cache-isolation assertions and fleet
    /// introspection.
    pub fn len_for_device(&self, device_fp: &str) -> usize {
        self.lock()
            .ready()
            .filter(|(_, e)| e.device_fp == device_fp)
            .count()
    }

    /// Snapshot of the ready plans cached for `device_fp`, as
    /// `(program text, tile params)` pairs — the donor side of fleet
    /// warm-starting. No counters and no LRU touch (this is not a
    /// lookup); at most `limit` entries are returned, newest-used first,
    /// so a huge donor cache seeds a bounded hint list.
    pub fn device_plans(&self, device_fp: &str, limit: usize) -> Vec<(String, TileParams)> {
        let inner = self.lock();
        let mut entries: Vec<&MemEntry> = inner
            .ready()
            .map(|(_, e)| e)
            .filter(|e| e.device_fp == device_fp)
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.last_used));
        entries
            .iter()
            .take(limit)
            .map(|e| (e.program.clone(), e.params.clone()))
            .collect()
    }

    /// Read-only presence probe (no counters, no LRU touch) — for tests
    /// and introspection only; real lookups go through
    /// [`MemCache::lookup_or_begin`].
    pub fn contains(&self, device_fp: &str, fp: &str) -> bool {
        matches!(self.lock().map.get(fp), Some(MemSlot::Ready(e)) if e.device_fp == device_fp)
    }

    /// Replaces the record of the ready entry for `fp` with a
    /// **verified** one — the in-place upgrade after a `verify: true`
    /// request re-executed an entry that a `verify: false` compile
    /// published. The record is fixed-size, so the entry's byte cost (and
    /// the cache's ready bytes) cannot change. A no-op when the entry was
    /// evicted meanwhile, belongs to a colliding program or another
    /// device, or `record` is not verified (an entry is never downgraded).
    pub fn upgrade(&self, fp: &str, device_fp: &str, program: &str, record: ExecRecord) {
        if let Some(MemSlot::Ready(e)) = self.lock().map.get_mut(fp) {
            if record.verified && e.program == program && e.device_fp == device_fp {
                e.record = record;
            }
        }
    }

    /// Looks up `fp`, beginning a single-flight compile on a miss; see
    /// [`MemLookup`] for the four-way outcome. `cancel` bounds the wait
    /// on a concurrent in-flight compile of the same fingerprint.
    pub fn lookup_or_begin(
        &self,
        fp: &str,
        device_fp: &str,
        program: &str,
        cancel: &CancelToken,
    ) -> MemLookup<'_> {
        self.stats.add(Id::MemLookups, 1);
        let mut inner = self.lock();
        let mut waited = false;
        loop {
            let tick = inner.next_tick();
            match inner.map.get_mut(fp) {
                Some(MemSlot::Ready(e)) if e.program != program => {
                    self.stats.add(Id::MemBypasses, 1);
                    return MemLookup::Bypass;
                }
                Some(MemSlot::Ready(e)) => {
                    e.last_used = tick;
                    let (params, record, inserted_at) = (e.params.clone(), e.record, e.inserted_at);
                    inner.record_hit_age(inserted_at);
                    let id = if waited {
                        Id::MemCoalesced
                    } else {
                        Id::MemHits
                    };
                    self.stats.add(id, 1);
                    return MemLookup::Hit(params, record);
                }
                Some(MemSlot::InFlight) => {
                    if let Some(kind) = cancel.cancelled() {
                        self.stats.add(Id::MemCancelledWaits, 1);
                        return MemLookup::Cancelled(kind);
                    }
                    waited = true;
                    // Bounded wait so a fired cancel token (deadline or
                    // flag) is observed within ~50 ms even if the tuner
                    // never finishes.
                    let wait = Duration::from_millis(50)
                        .min(cancel.remaining().unwrap_or(Duration::from_millis(50)))
                        .max(Duration::from_millis(1));
                    inner = self
                        .cv
                        .wait_timeout(inner, wait)
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                }
                None => {
                    inner.map.insert(fp.to_string(), MemSlot::InFlight);
                    self.stats.add(Id::MemMisses, 1);
                    return MemLookup::Miss(MemCacheGuard {
                        cache: self,
                        fp: fp.to_string(),
                        device_fp: device_fp.to_string(),
                        done: false,
                    });
                }
            }
        }
    }
}

impl Default for MemCache {
    fn default() -> MemCache {
        MemCache::new()
    }
}

impl MemCacheGuard<'_> {
    /// Publishes the executed plan, evicts least-recently-used entries if
    /// the cache is now over its cap, and (on drop) wakes every waiter.
    pub fn fulfill(mut self, program: &str, params: &TileParams, record: ExecRecord) {
        let bytes = mem_entry_bytes(&self.fp, &self.device_fp, program, params);
        let mut inner = self.cache.lock();
        let entry = MemEntry {
            program: program.to_string(),
            device_fp: std::mem::take(&mut self.device_fp),
            params: params.clone(),
            record,
            bytes,
            inserted_at: Instant::now(),
            last_used: inner.next_tick(),
        };
        inner
            .map
            .insert(std::mem::take(&mut self.fp), MemSlot::Ready(entry));
        inner.ready_bytes += bytes;
        self.cache.evict_locked(&mut inner);
        self.done = true;
    }
}

impl Drop for MemCacheGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            // The compile failed or panicked: clear the in-flight marker
            // so waiters stop blocking and tune for themselves.
            self.cache.lock().map.remove(&self.fp);
        }
        self.cache.cv.notify_all();
    }
}

/// The cross-process single-flight lock: an exclusive `flock` (through
/// [`fs::File::try_lock`]) on `<fp>.lock` next to the disk cache entry.
/// The holder tunes and stores the entry; concurrent `hybridd` processes
/// wait for the entry to appear instead of tuning redundantly. The kernel
/// keeps the lock exactly as long as the holder's file is open: a live
/// holder keeps it however long it tunes, a crashed one frees it at once,
/// and a leftover file nobody holds is simply taken.
///
/// The holder unlinks the file *before* closing it ([`Drop`]), so a
/// waiter that opened the old file may lock an inode that is no longer at
/// the path while a newcomer locks the path's new file. After locking, a
/// waiter therefore checks that its file is still the one at the path and
/// retries if not; only the holder of that file may unlink it, so exactly
/// one process holds the path's lock.
struct DiskLock {
    path: PathBuf,
    /// Holds the lock; closing it (after `Drop` unlinked `path`) releases it.
    _file: fs::File,
}

/// Outcome of [`DiskLock::acquire`].
enum DiskFlight {
    /// We hold the lock; tune, store, then drop (unlinks and releases).
    Acquired(DiskLock),
    /// Another process tuned this fingerprint while we waited; the
    /// entry is ready.
    Ready(TileParams),
    /// File locking unavailable (a filesystem without `flock`, a host
    /// without inode numbers): tune without the cross-process guarantee
    /// rather than fail.
    Skip,
}

impl DiskLock {
    fn acquire(
        dir: &Path,
        fp: &str,
        program_text: &str,
        backend: BackendKind,
        cancel: &CancelToken,
    ) -> Result<DiskFlight, DriverError> {
        fs::create_dir_all(dir).map_err(|e| DriverError::Io(format!("{}: {e}", dir.display())))?;
        let path = dir.join(format!("{fp}.lock"));
        let mut wait_ms = 1;
        loop {
            let Ok(file) = fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
            else {
                return Ok(DiskFlight::Skip);
            };
            // Wait for this file's holder. Its entry may appear first (it
            // stores before unlocking).
            loop {
                match file.try_lock() {
                    Ok(()) => break,
                    Err(fs::TryLockError::WouldBlock) => {}
                    Err(fs::TryLockError::Error(_)) => return Ok(DiskFlight::Skip),
                }
                if let Some(params) = load_cached_params(dir, fp, program_text, backend) {
                    return Ok(DiskFlight::Ready(params));
                }
                check_cancel(cancel, fp)?;
                // Back off 1, 2, 4, 8, then 10 ms: a static tune holds
                // the lock for a millisecond or three.
                std::thread::sleep(Duration::from_millis(wait_ms));
                wait_ms = (wait_ms * 2).min(10);
            }
            match is_linked_at(&file, &path) {
                // Its holder unlinked it before releasing: lock the
                // path's new file instead.
                Some(false) => continue,
                None => return Ok(DiskFlight::Skip),
                Some(true) => {}
            }
            let lock = DiskLock { path, _file: file };
            // Double-check: the previous holder may have stored the entry
            // and unlocked between our disk-cache probe and this
            // acquisition (dropping `lock` then unlinks the file).
            return Ok(match load_cached_params(dir, fp, program_text, backend) {
                Some(params) => DiskFlight::Ready(params),
                None => DiskFlight::Acquired(lock),
            });
        }
    }
}

/// Whether `file` is still the file at `path` (same device and inode);
/// `None` where that cannot be told.
#[cfg(unix)]
fn is_linked_at(file: &fs::File, path: &Path) -> Option<bool> {
    use std::os::unix::fs::MetadataExt;
    let ours = file.metadata().ok()?;
    Some(fs::metadata(path).is_ok_and(|m| (m.dev(), m.ino()) == (ours.dev(), ours.ino())))
}

#[cfg(not(unix))]
fn is_linked_at(_: &fs::File, _: &Path) -> Option<bool> {
    None
}

impl Drop for DiskLock {
    fn drop(&mut self) {
        // Unlink while the lock is still held; `_file` closes, releasing
        // it, only after this returns.
        let _ = fs::remove_file(&self.path);
    }
}

/// Collects the `.stencil` files of `path`: a file is taken as-is, a
/// directory contributes every `*.stencil` inside it, sorted by name.
///
/// # Errors
///
/// Returns [`DriverError::Io`] when the path does not exist or a
/// directory contains no stencil files.
pub fn collect_stencil_files(path: &Path) -> Result<Vec<PathBuf>, DriverError> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    if !path.is_dir() {
        return Err(DriverError::Io(format!(
            "{} does not exist",
            path.display()
        )));
    }
    let mut files: Vec<PathBuf> = fs::read_dir(path)
        .map_err(|e| DriverError::Io(format!("{}: {e}", path.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "stencil"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(DriverError::Io(format!(
            "{} contains no .stencil files",
            path.display()
        )));
    }
    Ok(files)
}

/// Maps a raw label to a legal program identifier: every
/// non-alphanumeric character becomes `_`, and a leading digit (or empty
/// input) gets an `s` prefix. Shared by file-stem naming here and the
/// serve protocol's inline `name` field, so the two paths can never
/// diverge on the same logical name.
pub fn sanitize_program_name(raw: &str) -> String {
    let mut name: String = raw
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if name.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        name.insert(0, 's');
    }
    name
}

/// Program name from a source path: the sanitized file stem.
fn program_name(path: &Path) -> String {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "stencil".to_string());
    sanitize_program_name(&stem)
}

/// Loads a cached plan for `fp`, returning the tile parameters if the
/// entry exists, parses, and was produced from the same program text
/// (fingerprint collisions degrade to a miss).
fn load_cached_params(
    dir: &Path,
    fp: &str,
    program_text: &str,
    backend: BackendKind,
) -> Option<TileParams> {
    let text = fs::read_to_string(dir.join(format!("{fp}.json"))).ok()?;
    let v = Json::parse(&text).ok()?;
    if v.get("program")?.as_str()? != program_text {
        return None;
    }
    // Legacy/corrupt entries without a backend field (or with the wrong
    // one — a hash collision would be required) degrade to a miss.
    if v.get("backend")?.as_str()? != backend.name() {
        return None;
    }
    let h = v.get("h")?.as_i64()?;
    let w: Option<Vec<i64>> = v.get("w")?.as_arr()?.iter().map(Json::as_i64).collect();
    let w = w?;
    // Guard the TileParams constructor's panics against a corrupt entry.
    if h < 0 || w.is_empty() || w[0] < 0 || w[1..].iter().any(|&x| x < 1) {
        return None;
    }
    Some(TileParams::new(h, &w))
}

/// Writes `contents` to `path` through a uniquely named sibling temp file
/// and a `rename`, so concurrent readers and writers of one path only
/// ever observe a complete file. The temp name's numbers are fixed-width,
/// so that writing costs the same allocations whatever the process id and
/// however many files came before (`tests/work_ledger.rs` pins them).
fn write_atomic(path: &Path, contents: &str) -> Result<(), DriverError> {
    static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp{:010}-{:020}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, contents).map_err(|e| DriverError::Io(format!("{}: {e}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(|e| DriverError::Io(format!("{}: {e}", path.display())))
}

/// Persists a freshly chosen plan, atomically ([`write_atomic`]): concurrent
/// batch workers can only ever observe complete entries.
fn store_cached_params(
    dir: &Path,
    job: &Job<'_>,
    params: &TileParams,
    smem_bytes: u64,
    score: f64,
) -> Result<(), DriverError> {
    let Job {
        program, cfg, fp, ..
    } = *job;
    fs::create_dir_all(dir).map_err(|e| DriverError::Io(format!("{}: {e}", dir.display())))?;
    let entry = Json::obj(vec![
        ("fingerprint", Json::str(fp)),
        ("stencil", Json::str(program.name())),
        ("program", Json::str(job.text)),
        ("device", Json::str(cfg.device.name.clone())),
        ("backend", Json::str(cfg.backend.name())),
        ("tune", Json::str(cfg.tune.name())),
        ("h", Json::Int(params.h)),
        (
            "w",
            Json::Arr(params.w.iter().map(|&x| Json::Int(x)).collect()),
        ),
        (
            "schedule",
            Json::obj(vec![
                ("time_extent", Json::Int(params.time_extent())),
                ("statements", Json::UInt(program.num_statements() as u64)),
                ("smem_bytes", Json::UInt(smem_bytes)),
            ]),
        ),
        ("score", Json::Num(score)),
    ]);
    write_atomic(&dir.join(format!("{fp}.json")), &entry.render())
}

/// Execution workload for one program: the explicit override, or a small
/// per-arity default (the autotune scoring workload).
fn workload(program: &StencilProgram, cfg: &DriverConfig) -> (Vec<usize>, usize) {
    cfg.workload
        .clone()
        .unwrap_or_else(|| autotune_workload(program))
}

/// Tuning-stage statistics for one fresh plan resolution (all zero /
/// false on a cache hit). `examined`/`shortlisted`/`simulated` mirror the
/// [`hybrid_tiling::tilesize::autotune::AutotuneReport`] counts (plus
/// re-verified warm hints in `simulated`); the warm flags record
/// cross-device plan transfer.
#[derive(Clone, Copy, Default, Debug)]
pub struct TuneStats {
    /// Candidates examined by the sweep.
    pub examined: usize,
    /// Candidates surviving the model shortlist (the whole feasible set
    /// when `top_k == 0`).
    pub shortlisted: usize,
    /// Scorer invocations — simulator runs in [`TuneMode::Simulated`] —
    /// including warm-hint re-verifications and both fidelity rungs. A
    /// full-fidelity run stopped at the best score so far still counts.
    pub simulated: usize,
    /// Proxy-fidelity scorer invocations (the ladder's cheap round).
    pub proxy_simulated: usize,
    /// Full-fidelity scorer invocations, including warm-hint
    /// re-verifications and runs stopped at the best score so far. With
    /// the ladder disabled, equals `simulated`.
    pub full_simulated: usize,
    /// Wall-clock milliseconds of the whole tuning stage (sweep plus
    /// warm-hint re-verification), clamped to ≥ 1 so a fresh tune is
    /// always distinguishable from a cache hit's 0.
    pub tune_wall_ms: u64,
    /// Milliseconds of `tune_wall_ms` spent in the sweep's front half
    /// ([`hybrid_tiling::tilesize::autotune::AutotuneReport::model_ms`],
    /// rounded to the microsecond).
    pub tune_model_ms: f64,
    /// At least one warm hint matched this program and entered
    /// re-verification.
    pub warm_start: bool,
    /// The winning plan's parameters equal a warm hint's, whether or not
    /// the sweep found them too.
    pub warm_start_hit: bool,
}

/// Splits the host's simulator-thread budget for one tuning sweep:
/// explicit `cfg.tune_workers` wins (each worker simulating on
/// `cfg.sim_threads` threads); `0` auto-splits
/// [`gpusim::resolve_sim_threads`]`(0)` between candidate workers and
/// per-candidate simulator threads — candidate-level parallelism first —
/// so `workers × per_candidate` never exceeds the host budget.
fn tune_thread_split(cfg: &DriverConfig) -> (usize, usize) {
    if cfg.tune_workers > 0 {
        return (cfg.tune_workers, cfg.sim_threads.max(1));
    }
    let budget = gpusim::resolve_sim_threads(0);
    // The sweep's candidate count is bounded by the shortlist (or the
    // max_candidates cap), so don't spin up workers past it.
    let candidates = if cfg.top_k > 0 {
        cfg.top_k
    } else if cfg.smoke {
        4
    } else {
        12
    };
    split_thread_budget(budget, candidates)
}

/// The seed of a compile's initial grids: what [`execute`] loads and
/// verifies against the oracle, and what the simulated tuner runs its
/// candidates from.
const INIT_SEED: u64 = 1234;

/// A plan and the simulator that ran it to the end.
type PlanRun = (AlignedPlan, GpuSim);

/// The full-fidelity run of the candidate that ranks first so far in a
/// simulated sweep, at the compile's workload and from its initial grids:
/// when the sweep's winner is this candidate, [`execute`] serves the run
/// instead of simulating the plan again.
struct TunedRun {
    params: TileParams,
    score: f64,
    ratio: f64,
    run: PlanRun,
}

/// The simulated tuner's scorer: a candidate's plan runs from the
/// compile's initial grids on its fidelity rung's workload, and the best
/// finished full-fidelity run is kept.
struct SimScorer<'a> {
    program: &'a StencilProgram,
    device: &'a DeviceConfig,
    /// Simulator threads per candidate.
    threads: usize,
    /// Initial grids and time steps of the proxy rung.
    proxy: (Vec<Grid>, usize),
    /// Initial grids and time steps of the full rung: the compile's own.
    full: (Vec<Grid>, usize),
    best: Mutex<Option<TunedRun>>,
}

impl SimScorer<'_> {
    /// Scores the candidate `model` by simulating its `plan` at `fidelity`:
    /// the plan's GStencils/s, or for a full-fidelity run that stopped at
    /// the best finished score so far, an upper bound below that score.
    /// The proxy rung ranks every candidate, so it runs each to the end.
    /// `None` — a rejected candidate — when the simulator refuses the plan
    /// (a write conflict, a worker panic).
    fn score(&self, model: &TileSizeModel, plan: AlignedPlan, fidelity: Fidelity) -> Option<f64> {
        let ((init, steps), floor) = match fidelity {
            Fidelity::Proxy => (&self.proxy, None),
            Fidelity::Full => (
                &self.full,
                lock_ignore_poison(&self.best).as_ref().map(|b| b.score),
            ),
        };
        let run = simulate_plan(
            self.program,
            self.device,
            init,
            &plan,
            *steps,
            self.threads,
            floor,
        );
        let (sim, end) = run.ok()?;
        let score = timing::gstencils_per_s(sim.counters(), sim.device());
        if fidelity == Fidelity::Full && end == RunEnd::Finished {
            let ratio = model.ratio();
            let mut best = lock_ignore_poison(&self.best);
            // An exact tie keeps the earlier run.
            if best
                .as_ref()
                .is_none_or(|b| rank_order((score, ratio), (b.score, b.ratio)).is_lt())
            {
                *best = Some(TunedRun {
                    params: model.params.clone(),
                    score,
                    ratio,
                    run: (plan, sim),
                });
            }
        }
        Some(score)
    }
}

/// The sweep's final ranking, as an order of `(score, load-to-compute
/// ratio)` pairs: the higher score first, then the lower ratio.
fn rank_order(
    (a_score, a_ratio): (f64, f64),
    (b_score, b_ratio): (f64, f64),
) -> std::cmp::Ordering {
    b_score
        .total_cmp(&a_score)
        .then(a_ratio.total_cmp(&b_ratio))
}

/// Loads a simulator with `init` and runs `plan` for `steps` time steps
/// on `threads` workers: to the end, or, given a `floor`, until its
/// GStencils/s can only end below it. The one simulation of a plan that
/// the simulated tuner and [`execute`] share.
fn simulate_plan(
    program: &StencilProgram,
    device: &DeviceConfig,
    init: &[Grid],
    (plan, align): &AlignedPlan,
    steps: usize,
    threads: usize,
    floor: Option<f64>,
) -> Result<(GpuSim, RunEnd), ExecError> {
    let mut sim = loaded_sim(program, device, init, *align, steps);
    let end = match floor {
        Some(floor) => sim.try_run_plan_bounded(plan, threads, floor)?,
        None => {
            sim.try_run_plan_parallel_with(plan, threads)?;
            RunEnd::Finished
        }
    };
    Ok((sim, end))
}

/// [`choose_plan`] without the winner's run: the tuple the static pins
/// compare.
#[cfg(test)]
fn choose_params(
    program: &StencilProgram,
    cone: &DepCone,
    cfg: &DriverConfig,
) -> Result<(TileParams, u64, f64, TuneStats), DriverError> {
    choose_plan(program, cone, cfg)
        .map(|(params, smem, score, stats, _)| (params, smem, score, stats))
}

/// Runs the tuning sweep and returns `(params, smem, score, stats, run)`.
/// The sweep observes `cfg.cancel` between candidate pickups; a fired
/// token becomes [`DriverError::DeadlineExceeded`] /
/// [`DriverError::Cancelled`]. Shortlist candidates are scored
/// concurrently on the [`tune_thread_split`] worker count, and when
/// `cfg.proxy < 1.0` a successive-halving proxy round (workload scaled
/// by `cfg.proxy`, survivors by [`PROXY_KEEP_FRAC`]) runs first — the
/// ranking still uses full-fidelity scores only.
///
/// In [`TuneMode::Simulated`] every candidate runs from the compile's own
/// initial grids (the scoring counters do not depend on the data). A
/// full-fidelity run stops once it can only score below the best finished
/// run so far — then it cannot win, and the upper bound it reports ranks
/// it below that run — and the best finished run is kept: `run` is the
/// winner's plan and simulator when the winner is the kept candidate, and
/// `None` otherwise (static mode, a test scorer, or an exact tie the
/// ranking breaks toward a different candidate).
///
/// Warm hints whose program text matches are **re-verified**: evaluated,
/// budget-checked, and scored through the same full-fidelity scorer as
/// swept candidates, then merged into the ranking. Hints are deduped
/// against the candidates that actually reached the ranking — with the
/// ladder on, the proxy round's survivors — so a hint matching a
/// non-survivor still gets its own full-fidelity chance. Hints can only
/// add candidates, so the chosen plan is never worse than the unhinted
/// sweep's — and with `top_k > 0` a transferred plan effectively costs
/// one extra simulation instead of a full sweep.
fn choose_plan(
    program: &StencilProgram,
    cone: &DepCone,
    cfg: &DriverConfig,
) -> Result<(TileParams, u64, f64, TuneStats, Option<PlanRun>), DriverError> {
    let tune_start = Instant::now();
    let space = sweep_space(program.spatial_dims(), cfg.smoke);
    let tune_cfg = AutotuneConfig {
        smem_limit: cfg.device.shared_limit as u64,
        verify_domain: None,
        max_candidates: if cfg.smoke { 4 } else { 12 },
        top_k: cfg.top_k,
        proxy_frac: cfg.proxy,
        keep_frac: PROXY_KEEP_FRAC,
        ..AutotuneConfig::fermi()
    };
    let (dims, steps) = workload(program, cfg);
    let (proxy_dims, proxy_steps) = proxy_workload(&dims, steps, cfg.proxy);
    let (workers, sim_threads) = tune_thread_split(cfg);
    let sim_scorer = (cfg.tune == TuneMode::Simulated).then(|| SimScorer {
        program,
        device: &cfg.device,
        threads: sim_threads,
        proxy: (random_init(program, &proxy_dims, INIT_SEED), proxy_steps),
        full: (random_init(program, &dims, INIT_SEED), steps),
        best: Mutex::new(None),
    });
    let score_model = |model: &TileSizeModel, fidelity: Fidelity| -> Option<f64> {
        #[cfg(test)]
        if let Some(f) = cfg.scorer {
            return f(model);
        }
        let geometry = |dims: &[usize], steps: usize| {
            HybridGeometry::with_cone(program, cone, &model.params, dims, steps, cfg.opts).ok()
        };
        match cfg.tune {
            // Static mode still demands end-to-end feasibility: the candidate
            // must pass every check of codegen and fit the device's shared
            // memory — read off the plan's geometry, no plan is generated.
            // The check always uses the full workload: feasibility must not
            // depend on the fidelity rung.
            TuneMode::Static => {
                if geometry(&dims, steps)?.shared_bytes() > cfg.device.shared_limit {
                    return None;
                }
                Some(-model.ratio())
            }
            TuneMode::Simulated => {
                let (sdims, ssteps) = match fidelity {
                    Fidelity::Proxy => (&proxy_dims, proxy_steps),
                    Fidelity::Full => (&dims, steps),
                };
                let geometry = geometry(sdims, ssteps)?;
                if geometry.shared_bytes() > cfg.device.shared_limit {
                    return None;
                }
                let plan = (geometry.build_plan(), geometry.alignment_offset_words());
                sim_scorer.as_ref()?.score(model, plan, fidelity)
            }
        }
    };
    let sweep = autotune_parallel_cancellable(
        program,
        &space,
        &tune_cfg,
        &cfg.cancel,
        workers,
        score_model,
    );
    let mut report = match sweep {
        Ok(report) => report,
        Err(AutotuneError::Cancelled { kind, .. }) => {
            // The partial ranking is intentionally discarded: serving a
            // possibly-worse plan from a truncated sweep would make
            // responses depend on how far the sweep got before the
            // deadline — the opposite of deterministic.
            return Err(cancel_error(kind, program.name()));
        }
    };
    let mut stats = TuneStats {
        examined: report.examined,
        shortlisted: report.shortlisted,
        simulated: report.simulated,
        proxy_simulated: report.proxy_simulated,
        full_simulated: report.full_simulated,
        tune_wall_ms: 0,
        tune_model_ms: (report.model_ms * 1e3).round() / 1e3,
        warm_start: false,
        warm_start_hit: false,
    };

    // Cross-device warm hints: dedup the ones for this program, then
    // re-verify each against this device's budgets and scorer.
    let mut hint_params: Vec<TileParams> = Vec::new();
    if !cfg.warm_hints.is_empty() {
        let program_text = program.to_c_like();
        for (text, params) in &cfg.warm_hints {
            if *text == program_text && !hint_params.contains(params) {
                hint_params.push(params.clone());
            }
        }
    }
    stats.warm_start = !hint_params.is_empty();
    // One evaluator for every hint (cone and access table derived once),
    // and only when there is a hint to re-verify.
    let evaluator = if hint_params.is_empty() {
        None
    } else {
        TileEvaluator::new(program).ok()
    };
    for params in &hint_params {
        check_cancel(&cfg.cancel, program.name())?;
        if report.ranked.iter().any(|e| &e.model.params == params) {
            // The sweep already scored this exact candidate.
            continue;
        }
        let Some(Ok(model)) = evaluator.as_ref().map(|e| e.evaluate(params)) else {
            continue;
        };
        if model.smem_bytes > tune_cfg.smem_limit
            || estimated_regs_per_block(program, params) > tune_cfg.regs_per_block
        {
            continue;
        }
        stats.simulated += 1;
        stats.full_simulated += 1;
        if let Some(score) = score_model(&model, Fidelity::Full) {
            report.ranked.push(AutotuneEntry { model, score });
        }
    }
    if stats.warm_start {
        // Same comparator as the sweep's final ranking, so a merged hint
        // wins only by strictly scoring better (ratio breaks ties).
        report
            .ranked
            .sort_by(|a, b| rank_order((a.score, a.model.ratio()), (b.score, b.model.ratio())));
    }
    stats.tune_wall_ms = (tune_start.elapsed().as_millis() as u64).max(1);
    let kept =
        sim_scorer.and_then(|scorer| scorer.best.into_inner().unwrap_or_else(|p| p.into_inner()));
    match report.best() {
        Some(winner) => {
            stats.warm_start_hit = hint_params.contains(&winner.model.params);
            let run = kept
                .filter(|k| k.params == winner.model.params)
                .map(|k| k.run);
            Ok((
                winner.model.params.clone(),
                winner.model.smem_bytes,
                winner.score,
                stats,
                run,
            ))
        }
        None => Err(DriverError::NoFeasibleTiling(format!(
            "{}: {} candidates examined ({} unschedulable, {} over shared memory, \
             {} over registers, {} rejected at codegen/scoring)",
            program.name(),
            report.examined,
            report.rejected_schedule,
            report.rejected_smem,
            report.rejected_regs,
            report.rejected_scorer,
        ))),
    }
}

/// One compile's resolved inputs, shared by every stage after parsing.
#[derive(Clone, Copy)]
struct Job<'a> {
    program: &'a StencilProgram,
    /// The canonical rendering of `program`, rendered once per compile.
    text: &'a str,
    fp: &'a str,
    dims: &'a [usize],
    steps: usize,
    cfg: &'a DriverConfig,
}

/// The source artifact's path and, if the backend has one, the secondary's.
type Artifacts = (PathBuf, Option<PathBuf>);

/// Where the artifacts of `job` live: `<out_dir>/<name>-<fp8>.<ext>` for
/// the source and, if the backend has one, the secondary artifact. The
/// fingerprint prefix makes the paths content-addressed, so concurrent
/// serve requests compiling *different* programs under the same name
/// land on distinct files — and a file this process finds there holds
/// what [`emit_artifacts`] would write again (emission is deterministic
/// per fingerprint), which is why a memory hit only probes `exists()`.
fn artifact_paths(job: &Job<'_>) -> Artifacts {
    let Job {
        program, cfg, fp, ..
    } = *job;
    let backend = cfg.backend.backend();
    let tag = &fp[..8.min(fp.len())];
    let path = |ext: &str| cfg.out_dir.join(format!("{}-{tag}.{ext}", program.name()));
    (
        path(backend.source_extension()),
        backend.aux_extension().map(path),
    )
}

/// Emits the source (and, if the backend has one, secondary) artifact
/// for `plan` at [`artifact_paths`]. Each file is written atomically
/// ([`write_atomic`]): concurrent requests for one fingerprint re-emit
/// the same path.
fn emit_artifacts(
    job: &Job<'_>,
    params: &TileParams,
    plan: &gpu_codegen::LaunchPlan,
) -> Result<Artifacts, DriverError> {
    let Job { program, cfg, .. } = *job;
    fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| DriverError::Io(format!("{}: {e}", cfg.out_dir.display())))?;
    let backend = cfg.backend.backend();
    let mut source = format!(
        "// {} — hybrid hexagonal/classical tiling, h = {}, w = {:?}\n\
         // {} kernel(s), {} launch(es); generated by hybridc\n\n",
        program.name(),
        params.h,
        params.w,
        plan.kernels.len(),
        plan.launches.len(),
    );
    source.push_str(&backend.emit_plan(plan));
    let (source_path, aux_path) = artifact_paths(job);
    write_atomic(&source_path, &source)?;
    if let (Some(path), Some(aux)) = (&aux_path, backend.emit_aux(plan)) {
        write_atomic(path, &aux)?;
    }
    Ok((source_path, aux_path))
}

/// The storage cone of the job's program, derived once per compile and
/// handed to every geometry the compile builds (the tuner's candidates and
/// the final plan).
fn storage_cone(job: &Job<'_>) -> Result<DepCone, DriverError> {
    DepCone::of_program_with_storage(job.program)
        .map_err(|e| DriverError::NoFeasibleTiling(format!("{}: {e}", job.program.name())))
}

/// A launch plan with the §4.2.3 alignment offset (in words) its global
/// arrays are translated by.
type AlignedPlan = (gpu_codegen::LaunchPlan, i64);

/// Lowers `params` to a launch plan for the job's workload.
fn generate(
    job: &Job<'_>,
    cone: &DepCone,
    params: &TileParams,
) -> Result<AlignedPlan, gpu_codegen::CodegenError> {
    let geometry =
        HybridGeometry::with_cone(job.program, cone, params, job.dims, job.steps, job.cfg.opts)?;
    Ok((geometry.build_plan(), geometry.alignment_offset_words()))
}

/// A resolved plan: its tile parameters, the plan, the simulator that
/// already ran it (a fresh simulated tune's winner), how it was tuned and
/// where it came from.
type Resolved = (
    TileParams,
    AlignedPlan,
    Option<GpuSim>,
    TuneStats,
    CacheSource,
);

/// Resolves the tile plan for one compile below the memory layer:
///
/// 1. `cached` — tile parameters the caller already holds (a memory
///    entry whose record could not answer the request);
/// 2. the on-disk content-addressed cache;
/// 3. the cross-process lock file next to the disk cache (a concurrent
///    `hybridd` process tuning the same fingerprint is awaited, not
///    duplicated);
/// 4. a fresh tuning sweep.
///
/// Stale cached plans (entries that no longer generate) degrade to a
/// miss; every layer observes `cfg.cancel`. A fresh simulated tune also
/// returns the simulator that already ran the winning plan, for
/// [`execute`] to serve.
fn resolve_plan(
    job: &Job<'_>,
    cone: &DepCone,
    cached: Option<TileParams>,
) -> Result<Resolved, DriverError> {
    let Job {
        program,
        text,
        fp,
        cfg,
        ..
    } = *job;
    let cached = cached
        .map(|params| (params, CacheSource::Memory))
        .or_else(|| {
            let dir = cfg.cache_dir.as_deref()?;
            let params = load_cached_params(dir, fp, text, cfg.backend)?;
            Some((params, CacheSource::Disk))
        });
    // A cached plan that no longer generates (stale entry from an older
    // emitter) degrades to a miss.
    if let Some((params, source)) = cached {
        if let Ok(plan) = generate(job, cone, &params) {
            return Ok((params, plan, None, TuneStats::default(), source));
        }
    }

    // The cross-process single-flight. A concurrent process tuning this
    // fingerprint is awaited through its lock file; its stored entry then
    // counts as a disk hit.
    let mut disk_flight = None;
    if let Some(dir) = cfg.cache_dir.as_deref() {
        match DiskLock::acquire(dir, fp, text, cfg.backend, &cfg.cancel)? {
            DiskFlight::Acquired(lock) => disk_flight = Some(lock),
            DiskFlight::Ready(params) => {
                if let Ok(plan) = generate(job, cone, &params) {
                    return Ok((params, plan, None, TuneStats::default(), CacheSource::Disk));
                }
                // The other process stored a stale/incompatible entry:
                // tune for ourselves, without re-contending for the lock.
            }
            DiskFlight::Skip => {}
        }
    }

    // On any failure below, dropping `disk_flight` unlinks the lock file
    // and releases the lock, so other processes proceed at once.
    let (params, smem, score, stats, run) = choose_plan(program, cone, cfg)?;
    if let Some(dir) = cfg.cache_dir.as_deref() {
        store_cached_params(dir, job, &params, smem, score)?;
    }
    let (plan, sim) = match run {
        Some((plan, sim)) => (plan, Some(sim)),
        None => (
            generate(job, cone, &params)
                .map_err(|e| DriverError::NoFeasibleTiling(format!("{}: {e}", program.name())))?,
            None,
        ),
    };
    drop(disk_flight);
    Ok((params, plan, sim, stats, CacheSource::Fresh))
}

/// Milliseconds (to the microsecond) of resolving the plan, then of the stages an
/// executed compile overlaps, each timed on its own lane. They describe a request,
/// not a plan: 0 on a memory hit.
#[derive(Clone, Copy, Default, Debug)]
pub struct StageTimes {
    /// `resolve_plan` on the request thread, before the lanes start: disk probe,
    /// lock, tune (`tune_wall_ms` is inside it), store, generate, unlock.
    pub plan_ms: f64,
    /// The simulator run, including loading its memory. 0 when `execute`
    /// served the run a simulated tune kept for its winner: that
    /// simulation is inside `plan_ms`.
    pub simulate_ms: f64,
    /// The sequential oracle (0 with `verify` off).
    pub oracle_ms: f64,
    /// Rendering and writing the artifacts.
    pub emit_ms: f64,
}

/// Milliseconds since `since`, to the microsecond.
fn elapsed_ms(since: Instant) -> f64 {
    (since.elapsed().as_secs_f64() * 1e6).round() / 1e3
}

/// Emits the artifacts of `plan`, executes it on the simulator and, when
/// `cfg.verify` is on, checks the result bit for bit against the oracle —
/// as two lanes: this thread simulates (the critical path) while a scoped
/// side thread emits, then runs the oracle; only the comparison needs both.
/// A `ran` simulator (the tuner's run of this plan, from the same initial
/// grids) is served as the simulation instead, and checked the same way.
/// Failures keep the precedence of the stages run in sequence: emission, a
/// deadline fired before simulating, the simulator, a deadline fired since
/// (the oracle stops at its next step), a mismatch. Side-lane panics re-raise.
fn execute(
    job: &Job<'_>,
    params: &TileParams,
    aligned: &AlignedPlan,
    ran: Option<GpuSim>,
) -> Result<((ExecRecord, StageTimes), Artifacts), DriverError> {
    let (program, steps, cfg) = (job.program, job.steps, job.cfg);
    let (name, init) = (program.name(), random_init(program, job.dims, INIT_SEED));
    let plan = &aligned.0;
    let (side, simulated) = std::thread::scope(|scope| {
        let side = scope.spawn(|| {
            let (mut times, start) = (StageTimes::default(), Instant::now());
            let artifacts = emit_artifacts(job, params, plan)?;
            times.emit_ms = elapsed_ms(start);
            let oracle = cfg.verify.then(|| {
                let (mut oracle, start) = (ReferenceExecutor::new(program, &init), Instant::now());
                while oracle.steps_done() < steps && cfg.cancel.cancelled().is_none() {
                    oracle.step();
                }
                times.oracle_ms = elapsed_ms(start);
                oracle
            });
            Ok::<_, DriverError>((artifacts, oracle, times))
        });
        let start = Instant::now();
        let simulated = check_cancel(&cfg.cancel, name).and_then(|()| match ran {
            Some(sim) => Ok((sim, 0.0)),
            None => {
                // A schedule that violates concurrent-tile independence is a
                // per-stencil verification failure, never a dead batch/service.
                let (sim, _) = simulate_plan(
                    program,
                    &cfg.device,
                    &init,
                    aligned,
                    steps,
                    cfg.sim_threads,
                    None,
                )
                .map_err(|e| DriverError::Verify(format!("{name}: {e}")))?;
                Ok((sim, elapsed_ms(start)))
            }
        });
        (side.join(), simulated)
    });
    let (artifacts, oracle, mut times) = side.unwrap_or_else(|panic| resume_unwind(panic))?;
    let (sim, simulate_ms) = simulated?;
    times.simulate_ms = simulate_ms;
    check_cancel(&cfg.cancel, name)?;
    let out = steps % (program.max_dt() as usize + 1);
    for f in 0..program.num_fields() {
        let Some(oracle) = &oracle else { break };
        if !sim.plane(f, out).bit_equal(oracle.field(f)) {
            return Err(DriverError::Verify(format!(
                "{name}: field {} diverged from the reference (max abs diff {:e})",
                program.field_names()[f],
                sim.plane(f, out).max_abs_diff(oracle.field(f))
            )));
        }
    }
    let record = ExecRecord {
        verified: cfg.verify,
        gstencils: timing::gstencils_per_s(sim.counters(), sim.device()),
        seconds: timing::estimate_time(sim.counters(), sim.device()).total,
        launches: sim.counters().launches,
        kernels: plan.kernels.len(),
        smem_bytes: plan
            .kernels
            .iter()
            .map(|k| k.shared_bytes() as u64)
            .max()
            .unwrap_or(0),
    };
    Ok(((record, times), artifacts))
}

/// The one place a [`CompileOutcome`] is filled in, for hits and misses
/// alike: the execution `record` (fresh or cached), the plan's
/// provenance (`stats`, `cache`) and the artifact paths.
fn outcome_from(
    job: &Job<'_>,
    label: &Path,
    params: TileParams,
    stats: TuneStats,
    cache: CacheSource,
    (record, stages): (ExecRecord, StageTimes),
    (source_path, aux_path): Artifacts,
) -> CompileOutcome {
    let Job {
        program,
        fp,
        dims,
        steps,
        cfg,
        ..
    } = *job;
    let per_statement = |count: fn(&stencil::StencilExpr) -> usize| -> Vec<usize> {
        program
            .statements()
            .iter()
            .map(|s| count(&s.expr))
            .collect()
    };
    CompileOutcome {
        name: program.name().to_string(),
        source: label.to_path_buf(),
        fingerprint: fp.to_string(),
        params,
        cache_hit: cache.is_hit(),
        cache,
        examined: stats.examined,
        shortlisted: stats.shortlisted,
        simulated: stats.simulated,
        proxy_simulated: stats.proxy_simulated,
        full_simulated: stats.full_simulated,
        tune_wall_ms: stats.tune_wall_ms,
        tune_model_ms: stats.tune_model_ms,
        warm_start: stats.warm_start,
        warm_start_hit: stats.warm_start_hit,
        stages,
        // A cached record may carry a verdict this request did not ask
        // for; `verified == cfg.verify` holds on every path.
        verified: record.verified && cfg.verify,
        gstencils: record.gstencils,
        seconds: record.seconds,
        launches: record.launches,
        kernels: record.kernels,
        smem_bytes: record.smem_bytes,
        loads: per_statement(load_count),
        flops: per_statement(flop_count),
        dims: dims.to_vec(),
        steps,
        backend: cfg.backend,
        source_path,
        aux_path,
    }
}

/// Compiles one stencil file end to end: parse, validate, plan (through
/// the cache), emit source for the configured backend, execute on the
/// simulator, and verify bit-exactly against the reference oracle.
///
/// # Errors
///
/// Every pipeline stage maps its failure to a [`DriverError`] variant; no
/// stage panics on user input.
pub fn compile_file(path: &Path, cfg: &DriverConfig) -> Result<CompileOutcome, DriverError> {
    compile_file_with(path, cfg, None)
}

/// [`compile_file`] with an optional shared in-memory plan cache layered
/// above the on-disk one (the `hybridd` serve path).
pub fn compile_file_with(
    path: &Path,
    cfg: &DriverConfig,
    mem: Option<&MemCache>,
) -> Result<CompileOutcome, DriverError> {
    let src = fs::read_to_string(path)
        .map_err(|e| DriverError::Io(format!("{}: {e}", path.display())))?;
    compile_source_with(&program_name(path), &src, path, cfg, mem)
}

/// Compiles DSL source text directly (no file read): the entry point the
/// compile service uses for inline `program` requests. `label` is the
/// path recorded in the outcome/report (for inline programs, a synthetic
/// `<request>`-style label).
///
/// With a memory cache, a hit whose record satisfies the request
/// (`record.verified || !cfg.verify`) is answered from the entry: parse,
/// checks, fingerprint, lookup, and an `exists()` probe per artifact —
/// nothing is generated, simulated or verified, and no file is written
/// unless an artifact is missing under this request's `out_dir`/name (it
/// is then re-emitted, without simulation). A hit on a record that a
/// `verify: false` compile published, by a request that wants
/// verification, re-executes the cached tile parameters and upgrades the
/// entry in place. Everything else — memory miss, disk hit, fresh tune —
/// runs the whole pipeline and publishes the entry only after the plan
/// executed (and verified) successfully.
///
/// # Errors
///
/// Identical to [`compile_file`].
pub fn compile_source_with(
    name: &str,
    src: &str,
    label: &Path,
    cfg: &DriverConfig,
    mem: Option<&MemCache>,
) -> Result<CompileOutcome, DriverError> {
    let program = parse_stencil(name, src).map_err(DriverError::Parse)?;
    if !(1..=3).contains(&program.spatial_dims()) {
        return Err(DriverError::Unsupported(format!(
            "{} has {} spatial dimensions; the planner supports 1-3",
            name,
            program.spatial_dims()
        )));
    }

    // An explicit workload override must match the program before it can
    // reach code paths that assert on it (batch directories mix arities).
    if let Some((d, _)) = &cfg.workload {
        if d.len() != program.spatial_dims() {
            return Err(DriverError::Unsupported(format!(
                "{} has {} spatial dimensions but --size gives {}",
                name,
                program.spatial_dims(),
                d.len()
            )));
        }
        let radius = program.radius();
        if d.iter().zip(&radius).any(|(&n, &r)| (n as i64) < 2 * r + 1) {
            return Err(DriverError::Unsupported(format!(
                "{name}: workload {d:?} has an empty interior for stencil radius {radius:?}"
            )));
        }
    }

    // Options the requested backend cannot lower are rejected before
    // any planning work (typed error, not an assert deep in emission).
    if let Err(e) = cfg.backend.backend().check_options(&cfg.opts) {
        return Err(DriverError::Unsupported(format!("{name}: {e}")));
    }

    // A request whose deadline already passed must not be served, not
    // even from the cache: the client has stopped waiting.
    check_cancel(&cfg.cancel, name)?;

    let text = program.to_c_like();
    let fp = fingerprint_text(&text, cfg);
    let device_fp = device_fingerprint(&cfg.device);
    let (dims, steps) = workload(&program, cfg);
    let job = Job {
        program: &program,
        text: &text,
        fp: &fp,
        dims: &dims,
        steps,
        cfg,
    };

    // The shared in-memory cache (single-flight — an in-flight compile of
    // the same fingerprint is awaited, not repeated).
    let mut guard = None;
    let mut cached = None;
    if let Some(mem) = mem {
        match mem.lookup_or_begin(&fp, &device_fp, &text, &cfg.cancel) {
            MemLookup::Hit(params, record) if record.verified || !cfg.verify => {
                let artifacts = artifact_paths(&job);
                let (source, aux) = &artifacts;
                if !(source.exists() && aux.as_ref().is_none_or(|p| p.exists())) {
                    let (plan, _) = generate(&job, &storage_cone(&job)?, &params)
                        .map_err(|e| DriverError::NoFeasibleTiling(format!("{name}: {e}")))?;
                    emit_artifacts(&job, &params, &plan)?;
                }
                return Ok(outcome_from(
                    &job,
                    label,
                    params,
                    TuneStats::default(),
                    CacheSource::Memory,
                    (record, StageTimes::default()),
                    artifacts,
                ));
            }
            // The record was published without verification and this
            // request wants it: execute the cached parameters again.
            MemLookup::Hit(params, _) => {
                mem.stats.add(Id::MemReexecuted, 1);
                cached = Some(params);
            }
            MemLookup::Miss(g) => guard = Some(g),
            MemLookup::Bypass => {}
            MemLookup::Cancelled(kind) => return Err(cancel_error(kind, name)),
        }
    }

    // On any failure below, dropping `guard` clears the in-flight marker
    // and wakes single-flight waiters to compile for themselves: nothing
    // is published until the plan executed (and verified).
    let (cone, start) = (storage_cone(&job)?, Instant::now());
    let (params, plan, sim, stats, cache) = resolve_plan(&job, &cone, cached)?;
    let plan_ms = elapsed_ms(start);
    let (mut ran, artifacts) = execute(&job, &params, &plan, sim)?;
    ran.1.plan_ms = plan_ms;
    if let Some(g) = guard {
        g.fulfill(&text, &params, ran.0);
    } else if let (Some(mem), CacheSource::Memory) = (mem, cache) {
        mem.upgrade(&fp, &device_fp, &text, ran.0);
    }
    Ok(outcome_from(
        &job, label, params, stats, cache, ran, artifacts,
    ))
}

/// Renders a caught panic payload (the `&str`/`String` forms `panic!`
/// produces; anything else degrades to a fixed message).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Compiles a batch of files across `cfg.jobs` worker threads (the PR-2
/// pool pattern: an atomic work index over the sorted file list). Results
/// keep input order; one file's failure never aborts the rest.
///
/// Panic isolation: each compile runs under [`catch_unwind`], so a
/// panicking pipeline stage becomes that file's
/// [`DriverError::Internal`] entry — and if a worker thread still dies,
/// its unfilled slots surface as `Internal` errors rather than a process
/// abort or a silently missing result.
pub fn compile_batch(
    paths: &[PathBuf],
    cfg: &DriverConfig,
) -> Vec<(PathBuf, Result<CompileOutcome, DriverError>)> {
    compile_batch_with(paths, cfg, None)
}

/// [`compile_batch`] against an optional shared in-memory plan cache.
pub fn compile_batch_with(
    paths: &[PathBuf],
    cfg: &DriverConfig,
    mem: Option<&MemCache>,
) -> Vec<(PathBuf, Result<CompileOutcome, DriverError>)> {
    let jobs = cfg.jobs.clamp(1, paths.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<CompileOutcome, DriverError>>>> =
        paths.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= paths.len() {
                        break;
                    }
                    let result =
                        catch_unwind(AssertUnwindSafe(|| compile_file_with(&paths[i], cfg, mem)))
                            .unwrap_or_else(|payload| {
                                Err(DriverError::Internal(format!(
                                    "compile of {} panicked: {}",
                                    paths[i].display(),
                                    panic_message(payload)
                                )))
                            });
                    *lock_ignore_poison(&slots[i]) = Some(result);
                })
            })
            .collect();
        // Join explicitly: a worker that dies despite the catch_unwind
        // boundary (e.g. a panic while panicking) must not take the
        // process down — its slots are reported as Internal below.
        for h in handles {
            let _ = h.join();
        }
    });
    paths
        .iter()
        .cloned()
        .zip(slots.into_iter().map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| {
                    Err(DriverError::Internal(
                        "worker thread died before filling this result slot".to_string(),
                    ))
                })
        }))
        .collect()
}

/// Renders the machine-readable per-stencil report (the `--report`
/// artifact).
pub fn report_json(
    results: &[(PathBuf, Result<CompileOutcome, DriverError>)],
    cfg: &DriverConfig,
) -> Json {
    let compiled = results.iter().filter(|(_, r)| r.is_ok()).count();
    let cache_hits = results
        .iter()
        .filter(|(_, r)| r.as_ref().is_ok_and(|o| o.cache_hit))
        .count();
    Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("device", Json::str(cfg.device.name.clone())),
                ("backend", Json::str(cfg.backend.name())),
                ("tune", Json::str(cfg.tune.name())),
                ("smoke", Json::Bool(cfg.smoke)),
                ("verify", Json::Bool(cfg.verify)),
                ("sim_threads", Json::UInt(cfg.sim_threads as u64)),
                ("jobs", Json::UInt(cfg.jobs as u64)),
            ]),
        ),
        (
            "summary",
            Json::obj(vec![
                ("total", Json::UInt(results.len() as u64)),
                ("compiled", Json::UInt(compiled as u64)),
                ("failed", Json::UInt((results.len() - compiled) as u64)),
                ("cache_hits", Json::UInt(cache_hits as u64)),
            ]),
        ),
        (
            "stencils",
            Json::Arr(
                results
                    .iter()
                    .map(|(path, r)| outcome_json(&path.display().to_string(), r))
                    .collect(),
            ),
        ),
    ])
}

/// The fields of an [`outcome_json`] object that say how its outcome was
/// obtained rather than what it is — cache provenance, tuning effort and
/// the stage timers. A memory-cache hit reports them differently from the
/// miss that published its entry (and the timers differ between any two
/// runs); every other field is identical. Tests and the CI response
/// normalisers set exactly these aside.
pub const PROVENANCE_FIELDS: [&str; 15] = [
    "cache_hit",
    "cache",
    "examined",
    "shortlisted",
    "simulated",
    "proxy_simulated",
    "full_simulated",
    "tune_wall_ms",
    "tune_model_ms",
    "plan_ms",
    "simulate_ms",
    "oracle_ms",
    "emit_ms",
    "warm_start",
    "warm_start_hit",
];

/// The per-stencil report object for one compile result — the unit both
/// `hybridc --report` (inside [`report_json`]) and the `hybridd` serve
/// protocol emit, so a service response is bit-identical to the one-shot
/// report entry.
pub fn outcome_json(source: &str, result: &Result<CompileOutcome, DriverError>) -> Json {
    match result {
        Ok(o) => Json::obj(vec![
            ("name", Json::str(o.name.clone())),
            ("source", Json::str(source)),
            ("status", Json::str("ok")),
            ("fingerprint", Json::str(o.fingerprint.clone())),
            ("cache_hit", Json::Bool(o.cache_hit)),
            ("cache", Json::str(o.cache.name())),
            ("examined", Json::UInt(o.examined as u64)),
            ("shortlisted", Json::UInt(o.shortlisted as u64)),
            ("simulated", Json::UInt(o.simulated as u64)),
            ("proxy_simulated", Json::UInt(o.proxy_simulated as u64)),
            ("full_simulated", Json::UInt(o.full_simulated as u64)),
            ("tune_wall_ms", Json::UInt(o.tune_wall_ms)),
            ("tune_model_ms", Json::Num(o.tune_model_ms)),
            ("plan_ms", Json::Num(o.stages.plan_ms)),
            ("simulate_ms", Json::Num(o.stages.simulate_ms)),
            ("oracle_ms", Json::Num(o.stages.oracle_ms)),
            ("emit_ms", Json::Num(o.stages.emit_ms)),
            ("warm_start", Json::Bool(o.warm_start)),
            ("warm_start_hit", Json::Bool(o.warm_start_hit)),
            ("h", Json::Int(o.params.h)),
            (
                "w",
                Json::Arr(o.params.w.iter().map(|&x| Json::Int(x)).collect()),
            ),
            (
                "dims",
                Json::Arr(o.dims.iter().map(|&d| Json::UInt(d as u64)).collect()),
            ),
            ("steps", Json::UInt(o.steps as u64)),
            ("verified", Json::Bool(o.verified)),
            ("gstencils_per_s", Json::Num(o.gstencils)),
            ("est_seconds", Json::Num(o.seconds)),
            ("launches", Json::UInt(o.launches)),
            ("kernels", Json::UInt(o.kernels as u64)),
            ("smem_bytes", Json::UInt(o.smem_bytes)),
            (
                "loads",
                Json::Arr(o.loads.iter().map(|&x| Json::UInt(x as u64)).collect()),
            ),
            (
                "flops",
                Json::Arr(o.flops.iter().map(|&x| Json::UInt(x as u64)).collect()),
            ),
            ("backend", Json::str(o.backend.name())),
            ("artifact", Json::str(o.source_path.display().to_string())),
            (
                "aux_artifact",
                match &o.aux_path {
                    Some(p) => Json::str(p.display().to_string()),
                    None => Json::Null,
                },
            ),
        ]),
        Err(e) => Json::obj(vec![
            ("source", Json::str(source)),
            ("status", Json::str("error")),
            ("error_kind", Json::str(e.kind())),
            ("error", Json::str(e.to_string())),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::Arc;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A fresh scratch directory per test invocation.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hybridc_test_{}_{}_{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_stencil(dir: &Path, name: &str, body: &str) -> PathBuf {
        let p = dir.join(name);
        fs::write(&p, body).unwrap();
        p
    }

    const JACOBI: &str = "\
// five-point Jacobi
const float w = 0.2f;
for (t = 0; t < T; t++)
  for (i = 1; i < N-1; i++)
    for (j = 1; j < N-1; j++)
      A[t+1][i][j] = w * (A[t][i][j] + A[t][i+1][j] + A[t][i-1][j]
                        + A[t][i][j+1] + A[t][i][j-1]);
";

    /// A stand-in execution record for tests that publish entries by hand.
    const RECORD: ExecRecord = ExecRecord {
        verified: true,
        gstencils: 1.0,
        seconds: 1.0,
        launches: 1,
        kernels: 1,
        smem_bytes: 0,
    };

    fn smoke_cfg(out: PathBuf) -> DriverConfig {
        DriverConfig {
            smoke: true,
            ..DriverConfig::new(out)
        }
    }

    #[test]
    fn compiles_verifies_and_caches_a_user_stencil() {
        let dir = scratch("single");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = smoke_cfg(dir.join("out"));

        let first = compile_file(&file, &cfg).unwrap();
        assert_eq!(first.name, "jacobi");
        assert!(!first.cache_hit);
        assert!(first.examined > 0);
        assert!(first.verified);
        assert!(first.gstencils > 0.0);
        assert_eq!(first.backend, BackendKind::Cuda);
        assert!(first.source_path.is_file());
        assert!(first.source_path.extension().is_some_and(|e| e == "cu"));
        let ptx = first.aux_path.as_ref().expect("CUDA emits a PTX artifact");
        assert!(ptx.is_file());
        let cuda = fs::read_to_string(&first.source_path).unwrap();
        assert!(cuda.contains("__global__ void"), "{cuda}");

        // Second compile: same fingerprint, served from the cache.
        let second = compile_file(&file, &cfg).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.examined, 0);
        assert_eq!(second.params, first.params);
        assert_eq!(second.fingerprint, first.fingerprint);

        // Artifacts and cache entries go through `write_atomic`: neither
        // the miss nor the re-emitting hit leaves a temp file behind.
        for dir in [&cfg.out_dir, cfg.cache_dir.as_ref().unwrap()] {
            for entry in fs::read_dir(dir).unwrap() {
                let name = entry.unwrap().file_name().to_string_lossy().into_owned();
                assert!(!name.contains(".tmp"), "{}: stray {name}", dir.display());
            }
        }
    }

    /// Runs `execute` on the JACOBI program at `(h, w) = (2, [3, 8])` under
    /// `cfg`, with `fp` as the job's fingerprint.
    fn execute_jacobi(
        cfg: &DriverConfig,
        fp: &str,
    ) -> Result<((ExecRecord, StageTimes), Artifacts), DriverError> {
        let program = parse_stencil("jacobi", JACOBI).unwrap();
        let (text, (dims, steps)) = (program.to_c_like(), workload(&program, cfg));
        let job = Job {
            program: &program,
            text: &text,
            fp,
            dims: &dims,
            steps,
            cfg,
        };
        let params = TileParams::new(2, &[3, 8]);
        let plan = generate(&job, &storage_cone(&job).unwrap(), &params).unwrap();
        execute(&job, &params, &plan, None)
    }

    #[test]
    fn a_side_lane_panic_is_the_request_threads_panic() {
        // Byte 8 of this fingerprint is inside its third character:
        // `artifact_paths`, which only the side lane calls, panics slicing
        // it, while the simulation next to it runs to completion.
        let cfg = smoke_cfg(scratch("side_panic"));
        let caught = catch_unwind(AssertUnwindSafe(|| execute_jacobi(&cfg, "€€€")));
        let message = panic_message(caught.expect_err("the panic crosses the join"));
        assert!(message.contains("char boundary"), "{message}");
    }

    #[test]
    fn the_oracle_lane_stops_at_a_fired_token_and_nothing_is_verified() {
        // A fired token: the side lane still emits — emission always ran
        // before the first cancellation check — its oracle takes no step,
        // and the request answers the typed error without simulating.
        let cfg = smoke_cfg(scratch("fired"));
        let fired = DriverConfig {
            cancel: CancelToken::with_flag(Arc::new(AtomicBool::new(true))),
            ..cfg.clone()
        };
        let start = Instant::now();
        let err = execute_jacobi(&fired, "0123456789abcdef").unwrap_err();
        assert!(matches!(err, DriverError::Cancelled(_)), "{err}");
        let (fast, emitted) = (start.elapsed(), fs::read_dir(&cfg.out_dir).unwrap().count());
        assert_eq!(emitted, 2, "the .cu and the .ptx");
        // The same request with a live token does all three stages.
        let start = Instant::now();
        let ((record, times), _) = execute_jacobi(&cfg, "0123456789abcdef").unwrap();
        assert!(record.verified && times.oracle_ms > 0.0 && times.simulate_ms > 0.0);
        assert!(
            fast < start.elapsed(),
            "a cancelled execute ran as long as a whole one"
        );
    }

    #[test]
    fn outcome_is_independent_of_sim_threads() {
        // One executor at every worker count: the numbers a request
        // reports cannot depend on how many threads simulated it.
        let dir = scratch("threads");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let compile = |sim_threads: usize| {
            let cfg = DriverConfig {
                sim_threads,
                ..smoke_cfg(dir.join("out"))
            };
            let o = compile_file(&file, &cfg).unwrap();
            (o.gstencils, o.seconds, o.launches, o.smem_bytes, o.verified)
        };
        let one = compile(1);
        assert!(one.4, "verified at one worker");
        assert_eq!(compile(2), one);
        assert_eq!(compile(8), one);
    }

    #[test]
    fn corrupt_cache_entries_degrade_to_a_miss() {
        let dir = scratch("corrupt");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = smoke_cfg(dir.join("out"));
        let first = compile_file(&file, &cfg).unwrap();
        let entry = cfg
            .cache_dir
            .as_ref()
            .unwrap()
            .join(format!("{}.json", first.fingerprint));
        fs::write(&entry, "{ not json").unwrap();
        let second = compile_file(&file, &cfg).unwrap();
        assert!(!second.cache_hit, "corrupt entry must not be trusted");
        assert_eq!(second.params, first.params, "retuning is deterministic");
    }

    #[test]
    fn batch_compiles_across_workers_and_reports() {
        let dir = scratch("batch");
        write_stencil(&dir, "a_jacobi.stencil", JACOBI);
        write_stencil(
            &dir,
            "b_heat1d.stencil",
            "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    \
             A[t+1][i] = 0.25f * A[t][i-1] + 0.5f * A[t][i] + 0.25f * A[t][i+1];\n",
        );
        write_stencil(&dir, "c_broken.stencil", "for (t = 0; t < T; t++) oops\n");
        let files = collect_stencil_files(&dir).unwrap();
        assert_eq!(files.len(), 3);

        let cfg = DriverConfig {
            jobs: 2,
            ..smoke_cfg(dir.join("out"))
        };
        let results = compile_batch(&files, &cfg);
        assert_eq!(results.len(), 3);
        assert!(results[0].1.is_ok());
        assert!(results[1].1.is_ok());
        assert!(matches!(results[2].1, Err(DriverError::Parse(_))));

        let report = report_json(&results, &cfg);
        let summary = report.get("summary").unwrap();
        assert_eq!(summary.get("total").and_then(Json::as_u64), Some(3));
        assert_eq!(summary.get("compiled").and_then(Json::as_u64), Some(2));
        assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(1));
        // The parser reads unsigned literals as UInt where the report used
        // Int, so round-trip equality holds at the text level.
        let text = report.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.render(), text, "report JSON round-trips");
    }

    #[test]
    fn batch_surfaces_worker_panics_as_per_file_errors() {
        // A scorer that panics on every candidate: the compile thread
        // unwinds inside the pool, and the batch must report it as that
        // file's Internal error — not abort, not drop the slot.
        let dir = scratch("panic_scorer");
        write_stencil(&dir, "a_jacobi.stencil", JACOBI);
        write_stencil(
            &dir,
            "b_broken.stencil",
            "for (t = 0; t < T; t++) nonsense\n",
        );
        let files = collect_stencil_files(&dir).unwrap();
        let cfg = DriverConfig {
            jobs: 2,
            scorer: Some(|_| panic!("injected scorer panic")),
            ..smoke_cfg(dir.join("out"))
        };
        let results = compile_batch(&files, &cfg);
        assert_eq!(results.len(), 2);
        match &results[0].1 {
            Err(DriverError::Internal(m)) => {
                assert!(m.contains("injected scorer panic"), "{m}");
                assert!(m.contains("a_jacobi"), "{m}");
            }
            other => panic!("expected Internal error, got {other:?}"),
        }
        // The other file still gets its own (parse) verdict.
        assert!(matches!(results[1].1, Err(DriverError::Parse(_))));
        let report = report_json(&results, &cfg);
        assert_eq!(
            report
                .get("summary")
                .and_then(|s| s.get("failed"))
                .and_then(Json::as_u64),
            Some(2)
        );
        let entry = &report.get("stencils").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            entry.get("error_kind").and_then(Json::as_str),
            Some("internal")
        );
    }

    #[test]
    fn mem_cache_layers_above_the_disk_cache() {
        let dir = scratch("mem_cache");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = smoke_cfg(dir.join("out"));
        let mem = MemCache::new();

        let first = compile_file_with(&file, &cfg, Some(&mem)).unwrap();
        assert_eq!(first.cache, CacheSource::Fresh);
        assert_eq!(mem.len(), 1);
        assert_eq!((mem.get(Id::MemHits), mem.get(Id::MemMisses)), (0, 1));

        // Identical request: served from memory, not the disk.
        let second = compile_file_with(&file, &cfg, Some(&mem)).unwrap();
        assert_eq!(second.cache, CacheSource::Memory);
        assert_eq!(second.examined, 0);
        assert_eq!(second.params, first.params);
        assert_eq!((mem.get(Id::MemHits), mem.get(Id::MemMisses)), (1, 1));

        // A fresh memory cache falls back to the disk layer and promotes
        // the entry into memory.
        let mem2 = MemCache::new();
        let third = compile_file_with(&file, &cfg, Some(&mem2)).unwrap();
        assert_eq!(third.cache, CacheSource::Disk);
        assert_eq!(mem2.len(), 1);
        let fourth = compile_file_with(&file, &cfg, Some(&mem2)).unwrap();
        assert_eq!(fourth.cache, CacheSource::Memory);
    }

    #[test]
    fn mem_cache_single_flight_coalesces_concurrent_identical_requests() {
        let dir = scratch("single_flight");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        // No disk cache: every plan must come from tuning or memory.
        let cfg = DriverConfig {
            cache_dir: None,
            ..smoke_cfg(dir.join("out"))
        };
        let mem = MemCache::new();
        let outcomes: Vec<CompileOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| compile_file_with(&file, &cfg, Some(&mem)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one request tuned; everyone agreed on the plan. The
        // other three were immediate hits or coalesced waits, depending
        // on scheduling.
        assert_eq!(mem.get(Id::MemMisses), 1);
        assert_eq!(mem.get(Id::MemHits) + mem.get(Id::MemCoalesced), 3);
        assert_eq!(mem.get(Id::MemLookups), 4);
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| o.cache == CacheSource::Fresh)
                .count(),
            1
        );
        // Waiters woke to the leader's complete entry: same plan, same
        // executed-and-verified record, bit for bit.
        let first = &outcomes[0];
        assert!(outcomes.iter().all(|o| o.params == first.params
            && o.verified
            && o.gstencils.to_bits() == first.gstencils.to_bits()
            && o.seconds.to_bits() == first.seconds.to_bits()
            && (o.launches, o.kernels, o.smem_bytes)
                == (first.launches, first.kernels, first.smem_bytes)));
        assert!(outcomes
            .iter()
            .filter(|o| o.cache != CacheSource::Fresh)
            .all(|o| o.cache == CacheSource::Memory && o.examined == 0));
    }

    #[test]
    fn mem_cache_guard_drop_wakes_waiters_after_failure() {
        // A failing compile (no feasible tiling via a scorer that rejects
        // everything) must clear its in-flight marker so concurrent
        // identical requests fail on their own instead of hanging.
        let dir = scratch("guard_drop");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = DriverConfig {
            cache_dir: None,
            scorer: Some(|_| None),
            ..smoke_cfg(dir.join("out"))
        };
        let mem = MemCache::new();
        let results: Vec<Result<CompileOutcome, DriverError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| s.spawn(|| compile_file_with(&file, &cfg, Some(&mem))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(DriverError::NoFeasibleTiling(_)))));
        assert!(mem.is_empty(), "failed compiles must not leave markers");

        // The same holds for a leader that fails *after* its sweep chose
        // a plan — the window between tuning and a successful execution,
        // where nothing may be published yet. The leader's last scoring
        // is a warm hint from outside the smoke space (no cancellation
        // check follows hint re-verification): there the scorer parks on
        // GATE until both followers are waiting on the in-flight marker,
        // then raises the leader's cancel flag, so the sweep completes
        // and the pre-simulation check fails the compile.
        use std::sync::OnceLock;
        const HINT_H: i64 = 3;
        static GATE: Mutex<()> = Mutex::new(());
        static LEADER_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
        fn cancelling_scorer(m: &TileSizeModel) -> Option<f64> {
            if m.params.h == HINT_H {
                drop(lock_ignore_poison(&GATE));
                LEADER_FLAG.get().unwrap().store(true, Ordering::SeqCst);
            }
            Some(-m.ratio())
        }
        let flag = LEADER_FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)));
        let follower_cfg = DriverConfig {
            scorer: Some(cancelling_scorer),
            ..cfg.clone()
        };
        let program = parse_stencil("jacobi", JACOBI).unwrap();
        let leader_cfg = DriverConfig {
            warm_hints: vec![(program.to_c_like(), TileParams::new(HINT_H, &[3, 32]))],
            cancel: CancelToken::with_flag(flag.clone()),
            ..follower_cfg.clone()
        };
        let mem = MemCache::new();
        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let start = Instant::now();
            while !cond() {
                assert!(
                    start.elapsed() < Duration::from_secs(60),
                    "timed out: {what}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let (leader, followers) = std::thread::scope(|s| {
            let gate = lock_ignore_poison(&GATE);
            let leader = s.spawn(|| compile_file_with(&file, &leader_cfg, Some(&mem)));
            wait_for("leader in flight", &|| mem.get(Id::MemMisses) == 1);
            let followers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| compile_file_with(&file, &follower_cfg, Some(&mem))))
                .collect();
            wait_for("followers waiting", &|| mem.get(Id::MemLookups) == 3);
            drop(gate);
            (
                leader.join().unwrap(),
                followers
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>(),
            )
        });
        assert!(
            matches!(leader, Err(DriverError::Cancelled(_))),
            "{leader:?}"
        );
        // Nothing was published by the cancelled leader: one follower
        // had to become the new leader, the other took its entry.
        assert!(followers
            .iter()
            .all(|r| r.as_ref().is_ok_and(|o| o.verified)));
        assert_eq!(
            (
                mem.get(Id::MemMisses),
                mem.get(Id::MemHits) + mem.get(Id::MemCoalesced)
            ),
            (2, 1)
        );
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn mem_cache_guard_survives_a_panicking_scorer_under_the_lru() {
        // Satellite regression: a MemCacheGuard dropped *via panic*
        // during single-flight must wake waiters AND leave no permanent
        // in-flight marker — under the new size-capped LRU. The scorer
        // panics exactly once (the single-flight leader); the woken
        // waiters retune with the now-sane scorer and succeed.
        use std::sync::atomic::AtomicBool;
        static PANICKED_ONCE: AtomicBool = AtomicBool::new(false);
        fn panic_once_scorer(m: &TileSizeModel) -> Option<f64> {
            if !PANICKED_ONCE.swap(true, Ordering::SeqCst) {
                panic!("injected scorer panic under single-flight");
            }
            Some(-m.ratio())
        }
        PANICKED_ONCE.store(false, Ordering::SeqCst);
        let dir = scratch("panic_guard");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = DriverConfig {
            cache_dir: None,
            scorer: Some(panic_once_scorer),
            ..smoke_cfg(dir.join("out"))
        };
        // A small cap makes this the LRU path, not the legacy unbounded
        // one.
        let mem = MemCache::with_cap(Some(64 * 1024));
        let results: Vec<Result<CompileOutcome, DriverError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        catch_unwind(AssertUnwindSafe(|| {
                            compile_file_with(&file, &cfg, Some(&mem))
                        }))
                        .unwrap_or_else(|_| Err(DriverError::Internal("panicked".into())))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one thread panicked (contained); at least one waiter
        // woke up, retuned, and succeeded.
        let panicked = results
            .iter()
            .filter(|r| matches!(r, Err(DriverError::Internal(_))))
            .count();
        assert_eq!(panicked, 1, "{results:?}");
        assert!(
            results.iter().any(|r| r.is_ok()),
            "waiters must wake and retune after the leader panics: {results:?}"
        );
        // No permanent in-flight marker: a fresh lookup for the same
        // fingerprint must be a hit (an entry exists) — never a hang.
        let program = parse_stencil("jacobi", JACOBI).unwrap();
        let fp = fingerprint(&program, &cfg);
        let dfp = device_fingerprint(&cfg.device);
        assert!(mem.contains(&dfp, &fp), "successful retune must publish");
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_entries() {
        let mem = MemCache::with_cap(Some(600));
        let dfp = "dev";
        let params = TileParams::new(1, &[3]);
        let insert = |key: &str, text_len: usize| {
            let program = "x".repeat(text_len);
            match mem.lookup_or_begin(key, dfp, &program, &CancelToken::never()) {
                MemLookup::Miss(g) => g.fulfill(&program, &params, RECORD),
                _ => panic!("expected miss for {key}"),
            }
        };
        // Each entry costs text_len + key/device/overhead bytes; with a
        // 600-byte cap, the third insert must evict the least recently
        // used of the first two.
        insert("a", 100);
        insert("b", 100);
        assert!(mem.bytes() <= 600);
        assert_eq!(mem.len(), 2);
        // Touch "a": it becomes most recently used.
        match mem.lookup_or_begin("a", dfp, &"x".repeat(100), &CancelToken::never()) {
            MemLookup::Hit(..) => {}
            _ => panic!("expected hit on a"),
        }
        insert("c", 100);
        assert!(mem.bytes() <= 600, "cap is a hard invariant");
        assert!(mem.contains(dfp, "a"), "recently hit entry must survive");
        assert!(!mem.contains(dfp, "b"), "LRU entry must be evicted");
        assert!(mem.contains(dfp, "c"));
        assert_eq!(mem.get(Id::MemEvictions), 1);
        // Counters stay disjoint and complete.
        assert_eq!(
            mem.get(Id::MemLookups),
            mem.get(Id::MemHits)
                + mem.get(Id::MemMisses)
                + mem.get(Id::MemCoalesced)
                + mem.get(Id::MemBypasses)
                + mem.get(Id::MemCancelledWaits)
        );
        assert!(mem.hit_age_quantiles_ms().is_some());
    }

    #[test]
    fn oversized_entry_is_evicted_rather_than_breaking_the_cap() {
        let mem = MemCache::with_cap(Some(200));
        let params = TileParams::new(1, &[3]);
        let big = "y".repeat(1000);
        match mem.lookup_or_begin("huge", "dev", &big, &CancelToken::never()) {
            MemLookup::Miss(g) => g.fulfill(&big, &params, RECORD),
            _ => panic!("expected miss"),
        }
        assert_eq!(mem.bytes(), 0, "an entry larger than the cap cannot stay");
        assert_eq!(mem.get(Id::MemEvictions), 1);
    }

    #[test]
    fn cross_process_lock_coalesces_concurrent_tuning() {
        // Two "processes" (no shared MemCache) compiling the same
        // program against one disk cache directory: the lock file must
        // make exactly one of them tune; the other waits and loads the
        // stored entry as a disk hit.
        let dir = scratch("xproc");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = smoke_cfg(dir.join("out"));
        let outcomes: Vec<CompileOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| s.spawn(|| compile_file(&file, &cfg).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = outcomes
            .iter()
            .filter(|o| o.cache == CacheSource::Fresh)
            .count();
        let disk = outcomes
            .iter()
            .filter(|o| o.cache == CacheSource::Disk)
            .count();
        assert_eq!((fresh, disk), (1, 1), "{outcomes:?}");
        assert_eq!(outcomes[0].params, outcomes[1].params);
        // The lock file is gone after both compiles.
        let lock = cfg
            .cache_dir
            .as_ref()
            .unwrap()
            .join(format!("{}.lock", outcomes[0].fingerprint));
        assert!(!lock.exists(), "lock must be removed on completion");
    }

    #[test]
    fn static_winners_are_pinned() {
        // `(h, w)`, the model's `smem_bytes` and the score `choose_params`
        // returned at the commit before the static scorer stopped
        // generating a plan per candidate; both devices have 48 KB of
        // shared memory, so they agree.
        let winners: [(&str, i64, &[i64], u64, f64); 6] = [
            ("wave1d", 3, &[5], 168, -0.3888888888888889),
            ("jacobi2d", 3, &[5, 64], 8176, -0.3055555555555556),
            ("fdtd2d", 3, &[5, 64], 13312, -0.3611111111111111),
            ("blur2d", 3, &[5, 64], 8176, -0.3055555555555556),
            ("gradient2d", 3, &[5, 64], 8176, -0.3055555555555556),
            ("laplacian3d", 2, &[3, 8, 32], 46800, -0.7083333333333334),
        ];
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
        for (name, h, w, smem, score) in winners {
            let src = fs::read_to_string(root.join(format!("{name}.stencil"))).unwrap();
            let program = parse_stencil(name, &src).unwrap();
            let cone = DepCone::of_program_with_storage(&program).unwrap();
            for device in [DeviceConfig::gtx470(), DeviceConfig::nvs5200m()] {
                let cfg = DriverConfig {
                    device,
                    ..DriverConfig::new("unused")
                };
                let (params, got_smem, got_score, _) =
                    choose_params(&program, &cone, &cfg).unwrap();
                assert_eq!(
                    (params, got_smem, got_score),
                    (TileParams::new(h, w), smem, score),
                    "{name} on {}",
                    cfg.device.name
                );
            }
        }
    }

    #[test]
    fn simulated_winners_are_pinned() {
        // What a cold `tune: simulated` compile serves, for the 1-D/2-D
        // examples on both devices under the exhaustive sweep (`top_k 0`)
        // and the shortlist + ladder (`top_k 4, proxy 0.5`), at one tuning
        // worker and at two: `(h, w)`, GStencils/s, launches, kernels.
        // Every served plan is verified.
        let pinned = "\
wave1d | GTX 470 | exhaustive | h 3 w [3] | 0.03042933810375671 GStencils/s | 2 launches | 2 kernels
wave1d | GTX 470 | ladder | h 3 w [1] | 0.030425826553574516 GStencils/s | 2 launches | 2 kernels
wave1d | NVS 5200M | exhaustive | h 3 w [3] | 0.019151459434612734 GStencils/s | 2 launches | 2 kernels
wave1d | NVS 5200M | ladder | h 3 w [1] | 0.01914266023432116 GStencils/s | 2 launches | 2 kernels
jacobi2d | GTX 470 | exhaustive | h 3 w [5, 64] | 0.43638384903724187 GStencils/s | 2 launches | 2 kernels
jacobi2d | GTX 470 | ladder | h 3 w [5, 32] | 0.4361569526848483 GStencils/s | 2 launches | 2 kernels
jacobi2d | NVS 5200M | exhaustive | h 3 w [5, 64] | 0.26510328201194455 GStencils/s | 2 launches | 2 kernels
jacobi2d | NVS 5200M | ladder | h 3 w [5, 32] | 0.26457416267942585 GStencils/s | 2 launches | 2 kernels
fdtd2d | GTX 470 | exhaustive | h 3 w [3, 32] | 0.6283152811712422 GStencils/s | 3 launches | 2 kernels
fdtd2d | GTX 470 | ladder | h 3 w [3, 32] | 0.6283152811712422 GStencils/s | 3 launches | 2 kernels
fdtd2d | NVS 5200M | exhaustive | h 3 w [3, 32] | 0.39562744346492906 GStencils/s | 3 launches | 2 kernels
fdtd2d | NVS 5200M | ladder | h 3 w [3, 32] | 0.39562744346492906 GStencils/s | 3 launches | 2 kernels
blur2d | GTX 470 | exhaustive | h 3 w [5, 64] | 0.43376259084533986 GStencils/s | 2 launches | 2 kernels
blur2d | GTX 470 | ladder | h 3 w [5, 32] | 0.4335384114352871 GStencils/s | 2 launches | 2 kernels
blur2d | NVS 5200M | exhaustive | h 3 w [5, 64] | 0.25908433734939756 GStencils/s | 2 launches | 2 kernels
blur2d | NVS 5200M | ladder | h 3 w [5, 32] | 0.25857894877481763 GStencils/s | 2 launches | 2 kernels
gradient2d | GTX 470 | exhaustive | h 3 w [5, 64] | 0.4292503750227818 GStencils/s | 2 launches | 2 kernels
gradient2d | GTX 470 | ladder | h 3 w [5, 32] | 0.4290308342266221 GStencils/s | 2 launches | 2 kernels
gradient2d | NVS 5200M | exhaustive | h 3 w [5, 64] | 0.24918370500077253 GStencils/s | 2 launches | 2 kernels
gradient2d | NVS 5200M | ladder | h 3 w [5, 32] | 0.24871616932685633 GStencils/s | 2 launches | 2 kernels
";
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
        let dir = scratch("sim_pins");
        let mut got = String::new();
        for name in ["wave1d", "jacobi2d", "fdtd2d", "blur2d", "gradient2d"] {
            let src = fs::read_to_string(root.join(format!("{name}.stencil"))).unwrap();
            let workload = if name == "wave1d" {
                (vec![64], 4)
            } else {
                (vec![32, 32], 4)
            };
            for device in [DeviceConfig::gtx470(), DeviceConfig::nvs5200m()] {
                for (sweep, top_k, proxy) in [("exhaustive", 0, 1.0), ("ladder", 4, 0.5)] {
                    let mut served = Vec::new();
                    for tune_workers in [1, 2] {
                        let out =
                            dir.join(format!("{name}-{}-{sweep}-{tune_workers}", device.name));
                        let cfg = DriverConfig {
                            device: device.clone(),
                            tune: TuneMode::Simulated,
                            workload: Some(workload.clone()),
                            top_k,
                            proxy,
                            tune_workers,
                            ..DriverConfig::new(out)
                        };
                        let o = compile_source_with(name, &src, Path::new(name), &cfg, None)
                            .unwrap_or_else(|e| panic!("{name} on {}: {e}", device.name));
                        assert!(o.verified, "{name} on {}", device.name);
                        served.push((o.params, o.gstencils, o.launches, o.kernels));
                    }
                    assert_eq!(
                        served[0], served[1],
                        "{name} on {} ({sweep}): one and two tuning workers disagree",
                        device.name
                    );
                    let (p, gstencils, launches, kernels) = &served[0];
                    got += &format!(
                        "{name} | {} | {sweep} | h {} w {:?} | {gstencils:?} GStencils/s | \
                         {launches} launches | {kernels} kernels\n",
                        device.name, p.h, p.w
                    );
                }
            }
        }
        assert_eq!(got, pinned, "served winners moved; now:\n{got}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_plan_the_simulator_refuses_is_a_rejected_candidate() {
        // Each block copies its own element of plane 0 to element 0 of
        // plane 1: two blocks of one launch write different values to one
        // location, which the merge of a two-thread run refuses. The
        // scorer rejects the candidate rather than panic the request, and
        // keeps no run of it.
        use gpu_codegen::ir::{FExpr, IExpr, Kernel, Launch, LaunchPlan, PoolBuilder, Stmt};
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
        let src = fs::read_to_string(root.join("wave1d.stencil")).unwrap();
        let program = parse_stencil("wave1d", &src).unwrap();
        let p = PoolBuilder::default();
        let (block, zero, one) = (p.iexpr(IExpr::BlockIdx), p.lit(0), p.lit(1));
        let body = vec![
            Stmt::GlobalLoad {
                dst: 0,
                field: 0,
                plane: zero,
                index: p.indices(&[block]),
            },
            Stmt::GlobalStore {
                field: 0,
                plane: one,
                index: p.indices(&[zero]),
                src: p.fexpr(FExpr::Reg(0)),
            },
        ];
        let kernel = Kernel {
            name: "race".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            pool: Arc::new(p.finish()),
            body,
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 2,
            }],
            description: "write race".into(),
        };
        let device = DeviceConfig::gtx470();
        let dims = [64];
        let scorer = SimScorer {
            program: &program,
            device: &device,
            threads: 2,
            proxy: (random_init(&program, &dims, INIT_SEED), 2),
            full: (random_init(&program, &dims, INIT_SEED), 2),
            best: Mutex::new(None),
        };
        let model = TileEvaluator::new(&program)
            .unwrap()
            .evaluate(&TileParams::new(3, &[5]))
            .unwrap();
        for fidelity in [Fidelity::Proxy, Fidelity::Full] {
            assert_eq!(scorer.score(&model, (plan.clone(), 0), fidelity), None);
        }
        assert!(scorer.best.into_inner().unwrap().is_none());
    }

    /// Plants a lock file nobody holds, dated `mtime`, where `compile_file`
    /// will look for the jacobi lock, then checks the compile takes it at
    /// once, tunes and removes it.
    fn leftover_lock_is_taken(tag: &str, mtime: std::time::SystemTime) {
        let dir = scratch(tag);
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = smoke_cfg(dir.join("out"));
        let program = parse_stencil("jacobi", JACOBI).unwrap();
        let cache_dir = cfg.cache_dir.clone().unwrap();
        fs::create_dir_all(&cache_dir).unwrap();
        let lock = cache_dir.join(format!("{}.lock", fingerprint(&program, &cfg)));
        fs::write(&lock, "dead-process\n").unwrap();
        let planted = fs::File::options().write(true).open(&lock).unwrap();
        planted.set_modified(mtime).unwrap();
        drop(planted);
        let out = compile_file(&file, &cfg).unwrap();
        assert_eq!(
            out.cache,
            CacheSource::Fresh,
            "{tag}: the lock must be taken"
        );
        assert!(!lock.exists(), "{tag}: the lock file must be removed");
    }

    #[test]
    fn stale_lock_files_are_stolen_by_mtime() {
        // A lock file left by a crashed holder locks nothing, however old
        // its mtime: no flock is held on it, so the first compile takes it.
        let year = Duration::from_secs(365 * 24 * 3600);
        leftover_lock_is_taken("stale_lock", std::time::SystemTime::now() - year);
    }

    #[test]
    fn lock_files_dated_in_the_future_are_stolen_too() {
        // After a clock step (or on a skewed file server) an abandoned
        // lock's mtime lies ahead of now; the flock lock never reads it.
        let day = Duration::from_secs(24 * 3600);
        leftover_lock_is_taken("future_lock", std::time::SystemTime::now() + day);
    }

    #[test]
    fn live_slow_tuner_keeps_its_disk_lock() {
        // Starvation regression: an mtime-heartbeat lock was stolen from
        // a holder whose one candidate outlasted the staleness bound. A
        // flock is held for as long as the holder lives, so a single
        // scorer call sleeping ~300 ms (shortlist of 1) must still
        // coalesce — one fresh tune, one disk hit, never two fresh tunes.
        fn slow_scorer(m: &TileSizeModel) -> Option<f64> {
            std::thread::sleep(Duration::from_millis(300));
            Some(-m.ratio())
        }
        let dir = scratch("hb_lock");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = DriverConfig {
            scorer: Some(slow_scorer),
            top_k: 1,
            ..smoke_cfg(dir.join("out"))
        };
        let outcomes: Vec<CompileOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| s.spawn(|| compile_file(&file, &cfg).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = outcomes
            .iter()
            .filter(|o| o.cache == CacheSource::Fresh)
            .count();
        let disk = outcomes
            .iter()
            .filter(|o| o.cache == CacheSource::Disk)
            .count();
        assert_eq!(
            (fresh, disk),
            (1, 1),
            "a live holder's lock must not be stolen: {outcomes:?}"
        );
    }

    /// Takes the disk lock of fingerprint `fp` in `dir`.
    fn lock_in(dir: &Path) -> DiskLock {
        match DiskLock::acquire(dir, "fp", "text", BackendKind::Cuda, &CancelToken::never()) {
            Ok(DiskFlight::Acquired(lock)) => lock,
            _ => panic!("{}: no holder and no entry expected", dir.display()),
        }
    }

    /// Takes the disk lock of fingerprint `fp` in a fresh directory.
    fn held_lock(tag: &str) -> (DiskLock, PathBuf) {
        let dir = scratch(tag);
        (lock_in(&dir), dir.join("fp.lock"))
    }

    /// Set only in the child process of
    /// `a_killed_holders_lock_is_free_at_once`: the directory whose lock
    /// the child takes and holds until it is killed.
    const LOCK_HOLDER_DIR: &str = "HYBRIDC_TEST_LOCK_HOLDER_DIR";
    /// What the child prints once it holds the lock (libtest may print
    /// the test's name on the same line).
    const CHILD_HOLDS: &str = "the child holds the lock";

    #[test]
    fn a_killed_holders_lock_is_free_at_once() {
        if let Some(dir) = std::env::var_os(LOCK_HOLDER_DIR) {
            let _lock = lock_in(Path::new(&dir));
            println!("{CHILD_HOLDS}");
            std::thread::sleep(Duration::from_secs(30));
            return;
        }
        use std::io::BufRead as _;
        use std::process::{Command, Stdio};
        // The holder is this test binary, re-run as a child process.
        let dir = scratch("killed_holder");
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["driver::tests::a_killed_holders_lock_is_free_at_once"])
            .args(["--exact", "--nocapture", "--test-threads=1"])
            .env(LOCK_HOLDER_DIR, &dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        let holding = stdout
            .lines()
            .map_while(Result::ok)
            .any(|line| line.contains(CHILD_HOLDS));
        assert!(holding, "the child never took the lock");
        let probe = fs::File::open(dir.join("fp.lock")).unwrap();
        assert!(matches!(
            probe.try_lock(),
            Err(fs::TryLockError::WouldBlock)
        ));
        // `Child::kill` is SIGKILL: no destructor runs, the file stays,
        // and only the kernel can release the lock.
        let start = Instant::now();
        child.kill().unwrap();
        let lock = lock_in(&dir);
        let took = start.elapsed();
        child.wait().unwrap();
        assert!(took < Duration::from_millis(50), "{took:?}");
        drop(lock);
        assert!(!dir.join("fp.lock").exists());
    }

    #[test]
    fn a_waiter_on_an_unlinked_lock_file_never_shares_the_lock() {
        // B opens `fp.lock` while A holds it, and keeps polling that file.
        // A unlinks and releases it; C creates and locks a new `fp.lock`.
        // B then locks the old, unlinked file — and must see that it is no
        // longer the path's, and wait for C instead of holding beside it.
        // The sleeps only order these steps: a host too slow for them
        // makes the test weaker, never makes it fail.
        let (a, path) = held_lock("unlink_race");
        let dir = path.parent().unwrap();
        let c_released = AtomicBool::new(false);
        std::thread::scope(|s| {
            let b = s.spawn(|| {
                let _lock = lock_in(dir);
                c_released.load(Ordering::SeqCst)
            });
            // B's backoff has reached its 10 ms step on A's file.
            std::thread::sleep(Duration::from_millis(30));
            drop(a);
            let c = lock_in(dir);
            // B retries the old file several times meanwhile.
            std::thread::sleep(Duration::from_millis(60));
            c_released.store(true, Ordering::SeqCst);
            drop(c);
            assert!(b.join().unwrap(), "B held the lock while C did");
        });
        assert!(!path.exists());
    }

    #[test]
    fn dropping_a_held_disk_lock_takes_under_three_ms() {
        // Dropping is an unlink and a close.
        let fastest = (0..5)
            .map(|_| {
                let (lock, path) = held_lock("lock_drop");
                let start = Instant::now();
                drop(lock);
                let took = start.elapsed();
                assert!(!path.exists(), "the lock file must be removed");
                took
            })
            .min()
            .unwrap();
        assert!(fastest < Duration::from_millis(3), "{fastest:?}");
    }

    #[test]
    fn fidelity_ladder_counters_flow_into_the_outcome() {
        let dir = scratch("ladder_outcome");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        // Ladder off: every scoring is full fidelity, and the wall-clock
        // counter is clamped to at least 1 ms so a fresh tune is never
        // mistaken for a cache hit.
        let flat = compile_file(&file, &smoke_cfg(dir.join("flat"))).unwrap();
        assert_eq!(flat.proxy_simulated, 0);
        assert_eq!(flat.full_simulated, flat.simulated);
        assert!(flat.tune_wall_ms >= 1, "{flat:?}");

        // Ladder on: every shortlisted candidate pays a proxy scoring,
        // only survivors pay full fidelity, and both rungs are counted.
        let cfg = DriverConfig {
            proxy: 0.5,
            cache_dir: None,
            ..smoke_cfg(dir.join("ladder"))
        };
        let out = compile_file(&file, &cfg).unwrap();
        assert!(out.proxy_simulated > 0, "{out:?}");
        assert!(out.full_simulated < out.proxy_simulated, "{out:?}");
        assert_eq!(out.simulated, out.proxy_simulated + out.full_simulated);
        assert!(out.tune_wall_ms >= 1);
        // A memory-cache hit reports a zero wall clock: nothing was tuned.
        let mem = MemCache::new();
        let miss = compile_file_with(&file, &cfg, Some(&mem)).unwrap();
        assert!(miss.tune_wall_ms >= 1);
        let hit = compile_file_with(&file, &cfg, Some(&mem)).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.tune_wall_ms, 0, "{hit:?}");
    }

    #[test]
    fn warm_hints_are_reverified_and_counted() {
        let dir = scratch("warm");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        // Cold sweep: learn the smoke-space best without hints.
        let cold_cfg = DriverConfig {
            cache_dir: None,
            ..smoke_cfg(dir.join("cold"))
        };
        let cold = compile_file(&file, &cold_cfg).unwrap();
        assert!(!cold.warm_start && !cold.warm_start_hit);
        assert!(cold.shortlisted > 0 && cold.simulated > 0);

        // Warm compile on a shortlist of 1, hinted with the cold plan:
        // the transfer is re-verified (scored), wins, and the plan is
        // bit-identical to the cold sweep's at ~top_k + 1 scorings.
        let program = parse_stencil("jacobi", JACOBI).unwrap();
        let warm_cfg = DriverConfig {
            cache_dir: None,
            top_k: 1,
            warm_hints: vec![(program.to_c_like(), cold.params.clone())],
            ..smoke_cfg(dir.join("warm"))
        };
        let warm = compile_file(&file, &warm_cfg).unwrap();
        assert!(warm.warm_start);
        assert!(warm.warm_start_hit);
        assert_eq!(warm.params, cold.params, "transfer must be bit-identical");
        assert_eq!(warm.shortlisted, 1);
        assert!(warm.simulated <= 2, "≈ top_k + 1 scorings, got {warm:?}");

        // Hints for a different program are ignored entirely.
        let stranger_cfg = DriverConfig {
            cache_dir: None,
            warm_hints: vec![("other program".to_string(), cold.params.clone())],
            ..smoke_cfg(dir.join("stranger"))
        };
        let out = compile_file(&file, &stranger_cfg).unwrap();
        assert!(!out.warm_start && !out.warm_start_hit);
        assert_eq!(out.params, cold.params);
    }

    #[test]
    fn device_distance_ranks_near_devices_below_far_ones() {
        let a = DeviceConfig::gtx470();
        assert_eq!(device_distance(&a, &a), 0.0);
        // The name is cosmetic: a renamed identical device is distance 0.
        let mut renamed = a.clone();
        renamed.name = "GTX 470 (relabelled)".to_string();
        assert_eq!(device_distance(&a, &renamed), 0.0);
        let mut near = a.clone();
        near.clock_ghz *= 1.05;
        let far = DeviceConfig::nvs5200m();
        let d_near = device_distance(&a, &near);
        let d_far = device_distance(&a, &far);
        assert!(d_near > 0.0);
        assert!(d_near < d_far, "{d_near} vs {d_far}");
        assert_eq!(d_far, device_distance(&far, &a), "distance is symmetric");
    }

    #[test]
    fn mem_cache_exports_per_device_plans_for_warm_seeding() {
        let mem = MemCache::new();
        let params = TileParams::new(2, &[3, 32]);
        for (fp, dev) in [("f1", "devA"), ("f2", "devA"), ("f3", "devB")] {
            match mem.lookup_or_begin(fp, dev, fp, &CancelToken::never()) {
                MemLookup::Miss(g) => g.fulfill(fp, &params, RECORD),
                _ => panic!("expected miss for {fp}"),
            }
        }
        let plans = mem.device_plans("devA", 16);
        assert_eq!(plans.len(), 2);
        assert!(plans.iter().all(|(_, p)| *p == params));
        assert_eq!(mem.device_plans("devB", 16).len(), 1);
        assert_eq!(mem.device_plans("devA", 1).len(), 1, "limit is honored");
        assert!(mem.device_plans("devC", 16).is_empty());
        // Exports are not lookups: counters untouched.
        assert_eq!(mem.get(Id::MemLookups), 3);
    }

    #[test]
    fn expired_deadline_is_a_typed_error_not_a_compile() {
        let dir = scratch("deadline");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = DriverConfig {
            cancel: CancelToken::with_timeout(Duration::ZERO),
            ..smoke_cfg(dir.join("out"))
        };
        match compile_file(&file, &cfg) {
            Err(DriverError::DeadlineExceeded(m)) => {
                assert!(m.contains("deadline"), "{m}");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // And the error kind is the protocol's name.
        assert_eq!(
            DriverError::DeadlineExceeded(String::new()).kind(),
            "deadline_exceeded"
        );
        assert_eq!(DriverError::Cancelled(String::new()).kind(), "cancelled");
    }

    #[test]
    fn device_fingerprint_covers_every_architectural_parameter() {
        let base = DeviceConfig::gtx470();
        let base_fp = device_fingerprint(&base);
        assert_ne!(base_fp, device_fingerprint(&DeviceConfig::nvs5200m()));
        // A clock-only change (which only affects simulated scores, not
        // budgets) still keys apart.
        let mut clocked = base.clone();
        clocked.clock_ghz += 0.1;
        assert_ne!(base_fp, device_fingerprint(&clocked));
        // And the compile fingerprint inherits that separation.
        let program = parse_stencil("j", JACOBI).unwrap();
        let cfg = smoke_cfg(std::env::temp_dir());
        let clocked_cfg = DriverConfig {
            device: clocked,
            ..cfg.clone()
        };
        assert_ne!(
            fingerprint(&program, &cfg),
            fingerprint(&program, &clocked_cfg)
        );
    }

    #[test]
    fn fingerprint_separates_devices_and_modes() {
        let dir = scratch("fp");
        let file = write_stencil(&dir, "j.stencil", JACOBI);
        let cfg = smoke_cfg(dir.join("out"));
        let program = parse_stencil("j", &fs::read_to_string(&file).unwrap()).unwrap();
        let base = fingerprint(&program, &cfg);
        let other_device = DriverConfig {
            device: DeviceConfig::nvs5200m(),
            ..cfg.clone()
        };
        let other_tune = DriverConfig {
            tune: TuneMode::Simulated,
            ..cfg.clone()
        };
        assert_ne!(base, fingerprint(&program, &other_device));
        assert_ne!(base, fingerprint(&program, &other_tune));
        assert_eq!(base, fingerprint(&program, &cfg.clone()));
        // The shortlist size changes which candidates get scored, so it
        // keys separately; warm hints only add re-verified candidates
        // and deliberately share the key.
        let other_topk = DriverConfig {
            top_k: 3,
            ..cfg.clone()
        };
        assert_ne!(base, fingerprint(&program, &other_topk));
        let hinted = DriverConfig {
            warm_hints: vec![(program.to_c_like(), TileParams::new(1, &[3, 32]))],
            ..cfg.clone()
        };
        assert_eq!(base, fingerprint(&program, &hinted));
        // The workload feeds tuning scores, so an override keys separately
        // — a plan tuned for one workload must not serve another.
        let other_workload = DriverConfig {
            workload: Some((vec![64, 64], 8)),
            ..cfg.clone()
        };
        assert_ne!(base, fingerprint(&program, &other_workload));
        // The fidelity ladder can change which candidate wins, so the
        // proxy fraction keys separately; the worker count cannot (the
        // parallel ranking is bit-identical to the sequential one), so
        // plans tuned at any parallelism share the cache entry.
        let laddered = DriverConfig {
            proxy: 0.5,
            ..cfg.clone()
        };
        assert_ne!(base, fingerprint(&program, &laddered));
        let more_workers = DriverConfig {
            tune_workers: 8,
            ..cfg.clone()
        };
        assert_eq!(base, fingerprint(&program, &more_workers));
    }

    #[test]
    fn fingerprint_forms_agree_on_every_example_stencil() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
        let files = collect_stencil_files(&dir).unwrap();
        assert!(files.len() >= 6, "{files:?}");
        for file in &files {
            let src = fs::read_to_string(file).unwrap();
            let program = parse_stencil(&program_name(file), &src).unwrap();
            for device in [DeviceConfig::gtx470(), DeviceConfig::nvs5200m()] {
                let cfg = DriverConfig {
                    device,
                    ..DriverConfig::new(std::env::temp_dir())
                };
                assert_eq!(
                    fingerprint(&program, &cfg),
                    fingerprint_text(&program.to_c_like(), &cfg),
                    "{}",
                    file.display()
                );
            }
        }
    }

    #[test]
    fn fingerprint_separates_backends_and_vendors() {
        let dir = scratch("fp_backend");
        let file = write_stencil(&dir, "j.stencil", JACOBI);
        let cfg = smoke_cfg(dir.join("out"));
        let program = parse_stencil("j", &fs::read_to_string(&file).unwrap()).unwrap();
        let base = fingerprint(&program, &cfg);
        // Every backend keys apart from every other: a WGSL plan can
        // never alias a CUDA one.
        let mut fps = vec![base.clone()];
        for kind in BackendKind::ALL.into_iter().skip(1) {
            let other = DriverConfig {
                backend: kind,
                ..cfg.clone()
            };
            fps.push(fingerprint(&program, &other));
        }
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // A vendor change is a device change even with identical
        // numeric parameters.
        let mut amd = cfg.device.clone();
        amd.vendor = "amd".to_string();
        let other_vendor = DriverConfig {
            device: amd,
            ..cfg.clone()
        };
        assert_ne!(base, fingerprint(&program, &other_vendor));
    }

    #[test]
    fn device_distance_penalizes_vendor_mismatch_above_any_numeric_gap() {
        let a = DeviceConfig::gtx470();
        let mut rebadged = DeviceConfig::gtx470();
        rebadged.vendor = "amd".to_string();
        // Same silicon numbers, different vendor: farther than the most
        // different same-vendor device in the fleet.
        let far_same_vendor = DeviceConfig::nvs5200m();
        assert!(device_distance(&a, &rebadged) > device_distance(&a, &far_same_vendor));
    }

    #[test]
    fn unsupported_backend_strategy_is_a_typed_error() {
        let dir = scratch("backend_caps");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        // WGSL cannot lower ladder step (f); best() requests it.
        let cfg = DriverConfig {
            backend: BackendKind::Wgsl,
            ..smoke_cfg(dir.join("out"))
        };
        match compile_file(&file, &cfg) {
            Err(DriverError::Unsupported(msg)) => {
                assert!(msg.contains("does not support"), "{msg}");
                assert!(msg.contains("ReuseDynamic"), "{msg}");
            }
            other => panic!("expected a typed Unsupported error, got {other:?}"),
        }
        // The backend's own default options compile and verify.
        let cfg = DriverConfig {
            opts: BackendKind::Wgsl.backend().default_options(),
            ..cfg
        };
        let outcome = compile_file(&file, &cfg).unwrap();
        assert!(outcome.verified);
    }

    #[test]
    fn each_backend_emits_its_own_artifact_and_caches_round_trip() {
        let dir = scratch("backends");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        for kind in BackendKind::ALL {
            let backend = kind.backend();
            let cfg = DriverConfig {
                backend: kind,
                opts: backend.default_options(),
                ..smoke_cfg(dir.join(format!("out_{kind}")))
            };
            let first = compile_file(&file, &cfg).unwrap();
            assert_eq!(first.backend, kind);
            assert!(first.verified, "{kind}");
            let name = first
                .source_path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned();
            assert!(
                name.ends_with(&format!(".{}", backend.source_extension())),
                "{kind}: {name}"
            );
            assert_eq!(first.aux_path.is_some(), backend.aux_extension().is_some());
            let emitted = fs::read_to_string(&first.source_path).unwrap();
            // Cache round-trip: the stored entry carries the backend and
            // serves the second compile; re-emission is byte-identical.
            let second = compile_file(&file, &cfg).unwrap();
            assert!(second.cache_hit, "{kind}");
            assert_eq!(emitted, fs::read_to_string(&second.source_path).unwrap());
        }
    }

    #[test]
    fn legacy_cache_entries_without_a_backend_degrade_to_a_miss() {
        let dir = scratch("legacy_backend");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        let cfg = smoke_cfg(dir.join("out"));
        let first = compile_file(&file, &cfg).unwrap();
        let entry = cfg
            .cache_dir
            .as_ref()
            .unwrap()
            .join(format!("{}.json", first.fingerprint));
        // Strip the backend field, simulating an entry written before
        // the backend split.
        let text = fs::read_to_string(&entry).unwrap();
        let legacy: String = text
            .lines()
            .filter(|l| !l.contains("\"backend\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(text, legacy, "entry should have carried a backend field");
        fs::write(&entry, legacy).unwrap();
        let second = compile_file(&file, &cfg).unwrap();
        assert!(!second.cache_hit, "legacy entry must miss, not panic");
        assert_eq!(second.params, first.params);
        // The miss re-tuned and rewrote a complete entry: third hits.
        let third = compile_file(&file, &cfg).unwrap();
        assert!(third.cache_hit);
    }

    #[test]
    fn workload_overrides_are_validated_not_asserted() {
        let dir = scratch("workload");
        let file = write_stencil(&dir, "jacobi.stencil", JACOBI);
        // Wrong arity: 1D size for a 2D stencil.
        let cfg = DriverConfig {
            workload: Some((vec![64], 4)),
            ..smoke_cfg(dir.join("out"))
        };
        assert!(matches!(
            compile_file(&file, &cfg),
            Err(DriverError::Unsupported(_))
        ));
        // Empty interior: grid smaller than the stencil halo.
        let cfg = DriverConfig {
            workload: Some((vec![2, 2], 4)),
            ..smoke_cfg(dir.join("out"))
        };
        assert!(matches!(
            compile_file(&file, &cfg),
            Err(DriverError::Unsupported(_))
        ));
        // A legal override compiles and verifies on the requested grid.
        let cfg = DriverConfig {
            workload: Some((vec![48, 64], 8)),
            ..smoke_cfg(dir.join("out"))
        };
        let out = compile_file(&file, &cfg).unwrap();
        assert_eq!(out.dims, vec![48, 64]);
        assert_eq!(out.steps, 8);
        assert!(out.verified);
    }

    #[test]
    fn unsupported_and_missing_inputs_error_cleanly() {
        let dir = scratch("errs");
        assert!(matches!(
            collect_stencil_files(&dir.join("nope")),
            Err(DriverError::Io(_))
        ));
        let empty = dir.join("empty");
        fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            collect_stencil_files(&empty),
            Err(DriverError::Io(_))
        ));
        // 4D programs parse but the planner cannot tile them.
        let file = write_stencil(
            &dir,
            "hyper.stencil",
            "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n   for (j = 1; j < N-1; j++)\n    for (k = 1; k < N-1; k++)\n     for (l = 1; l < N-1; l++)\n      A[t+1][i][j][k][l] = A[t][i][j][k][l];\n",
        );
        let cfg = smoke_cfg(dir.join("out"));
        assert!(matches!(
            compile_file(&file, &cfg),
            Err(DriverError::Unsupported(_))
        ));
    }
}

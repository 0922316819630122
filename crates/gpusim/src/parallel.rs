//! The production launch loop: compiled blocks, deterministically
//! block-parallel, optionally sampled.
//!
//! Every entry point except the reference interpreter
//! ([`GpuSim::run_plan`]) funnels into one private loop
//! (`GpuSim::execute`) that compiles the plan's kernels to bytecode once
//! ([`crate::bytecode`]) and then, per launch, runs either every block or
//! a sample spread across the grid, on one worker or many.
//!
//! Blocks of one launch are independent by construction: the hybrid
//! schedule places concurrent thread blocks on distinct `S0` wavefront
//! tiles, and `hybrid_tiling::verify` proves (per schedule, exhaustively
//! on bounded domains) that no dependence crosses concurrent tiles — in
//! particular, blocks of one launch never write overlapping locations and
//! never read another block's same-launch writes. With more than one
//! worker the loop exploits exactly that property:
//!
//! 1. workers on a [`std::thread`] pool pull block indices from a shared
//!    atomic counter and execute each block against a **read-only
//!    snapshot** of global memory plus a private write overlay
//!    (`LoggedBackend`), accumulating per-block [`Counters`] locally;
//! 2. every access that would reach the shared L2 is appended to a
//!    per-block log instead of touching shared cache state;
//! 3. after all blocks of the launch finish, the main thread merges the
//!    per-block results **in ascending block order**: counters are summed
//!    (u64 addition — order-insensitive and exact), the L2 logs are
//!    replayed through the shared cache in the same order a single worker
//!    would have produced ([`crate::memory::replay_l2`]), and the
//!    write logs are applied to global memory while asserting that no two
//!    blocks wrote conflicting values to the same location.
//!
//! With one worker the blocks run in order straight against the
//! simulator's memory and L2, with no logging.
//!
//! The result: grids *and* counters are bit-for-bit identical to
//! [`GpuSim::run_plan`] for any worker count, which the property tests in
//! `tests/parallel_equivalence.rs` check across random stencils, tile
//! sizes and pool widths. A plan that violates write-disjointness (a
//! scheduling bug, never a legal hybrid/classical plan) fails in the
//! merge instead of returning order-dependent data; under debug
//! assertions the merge additionally rejects cross-block
//! *read*/write overlap within a launch — the dependence the
//! write-conflict check alone cannot see (sequentially the reader might
//! have observed the writer's value, here it reads the launch-entry
//! snapshot) — so debug runs, including the property suite, enforce the
//! full independence contract.
//!
//! The library takes the worker count as an argument; the bench binaries
//! default it to the machine's available parallelism, pinnable with the
//! `HYBRID_SIM_THREADS` environment variable ([`sim_threads`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use gpu_codegen::ir::{Kernel, LaunchPlan};

use crate::bytecode::{compile_kernel, exec_block_compiled, BcKernel, ExecScratch};
use crate::counters::Counters;
use crate::device::DeviceConfig;
use crate::exec::{DirectBackend, GlobalBackend, GpuSim};
use crate::memory::{
    charge_warp_load_logged, charge_warp_store_logged, replay_l2, GlobalMem, L2Access, L2Cache,
};
use crate::timing;

/// A typed failure of the block-parallel executor.
///
/// [`GpuSim::try_run_plan_parallel_with`] returns these instead of
/// aborting the process, so a long-lived compile service can map a
/// schedule that violates concurrent-tile independence to a per-request
/// error. The panicking API ([`GpuSim::run_plan_parallel_with`]) remains
/// for direct callers that treat such plans as programming errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// Two blocks of one launch wrote different values to the same
    /// location — a violation of the §3.3.3 concurrent-tile independence
    /// that `hybrid_tiling::verify` checks at the schedule level.
    WriteConflict {
        /// Name of the launched kernel.
        kernel: String,
        /// First block observed writing the location.
        block_a: usize,
        /// Conflicting block.
        block_b: usize,
        /// Field written.
        field: u32,
        /// Time plane written.
        plane: u32,
        /// Plane-linear element offset.
        offset: usize,
    },
    /// A block read a location another block of the same launch wrote —
    /// a cross-tile dependence even without a write *conflict* (the
    /// sequential executor may have served a different value). Only
    /// detected under debug assertions, where read tracking is on.
    ReadWriteOverlap {
        /// Name of the launched kernel.
        kernel: String,
        /// The reading block.
        reader: usize,
        /// The writing block.
        writer: usize,
    },
    /// A kernel's shared-memory demand exceeds the device limit.
    SharedMemExceeded {
        /// Name of the launched kernel.
        kernel: String,
        /// Bytes the kernel needs.
        needed: u64,
        /// Bytes the device allows.
        limit: u64,
    },
    /// A worker thread panicked while executing a block — an
    /// out-of-bounds access or similar code-generation bug. Surfaced as
    /// a typed error so abort-free callers (the compile service, the
    /// fleet) survive a bad plan instead of tearing down the process;
    /// the panicking wrappers re-raise it.
    WorkerPanicked {
        /// Name of the launched kernel.
        kernel: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WriteConflict {
                kernel,
                block_a,
                block_b,
                field,
                plane,
                offset,
            } => write!(
                f,
                "write race in launch of kernel {kernel}: blocks {block_a} and {block_b} \
                 wrote different values to field {field} plane {plane} offset {offset} — \
                 concurrent S0 tiles must be write-disjoint (verify the schedule with \
                 hybrid_tiling::verify)"
            ),
            ExecError::ReadWriteOverlap {
                kernel,
                reader,
                writer,
            } => write!(
                f,
                "read/write overlap in launch of kernel {kernel}: block {reader} read a \
                 location block {writer} wrote in the same launch — concurrent S0 tiles \
                 must be independent (verify the schedule with hybrid_tiling::verify)"
            ),
            ExecError::SharedMemExceeded {
                kernel,
                needed,
                limit,
            } => write!(
                f,
                "kernel {kernel} needs {needed} bytes of shared memory; the device \
                 allows {limit}"
            ),
            ExecError::WorkerPanicked { kernel, message } => write!(
                f,
                "simulator worker panicked in launch of kernel {kernel}: {message}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// How a run under a throughput floor ([`GpuSim::try_run_plan_bounded`])
/// ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunEnd {
    /// Every block of every launch ran.
    Finished,
    /// The counters so far, with every launch of the plan counted, already
    /// put [`timing::gstencils_per_s`] below the floor, so the whole run
    /// would end below it too ([`timing::below_floor`]); the run stopped
    /// there.
    BelowFloor,
}

/// One recorded global-memory write: plane-linear location plus value.
#[derive(Clone, Copy, Debug)]
struct WriteRec {
    field: u32,
    plane: u32,
    offset: usize,
    value: f32,
}

impl WriteRec {
    /// Packed location key (field/plane/offset) for overlay lookups and
    /// cross-block conflict detection. Offsets are far below 2^40 for any
    /// simulated grid.
    fn key(field: usize, plane: usize, offset: usize) -> u64 {
        debug_assert!(offset < 1 << 40, "grid offset exceeds key packing");
        ((field as u64) << 56) | ((plane as u64) << 40) | offset as u64
    }
}

/// Everything one block produced: its local counters (DRAM fields still
/// zero), its global writes in program order, and its L2-bound accesses in
/// program order.
struct BlockOutcome {
    counters: Counters,
    writes: Vec<WriteRec>,
    l2_log: Vec<L2Access>,
    /// Locations this block read from the launch-entry snapshot (i.e. not
    /// through its own overlay). Only tracked under debug assertions,
    /// where the merge uses it to flag cross-block read/write overlap —
    /// the violation the write-conflict assert alone cannot see.
    #[cfg(debug_assertions)]
    base_reads: std::collections::HashSet<u64>,
}

/// The worker-side backend: reads fall through a private overlay of this
/// block's own writes to the launch-entry memory snapshot; writes and
/// L2-bound traffic are logged for the ordered merge.
pub(crate) struct LoggedBackend<'a> {
    base: &'a GlobalMem,
    /// This block's own writes, newest value per location.
    overlay: HashMap<u64, f32>,
    writes: Vec<WriteRec>,
    l2_log: Vec<L2Access>,
    #[cfg(debug_assertions)]
    base_reads: std::collections::HashSet<u64>,
}

impl<'a> LoggedBackend<'a> {
    /// Builds a backend from pooled buffers: the overlay map keeps its
    /// capacity across blocks and launches; `writes`/`l2_log` are
    /// recycled outcome buffers (cleared by the pool). Allocation-free
    /// after the pools warm up.
    fn from_parts(
        base: &'a GlobalMem,
        overlay: HashMap<u64, f32>,
        writes: Vec<WriteRec>,
        l2_log: Vec<L2Access>,
    ) -> LoggedBackend<'a> {
        debug_assert!(overlay.is_empty() && writes.is_empty() && l2_log.is_empty());
        LoggedBackend {
            base,
            overlay,
            writes,
            l2_log,
            #[cfg(debug_assertions)]
            base_reads: std::collections::HashSet::new(),
        }
    }

    /// Splits the backend into the block's outcome (which travels to the
    /// merge) and the overlay map (cleared, returned to the worker's
    /// pool slot).
    fn into_parts(mut self, counters: Counters) -> (BlockOutcome, HashMap<u64, f32>) {
        self.overlay.clear();
        (
            BlockOutcome {
                counters,
                writes: self.writes,
                l2_log: self.l2_log,
                #[cfg(debug_assertions)]
                base_reads: self.base_reads,
            },
            self.overlay,
        )
    }
}

impl GlobalBackend for LoggedBackend<'_> {
    fn byte_address_flat(&self, field: usize, plane: usize, offset: usize) -> u64 {
        self.base.byte_address_flat(field, plane, offset)
    }

    fn read_flat(&mut self, field: usize, plane: usize, offset: usize) -> f32 {
        let key = WriteRec::key(field, plane, offset);
        if !self.overlay.is_empty() {
            if let Some(&v) = self.overlay.get(&key) {
                return v;
            }
        }
        #[cfg(debug_assertions)]
        self.base_reads.insert(key);
        self.base.read_flat(field, plane, offset)
    }

    fn write_flat(&mut self, field: usize, plane: usize, offset: usize, v: f32) {
        self.overlay.insert(WriteRec::key(field, plane, offset), v);
        self.writes.push(WriteRec {
            field: field as u32,
            plane: plane as u32,
            offset,
            value: v,
        });
    }

    fn charge_load(&mut self, counters: &mut Counters, l1: &mut L2Cache, addrs: &[u64]) {
        charge_warp_load_logged(counters, l1, &mut self.l2_log, addrs);
    }

    fn charge_store(&mut self, counters: &mut Counters, addrs: &[u64]) {
        charge_warp_store_logged(counters, &mut self.l2_log, addrs);
    }
}

/// The worker-pool width the bench binaries deploy with: the
/// `HYBRID_SIM_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`]. `HYBRID_SIM_THREADS=0`
/// explicitly requests "auto" (the same fallback); see
/// [`resolve_sim_threads`], which `hybridc --threads` routes through so
/// the flag and the env var agree on that meaning of `0`.
pub fn sim_threads() -> usize {
    sim_threads_from(std::env::var("HYBRID_SIM_THREADS").ok().as_deref())
}

/// Resolves a requested worker count to an effective one: `0` means
/// **auto** — the machine's available parallelism (at least 1) — and any
/// positive value is used as-is. This is the single definition of what
/// "0 workers" means, shared by `HYBRID_SIM_THREADS=0` and
/// `hybridc --threads 0`.
pub fn resolve_sim_threads(requested: usize) -> usize {
    if requested == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// [`sim_threads`] with the override value injected: a positive integer
/// (whitespace tolerated) wins; `0` and anything unparsable resolve to
/// auto via [`resolve_sim_threads`].
fn sim_threads_from(override_value: Option<&str>) -> usize {
    let requested = override_value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    resolve_sim_threads(requested)
}

/// Per-worker reusable state: the compiled executor's slot arrays plus
/// the write-overlay map, pooled across blocks *and* launches.
#[derive(Default)]
struct WorkerSlot {
    scratch: ExecScratch,
    overlay: HashMap<u64, f32>,
}

/// Buffers shared across every launch of one plan: per-worker slots,
/// plus recycled outcome buffers (write logs, L2 logs) that the merge
/// hands back after each launch.
#[derive(Default)]
struct Pools {
    slots: Mutex<Vec<WorkerSlot>>,
    outcomes: Mutex<Vec<(Vec<WriteRec>, Vec<L2Access>)>>,
}

/// Locks a pool mutex, tolerating poisoning: pools hold only recycled
/// scratch buffers (cleared before reuse), so a worker that panicked
/// while touching a pool cannot corrupt anything observable — and the
/// abort-free contract forbids propagating the poison panic.
fn lock_pool<T>(pool: &Mutex<Vec<T>>) -> std::sync::MutexGuard<'_, Vec<T>> {
    pool.lock().unwrap_or_else(|p| p.into_inner())
}

/// Renders a worker's panic payload for [`ExecError::WorkerPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl GpuSim {
    /// Runs every block of every launch on one worker — the production
    /// path's simplest form. Bit-exact with [`GpuSim::run_plan`] (grids
    /// *and* counters), typically several times faster.
    ///
    /// # Panics
    ///
    /// Panics where [`GpuSim::run_plan`] does: shared-memory demand over
    /// the device limit, or out-of-bounds accesses (code-generation bugs).
    pub fn run_plan_compiled(&mut self, plan: &LaunchPlan) {
        self.run_plan_parallel_with(plan, 1);
    }

    /// Runs the plan with block-level parallelism on `threads` workers.
    /// Results — grids and counters — are bit-exact with
    /// [`GpuSim::run_plan`] at any worker count; see the
    /// [module docs](crate::parallel) for the determinism argument.
    /// `threads <= 1` runs on the calling thread with no logging overhead.
    ///
    /// # Panics
    ///
    /// Panics on any [`ExecError`] the non-panicking variant
    /// ([`GpuSim::try_run_plan_parallel_with`]) would return — shared
    /// memory over the device limit, cross-block write conflicts, and
    /// (under debug assertions) cross-block read/write overlap — as well
    /// as on out-of-bounds accesses (code-generation bugs).
    pub fn run_plan_parallel_with(&mut self, plan: &LaunchPlan, threads: usize) {
        if let Err(e) = self.try_run_plan_parallel_with(plan, threads) {
            panic!("{e}");
        }
    }

    /// Non-panicking [`GpuSim::run_plan_parallel_with`]: a plan that
    /// violates the concurrent-tile independence contract returns a typed
    /// [`ExecError`] instead of aborting the process, so a resident
    /// compile service can report it per request and keep serving.
    ///
    /// On `Err` the simulator state (grids, counters, L2) reflects a
    /// partially merged launch and must not be interpreted further —
    /// discard the simulator or treat the run as failed.
    ///
    /// # Errors
    ///
    /// [`ExecError::SharedMemExceeded`] when a kernel's shared demand is
    /// over the device limit; with more than one worker,
    /// [`ExecError::WriteConflict`] when two blocks of one launch wrote
    /// different values to one location, [`ExecError::WorkerPanicked`]
    /// when a block's execution panicked, and under debug assertions
    /// [`ExecError::ReadWriteOverlap`] when a block read a location a
    /// concurrent block wrote.
    pub fn try_run_plan_parallel_with(
        &mut self,
        plan: &LaunchPlan,
        threads: usize,
    ) -> Result<(), ExecError> {
        self.execute(plan, threads, None, None).map(drop)
    }

    /// [`GpuSim::try_run_plan_parallel_with`] that stops as soon as the
    /// run can only end below `floor` GStencils/s: the check runs before
    /// the first block, then after each block with one worker and after
    /// each merged launch with several, on the counters so far with the
    /// overhead of every launch of the plan already counted (each of them
    /// is charged by the end).
    ///
    /// A run that returns [`RunEnd::Finished`] has exactly the grids and
    /// counters of an unbounded one; after [`RunEnd::BelowFloor`] only
    /// the counters are meaningful: those of the blocks that ran, with
    /// every launch counted — a lower bound of the whole run's, so
    /// [`timing::gstencils_per_s`] of them is an upper bound of its
    /// throughput, and below `floor`.
    ///
    /// # Errors
    ///
    /// As [`GpuSim::try_run_plan_parallel_with`].
    pub fn try_run_plan_bounded(
        &mut self,
        plan: &LaunchPlan,
        threads: usize,
        floor: f64,
    ) -> Result<RunEnd, ExecError> {
        self.execute(plan, threads, None, Some(floor))
    }

    /// Runs at most `samples` blocks per launch (spread across the grid)
    /// and scales the counter deltas to the full grid. Memory contents are
    /// *not* meaningful afterwards — this mode exists to extrapolate
    /// counters for paper-scale workloads.
    ///
    /// `samples` is clamped to each launch's block count: a launch with
    /// `n <= samples` blocks runs every block exactly once and its counter
    /// deltas are scaled by `1.0` (i.e. left exact). The clamp is per
    /// launch, so one plan can mix exact small launches with sampled large
    /// ones. The per-launch L2 capacity correction still applies in the
    /// clamped case (the cache is re-sized to its full capacity and
    /// cleared), so cross-launch L2 reuse is not modeled in this mode —
    /// use a full run when exact counters matter.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero, and where
    /// [`GpuSim::run_plan_compiled`] does.
    pub fn run_plan_sampled(&mut self, plan: &LaunchPlan, samples: usize) {
        assert!(samples > 0, "need at least one sampled block");
        if let Err(e) = self.execute(plan, 1, Some(samples), None) {
            panic!("{e}");
        }
    }

    /// The production launch loop, behind every entry point above: each
    /// launch's blocks — all of them, or `samples` spread across the grid
    /// — run as compiled bytecode on `workers` threads, stopping early
    /// once a full run falls below `floor`.
    pub(crate) fn execute(
        &mut self,
        plan: &LaunchPlan,
        workers: usize,
        samples: Option<usize>,
        floor: Option<f64>,
    ) -> Result<RunEnd, ExecError> {
        // Sampled counters are rescaled per launch, so they bound nothing.
        debug_assert!(samples.is_none() || floor.is_none());
        // Every launch of the plan is charged by the end of a run, so a
        // bounded run checks its counters so far with all of them counted,
        // and stops holding those counters.
        let launches_at_end = self.counters.launches + plan.launches.len() as u64;
        let stop = |counters: &mut Counters, device: &DeviceConfig| {
            let Some(floor) = floor else { return false };
            let at_least = Counters {
                launches: launches_at_end,
                ..*counters
            };
            let below = timing::below_floor(&at_least, device, floor);
            if below {
                *counters = at_least;
            }
            below
        };
        if stop(&mut self.counters, &self.device) {
            return Ok(RunEnd::BelowFloor);
        }
        // Compile every kernel once per plan; all launches (and all
        // blocks) replay the compiled form.
        let compiled: Vec<BcKernel> = plan
            .kernels
            .iter()
            .map(|k| compile_kernel(k, &self.mem))
            .collect();
        let pools = Pools::default();
        let mut scratch = ExecScratch::default();
        for launch in &plan.launches {
            let kernel = &plan.kernels[launch.kernel];
            if kernel.shared_bytes() > self.device.shared_limit {
                return Err(ExecError::SharedMemExceeded {
                    kernel: kernel.name.clone(),
                    needed: kernel.shared_bytes() as u64,
                    limit: self.device.shared_limit as u64,
                });
            }
            self.counters.launches += 1;
            let n = launch.blocks;
            if n == 0 {
                continue;
            }
            // The blocks to run, ascending: every block, or `take`
            // samples spread across the grid so boundary blocks are
            // included proportionally.
            let take = samples.map_or(n, |s| s.min(n));
            let block_at = |i: usize| i * (n - 1) / (take - 1).max(1);
            let before = self.counters;
            if samples.is_some() {
                // L2 capacity correction: the sampled blocks represent
                // only `take` of the ~`concurrency` blocks that would
                // share the L2 at any instant, so give them the
                // proportional slice. Without this, a handful of sampled
                // blocks fit entirely in cache and DRAM traffic collapses
                // to zero.
                let concurrency = n.min(8 * self.device.sms as usize).max(1);
                let effective = (self.device.l2_bytes * take / concurrency)
                    .clamp(4 * 1024, self.device.l2_bytes);
                self.l2 = L2Cache::new(effective);
                self.counters = Counters::default();
            }
            let bc = &compiled[launch.kernel];
            if workers <= 1 || take == 1 {
                // One worker: straight through the direct backend, so no
                // logging overhead remains.
                let mut backend = DirectBackend {
                    mem: &mut self.mem,
                    l2: &mut self.l2,
                };
                for i in 0..take {
                    exec_block_compiled(
                        bc,
                        &launch.params,
                        block_at(i) as i64,
                        &mut backend,
                        &mut self.counters,
                        &mut scratch,
                    );
                    if stop(&mut self.counters, &self.device) {
                        return Ok(RunEnd::BelowFloor);
                    }
                }
            } else {
                let blocks: Vec<usize> = (0..take).map(block_at).collect();
                self.run_blocks_merged(kernel, bc, &launch.params, &blocks, workers, &pools)?;
                if stop(&mut self.counters, &self.device) {
                    return Ok(RunEnd::BelowFloor);
                }
            }
            if samples.is_some() {
                let delta = self.counters.scaled(n as f64 / take as f64);
                self.counters = before + delta;
                // `scaled` multiplies the launch counter too; re-adjust.
                self.counters.launches = before.launches;
            }
        }
        Ok(RunEnd::Finished)
    }

    /// Runs `blocks` (ascending indices of one launch) on a pool of up to
    /// `workers` threads against a snapshot of global memory, then merges
    /// the per-block outcomes in block order.
    fn run_blocks_merged(
        &mut self,
        kernel: &Kernel,
        bc: &BcKernel,
        params: &[i64],
        blocks: &[usize],
        workers: usize,
        pools: &Pools,
    ) -> Result<(), ExecError> {
        let next = AtomicUsize::new(0);
        let mem = &self.mem;
        let joined: Vec<Result<Vec<(usize, BlockOutcome)>, _>> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers.min(blocks.len()))
                .map(|_| {
                    s.spawn(|| {
                        let mut slot = lock_pool(&pools.slots).pop().unwrap_or_default();
                        let mut done = Vec::new();
                        while let Some(&b) = blocks.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let (writes, l2_log) =
                                lock_pool(&pools.outcomes).pop().unwrap_or_default();
                            let overlay = std::mem::take(&mut slot.overlay);
                            let mut backend =
                                LoggedBackend::from_parts(mem, overlay, writes, l2_log);
                            let mut counters = Counters::default();
                            exec_block_compiled(
                                bc,
                                params,
                                b as i64,
                                &mut backend,
                                &mut counters,
                                &mut slot.scratch,
                            );
                            let (outcome, overlay) = backend.into_parts(counters);
                            slot.overlay = overlay;
                            done.push((b, outcome));
                        }
                        lock_pool(&pools.slots).push(slot);
                        done
                    })
                })
                .collect();
            // Join every worker before mapping panics, so no thread
            // outlives the error path.
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut results: Vec<(usize, BlockOutcome)> = Vec::with_capacity(blocks.len());
        for done in joined {
            results.extend(done.map_err(|payload| ExecError::WorkerPanicked {
                kernel: kernel.name.clone(),
                message: panic_message(payload),
            })?);
        }
        // Deterministic merge order regardless of worker scheduling.
        results.sort_unstable_by_key(|(b, _)| *b);

        let mut owners: HashMap<u64, (usize, u32)> = HashMap::new();
        for (b, outcome) in &results {
            self.counters += outcome.counters;
            replay_l2(&mut self.counters, &mut self.l2, &outcome.l2_log);
            for w in &outcome.writes {
                let key = WriteRec::key(w.field as usize, w.plane as usize, w.offset);
                let bits = w.value.to_bits();
                if let Some(&(owner, prev_bits)) = owners.get(&key) {
                    if owner != *b && prev_bits != bits {
                        return Err(ExecError::WriteConflict {
                            kernel: kernel.name.clone(),
                            block_a: owner,
                            block_b: *b,
                            field: w.field,
                            plane: w.plane,
                            offset: w.offset,
                        });
                    }
                }
                owners.insert(key, (*b, bits));
                self.mem
                    .write_flat(w.field as usize, w.plane as usize, w.offset, w.value);
            }
        }
        // Under debug assertions, also reject cross-block
        // read-after-write within the launch: block A reading a
        // location block B wrote is a dependence between concurrent
        // tiles even when no write *conflict* exists, and the
        // sequential executor may have served a different value.
        #[cfg(debug_assertions)]
        for (b, outcome) in &results {
            for key in &outcome.base_reads {
                if let Some(&(owner, _)) = owners.get(key) {
                    if owner != *b {
                        return Err(ExecError::ReadWriteOverlap {
                            kernel: kernel.name.clone(),
                            reader: *b,
                            writer: owner,
                        });
                    }
                }
            }
        }
        // Recycle the merged outcome buffers for the next launch.
        let mut op = lock_pool(&pools.outcomes);
        for (_, mut outcome) in results {
            outcome.writes.clear();
            outcome.l2_log.clear();
            op.push((outcome.writes, outcome.l2_log));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::test_ir::*;
    use gpu_codegen::ir::{Cond, FExpr, Kernel, Launch, Stmt};
    use stencil::Grid;

    /// `out[i] = in[i] * 2` over 8 blocks of 32 threads, with a second
    /// launch reading the first launch's output — exercises cross-launch
    /// visibility of merged writes.
    fn two_launch_plan() -> (LaunchPlan, Vec<Grid>) {
        let idx = block().scale(32).add(tid(0));
        let scale = |plane_in: i64, plane_out: i64, factor: f32| Kernel {
            name: format!("scale{plane_out}"),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            body: vec![
                Stmt::GlobalLoad {
                    dst: 0,
                    field: 0,
                    plane: lit(plane_in),
                    index: index(&[idx]),
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(plane_out),
                    index: index(&[idx]),
                    src: f(FExpr::Mul(reg(0), fconst(factor))),
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![scale(0, 1, 2.0), scale(1, 0, 3.0)],
            launches: vec![
                Launch {
                    kernel: 0,
                    params: vec![],
                    blocks: 8,
                },
                Launch {
                    kernel: 1,
                    params: vec![],
                    blocks: 8,
                },
            ],
            description: "two-launch scale".into(),
        };
        (plan, vec![Grid::random(&[256], 11)])
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (plan, init) = two_launch_plan();
        let mut seq = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        seq.run_plan(&plan);
        for threads in [1, 2, 3, 8] {
            let mut par = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
            par.run_plan_parallel_with(&plan, threads);
            assert_eq!(par.counters(), seq.counters(), "threads = {threads}");
            for plane in 0..2 {
                assert!(
                    par.plane(0, plane).bit_equal(seq.plane(0, plane)),
                    "plane {plane} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn block_reads_its_own_writes() {
        // Within one launch a block stores then reloads the same location;
        // the overlay must serve the fresh value.
        let idx = block().scale(32).add(tid(0));
        let kernel = Kernel {
            name: "rmw".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            body: vec![
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(1),
                    index: index(&[idx]),
                    src: fconst(5.0),
                },
                Stmt::GlobalLoad {
                    dst: 0,
                    field: 0,
                    plane: lit(1),
                    index: index(&[idx]),
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(0),
                    index: index(&[idx]),
                    src: f(FExpr::Add(reg(0), fconst(1.0))),
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 4,
            }],
            description: "read-own-write".into(),
        };
        let init = vec![Grid::zeros(&[128])];
        let mut par = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        par.run_plan_parallel_with(&plan, 4);
        for i in 0..128 {
            assert_eq!(par.plane(0, 0).get(&[i]), 6.0);
            assert_eq!(par.plane(0, 1).get(&[i]), 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "write race")]
    fn conflicting_cross_block_writes_panic() {
        // Both blocks of one launch store to location 0, with a value that
        // depends on BlockIdx: blocks 0 and 1 disagree, which the merge
        // must reject instead of returning order-dependent data.
        let k = Kernel {
            name: "race".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 1,
            n_regs: 1,
            n_params: 0,
            body: vec![
                Stmt::SetVar {
                    var: 0,
                    value: block(),
                },
                Stmt::If {
                    cond: cond(Cond::Eq(tid(0), lit(0))),
                    then_: vec![Stmt::If {
                        cond: cond(Cond::Eq(var(0), lit(0))),
                        then_: vec![Stmt::GlobalStore {
                            field: 0,
                            plane: lit(0),
                            index: index(&[lit(0)]),
                            src: fconst(1.0),
                        }],
                        else_: vec![Stmt::GlobalStore {
                            field: 0,
                            plane: lit(0),
                            index: index(&[lit(0)]),
                            src: fconst(2.0),
                        }],
                    }],
                    else_: vec![],
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![k],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 2,
            }],
            description: "write race".into(),
        };
        let init = vec![Grid::zeros(&[64])];
        let mut par = GpuSim::new(DeviceConfig::gtx470(), &init, 1);
        par.run_plan_parallel_with(&plan, 2);
    }

    #[test]
    fn try_run_reports_write_conflicts_without_aborting() {
        // Same racy plan as the should_panic test above, through the
        // non-panicking API: the conflict surfaces as a typed error the
        // compile service can report per request.
        let k = Kernel {
            name: "race".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 1,
            n_regs: 1,
            n_params: 0,
            body: vec![
                Stmt::SetVar {
                    var: 0,
                    value: block(),
                },
                Stmt::If {
                    cond: cond(Cond::Eq(tid(0), lit(0))),
                    then_: vec![Stmt::If {
                        cond: cond(Cond::Eq(var(0), lit(0))),
                        then_: vec![Stmt::GlobalStore {
                            field: 0,
                            plane: lit(0),
                            index: index(&[lit(0)]),
                            src: fconst(1.0),
                        }],
                        else_: vec![Stmt::GlobalStore {
                            field: 0,
                            plane: lit(0),
                            index: index(&[lit(0)]),
                            src: fconst(2.0),
                        }],
                    }],
                    else_: vec![],
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![k],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 2,
            }],
            description: "write race".into(),
        };
        let init = vec![Grid::zeros(&[64])];
        let mut par = GpuSim::new(DeviceConfig::gtx470(), &init, 1);
        let err = par.try_run_plan_parallel_with(&plan, 2).unwrap_err();
        match err {
            ExecError::WriteConflict {
                ref kernel,
                block_a,
                block_b,
                field,
                plane,
                offset,
            } => {
                assert_eq!(kernel, "race");
                assert_eq!((block_a, block_b), (0, 1));
                assert_eq!((field, plane, offset), (0, 0, 0));
            }
            other => panic!("expected WriteConflict, got {other:?}"),
        }
        assert!(err.to_string().contains("write race"));
    }

    #[test]
    fn try_run_matches_sequential_on_clean_plans() {
        let (plan, init) = two_launch_plan();
        let mut seq = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        seq.run_plan(&plan);
        let mut par = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        par.try_run_plan_parallel_with(&plan, 4).unwrap();
        assert_eq!(par.counters(), seq.counters());
        for plane in 0..2 {
            assert!(par.plane(0, plane).bit_equal(seq.plane(0, plane)));
        }
    }

    #[test]
    fn try_run_rejects_oversized_shared_demand() {
        let k = Kernel {
            name: "huge".into(),
            block_dim: [32, 1, 1],
            shared: vec![gpu_codegen::ir::SharedBuf {
                name: "s".into(),
                dims: vec![1 << 20],
            }],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            body: vec![],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![k],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 1,
            }],
            description: "oversized shared".into(),
        };
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &[Grid::zeros(&[32])], 1);
        assert!(matches!(
            sim.try_run_plan_parallel_with(&plan, 2),
            Err(ExecError::SharedMemExceeded { .. })
        ));
    }

    /// A kernel whose single store runs off the end of the grid — the
    /// injected panic for the worker-panic regression tests.
    fn oob_plan() -> LaunchPlan {
        let k = Kernel {
            name: "oob".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            body: vec![Stmt::GlobalStore {
                field: 0,
                plane: lit(0),
                index: index(&[tid(0).offset(1 << 30)]),
                src: fconst(1.0),
            }],
            pool: take_pool(),
        };
        LaunchPlan {
            kernels: vec![k],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 2,
            }],
            description: "oob".into(),
        }
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        // Two blocks on two workers, so the parallel path (not the
        // sequential fallback) executes the panicking kernel: the panic
        // must come back as ExecError::WorkerPanicked, not abort the
        // process via a join().expect().
        let plan = oob_plan();
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &[Grid::zeros(&[64])], 1);
        let err = sim.try_run_plan_parallel_with(&plan, 2).unwrap_err();
        match err {
            ExecError::WorkerPanicked {
                ref kernel,
                ref message,
            } => {
                assert_eq!(kernel, "oob");
                assert!(
                    message.contains("out of bounds"),
                    "payload should carry the original panic text, got: {message}"
                );
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(err.to_string().contains("worker panicked"));
        // The simulator object itself must remain usable for a fresh,
        // clean plan (the per-request contract of the compile service).
        let (clean, init) = two_launch_plan();
        let mut fresh = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        fresh.try_run_plan_parallel_with(&clean, 2).unwrap();
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn panicking_wrapper_still_panics_on_worker_panic() {
        let plan = oob_plan();
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &[Grid::zeros(&[64])], 1);
        sim.run_plan_parallel_with(&plan, 2);
    }

    #[test]
    fn resolve_zero_threads_means_auto() {
        // `0` is "auto" for both the env var and `hybridc --threads`;
        // this is the single shared definition.
        assert!(resolve_sim_threads(0) >= 1);
        assert_eq!(
            resolve_sim_threads(0),
            thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(resolve_sim_threads(1), 1);
        assert_eq!(resolve_sim_threads(7), 7);
        // The env-var path routes through the same resolution.
        assert_eq!(sim_threads_from(Some("0")), resolve_sim_threads(0));
        assert_eq!(sim_threads_from(Some("garbage")), resolve_sim_threads(0));
    }

    #[test]
    fn sim_threads_env_override() {
        // The parsing is tested through injection — mutating the real
        // process environment would race libstd's own getenv calls in
        // concurrently running tests.
        assert_eq!(sim_threads_from(Some(" 6 ")), 6, "override, whitespace ok");
        assert_eq!(sim_threads_from(Some("1")), 1);
        assert!(
            sim_threads_from(Some("0")) >= 1,
            "non-positive override falls back"
        );
        assert!(
            sim_threads_from(Some("not-a-number")) >= 1,
            "garbage override falls back"
        );
        assert!(sim_threads_from(None) >= 1, "fallback must be positive");
        assert!(sim_threads() >= 1);
    }
}

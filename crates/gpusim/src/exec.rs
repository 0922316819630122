//! The warp-synchronous kernel interpreter.
//!
//! Blocks execute statement-locked: all warps of a block finish a statement
//! before the next begins. This is stronger than real hardware but agrees
//! with it on every kernel whose cross-warp communication is
//! `__syncthreads`-separated — which the generated stencil kernels are.
//! Divergence is modeled by per-lane masks on `If`; memory instrumentation
//! happens per warp (32 consecutive lanes).

use gpu_codegen::ir::{
    Cond, CondId, FExpr, FExprId, IExpr, IExprId, Kernel, LaunchPlan, Pool, Stmt,
};
use stencil::Grid;

use crate::counters::Counters;
use crate::device::DeviceConfig;
use crate::memory::{charge_warp_load, charge_warp_store, GlobalMem, L2Cache};
use crate::shared::{charge_shared_load, charge_shared_store, SharedMem};

/// How a compiled block's global-memory traffic reaches storage and the
/// cache hierarchy. A single worker writes straight through to the
/// simulator's [`GlobalMem`] and shared L2 ([`DirectBackend`]); several
/// workers substitute a logging backend
/// ([`crate::parallel::LoggedBackend`]) that defers shared-state effects
/// to a deterministic merge. Elements are addressed by plane-linear
/// offset.
pub(crate) trait GlobalBackend {
    /// Byte address of an element (for coalescing analysis): a plane's
    /// consecutive offsets lie four bytes apart.
    fn byte_address_flat(&self, field: usize, plane: usize, offset: usize) -> u64;
    /// Reads one element (seeing this block's own earlier writes).
    fn read_flat(&mut self, field: usize, plane: usize, offset: usize) -> f32;
    /// Writes one element.
    fn write_flat(&mut self, field: usize, plane: usize, offset: usize, v: f32);
    /// Charges one warp's coalesced *load* addresses. `l1` is the block's
    /// private first-level cache.
    fn charge_load(&mut self, counters: &mut Counters, l1: &mut L2Cache, addrs: &[u64]);
    /// Charges one warp's coalesced *store* addresses.
    fn charge_store(&mut self, counters: &mut Counters, addrs: &[u64]);
}

/// Direct access to the simulator's memory and shared L2: what the
/// reference interpreter uses, and the compiled executor on one worker.
pub(crate) struct DirectBackend<'a> {
    pub mem: &'a mut GlobalMem,
    pub l2: &'a mut L2Cache,
}

impl GlobalBackend for DirectBackend<'_> {
    fn byte_address_flat(&self, field: usize, plane: usize, offset: usize) -> u64 {
        self.mem.byte_address_flat(field, plane, offset)
    }

    fn read_flat(&mut self, field: usize, plane: usize, offset: usize) -> f32 {
        self.mem.read_flat(field, plane, offset)
    }

    fn write_flat(&mut self, field: usize, plane: usize, offset: usize, v: f32) {
        self.mem.write_flat(field, plane, offset, v);
    }

    fn charge_load(&mut self, counters: &mut Counters, l1: &mut L2Cache, addrs: &[u64]) {
        charge_warp_load(counters, l1, self.l2, addrs);
    }

    fn charge_store(&mut self, counters: &mut Counters, addrs: &[u64]) {
        charge_warp_store(counters, self.l2, addrs);
    }
}

/// Interprets one block of `kernel` against the simulator's memory,
/// charging `counters`. The block gets a fresh private L1 slice (as on
/// hardware, where resident blocks share the SM's L1 — modeled as a
/// fixed per-block slice), so everything except the shared-L2 state is
/// computed locally.
pub(crate) fn exec_block(
    kernel: &Kernel,
    params: &[i64],
    block: i64,
    glob: &mut DirectBackend,
    counters: &mut Counters,
) {
    assert_eq!(params.len(), kernel.n_params, "launch parameter arity");
    let n_threads = kernel.threads_per_block();
    let mut exec = BlockExec {
        pool: &kernel.pool,
        params,
        block,
        n_threads,
        tids: (0..n_threads)
            .map(|t| {
                let x = t % kernel.block_dim[0];
                let y = (t / kernel.block_dim[0]) % kernel.block_dim[1];
                let z = t / (kernel.block_dim[0] * kernel.block_dim[1]);
                [x as i64, y as i64, z as i64]
            })
            .collect(),
        vars: vec![vec![0i64; n_threads]; kernel.n_vars],
        regs: vec![vec![0f32; n_threads]; kernel.n_regs],
        shared: SharedMem::new(&kernel.shared),
        // Fermi's 16 KB L1 configuration divided among ~8 resident
        // blocks per SM: a 2 KB effective slice per block.
        l1: L2Cache::new(2 * 1024),
        glob,
        counters,
    };
    let mask = vec![true; n_threads];
    exec.run(&kernel.body, &mask);
}

/// FLOP weight of an expression of `pool` (`sqrt` counts 3).
pub(crate) fn flop_weight(pool: &Pool, e: FExprId) -> u64 {
    match pool[e] {
        FExpr::Reg(_) | FExpr::Const(_) => 0,
        FExpr::Add(a, b) | FExpr::Sub(a, b) | FExpr::Mul(a, b) => {
            1 + flop_weight(pool, a) + flop_weight(pool, b)
        }
        FExpr::Sqrt(a) => 3 + flop_weight(pool, a),
    }
}

/// The simulator: device, global memory, L2 and counters.
#[derive(Clone, Debug)]
pub struct GpuSim {
    pub(crate) device: DeviceConfig,
    pub(crate) mem: GlobalMem,
    pub(crate) l2: L2Cache,
    pub(crate) counters: Counters,
}

impl GpuSim {
    /// Creates a simulator with `planes` time planes per field, seeded from
    /// `init` (one grid per field).
    pub fn new(device: DeviceConfig, init: &[Grid], planes: usize) -> GpuSim {
        GpuSim::with_global_offset(device, init, planes, 0)
    }

    /// Like [`GpuSim::new`], translating global arrays by `word_offset`
    /// words (the §4.2.3 alignment translation; see
    /// [`GlobalMem::with_word_offset`]).
    pub fn with_global_offset(
        device: DeviceConfig,
        init: &[Grid],
        planes: usize,
        word_offset: i64,
    ) -> GpuSim {
        let l2 = L2Cache::new(device.l2_bytes);
        GpuSim {
            device,
            mem: GlobalMem::with_word_offset(init, planes, word_offset),
            l2,
            counters: Counters::default(),
        }
    }

    /// Records the number of logical stencil point updates the simulated
    /// plan performs (the GStencils/s numerator; redundant recomputation
    /// does not count).
    pub fn set_point_updates(&mut self, n: u64) {
        self.counters.point_updates = n;
    }

    /// The device configuration.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Resets the counters (keeps memory contents).
    pub fn reset_counters(&mut self) {
        self.counters = Counters::default();
    }

    /// Read access to one global plane.
    pub fn plane(&self, field: usize, plane: usize) -> &Grid {
        self.mem.plane(field, plane)
    }

    /// The reference executor: interprets every block of every launch
    /// sequentially by walking the kernel AST — functionally exact, and
    /// the oracle the compiled production path
    /// ([`GpuSim::run_plan_compiled`] and friends) is tested against.
    ///
    /// # Panics
    ///
    /// Panics if a kernel's shared-memory demand exceeds the device limit
    /// (the tile-size selection is responsible for avoiding this) or on
    /// out-of-bounds accesses (code-generation bugs).
    pub fn run_plan(&mut self, plan: &LaunchPlan) {
        for launch in &plan.launches {
            let kernel = &plan.kernels[launch.kernel];
            assert!(
                kernel.shared_bytes() <= self.device.shared_limit,
                "kernel {} needs {} bytes of shared memory; {} allows {}",
                kernel.name,
                kernel.shared_bytes(),
                self.device.name,
                self.device.shared_limit
            );
            self.counters.launches += 1;
            let mut backend = DirectBackend {
                mem: &mut self.mem,
                l2: &mut self.l2,
            };
            for b in 0..launch.blocks {
                exec_block(
                    kernel,
                    &launch.params,
                    b as i64,
                    &mut backend,
                    &mut self.counters,
                );
            }
        }
    }
}

struct BlockExec<'a, 'm> {
    pool: &'a Pool,
    params: &'a [i64],
    block: i64,
    n_threads: usize,
    tids: Vec<[i64; 3]>,
    vars: Vec<Vec<i64>>,
    regs: Vec<Vec<f32>>,
    shared: SharedMem,
    l1: L2Cache,
    glob: &'a mut DirectBackend<'m>,
    counters: &'a mut Counters,
}

impl BlockExec<'_, '_> {
    fn eval_i(&self, e: IExprId, lane: usize) -> i64 {
        match self.pool[e] {
            IExpr::Const(c) => c,
            IExpr::Var(v) => self.vars[v][lane],
            IExpr::Param(p) => self.params[p],
            IExpr::ThreadIdx(d) => self.tids[lane][d as usize],
            IExpr::BlockIdx => self.block,
            IExpr::Add(a, b) => self.eval_i(a, lane) + self.eval_i(b, lane),
            IExpr::Sub(a, b) => self.eval_i(a, lane) - self.eval_i(b, lane),
            IExpr::Mul(a, b) => self.eval_i(a, lane) * self.eval_i(b, lane),
            IExpr::FloorDiv(a, k) => self.eval_i(a, lane).div_euclid(k),
            IExpr::Mod(a, k) => self.eval_i(a, lane).rem_euclid(k),
            IExpr::Min(a, b) => self.eval_i(a, lane).min(self.eval_i(b, lane)),
            IExpr::Max(a, b) => self.eval_i(a, lane).max(self.eval_i(b, lane)),
        }
    }

    fn eval_c(&self, c: CondId, lane: usize) -> bool {
        match self.pool[c] {
            Cond::True => true,
            Cond::Le(a, b) => self.eval_i(a, lane) <= self.eval_i(b, lane),
            Cond::Lt(a, b) => self.eval_i(a, lane) < self.eval_i(b, lane),
            Cond::Eq(a, b) => self.eval_i(a, lane) == self.eval_i(b, lane),
            Cond::And(a, b) => self.eval_c(a, lane) && self.eval_c(b, lane),
            Cond::Or(a, b) => self.eval_c(a, lane) || self.eval_c(b, lane),
            Cond::Not(a) => !self.eval_c(a, lane),
        }
    }

    fn eval_f(&self, e: FExprId, lane: usize) -> f32 {
        match self.pool[e] {
            FExpr::Reg(r) => self.regs[r][lane],
            FExpr::Const(c) => c,
            FExpr::Add(a, b) => self.eval_f(a, lane) + self.eval_f(b, lane),
            FExpr::Sub(a, b) => self.eval_f(a, lane) - self.eval_f(b, lane),
            FExpr::Mul(a, b) => self.eval_f(a, lane) * self.eval_f(b, lane),
            FExpr::Sqrt(a) => self.eval_f(a, lane).sqrt(),
        }
    }

    fn active_warps(&self, mask: &[bool]) -> u64 {
        mask.chunks(32).filter(|w| w.iter().any(|&m| m)).count() as u64
    }

    fn run(&mut self, stmts: &[Stmt], mask: &[bool]) {
        for s in stmts {
            self.exec(s, mask);
        }
    }

    fn exec(&mut self, stmt: &Stmt, mask: &[bool]) {
        if !mask.iter().any(|&m| m) {
            return;
        }
        self.counters.warp_instructions += self.active_warps(mask);
        match stmt {
            Stmt::SetVar { var, value } => {
                for (lane, &m) in mask.iter().enumerate().take(self.n_threads) {
                    if m {
                        self.vars[*var][lane] = self.eval_i(*value, lane);
                    }
                }
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                assert!(*step > 0, "loop step must be positive");
                let first = mask.iter().position(|&m| m).expect("non-empty mask");
                let lo_v = self.eval_i(*lo, first);
                let hi_v = self.eval_i(*hi, first);
                debug_assert!(
                    (0..self.n_threads)
                        .filter(|&l| mask[l])
                        .all(|l| self.eval_i(*lo, l) == lo_v && self.eval_i(*hi, l) == hi_v),
                    "loop bounds must be uniform across active lanes"
                );
                let mut v = lo_v;
                while v < hi_v {
                    for (lane, &m) in mask.iter().enumerate().take(self.n_threads) {
                        if m {
                            self.vars[*var][lane] = v;
                        }
                    }
                    self.run(body, mask);
                    v += step;
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let mut tmask = vec![false; self.n_threads];
                let mut emask = vec![false; self.n_threads];
                for lane in 0..self.n_threads {
                    if mask[lane] {
                        if self.eval_c(*cond, lane) {
                            tmask[lane] = true;
                        } else {
                            emask[lane] = true;
                        }
                    }
                }
                // Divergence: warps where both sub-masks are non-empty.
                for w in 0..mask.len().div_ceil(32) {
                    let r = w * 32..((w + 1) * 32).min(mask.len());
                    let t = tmask[r.clone()].iter().any(|&m| m);
                    let e = emask[r].iter().any(|&m| m);
                    if t && e {
                        self.counters.divergent_branches += 1;
                    }
                }
                self.run(then_, &tmask);
                if !else_.is_empty() {
                    self.run(else_, &emask);
                }
            }
            Stmt::GlobalLoad {
                dst,
                field,
                plane,
                index,
            } => {
                for warp in 0..self.n_threads.div_ceil(32) {
                    let lanes = warp * 32..((warp + 1) * 32).min(self.n_threads);
                    let mut addrs = Vec::new();
                    for lane in lanes {
                        if !mask[lane] {
                            continue;
                        }
                        let pl = self.eval_i(*plane, lane) as usize;
                        let idx: Vec<i64> = self.pool[*index]
                            .iter()
                            .map(|&e| self.eval_i(e, lane))
                            .collect();
                        addrs.push(self.glob.mem.byte_address(*field, pl, &idx));
                        self.regs[*dst][lane] = self.glob.mem.read(*field, pl, &idx);
                    }
                    self.glob.charge_load(self.counters, &mut self.l1, &addrs);
                }
            }
            Stmt::GlobalStore {
                field,
                plane,
                index,
                src,
            } => {
                let extra_flops = flop_weight(self.pool, *src);
                for warp in 0..self.n_threads.div_ceil(32) {
                    let lanes = warp * 32..((warp + 1) * 32).min(self.n_threads);
                    let mut addrs = Vec::new();
                    for lane in lanes {
                        if !mask[lane] {
                            continue;
                        }
                        let pl = self.eval_i(*plane, lane) as usize;
                        let idx: Vec<i64> = self.pool[*index]
                            .iter()
                            .map(|&e| self.eval_i(e, lane))
                            .collect();
                        addrs.push(self.glob.mem.byte_address(*field, pl, &idx));
                        let v = self.eval_f(*src, lane);
                        self.counters.flops += extra_flops;
                        self.glob.mem.write(*field, pl, &idx, v);
                    }
                    self.glob.charge_store(self.counters, &addrs);
                }
            }
            Stmt::SharedLoad { dst, buf, index } => {
                for warp in 0..self.n_threads.div_ceil(32) {
                    let lanes = warp * 32..((warp + 1) * 32).min(self.n_threads);
                    let mut words = Vec::new();
                    for lane in lanes {
                        if !mask[lane] {
                            continue;
                        }
                        let idx: Vec<i64> = self.pool[*index]
                            .iter()
                            .map(|&e| self.eval_i(e, lane))
                            .collect();
                        words.push(self.shared.word_address(*buf, &idx));
                        self.regs[*dst][lane] = self.shared.read(*buf, &idx);
                    }
                    charge_shared_load(self.counters, &words);
                }
            }
            Stmt::SharedStore { buf, index, src } => {
                let extra_flops = flop_weight(self.pool, *src);
                for warp in 0..self.n_threads.div_ceil(32) {
                    let lanes = warp * 32..((warp + 1) * 32).min(self.n_threads);
                    let mut words = Vec::new();
                    for lane in lanes {
                        if !mask[lane] {
                            continue;
                        }
                        let idx: Vec<i64> = self.pool[*index]
                            .iter()
                            .map(|&e| self.eval_i(e, lane))
                            .collect();
                        words.push(self.shared.word_address(*buf, &idx));
                        let v = self.eval_f(*src, lane);
                        self.counters.flops += extra_flops;
                        self.shared.write(*buf, &idx, v);
                    }
                    charge_shared_store(self.counters, &words);
                }
            }
            Stmt::Compute { dst, expr } => {
                let w = flop_weight(self.pool, *expr);
                for (lane, &m) in mask.iter().enumerate().take(self.n_threads) {
                    if m {
                        self.regs[*dst][lane] = self.eval_f(*expr, lane);
                        self.counters.flops += w;
                    }
                }
            }
            Stmt::Sync => {
                self.counters.syncs += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_codegen::ir::{Kernel, Launch, PoolBuilder, SharedBuf};
    use gpu_codegen::{generate_hybrid, CodegenOptions};
    use hybrid_tiling::TileParams;
    use std::sync::Arc;
    use stencil::gallery;

    /// Runs `plan` on the reference interpreter.
    fn reference(init: &[Grid], planes: usize, plan: &LaunchPlan) -> GpuSim {
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), init, planes);
        sim.run_plan(plan);
        sim
    }

    /// The sampling contract, spelled out on the interpreter: per launch,
    /// `exec_block` over `samples` blocks spread across the grid against
    /// a proportionally re-sized L2, deltas scaled to the full grid.
    fn reference_sampled(sim: &mut GpuSim, plan: &LaunchPlan, samples: usize) {
        for (kernel, launch) in plan.launches.iter().map(|l| (&plan.kernels[l.kernel], l)) {
            sim.counters.launches += 1;
            let n = launch.blocks;
            if n == 0 {
                continue;
            }
            let take = samples.min(n);
            let concurrency = n.min(8 * sim.device.sms as usize).max(1);
            let effective =
                (sim.device.l2_bytes * take / concurrency).clamp(4 * 1024, sim.device.l2_bytes);
            sim.l2 = L2Cache::new(effective);
            let before = std::mem::take(&mut sim.counters);
            let mut backend = DirectBackend {
                mem: &mut sim.mem,
                l2: &mut sim.l2,
            };
            for i in 0..take {
                let b = if take == 1 {
                    0
                } else {
                    i * (n - 1) / (take - 1)
                };
                exec_block(
                    kernel,
                    &launch.params,
                    b as i64,
                    &mut backend,
                    &mut sim.counters,
                );
            }
            sim.counters = before + sim.counters.scaled(n as f64 / take as f64);
            sim.counters.launches = before.launches;
        }
    }

    #[test]
    fn sampled_compiled_counters_match_the_interpreter_on_the_gallery() {
        for program in gallery::table3_stencils() {
            let (params, dims, steps) = match (program.name(), program.spatial_dims()) {
                ("fdtd2d", _) => (TileParams::new(2, &[3, 32]), vec![40, 34], 6),
                (_, 2) => (TileParams::new(3, &[3, 32]), vec![40, 34], 8),
                _ => (TileParams::new(1, &[2, 4, 32]), vec![40, 6, 34], 2),
            };
            let plan = generate_hybrid(&program, &params, &dims, steps, CodegenOptions::best())
                .expect("gallery stencil under its table parameters");
            let init: Vec<Grid> = (0..program.num_fields())
                .map(|f| Grid::random(&dims, 7 + f as u64))
                .collect();
            let planes = program.max_dt() as usize + 1;
            let most = plan.launches.iter().map(|l| l.blocks).max().unwrap_or(0);
            assert!(most > 4, "{}: workload too small to sample", program.name());
            for samples in [1, 4, most + 3] {
                let mut want = GpuSim::new(DeviceConfig::gtx470(), &init, planes);
                reference_sampled(&mut want, &plan, samples);
                let mut got = GpuSim::new(DeviceConfig::gtx470(), &init, planes);
                got.run_plan_sampled(&plan, samples);
                assert_eq!(
                    got.counters(),
                    want.counters(),
                    "{} at {samples} samples",
                    program.name()
                );
                // The same sample merged from two workers.
                let mut par = GpuSim::new(DeviceConfig::gtx470(), &init, planes);
                par.execute(&plan, 2, Some(samples), None).unwrap();
                assert_eq!(
                    par.counters(),
                    want.counters(),
                    "{} at {samples} samples, 2 workers",
                    program.name()
                );
            }
        }
    }

    /// A hand-written "copy with +1" kernel: out[i] = in[i] + 1 for a 1-D
    /// grid of 128 elements and 4 blocks of 32 threads.
    fn copy_kernel() -> (LaunchPlan, Vec<Grid>) {
        let p = PoolBuilder::default();
        let (block, tx) = (p.iexpr(IExpr::BlockIdx), p.iexpr(IExpr::ThreadIdx(0)));
        let scaled = p.scale(block, 32);
        let idx = p.add(scaled, tx);
        let idx = p.indices(&[idx]);
        let (r0, one) = (p.fexpr(FExpr::Reg(0)), p.fexpr(FExpr::Const(1.0)));
        let kernel = Kernel {
            name: "copy".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            body: vec![
                Stmt::GlobalLoad {
                    dst: 0,
                    field: 0,
                    plane: p.lit(0),
                    index: idx,
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: p.lit(1),
                    index: idx,
                    src: p.fexpr(FExpr::Add(r0, one)),
                },
            ],
            pool: Arc::new(p.finish()),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 4,
            }],
            description: "copy test".into(),
        };
        let mut g = Grid::zeros(&[128]);
        for i in 0..128 {
            g.set(&[i], i as f32);
        }
        (plan, vec![g])
    }

    #[test]
    fn functional_copy() {
        let (plan, init) = copy_kernel();
        let sim = reference(&init, 2, &plan);
        for i in 0..128 {
            assert_eq!(sim.plane(0, 1).get(&[i]), i as f32 + 1.0);
        }
    }

    #[test]
    fn copy_counters_are_exact() {
        let (plan, init) = copy_kernel();
        let sim = reference(&init, 2, &plan);
        let c = sim.counters();
        assert_eq!(c.gld_inst, 128);
        assert_eq!(c.gst_inst, 128);
        // 4 warps, each perfectly coalesced.
        assert_eq!(c.gld_transactions, 4);
        assert_eq!(c.gst_transactions, 4);
        assert_eq!(c.gld_efficiency(), 1.0);
        assert_eq!(c.flops, 128);
        assert_eq!(c.launches, 1);
        assert_eq!(c.divergent_branches, 0);
    }

    #[test]
    fn divergent_if_is_counted() {
        // Half of each warp takes the branch.
        let p = PoolBuilder::default();
        let (tx, half) = (p.iexpr(IExpr::ThreadIdx(0)), p.lit(16));
        let kernel = Kernel {
            name: "div".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            body: vec![Stmt::If {
                cond: p.cond(Cond::Lt(tx, half)),
                then_: vec![Stmt::Compute {
                    dst: 0,
                    expr: p.fexpr(FExpr::Const(1.0)),
                }],
                else_: vec![],
            }],
            pool: Arc::new(p.finish()),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 1,
            }],
            description: "divergence test".into(),
        };
        let sim = reference(&[Grid::zeros(&[4])], 1, &plan);
        assert_eq!(sim.counters().divergent_branches, 1);
    }

    #[test]
    fn shared_memory_roundtrip_with_sync() {
        // Stage through shared memory: s[tx] = in[tx]; sync; out[tx] = s[31-tx].
        let p = PoolBuilder::default();
        let (tx, last) = (p.iexpr(IExpr::ThreadIdx(0)), p.lit(31));
        let mirrored = p.sub(last, tx);
        let (at_tx, at_mirror) = (p.indices(&[tx]), p.indices(&[mirrored]));
        let kernel = Kernel {
            name: "stage".into(),
            block_dim: [32, 1, 1],
            shared: vec![SharedBuf {
                name: "s".into(),
                dims: vec![32],
            }],
            n_vars: 0,
            n_regs: 2,
            n_params: 0,
            body: vec![
                Stmt::GlobalLoad {
                    dst: 0,
                    field: 0,
                    plane: p.lit(0),
                    index: at_tx,
                },
                Stmt::SharedStore {
                    buf: 0,
                    index: at_tx,
                    src: p.fexpr(FExpr::Reg(0)),
                },
                Stmt::Sync,
                Stmt::SharedLoad {
                    dst: 1,
                    buf: 0,
                    index: at_mirror,
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: p.lit(1),
                    index: at_tx,
                    src: p.fexpr(FExpr::Reg(1)),
                },
            ],
            pool: Arc::new(p.finish()),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 1,
            }],
            description: "shared stage".into(),
        };
        let mut g = Grid::zeros(&[32]);
        for i in 0..32 {
            g.set(&[i], i as f32);
        }
        let sim = reference(&[g], 2, &plan);
        for i in 0..32 {
            assert_eq!(sim.plane(0, 1).get(&[i]), (31 - i) as f32);
        }
        let c = sim.counters();
        assert_eq!(c.shared_store_requests, 1);
        assert_eq!(c.shared_load_requests, 1);
        // Reversed unit stride is still conflict-free.
        assert_eq!(c.shared_load_transactions, 1);
        assert_eq!(c.syncs, 1);
    }

    #[test]
    fn sampled_run_scales_counters() {
        let (plan, init) = copy_kernel();
        let mut full = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        full.run_plan(&plan);
        let mut sampled = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        sampled.run_plan_sampled(&plan, 2);
        // 2 of 4 identical blocks sampled, scaled by 2: equal totals.
        assert_eq!(sampled.counters().gld_inst, full.counters().gld_inst);
        assert_eq!(
            sampled.counters().gld_transactions,
            full.counters().gld_transactions
        );
        assert_eq!(sampled.counters().launches, 1);
    }

    #[test]
    fn sampled_run_clamps_samples_to_block_count() {
        // `samples` beyond the launch's 4 blocks: every block runs exactly
        // once, the scale factor is 1.0, and counters equal the full run
        // (the documented per-launch clamp).
        let (plan, init) = copy_kernel();
        let mut full = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        full.run_plan(&plan);
        let mut sampled = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        sampled.run_plan_sampled(&plan, 100);
        assert_eq!(sampled.counters(), full.counters());
    }

    #[test]
    fn loop_with_uniform_bounds() {
        // Sum 4 values per thread via a loop: out[tx] = sum_{j<4} in[4*tx+j].
        let p = PoolBuilder::default();
        let (tx, j) = (p.iexpr(IExpr::ThreadIdx(0)), p.var(0));
        let first = p.scale(tx, 4);
        let element = p.add(first, j);
        let (r0, r1) = (p.fexpr(FExpr::Reg(0)), p.fexpr(FExpr::Reg(1)));
        let kernel = Kernel {
            name: "loop".into(),
            block_dim: [8, 1, 1],
            shared: vec![],
            n_vars: 1,
            n_regs: 2,
            n_params: 0,
            body: vec![
                Stmt::Compute {
                    dst: 1,
                    expr: p.fexpr(FExpr::Const(0.0)),
                },
                Stmt::For {
                    var: 0,
                    lo: p.lit(0),
                    hi: p.lit(4),
                    step: 1,
                    body: vec![
                        Stmt::GlobalLoad {
                            dst: 0,
                            field: 0,
                            plane: p.lit(0),
                            index: p.indices(&[element]),
                        },
                        Stmt::Compute {
                            dst: 1,
                            expr: p.fexpr(FExpr::Add(r1, r0)),
                        },
                    ],
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: p.lit(1),
                    index: p.indices(&[tx]),
                    src: r1,
                },
            ],
            pool: Arc::new(p.finish()),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 1,
            }],
            description: "loop sum".into(),
        };
        let mut g = Grid::zeros(&[32]);
        for i in 0..32 {
            g.set(&[i], 1.0);
        }
        let sim = reference(&[g], 2, &plan);
        for i in 0..8 {
            assert_eq!(sim.plane(0, 1).get(&[i]), 4.0);
        }
    }
}

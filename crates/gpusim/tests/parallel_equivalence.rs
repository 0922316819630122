//! Property: the production executor — compiled bytecode, on one worker
//! or block-parallel — is bit-exact with the reference interpreter:
//! identical grids and identical merged counters across random gallery
//! stencils, tile sizes, codegen strategies and worker-pool widths (1, 2
//! and 8 threads).
//!
//! This is the executable form of two contracts at once: the determinism
//! argument in [`gpusim::parallel`] (concurrent `S0` tiles of a hybrid
//! schedule are independent — the §3.3.3 property `hybrid_tiling::verify`
//! checks exhaustively at the schedule level, so any interleaving of
//! block execution merges to the same state), and the equivalence
//! contract in [`gpusim::bytecode`] (`run_plan` stays the interpreting
//! oracle; the compiled executor must reproduce its grids and counters
//! bit-for-bit, both on one worker and underneath the parallel workers).

use gpu_codegen::{generate_hybrid, CodegenOptions, SmemStrategy};
use gpusim::{DeviceConfig, GpuSim};
use hybrid_tiling::TileParams;
use proptest::prelude::*;
use stencil::{gallery, Grid, StencilProgram};

/// The stencil pool: all 2D gallery programs plus the 1D contrived cone
/// and one (small) 3D program.
fn stencil_pool() -> Vec<StencilProgram> {
    vec![
        gallery::jacobi2d(),
        gallery::laplacian2d(),
        gallery::heat2d(),
        gallery::gradient2d(),
        gallery::fdtd2d(),
        gallery::contrived1d(),
        gallery::laplacian3d(),
    ]
}

/// Small per-arity workloads so a single property case stays fast. The
/// innermost extent is a tile of `params`' innermost width and a bit, never
/// a multiple of it: every row of tiles ends in a partly masked one.
fn workload(
    program: &StencilProgram,
    params: &TileParams,
    size_pick: usize,
    steps: usize,
) -> (Vec<usize>, usize) {
    let inner = *params.w.last().unwrap() as usize + 6 + 4 * size_pick;
    match program.spatial_dims() {
        1 => (vec![48 + 8 * size_pick], steps),
        2 => (vec![20 + 4 * size_pick, inner], steps),
        _ => (vec![8 + size_pick, 8, inner - 4], steps.min(4)),
    }
}

/// Tile parameters from the raw draws, shaped to the program's arity. The
/// innermost classical width `wi` picks runs from a quarter of a warp to two
/// warps (one in 3-D) and the middle width of a 3-D tile is `wm`: blocks
/// from `[8, 2, 1]` to `[64, 1, 1]` and `[32, 4, 1]` threads, whose warps
/// span several rows of the block, exactly one, or half of one.
fn tile_params(program: &StencilProgram, h: i64, w0: i64, wm: i64, wi: usize) -> TileParams {
    let n = program.spatial_dims();
    let mut w = vec![w0];
    if n >= 2 {
        w.resize(n - 1, wm);
        w.push([8, 16, 32, 64][wi].min(if n == 2 { 64 } else { 32 }));
    }
    TileParams::new(h, &w)
}

/// Runs one plan on the interpreting oracle and through every production
/// entry point — compiled on one worker (panicking and typed forms),
/// compiled block-parallel — and asserts bitwise agreement of grids and
/// counters.
fn assert_bit_exact(program: &StencilProgram, plan: &gpu_codegen::ir::LaunchPlan, dims: &[usize]) {
    let init: Vec<Grid> = (0..program.num_fields())
        .map(|f| Grid::random(dims, 41 + f as u64))
        .collect();
    let planes = program.max_dt() as usize + 1;

    let mut seq = GpuSim::new(DeviceConfig::gtx470(), &init, planes);
    seq.run_plan(plan);

    let check = |what: &str, run: &dyn Fn(&mut GpuSim)| {
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, planes);
        run(&mut sim);
        assert_eq!(
            sim.counters(),
            seq.counters(),
            "{}: {what} counters diverged from run_plan oracle",
            program.name()
        );
        for f in 0..program.num_fields() {
            for p in 0..planes {
                assert!(
                    sim.plane(f, p).bit_equal(seq.plane(f, p)),
                    "{}: {what} field {f} plane {p} diverged from run_plan oracle",
                    program.name(),
                );
            }
        }
    };
    check("run_plan_compiled", &|sim| sim.run_plan_compiled(plan));
    // The entry the compile driver takes at `sim_threads = 1`.
    check("try_run_plan_parallel_with(1)", &|sim| {
        sim.try_run_plan_parallel_with(plan, 1).unwrap()
    });
    for threads in [1usize, 2, 8] {
        check(&format!("run_plan_parallel_with({threads})"), &|sim| {
            sim.run_plan_parallel_with(plan, threads)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hybrid plans with shared-memory staging (the Table 1/2 path).
    #[test]
    fn parallel_equals_sequential_shared(
        pick in 0usize..7,
        h in 0i64..=3,
        w0 in 0i64..=4,
        wm in 2i64..=4,
        wi in 0usize..4,
        size_pick in 0usize..4,
        steps in 4usize..=8,
    ) {
        let program = stencil_pool().swap_remove(pick);
        let params = tile_params(&program, h, w0, wm, wi);
        let (dims, steps) = workload(&program, &params, size_pick, steps);
        let opts = CodegenOptions::best();
        // Not every random (h, w) is schedulable (width lower bound,
        // multi-statement height divisibility): infeasible draws are
        // skipped, feasible ones must match bit-for-bit.
        let Ok(plan) = generate_hybrid(&program, &params, &dims, steps, opts) else {
            return;
        };
        assert_bit_exact(&program, &plan, &dims);
    }

    /// Global-memory-only plans: exercises the read-own-write overlay of
    /// the logging backend across multi-step kernels.
    #[test]
    fn parallel_equals_sequential_global_only(
        pick in 0usize..7,
        h in 0i64..=2,
        w0 in 1i64..=3,
        wm in 2i64..=4,
        wi in 0usize..4,
        size_pick in 0usize..4,
        steps in 4usize..=6,
    ) {
        let program = stencil_pool().swap_remove(pick);
        let params = tile_params(&program, h, w0, wm, wi);
        let (dims, steps) = workload(&program, &params, size_pick, steps);
        let opts = CodegenOptions {
            smem: SmemStrategy::GlobalOnly,
            aligned_loads: false,
            unroll: true,
        };
        let Ok(plan) = generate_hybrid(&program, &params, &dims, steps, opts) else {
            return;
        };
        assert_bit_exact(&program, &plan, &dims);
    }
}

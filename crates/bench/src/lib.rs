//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation section on the simulated devices.
//!
//! Workload scaling: interpreting the paper's full workloads (3072² × 512
//! steps ≈ 4.8·10⁹ point updates per configuration) through a functional
//! simulator is infeasible, so the harness runs *scaled* workloads with the
//! same tile-grid geometry (see [`scaled_workload`]) and samples a few
//! thread blocks per launch exactly, extrapolating counters linearly
//! ([`gpusim::GpuSim::run_plan_sampled`]). EXPERIMENTS.md records the
//! scaling next to every reproduced number.

pub mod autotune;
pub mod driver;
pub mod fleet;
pub mod json;
pub mod metrics;
pub mod serve;

use baselines::{generate_overtile, generate_par4all, generate_patus, generate_ppcg};
use gpu_codegen::hybrid_gen::alignment_offset_words;
use gpu_codegen::ir::LaunchPlan;
use gpu_codegen::{generate_hybrid, CodegenOptions};
use gpusim::{timing, Counters, DeviceConfig, GpuSim};
use hybrid_tiling::TileParams;
use stencil::{Grid, StencilProgram};

/// The compilers compared in Tables 1 and 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Compiler {
    /// PPCG-like classical spatial tiling (the tables' baseline).
    Ppcg,
    /// Par4All-like global-memory codegen.
    Par4all,
    /// Overtile-like overlapped time tiling.
    Overtile,
    /// Patus-like autotuned spatial tiling (3D laplacian/heat only).
    Patus,
    /// This paper: hybrid hexagonal/classical tiling.
    Hybrid,
}

impl Compiler {
    /// Display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            Compiler::Ppcg => "PPCG",
            Compiler::Par4all => "Par4All",
            Compiler::Overtile => "Overtile",
            Compiler::Patus => "Patus",
            Compiler::Hybrid => "hybrid",
        }
    }
}

/// Default hybrid tile parameters per benchmark, chosen with the §3.7
/// model under the 48 KB shared-memory budget. 2D tiles run 8 time steps
/// (`h = 3`), 3D tiles 4 (`h = 1`) — the depths reported in §6.1; fdtd
/// needs `3 | 2h+2`, so `h = 2`.
pub fn hybrid_params(program: &StencilProgram) -> TileParams {
    match (program.name(), program.spatial_dims()) {
        ("fdtd2d", _) => TileParams::new(2, &[3, 32]),
        (_, 2) => TileParams::new(3, &[3, 32]),
        (_, 3) => TileParams::new(1, &[2, 4, 32]),
        _ => TileParams::new(2, &[3]),
    }
}

/// The Table 4/5 heat-3d configuration. The paper uses `h=2, w=(7,10,32)`;
/// under our rectangular bounding-box shared allocation that footprint
/// exceeds 48 KB (the paper's generator allocates a tighter rolling
/// window), so the closest fitting configuration is used — same `h`, same
/// warp-multiple innermost width.
pub fn heat3d_ladder_params() -> TileParams {
    TileParams::new(2, &[5, 4, 32])
}

/// Scaled stand-in for the paper's Table 3 workloads, keeping the
/// innermost extent a warp multiple and the step counts compatible with
/// every compiler's tile depths (60 = 4·15 = 5·12 = 8·7.5 launches-ish;
/// 15 works for the 3D depths).
pub fn scaled_workload(program: &StencilProgram) -> (Vec<usize>, usize) {
    match program.spatial_dims() {
        2 => (vec![512, 512], 60),
        3 => (vec![96, 96, 96], 15),
        _ => (vec![2048], 60),
    }
}

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Final (possibly extrapolated) counters.
    pub counters: Counters,
    /// Estimated wall time on the device.
    pub seconds: f64,
    /// Stencil throughput.
    pub gstencils: f64,
    /// Arithmetic throughput.
    pub gflops: f64,
    /// The resource binding the kernel (roofline argmax).
    pub bound_by: &'static str,
}

/// Builds the launch plan of `compiler` for the given run.
///
/// # Panics
///
/// Panics if the hybrid schedule construction fails (gallery programs and
/// default parameters never do) or Patus is asked for an unsupported
/// stencil.
pub fn plan_for(
    compiler: Compiler,
    program: &StencilProgram,
    dims: &[usize],
    steps: usize,
) -> (LaunchPlan, i64) {
    match compiler {
        Compiler::Ppcg => (generate_ppcg(program, dims, steps), 0),
        Compiler::Par4all => (generate_par4all(program, dims, steps), 0),
        Compiler::Overtile => (generate_overtile(program, dims, steps), 0),
        Compiler::Patus => (generate_patus(program, dims, steps), 0),
        Compiler::Hybrid => {
            let params = hybrid_params(program);
            let opts = CodegenOptions::best();
            let plan = generate_hybrid(program, &params, dims, steps, opts)
                .expect("hybrid schedule for gallery stencil");
            let off = alignment_offset_words(program, &params, &opts);
            (plan, off)
        }
    }
}

/// Logical point updates of a run (interior × statements × steps).
pub fn point_updates(program: &StencilProgram, dims: &[usize], steps: usize) -> u64 {
    let radius = program.radius();
    let interior: u64 = dims
        .iter()
        .zip(&radius)
        .map(|(&n, &r)| (n as i64 - 2 * r).max(0) as u64)
        .product();
    interior * program.num_statements() as u64 * steps as u64
}

/// Deterministic random initial grids, one per field of `program`
/// (field `f` is seeded `seed + f`).
pub fn random_init(program: &StencilProgram, dims: &[usize], seed: u64) -> Vec<Grid> {
    (0..program.num_fields())
        .map(|f| Grid::random(dims, seed + f as u64))
        .collect()
}

/// A simulator ready to run one plan of `program` for `steps` time steps
/// from `init`: `max_dt + 1` time planes per field, global arrays
/// translated by `align` words (the §4.2.3 alignment offset of the plan's
/// tile parameters), and the GStencils/s numerator — the run's logical
/// point updates — already recorded. Every executor entry preserves it.
pub fn loaded_sim(
    program: &StencilProgram,
    device: &DeviceConfig,
    init: &[Grid],
    align: i64,
    steps: usize,
) -> GpuSim {
    let planes = program.max_dt() as usize + 1;
    let mut sim = GpuSim::with_global_offset(device.clone(), init, planes, align);
    sim.set_point_updates(point_updates(program, init[0].dims(), steps));
    sim
}

/// Runs one configuration in sampled mode and derives throughput.
pub fn measure(
    compiler: Compiler,
    program: &StencilProgram,
    device: &DeviceConfig,
    dims: &[usize],
    steps: usize,
    samples: usize,
) -> Measurement {
    let (plan, align) = plan_for(compiler, program, dims, steps);
    measure_plan(&plan, align, program, device, dims, steps, samples)
}

/// Runs one prebuilt plan in sampled mode (for the ladder studies).
pub fn measure_plan(
    plan: &LaunchPlan,
    align: i64,
    program: &StencilProgram,
    device: &DeviceConfig,
    dims: &[usize],
    steps: usize,
    samples: usize,
) -> Measurement {
    let init = random_init(program, dims, 7);
    let mut sim = loaded_sim(program, device, &init, align, steps);
    sim.run_plan_sampled(plan, samples);
    finish(&sim)
}

fn finish(sim: &GpuSim) -> Measurement {
    let counters = *sim.counters();
    let t = timing::estimate_time(&counters, sim.device());
    Measurement {
        counters,
        seconds: t.total,
        gstencils: timing::gstencils_per_s(&counters, sim.device()),
        gflops: timing::gflops(&counters, sim.device()),
        bound_by: t.bound_by(),
    }
}

/// Formats a speedup column exactly like the paper (`+nn%` over PPCG).
pub fn speedup_str(value: f64, baseline: f64) -> String {
    if baseline <= 0.0 {
        return "n/a".into();
    }
    let pct = (value / baseline - 1.0) * 100.0;
    format!("{pct:+.0}%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    #[test]
    fn hybrid_params_are_legal_for_every_gallery_stencil() {
        for p in gallery::table3_stencils() {
            let params = hybrid_params(&p);
            assert!(
                hybrid_tiling::HybridSchedule::compute_executable(&p, &params).is_ok(),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn point_updates_counts_statements() {
        let p = gallery::fdtd2d();
        assert_eq!(point_updates(&p, &[12, 12], 2), 10 * 10 * 3 * 2);
    }

    #[test]
    fn measurement_on_tiny_workload() {
        let p = gallery::jacobi2d();
        let m = measure(
            Compiler::Par4all,
            &p,
            &DeviceConfig::gtx470(),
            &[64, 64],
            4,
            2,
        );
        assert!(m.gstencils > 0.0);
        assert!(m.counters.gld_inst > 0);
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup_str(2.0, 1.0), "+100%");
        assert_eq!(speedup_str(0.5, 1.0), "-50%");
    }
}

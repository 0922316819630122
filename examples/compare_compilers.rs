//! Head-to-head comparison on one stencil: PPCG-, Par4All-, Overtile-like
//! baselines vs hybrid hexagonal tiling, all on the same simulated GPU,
//! all verified bit-exactly against the oracle before timing.
//!
//! Run with: `cargo run --release --example compare_compilers [stencil]`
//! where `stencil` is one of jacobi2d, heat2d, laplacian2d, gradient2d,
//! fdtd2d, heat3d, laplacian3d, gradient3d (default heat2d).

use gpusim::timing;
use hybrid_hexagonal::prelude::*;
use stencil::gallery;

fn pick(name: &str) -> StencilProgram {
    match name {
        "jacobi2d" => gallery::jacobi2d(),
        "laplacian2d" => gallery::laplacian2d(),
        "gradient2d" => gallery::gradient2d(),
        "fdtd2d" => gallery::fdtd2d(),
        "heat3d" => gallery::heat3d(),
        "laplacian3d" => gallery::laplacian3d(),
        "gradient3d" => gallery::gradient3d(),
        _ => gallery::heat2d(),
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "heat2d".into());
    let program = pick(&name);
    let (dims, steps): (Vec<usize>, usize) = if program.spatial_dims() == 2 {
        (vec![96, 96], 10)
    } else {
        (vec![32, 32, 32], 5)
    };
    let planes = (program.max_dt() as usize) + 1;
    let init: Vec<Grid> = (0..program.num_fields())
        .map(|f| Grid::random(&dims, f as u64))
        .collect();
    let mut oracle = ReferenceExecutor::new(&program, &init);
    oracle.run(steps);

    let hybrid_params = hybrid_bench_params(&program);
    let plans = vec![
        ("par4all", generate_par4all(&program, &dims, steps)),
        ("ppcg", generate_ppcg(&program, &dims, steps)),
        ("overtile", generate_overtile(&program, &dims, steps)),
        (
            "hybrid",
            gpu_codegen::generate_hybrid(
                &program,
                &hybrid_params,
                &dims,
                steps,
                CodegenOptions::best(),
            )
            .expect("hybrid plan"),
        ),
    ];

    println!(
        "{}: {:?} grid, {} steps (fully simulated, no sampling)\n",
        program.name(),
        dims,
        steps
    );
    for (label, plan) in plans {
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, planes);
        sim.run_plan_compiled(&plan);
        let out = steps % planes;
        let exact = (0..program.num_fields()).all(|f| sim.plane(f, out).bit_equal(oracle.field(f)));
        assert!(exact, "{label} diverged from the oracle");
        let mut c = *sim.counters();
        c.point_updates = oracle.point_updates();
        let t = timing::estimate_time(&c, sim.device());
        println!(
            "{label:<10} bit-exact ✓  {:>7.2} GStencils/s (bound by {:>7}), dram {:>6.2} MB, gld eff {:>3.0}%",
            timing::gstencils_per_s(&c, sim.device()),
            t.bound_by(),
            c.dram_bytes() as f64 / 1e6,
            c.gld_efficiency() * 100.0,
        );
    }
}

/// Small-grid hybrid parameters (the bench crate's defaults target the
/// scaled table workloads).
fn hybrid_bench_params(program: &StencilProgram) -> TileParams {
    match (program.name(), program.spatial_dims()) {
        ("fdtd2d", _) => TileParams::new(2, &[3, 32]),
        (_, 2) => TileParams::new(3, &[3, 32]),
        _ => TileParams::new(1, &[2, 4, 16]),
    }
}

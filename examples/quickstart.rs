//! Quickstart: tile the Fig. 1 Jacobi stencil with hybrid
//! hexagonal/classical tiling, run it on the simulated GTX 470, and verify
//! the result bit-for-bit against the sequential oracle.
//!
//! Run with: `cargo run --release --example quickstart`

use hybrid_hexagonal::prelude::*;
use hybrid_tiling::verify::verify_schedule_storage;
use stencil::domain::ScheduledDomain;
use stencil::gallery;

fn main() {
    // 1. The input program (paper Fig. 1).
    let program = gallery::jacobi2d();
    println!("Input stencil:\n{}", program.to_c_like());

    // 2. Build the hybrid schedule: dependence cone -> hexagon -> phases.
    let params = TileParams::new(2, &[3, 32]);
    let schedule = HybridSchedule::compute(&program, &params).expect("jacobi is canonical");
    println!(
        "dependence cone: delta0 = {}, delta1 = {}",
        schedule.cone().delta0(0),
        schedule.cone().delta1(0)
    );
    println!(
        "hexagonal tile: {} points per full tile ({} with classical dims)",
        schedule.hex().count_points(),
        schedule.points_per_full_tile()
    );

    // 3. Exhaustively verify the schedule on a bounded domain.
    let dims = [128usize, 128];
    let steps = 18;
    let exec_schedule =
        HybridSchedule::compute_executable(&program, &params).expect("storage-aware schedule");
    let domain = ScheduledDomain::new(&program, &dims, steps);
    let report = verify_schedule_storage(&exec_schedule, &program, &domain)
        .expect("schedule must be correct");
    println!(
        "verified: {} instances, {} dependences, {} full / {} partial tiles",
        report.instances, report.dependences, report.full_tiles, report.partial_tiles
    );

    // 4. Generate CUDA-model kernels and simulate them.
    let plan =
        generate_hybrid(&program, &params, &dims, steps, CodegenOptions::best()).expect("codegen");
    println!("{plan}");
    let init = vec![Grid::random(&dims, 1)];
    let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
    sim.run_plan_compiled(&plan);

    // 5. Compare against the oracle — must be bit-identical.
    let mut oracle = ReferenceExecutor::new(&program, &init);
    oracle.run(steps);
    assert!(
        sim.plane(0, steps % 2).bit_equal(oracle.field(0)),
        "simulated GPU result must match the oracle exactly"
    );
    let c = sim.counters();
    println!(
        "bit-exact ✓ | {} launches, {} global loads, {} shared loads, gld efficiency {:.0}%",
        c.launches,
        c.gld_inst,
        c.shared_load_requests,
        c.gld_efficiency() * 100.0
    );
}

//! Define your own stencil and run the whole pipeline on it: a 2D
//! anisotropic 5-point stencil with an asymmetric reach (two cells west,
//! one cell east), which exercises an asymmetric dependence cone
//! (δ0 ≠ δ1) — the general case of the paper's §3.3.2.
//!
//! Run with: `cargo run --release --example custom_stencil`

use hybrid_hexagonal::prelude::*;
use stencil::{FieldId, Statement, StencilExpr};

fn main() {
    let a = FieldId(0);
    let program = StencilProgram::new(
        "anisotropic5",
        2,
        &["A"],
        vec![Statement {
            name: "S0".into(),
            writes: a,
            expr: StencilExpr::sum(vec![
                StencilExpr::load(a, 1, &[0, 0]),
                StencilExpr::load(a, 1, &[-2, 0]).scale(0.5), // two cells "west"
                StencilExpr::load(a, 1, &[1, 0]),
                StencilExpr::load(a, 1, &[0, -1]),
                StencilExpr::load(a, 1, &[0, 1]),
            ])
            .scale(0.25),
        }],
    )
    .expect("canonical stencil");

    // The cone is asymmetric along s0: delta0 = 2 (west reach), delta1 = 1.
    let cone = DepCone::of_program(&program).expect("cone");
    println!(
        "delta0 = {}, delta1 = {} (asymmetric cone)",
        cone.delta0(0),
        cone.delta1(0)
    );

    // Inequality (1) in action: w0 = 0 is illegal for this cone.
    let too_small = HybridSchedule::compute(&program, &TileParams::new(2, &[0, 16]));
    println!("w0 = 0 rejected: {}", too_small.unwrap_err());

    let params = TileParams::new(2, &[3, 16]);
    let schedule = HybridSchedule::compute(&program, &params).expect("schedule");
    println!(
        "hexagon: {} points per tile, box {}x{}",
        schedule.hex().count_points(),
        schedule.hex().box_height(),
        schedule.hex().box_width()
    );

    // End-to-end: simulate and compare with the oracle.
    let dims = [40usize, 48];
    let steps = 9;
    let plan =
        gpu_codegen::generate_hybrid(&program, &params, &dims, steps, CodegenOptions::best())
            .expect("plan");
    let init = vec![Grid::random(&dims, 5)];
    let mut sim = GpuSim::new(DeviceConfig::nvs5200m(), &init, 2);
    sim.run_plan_compiled(&plan);
    let mut oracle = ReferenceExecutor::new(&program, &init);
    oracle.run(steps);
    assert!(sim.plane(0, steps % 2).bit_equal(oracle.field(0)));
    println!("custom stencil simulated bit-exactly ✓");
}

//! The simulator's counters do not depend on the `f32` data it computes
//! on (`gpu_codegen::ir`'s premise: control flow and addresses are
//! integer expressions of indices and parameters only). The simulated
//! tuner rests on it: it scores candidates from any initial grids and
//! serves its winner's run from the compile's own.
//!
//! For each example stencil, at the tiles `tune: static` picks and on its
//! scoring workload, runs from two different random initial grids count
//! the same on both devices.

use std::path::Path;

use gpu_codegen::{CodegenOptions, HybridGeometry};
use gpusim::DeviceConfig;
use hybrid_bench::autotune::autotune_workload;
use hybrid_bench::{loaded_sim, random_init};
use hybrid_tiling::TileParams;
use stencil::parse::parse_stencil;

#[test]
fn counters_do_not_depend_on_the_initial_grids() {
    // The winners `driver::tests::static_winners_are_pinned` pins.
    let winners: [(&str, i64, &[i64]); 6] = [
        ("wave1d", 3, &[5]),
        ("jacobi2d", 3, &[5, 64]),
        ("fdtd2d", 3, &[5, 64]),
        ("blur2d", 3, &[5, 64]),
        ("gradient2d", 3, &[5, 64]),
        ("laplacian3d", 2, &[3, 8, 32]),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
    for (name, h, w) in winners {
        let source = std::fs::read_to_string(root.join(format!("{name}.stencil"))).unwrap();
        let program = parse_stencil(name, &source).unwrap();
        let (dims, steps) = autotune_workload(&program);
        let geometry = HybridGeometry::new(
            &program,
            &TileParams::new(h, w),
            &dims,
            steps,
            CodegenOptions::best(),
        )
        .unwrap();
        let (plan, align) = (geometry.build_plan(), geometry.alignment_offset_words());
        for device in [DeviceConfig::gtx470(), DeviceConfig::nvs5200m()] {
            let [a, b] = [1234, 7].map(|seed| {
                let init = random_init(&program, &dims, seed);
                let mut sim = loaded_sim(&program, &device, &init, align, steps);
                sim.try_run_plan_parallel_with(&plan, 1).unwrap();
                (*sim.counters(), sim.plane(0, 0).clone())
            });
            assert_eq!(a.0, b.0, "{name} on {}", device.name);
            // The data did differ.
            assert!(!a.1.bit_equal(&b.1), "{name} on {}", device.name);
        }
    }
}

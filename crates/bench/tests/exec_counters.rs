//! What the driver executes is what the reference interpreter counts: on
//! the tiles `tune: static` picks for the six example stencils, on their
//! scoring workloads and on both device presets, the production executor —
//! the driver's entry at one worker, and the block-parallel one — leaves
//! [`Counters`](gpusim::counters::Counters) equal field for field to
//! `GpuSim::run_plan`'s, and the same grids.

use std::path::Path;

use gpu_codegen::{CodegenOptions, HybridGeometry};
use gpusim::{DeviceConfig, GpuSim};
use hybrid_bench::autotune::autotune_workload;
use hybrid_bench::{loaded_sim, random_init};
use hybrid_tiling::TileParams;
use stencil::parse::parse_stencil;

#[test]
fn the_example_stencils_count_what_the_interpreter_counts_on_both_devices() {
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
        let params = TileParams::new(h, w);
        let geometry =
            HybridGeometry::new(&program, &params, &dims, steps, CodegenOptions::best()).unwrap();
        let (plan, align) = (geometry.build_plan(), geometry.alignment_offset_words());
        let init = random_init(&program, &dims, 3);
        for device in [DeviceConfig::gtx470(), DeviceConfig::nvs5200m()] {
            let sim = || loaded_sim(&program, &device, &init, align, steps);
            let mut reference = sim();
            reference.run_plan(&plan);
            let check = |what: &str, run: &dyn Fn(&mut GpuSim)| {
                let mut compiled = sim();
                run(&mut compiled);
                let what = format!("{name} on {}, {what}", device.name);
                assert_eq!(compiled.counters(), reference.counters(), "{what}");
                for field in 0..program.num_fields() {
                    for plane in 0..=program.max_dt() as usize {
                        let (got, want) =
                            (compiled.plane(field, plane), reference.plane(field, plane));
                        assert!(got.bit_equal(want), "{what}: field {field} plane {plane}");
                    }
                }
            };
            check("one worker", &|sim| {
                sim.try_run_plan_parallel_with(&plan, 1).unwrap()
            });
            check("two workers", &|sim| {
                sim.try_run_plan_parallel_with(&plan, 2).unwrap()
            });
        }
    }
}

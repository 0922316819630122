//! The simulator's `Counters`, pinned: for the hybrid generator and the
//! four baselines (PPCG, Par4All, Overtile, Patus where it applies) on
//! every Table 3 stencil, at a small size, on both device presets, the
//! production executor's counters must equal `golden/counters.txt` field
//! for field. A change to code generation or to the simulator that moves
//! any count shows up here.
//!
//! On a mismatch the test prints the new table (and writes it to the test
//! binary's scratch directory).

use std::path::Path;

use gpusim::DeviceConfig;
use hybrid_bench::{loaded_sim, plan_for, random_init, Compiler};
use stencil::gallery::table3_stencils;

/// A small workload per dimensionality: a few tiles of every compiler.
fn small(dims: usize) -> (Vec<usize>, usize) {
    match dims {
        3 => (vec![20, 20, 36], 4),
        _ => (vec![64, 64], 8),
    }
}

#[test]
fn counters_of_every_compiler_on_table3_match_the_pins() {
    let mut got = String::new();
    for (device, program) in [DeviceConfig::gtx470(), DeviceConfig::nvs5200m()]
        .iter()
        .flat_map(|d| table3_stencils().into_iter().map(move |p| (d, p)))
    {
        let (dims, steps) = small(program.spatial_dims());
        let init = random_init(&program, &dims, 7);
        for compiler in [
            Compiler::Hybrid,
            Compiler::Ppcg,
            Compiler::Par4all,
            Compiler::Overtile,
            Compiler::Patus,
        ] {
            if compiler == Compiler::Patus && !baselines::patus::supported(&program) {
                continue;
            }
            let (plan, align) = plan_for(compiler, &program, &dims, steps);
            let mut sim = loaded_sim(&program, device, &init, align, steps);
            sim.try_run_plan_parallel_with(&plan, 1).unwrap();
            got += &format!(
                "{} {} {}: {:?}\n",
                device.name,
                program.name(),
                compiler.name(),
                sim.counters()
            );
        }
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/counters.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got != want {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("counters.txt");
        std::fs::write(&fresh, &got).unwrap();
        panic!(
            "pinned counters moved; new table (also in {}):\n{got}",
            fresh.display()
        );
    }
}

//! `HybridGeometry` — what the static tuner reads instead of generating a
//! plan per candidate — against `generate_hybrid`: the same `Ok`/`Err`,
//! variant for variant, and the same shared-memory allocation, on the
//! example stencils over the whole sweep space and every Table 4 option
//! row, and on generated programs × tiles wider than any sweep uses.

// The tile-size model's test support: `candidates` enumerates a space.
#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::candidates;
use gpu_codegen::{generate_hybrid, CodegenError, CodegenOptions, HybridGeometry};
use hybrid_bench::autotune::{autotune_workload, sweep_space};
use hybrid_tiling::TileParams;
use proptest::prelude::*;
use stencil::parse::parse_stencil;
use stencil::{gallery, StencilProgram};

/// What a tuner learns from a candidate, both ways.
fn both_ways(
    program: &StencilProgram,
    params: &TileParams,
    dims: &[usize],
    steps: usize,
    opts: CodegenOptions,
) -> [Result<usize, CodegenError>; 2] {
    let geometry =
        HybridGeometry::new(program, params, dims, steps, opts).map(|g| g.shared_bytes());
    let plan = generate_hybrid(program, params, dims, steps, opts)
        .map(|plan| plan.kernels.iter().map(|k| k.shared_bytes()).max().unwrap());
    [geometry, plan]
}

fn option_rows() -> Vec<CodegenOptions> {
    let mut rows: Vec<CodegenOptions> = CodegenOptions::ladder().into_iter().map(|r| r.1).collect();
    rows.push(CodegenOptions::best());
    rows
}

#[test]
fn geometry_agrees_with_generate_hybrid_on_the_examples() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/stencils");
    let mut programs: Vec<StencilProgram> = std::fs::read_dir(dir)
        .expect("examples/stencils exists")
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_stem().unwrap().to_str().unwrap();
            parse_stencil(name, &std::fs::read_to_string(&path).unwrap()).unwrap()
        })
        .collect();
    assert_eq!(programs.len(), 6, "the six example stencils");
    // The examples all generate over the whole space; the gallery's
    // three-statement fdtd2d rejects every height but h = 2.
    programs.push(gallery::fdtd2d());
    for program in &programs {
        let (dims, steps) = autotune_workload(program);
        let mut errors = 0;
        for params in candidates(&sweep_space(program.spatial_dims(), false)) {
            for opts in option_rows() {
                let [geometry, plan] = both_ways(program, &params, &dims, steps, opts);
                assert_eq!(geometry, plan, "{} {params:?} {opts:?}", program.name());
                errors += usize::from(plan.is_err());
            }
        }
        let is_gallery_fdtd = program.num_statements() == 3;
        assert_eq!(errors > 0, is_gallery_fdtd, "{}", program.name());
    }
}

#[test]
fn geometry_rejects_what_generate_hybrid_rejects() {
    let jacobi = gallery::jacobi2d();
    let contrived = gallery::contrived1d();
    for (program, params, dims) in [
        (&jacobi, TileParams::new(1, &[2, 8]), vec![20]), // DimsArity
        (&jacobi, TileParams::new(1, &[2, 8]), vec![20, 2]), // EmptyInterior
        (&jacobi, TileParams::new(1, &[2]), vec![20, 20]), // Tile(ArityMismatch)
        (&contrived, TileParams::new(2, &[0]), vec![64]), // Tile(WidthTooSmall)
    ] {
        let [geometry, plan] = both_ways(program, &params, &dims, 6, CodegenOptions::best());
        assert!(plan.is_err(), "{params:?} {dims:?}");
        assert_eq!(geometry, plan, "{params:?} {dims:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn geometry_agrees_with_generate_hybrid_on_generated_programs(
        n in 1usize..=3,
        loads in prop::collection::vec(
            prop::collection::vec(
                (0usize..3, 0i64..=2, prop::collection::vec(-3i64..=3, 3)),
                1..5,
            ),
            1..4,
        ),
        tile in (0i64..=3, 0i64..=8, 1i64..=6, 1i64..=12),
        row in 0usize..7,
    ) {
        let program = gallery::from_loads(n, loads);
        let (h, w0, mid, inner) = tile;
        let (w, dims): (Vec<i64>, Vec<usize>) = match n {
            1 => (vec![w0], vec![40]),
            2 => (vec![w0, inner], vec![24, 20]),
            _ => (vec![w0, mid, inner], vec![12, 10, 14]),
        };
        let params = TileParams::new(h, &w);
        let [geometry, plan] = both_ways(&program, &params, &dims, 4, option_rows()[row]);
        prop_assert_eq!(geometry, plan);
    }
}

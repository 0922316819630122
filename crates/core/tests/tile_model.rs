//! The dense tile-size model against the tuple-keyed enumerate-and-hash
//! oracle (`common::reference_model`): equal on the gallery and the
//! example stencils over the whole sweep space, equal on generated
//! programs × tiles, right where the old 16-bit value key aliased — and
//! much cheaper.

mod common;

use std::time::Instant;

use common::{candidates, reference_model, sweep_space};
use hybrid_tiling::tilesize::{evaluate_tile, select_tile_sizes, SearchSpace};
use hybrid_tiling::{
    DepCone, HexShape, HybridSchedule, Phase, TileCoord, TileEvaluator, TileParams,
};
use proptest::prelude::*;
use stencil::parse::parse_stencil;
use stencil::{gallery, StencilProgram};

fn example_stencils() -> Vec<StencilProgram> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/stencils");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/stencils exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "stencil"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 6, "the six example stencils");
    paths
        .iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_str().unwrap();
            parse_stencil(name, &std::fs::read_to_string(p).unwrap()).unwrap()
        })
        .collect()
}

#[test]
fn dense_model_equals_reference_on_examples_and_gallery() {
    let mut programs = example_stencils();
    programs.extend(gallery::table3_stencils());
    assert_eq!(programs.len(), 13);
    for program in &programs {
        let evaluator = TileEvaluator::new(program).unwrap();
        let space = sweep_space(program.spatial_dims());
        // 3-D tiles cost the oracle ~0.4 s each in a debug build; every
        // seventh of the 48 keeps the suite quick and still reaches each
        // h, w0, w1 and w2 value.
        let stride = if program.spatial_dims() == 3 { 7 } else { 1 };
        for params in candidates(&space).iter().step_by(stride) {
            assert_eq!(
                evaluator.evaluate(params),
                reference_model(program, params),
                "{} {params:?}",
                program.name()
            );
        }
    }
}

#[test]
fn loads_65536_apart_are_distinct_values() {
    // The deleted hash key masked each position to 16 bits, so these two
    // loads collided and the model reported cold_loads = 384.
    let src =
        "for (t = 0; t < T; t++)\n for (i = 1; i < N-1; i++)\n  for (j = 1; j < N-1; j++)\n   \
               A[t+1][i][j] = A[t][i-1][j] + A[t][i+1][j+65536];";
    let program = parse_stencil("far", src).unwrap();
    let params = TileParams::new(1, &[3, 32]);
    let model = evaluate_tile(&program, &params).unwrap();
    assert_eq!(
        (model.cold_loads, model.steady_loads, model.smem_bytes),
        (864, 864, 16_779_264)
    );
    assert_eq!(model, reference_model(&program, &params).unwrap());
}

#[test]
fn hexagon_rows_equal_polyhedral_points_over_the_sweep_space() {
    // Integer slopes (jacobi2d) and fractional ones (fdtd2d).
    for program in [gallery::jacobi2d(), gallery::fdtd2d()] {
        let cone = DepCone::of_program(&program).unwrap();
        let space = sweep_space(2);
        for &h in &space.h {
            for &w0 in &space.w0 {
                let hex = HexShape::new(cone.delta0(0), cone.delta1(0), h, w0).unwrap();
                let from_rows: Vec<(i64, i64)> = hex
                    .rows()
                    .into_iter()
                    .flat_map(|(a, lo, hi)| (lo..=hi).map(move |b| (a, b)))
                    .collect();
                assert_eq!(from_rows, hex.points(), "{} h={h} w0={w0}", program.name());
            }
        }
        // And one level up: the rows of a tile are its points.
        for params in candidates(&space) {
            let schedule = HybridSchedule::compute(&program, &params).unwrap();
            let tile = TileCoord {
                t_tile: 3,
                phase: Phase::Zero,
                s_tiles: vec![-2, 5],
            };
            let rows = schedule.tile_rows(&tile);
            let points = schedule.ideal_tile_points(&tile);
            let boxed: u64 = rows
                .iter()
                .map(|r| {
                    (0..2)
                        .map(|d| (r.hi[d] - r.lo[d] + 1) as u64)
                        .product::<u64>()
                })
                .sum();
            assert_eq!(boxed, points.len() as u64);
            assert_eq!(boxed, schedule.points_per_full_tile());
            for p in &points {
                assert_eq!(schedule.tile_of(p).unwrap(), tile, "point {p:?}");
            }
        }
    }
}

#[test]
fn laplacian3d_front_half_is_at_least_3x_cheaper_than_the_oracle() {
    // A same-process ratio, so machine speed cancels. The dense side is
    // the best of three, so a scheduling hiccup can only hurt the oracle.
    let program = gallery::laplacian3d();
    let space = sweep_space(3);
    let params = candidates(&space);
    assert_eq!(params.len(), 48);
    let timed = |run: &dyn Fn()| {
        let t0 = Instant::now();
        run();
        t0.elapsed().as_secs_f64()
    };
    let dense = (0..3)
        .map(|_| {
            timed(&|| {
                std::hint::black_box(select_tile_sizes(&program, u64::MAX, &space));
            })
        })
        .fold(f64::INFINITY, f64::min);
    let oracle = timed(&|| {
        for p in &params {
            let _ = std::hint::black_box(reference_model(&program, p));
        }
    });
    assert!(
        oracle >= 3.0 * dense,
        "dense front half {:.1} ms vs oracle {:.1} ms: only {:.1}x",
        dense * 1e3,
        oracle * 1e3,
        oracle / dense
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated programs (1–3-D, radius ≤ 3, asymmetric offsets, dt ≤ 2,
    /// 1–3 statements) × tiles from a space wider than any sweep uses:
    /// the dense model and the oracle agree, errors included.
    #[test]
    fn dense_model_equals_reference_on_generated_programs(
        n in 1usize..=3,
        loads in prop::collection::vec(
            prop::collection::vec(
                (0usize..3, 0i64..=2, prop::collection::vec(-3i64..=3, 3)),
                1..5,
            ),
            1..4,
        ),
        tile in (0i64..=3, 0i64..=8, 1i64..=6, 1i64..=12),
    ) {
        let program = gallery::from_loads(n, loads);
        let (h, w0, mid, inner) = tile;
        let w: Vec<i64> = match n {
            1 => vec![w0],
            2 => vec![w0, inner],
            _ => vec![w0, mid, inner],
        };
        let params = TileParams::new(h, &w);
        prop_assert_eq!(
            evaluate_tile(&program, &params),
            reference_model(&program, &params)
        );
    }
}

#[test]
fn select_tile_sizes_matches_a_scan_of_the_oracle() {
    let program = gallery::jacobi2d();
    let space = SearchSpace {
        h: vec![0, 1, 2],
        w0: vec![1, 3],
        wi: vec![vec![8, 16]],
    };
    let limit = 6 * 1024;
    let best = select_tile_sizes(&program, limit, &space).unwrap();
    let expected = candidates(&space)
        .iter()
        .filter_map(|p| reference_model(&program, p).ok())
        .filter(|m| m.smem_bytes <= limit)
        .reduce(|best, m| {
            let better = m.ratio() < best.ratio()
                || (m.ratio() == best.ratio() && m.iterations > best.iterations);
            if better {
                m
            } else {
                best
            }
        })
        .unwrap();
    assert_eq!(best, expected);
}

//! Criterion: cost of the §3 schedule machinery itself — cone derivation,
//! hexagon construction, full schedule mapping, and tile-size evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use hybrid_bench::autotune::sweep_space;
use hybrid_tiling::{tilesize, DepCone, HexShape, HybridSchedule, TileParams};
use polylib::Rat;
use std::hint::black_box;
use stencil::gallery;
use stencil::parse::parse_stencil;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_construction");
    g.sample_size(20);

    g.bench_function("cone/heat3d", |b| {
        let p = gallery::heat3d();
        b.iter(|| DepCone::of_program(black_box(&p)).unwrap())
    });

    // The cone a compile derives: flow plus the ring buffers' storage
    // dependences.
    g.bench_function("cone/heat3d_with_storage", |b| {
        let p = gallery::heat3d();
        b.iter(|| DepCone::of_program_with_storage(black_box(&p)).unwrap())
    });

    g.bench_function("hexagon/count_points_h3_w5", |b| {
        b.iter(|| {
            HexShape::new(Rat::ONE, Rat::from(2), 3, 5)
                .unwrap()
                .count_points()
        })
    });

    g.bench_function("schedule/compute_heat3d", |b| {
        let p = gallery::heat3d();
        let params = TileParams::new(2, &[5, 4, 32]);
        b.iter(|| HybridSchedule::compute_executable(black_box(&p), &params).unwrap())
    });

    g.bench_function("schedule/map_1k_instances", |b| {
        let p = gallery::jacobi2d();
        let s = HybridSchedule::compute(&p, &TileParams::new(2, &[3, 8])).unwrap();
        b.iter(|| {
            let mut acc = 0i64;
            for tau in 0..10 {
                for i in 0..10 {
                    for j in 0..10 {
                        acc += s.schedule_vector(&[tau, i, j])[0];
                    }
                }
            }
            acc
        })
    });

    g.bench_function("tilesize/evaluate_jacobi", |b| {
        let p = gallery::jacobi2d();
        let params = TileParams::new(2, &[3, 8]);
        b.iter(|| tilesize::evaluate_tile(black_box(&p), &params).unwrap())
    });

    // The tuner's front half: the model over the whole §6 sweep space
    // (12 / 24 / 48 points), one worker, no budget.
    for (name, src) in [
        (
            "wave1d",
            include_str!("../../../examples/stencils/wave1d.stencil"),
        ),
        (
            "jacobi2d",
            include_str!("../../../examples/stencils/jacobi2d.stencil"),
        ),
        (
            "fdtd2d",
            include_str!("../../../examples/stencils/fdtd2d.stencil"),
        ),
        (
            "laplacian3d",
            include_str!("../../../examples/stencils/laplacian3d.stencil"),
        ),
    ] {
        g.bench_function(format!("tilesize/front_half/{name}"), |b| {
            let p = parse_stencil(name, src).expect("checked-in example parses");
            let space = sweep_space(p.spatial_dims(), false);
            b.iter(|| tilesize::select_tile_sizes(black_box(&p), u64::MAX, &space))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Criterion: production-executor scaling — the same jacobi2d plan on
//! worker pools of 1, 2, 4 and 8 threads, beside the reference
//! interpreter. Every sample must agree with the reference counters
//! bit-for-bit (asserted inside the loop), so this bench doubles as a
//! determinism smoke check under `--test`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_codegen::{generate_hybrid, CodegenOptions};
use gpusim::{DeviceConfig, GpuSim};
use hybrid_tiling::TileParams;
use stencil::{gallery, Grid};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_parallel");
    g.sample_size(10);
    let program = gallery::jacobi2d();
    let dims = [96usize, 96];
    let steps = 12;
    let points = (94 * 94 * steps) as u64;
    g.throughput(Throughput::Elements(points));

    let plan = generate_hybrid(
        &program,
        &TileParams::new(2, &[3, 32]),
        &dims,
        steps,
        CodegenOptions::best(),
    )
    .unwrap();
    let init = vec![Grid::random(&dims, 3)];

    let mut reference = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
    reference.run_plan(&plan);
    let expected = *reference.counters();

    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
            sim.run_plan(&plan);
            sim.counters().flops
        })
    });

    for threads in [1usize, 2, 4, 8] {
        g.bench_function(format!("parallel_{threads}threads"), |b| {
            b.iter(|| {
                let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
                sim.run_plan_parallel_with(&plan, threads);
                assert_eq!(sim.counters(), &expected, "parallel executor diverged");
                sim.counters().flops
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Criterion: raw simulator throughput on memory- and compute-heavy
//! kernels — the production (compiled) executor beside the reference
//! interpreter, with the stencil oracle for scale.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_codegen::{generate_hybrid, CodegenOptions, SmemStrategy};
use gpusim::{DeviceConfig, GpuSim};
use hybrid_tiling::TileParams;
use stencil::{gallery, Grid, ReferenceExecutor};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    let program = gallery::jacobi2d();
    let dims = [64usize, 64];
    let steps = 8;
    let points = (62 * 62 * steps) as u64;
    g.throughput(Throughput::Elements(points));

    g.bench_function("oracle/jacobi2d_64x64x8", |b| {
        let init = vec![Grid::random(&dims, 3)];
        b.iter(|| {
            let mut ex = ReferenceExecutor::new(&program, &init);
            ex.run(steps);
            ex.field(0).get(&[1, 1])
        })
    });

    for (name, smem) in [
        ("global_only", SmemStrategy::GlobalOnly),
        ("shared_dynamic", SmemStrategy::ReuseDynamic),
    ] {
        let opts = CodegenOptions {
            smem,
            aligned_loads: false,
            unroll: true,
        };
        let plan =
            generate_hybrid(&program, &TileParams::new(2, &[3, 8]), &dims, steps, opts).unwrap();
        let init = vec![Grid::random(&dims, 3)];
        g.bench_function(format!("gpusim/jacobi2d_{name}"), |b| {
            b.iter(|| {
                let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
                sim.run_plan_compiled(&plan);
                sim.counters().flops
            })
        });
        g.bench_function(format!("gpusim_reference/jacobi2d_{name}"), |b| {
            b.iter(|| {
                let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
                sim.run_plan(&plan);
                sim.counters().flops
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

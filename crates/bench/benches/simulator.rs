//! Criterion: raw simulator throughput on memory- and compute-heavy
//! kernels — the production (compiled) executor beside the reference
//! interpreter, with the stencil oracle for scale and the bank-conflict
//! count both executors share — then the workload the driver runs: the
//! static tuner's winning tiles on the scoring workloads, the whole
//! never-seen request around one of them (with and without the disk plan
//! cache a served request has), and the emission of its side lane.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_codegen::backend::CudaBackend;
use gpu_codegen::{generate_hybrid, Backend, CodegenOptions, SmemStrategy};
use gpusim::shared::bank_transactions;
use gpusim::{DeviceConfig, GpuSim};
use hybrid_bench::autotune::autotune_workload;
use hybrid_bench::driver::{compile_source_with, DriverConfig};
use hybrid_tiling::TileParams;
use std::hint::black_box;
use std::path::Path;
use stencil::parse::parse_stencil;
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

    // The oracle on two scoring workloads: the 3-D one, and the 2-D one
    // with the most expression nodes per point.
    for (program, name) in [
        (gallery::laplacian3d(), "laplacian3d_20x20x36x6"),
        (gallery::gradient2d(), "gradient2d_96x96x12"),
    ] {
        let (dims, steps) = autotune_workload(&program);
        let interior: usize = dims.iter().map(|d| d - 2).product();
        g.throughput(Throughput::Elements((interior * steps) as u64));
        g.bench_function(format!("oracle/{name}"), |b| {
            let init = vec![Grid::random(&dims, 3)];
            b.iter(|| {
                let mut ex = ReferenceExecutor::new(&program, &init);
                ex.run(steps);
                ex.field(0).get_flat(0)
            })
        });
    }

    // What a served request simulates: the tiles `tune: static` picks
    // (pinned by `driver::tests::static_winners_are_pinned`) on the scoring
    // workloads — 64-lane blocks, nearly every statement partially masked;
    // the 1-D one loads one word into every lane, load after load.
    let stencils = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
    let source = std::fs::read_to_string(stencils.join("wave1d.stencil")).unwrap();
    for (program, h, w, name) in [
        (
            parse_stencil("wave1d", &source).unwrap(),
            3,
            &[5][..],
            "wave1d_256x12_h3_w5",
        ),
        (
            gallery::jacobi2d(),
            3,
            &[5, 64][..],
            "jacobi2d_96x96x12_h3_w5x64",
        ),
        (
            gallery::laplacian3d(),
            2,
            &[3, 8, 32][..],
            "laplacian3d_20x20x36x6_h2_w3x8x32",
        ),
    ] {
        let (dims, steps) = autotune_workload(&program);
        let interior: usize = dims.iter().map(|d| d - 2).product();
        g.throughput(Throughput::Elements((interior * steps) as u64));
        let plan = generate_hybrid(
            &program,
            &TileParams::new(h, w),
            &dims,
            steps,
            CodegenOptions::best(),
        )
        .unwrap();
        let init = vec![Grid::random(&dims, 3)];
        let planes = program.max_dt() as usize + 1;
        g.bench_function(format!("gpusim/{name}"), |b| {
            b.iter(|| {
                let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, planes);
                sim.run_plan_compiled(&plan);
                sim.counters().flops
            })
        });
    }

    // The whole never-seen request: parse, tune, generate, then simulate
    // beside emit + oracle, compare — first with no cache of any kind, then
    // as served (`DriverConfig::new`'s default, `hybridd`, `benchmark/`): a
    // disk plan cache that has never seen the program, so the request also
    // probes it, takes and drops the lock file and stores its entry.
    let source = std::fs::read_to_string(stencils.join("jacobi2d.stencil")).unwrap();
    let mut cfg = DriverConfig {
        cache_dir: None,
        ..DriverConfig::new(std::env::temp_dir().join(format!("bench_cold_{}", std::process::id())))
    };
    g.throughput(Throughput::Elements(94 * 94 * 12));
    g.bench_function("driver/cold_request_jacobi2d", |b| {
        b.iter(|| {
            let outcome =
                compile_source_with("jacobi2d", &source, Path::new("<bench>"), &cfg, None);
            outcome.unwrap().gstencils
        })
    });
    let mut fresh = 0;
    g.bench_function("driver/cold_request_jacobi2d_disk_cache", |b| {
        b.iter(|| {
            fresh += 1;
            cfg.cache_dir = Some(cfg.out_dir.join(format!("cache{fresh}")));
            let outcome =
                compile_source_with("jacobi2d", &source, Path::new("<bench>"), &cfg, None);
            outcome.unwrap().gstencils
        })
    });
    let _ = std::fs::remove_dir_all(&cfg.out_dir);

    // The side lane's first half: the CUDA source and pseudo-PTX of the
    // static winner's plan for the example stencil with the most IR.
    let source = std::fs::read_to_string(stencils.join("gradient2d.stencil")).unwrap();
    let program = parse_stencil("gradient2d", &source).unwrap();
    let (dims, steps) = autotune_workload(&program);
    let (params, opts) = (TileParams::new(3, &[5, 64]), CodegenOptions::best());
    let plan = generate_hybrid(&program, &params, &dims, steps, opts).unwrap();
    let emit = || {
        (
            CudaBackend.emit_plan(&plan),
            CudaBackend.emit_aux(&plan).unwrap(),
        )
    };
    let (cu, ptx) = emit();
    g.throughput(Throughput::Bytes((cu.len() + ptx.len()) as u64));
    g.bench_function("codegen/emit_plan_gradient2d_96x96x12", |b| b.iter(emit));

    // One warp's shared-memory access, by address pattern.
    g.throughput(Throughput::Elements(32));
    for (name, stride) in [("unit", 1usize), ("strided", 33), ("broadcast", 0)] {
        let words: Vec<usize> = (0..32).map(|lane| 640 + lane * stride).collect();
        g.bench_function(format!("bank_transactions/{name}"), |b| {
            b.iter(|| bank_transactions(black_box(&words)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Inspect the generated artifacts: the CUDA-like kernel source and the
//! Fig. 2 pseudo-PTX of the unrolled, divergence-free core tile.
//!
//! Run with: `cargo run --release --example inspect_codegen`

use gpu_codegen::ptx_emit::core_tile_ptx;
use gpu_codegen::BackendKind;
use hybrid_hexagonal::prelude::*;
use stencil::gallery;

fn main() {
    let program = gallery::jacobi2d();
    let params = TileParams::new(2, &[3, 32]);
    let plan =
        generate_hybrid(&program, &params, &[512, 512], 16, CodegenOptions::best()).expect("plan");

    println!("=== generated kernels ===");
    for k in &plan.kernels {
        println!(
            "{}: block {}x{}x{}, {} bytes shared",
            k.name,
            k.block_dim[0],
            k.block_dim[1],
            k.block_dim[2],
            k.shared_bytes()
        );
    }

    println!("\n=== CUDA-like source of the phase-1 kernel (first 60 lines) ===");
    let src = BackendKind::Cuda.backend().emit_kernel(&plan.kernels[1]);
    for line in src.lines().take(60) {
        println!("{line}");
    }
    println!("... ({} lines total)", src.lines().count());

    println!("\n=== Fig. 2: pseudo-PTX of 3 unrolled core-tile points ===");
    let (ptx, stats) = core_tile_ptx(&plan.kernels[1], 3);
    print!("{ptx}");
    println!(
        "\n{} loads / {} stores / {} arith — no control flow, register reuse across points",
        stats.loads, stats.stores, stats.arith
    );
}

//! # gpu-codegen — CUDA-model code generation for tiled stencils (§4)
//!
//! The paper generates CUDA through PPCG's generic code generator plus
//! stencil-specific strategies. Here the target is a small, explicit
//! [kernel IR](ir) interpreted warp-synchronously by the `gpusim` crate.
//! Likewise, one printer ([`c_like`]) prints the IR's text grammar for
//! every text target, each with its own spelling of the few leaves and
//! statement forms that differ: CUDA-C-like source and HIP C++ (the C
//! spelling under two dialects), WGSL ([`wgsl_emit`]) and whole-block
//! vectorized CPU C ([`cpu_emit`], which wraps the printed statements in
//! lane loops and masks). The [`backend::Backend`] trait picks the target;
//! the pseudo-PTX view of the paper's Fig. 2 ([`ptx_emit`]) is the CUDA
//! backend's second artifact.
//!
//! Code-generation strategies implemented (paper §4.2–§4.3):
//!
//! * full/partial tile separation — specialized, guard-free code for full
//!   tiles, guarded code for boundary tiles (§4.3.1);
//! * unrolling of the constant-trip intra-tile loops (§4.3.2);
//! * the shared-memory optimization ladder of Table 4:
//!   `(a)` global only, `(b)` shared with copy-in/copy-out phases,
//!   `(c)` interleaved copy-out, `(d)` aligned loads, `(e)` static
//!   inter-tile reuse (mod-mapped shared addresses), `(f)` dynamic
//!   inter-tile reuse (dense addresses plus an explicit move phase).

pub mod backend;
pub mod c_like;
pub mod cpu_emit;
pub mod hybrid_gen;
pub mod ir;
pub mod options;
pub mod ptx_emit;
pub mod wgsl_emit;

pub use backend::{Backend, BackendCaps, BackendKind};
pub use hybrid_gen::{generate_hybrid, CodegenError, HybridGeometry};
pub use ir::{Cond, FExpr, IExpr, Kernel, LaunchPlan, SharedBuf, Stmt};
pub use options::{CodegenOptions, SmemStrategy};

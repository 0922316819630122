//! # gpu-codegen — CUDA-model code generation for tiled stencils (§4)
//!
//! The paper generates CUDA through PPCG's generic code generator plus
//! stencil-specific strategies. Here the target is a small, explicit
//! [kernel IR](ir) interpreted warp-synchronously by the `gpusim` crate; the
//! same IR pretty-prints to CUDA-C-like source ([`cuda_emit`]) and to the
//! pseudo-PTX view of the paper's Fig. 2 ([`ptx_emit`]), and — through the
//! [`backend::Backend`] trait — to WGSL ([`wgsl_emit`]), HIP C++
//! ([`c_like`] with the HIP dialect) and whole-block vectorized CPU C
//! ([`cpu_emit`]).
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
pub mod cuda_emit;
pub mod hybrid_gen;
pub mod ir;
pub mod options;
pub mod ptx_emit;
pub mod wgsl_emit;

pub use backend::{Backend, BackendCaps, BackendKind};
pub use hybrid_gen::{generate_hybrid, CodegenError, HybridGeometry};
pub use ir::{Cond, FExpr, IExpr, Kernel, LaunchPlan, SharedBuf, Stmt};
pub use options::{CodegenOptions, SmemStrategy};

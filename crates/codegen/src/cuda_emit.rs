//! CUDA-C-like pretty printer for kernel IR.
//!
//! The emitted source is for inspection and documentation (the executable
//! artifact is the IR itself, interpreted by `gpusim`); it mirrors what
//! PPCG's CUDA backend would print for the same schedule.
//!
//! The actual grammar lives in [`crate::c_like`], shared with the HIP
//! backend; this module pins the CUDA dialect and keeps the historical
//! entry points stable (and byte-identical — the golden files under
//! `tests/golden/*.cu` prove it).

use crate::c_like::{kernel_to_c, CUDA_DIALECT};
use crate::ir::Kernel;

pub use crate::c_like::{cond_to_c, fexpr_to_c, iexpr_to_c};

/// Renders a full kernel as CUDA-like C source.
pub fn kernel_to_cuda(kernel: &Kernel) -> String {
    kernel_to_c(kernel, &CUDA_DIALECT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Cond, FExpr, IExpr, PoolBuilder, SharedBuf, Stmt};
    use std::sync::Arc;

    #[test]
    fn emits_compilable_looking_source() {
        let p = PoolBuilder::default();
        let (block, tx, v0, p0) = (
            p.iexpr(IExpr::BlockIdx),
            p.iexpr(IExpr::ThreadIdx(0)),
            p.var(0),
            p.iexpr(IExpr::Param(0)),
        );
        let scaled = p.scale(block, 32);
        let value = p.add(scaled, tx);
        let hundred = p.lit(100);
        let cond = p.cond(Cond::Lt(v0, hundred));
        let (plane, zero, column) = (p.modulo(p0, 2), p.lit(0), p.modulo(tx, 10));
        let (gidx, sidx) = (p.indices(&[v0]), p.indices(&[zero, column]));
        let src = p.fexpr(FExpr::Reg(0));
        let k = Kernel {
            name: "demo".into(),
            block_dim: [32, 1, 1],
            shared: vec![SharedBuf {
                name: "s_A".into(),
                dims: vec![2, 10],
            }],
            n_vars: 1,
            n_regs: 2,
            n_params: 1,
            pool: Arc::new(p.finish()),
            body: vec![
                Stmt::SetVar { var: 0, value },
                Stmt::If {
                    cond,
                    then_: vec![
                        Stmt::GlobalLoad {
                            dst: 0,
                            field: 0,
                            plane,
                            index: gidx,
                        },
                        Stmt::SharedStore {
                            buf: 0,
                            index: sidx,
                            src,
                        },
                    ],
                    else_: vec![],
                },
                Stmt::Sync,
            ],
        };
        let src = kernel_to_cuda(&k);
        assert!(src.contains("__global__ void demo"));
        assert!(src.contains("__shared__ float s_A[2][10];"));
        assert!(src.contains("__syncthreads();"));
        assert!(src.contains("if (v0 < 100)"));
        assert!(src.contains("g0[pmod(p0, 2)][v0]"));
    }
}

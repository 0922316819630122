//! WGSL compute-shader emission for kernel IR.
//!
//! Each kernel renders as one self-contained WGSL module — the wgpu
//! execution model builds one compute pipeline per kernel, so a
//! multi-kernel plan is a sequence of modules, not one translation
//! unit. The body is printed by the shared printer of [`crate::c_like`],
//! through the `Wgsl` spelling, which replaces the CUDA surface piece
//! by piece:
//!
//! * `threadIdx` / `blockIdx` become the `local_invocation_id` /
//!   `workgroup_id` `@builtin` inputs, `sqrtf` becomes `sqrt` and a true
//!   condition `true`;
//! * `__syncthreads()` becomes `workgroupBarrier()`;
//! * vars are declared once at the top of the function, so a definition
//!   is a plain assignment, and a loop steps by `v = v + k`;
//! * global fields become `var<storage, read_write>` bindings. WGSL
//!   storage buffers are flat, so the `(plane, spatial...)` subscripts
//!   of the CUDA pseudo-source are linearized through a `gidx` helper
//!   whose strides are pipeline-overridable constants — one module
//!   serves any grid extent;
//! * per-launch parameters arrive through a uniform `Params` struct.
//!
//! This module prints what surrounds the body: the bindings, the
//! `var<workgroup>` arrays that replace `__shared__` buffers (statically
//! sized, matching [`crate::ir::SharedBuf`]) and the helpers the body
//! calls.

use crate::c_like::{global_shape, write_stmts, Spelling};
use crate::ir::{IExprId, Indices, Kernel, Pool};
use std::fmt::Write;

/// The WGSL spelling: `i32` arithmetic over the `@builtin` ids.
pub(crate) struct Wgsl<'a>(pub &'a Pool);

impl Spelling for Wgsl<'_> {
    const PARAM: &'static str = "P.p";
    const BLOCK_IDX: &'static str = "i32(wid.x)";
    const TRUE: &'static str = "true";
    const SQRT: &'static str = "sqrt";
    const DEFINE: &'static str = "";
    const BARRIER: &'static str = "workgroupBarrier()";

    fn pool(&self) -> &Pool {
        self.0
    }

    fn thread_idx(&self, out: &mut String, d: usize) {
        let _ = write!(out, "i32(lid.{})", ['x', 'y', 'z'][d]);
    }

    fn step(&self, out: &mut String, var: usize, step: i64) {
        let _ = write!(out, "v{var} = v{var} + {step}");
    }

    /// `[gidx(plane, i0, ..)]`: the flattened storage-buffer subscript.
    fn global(&self, out: &mut String, plane: IExprId, index: Indices) {
        out.push_str("[gidx(");
        self.iexpr(out, plane);
        for &e in &self.0[index] {
            out.push_str(", ");
            self.iexpr(out, e);
        }
        out.push_str(")]");
    }
}

/// Appends a full kernel as one self-contained WGSL compute module.
pub(crate) fn write_kernel(out: &mut String, kernel: &Kernel) {
    let [x, y, z] = kernel.block_dim;
    let smem = kernel.shared_bytes();
    let _ = writeln!(out, "// block {x}x{y}x{z}, {smem} bytes workgroup memory");
    let (fields, arity) = global_shape(kernel);
    for f in 0..fields {
        let _ = writeln!(
            out,
            "@group(0) @binding({f}) var<storage, read_write> g{f}: array<f32>;"
        );
    }
    if kernel.n_params > 0 {
        out.push_str("struct Params { ");
        for p in 0..kernel.n_params {
            let _ = write!(out, "{}p{p}: i32", if p == 0 { "" } else { ", " });
        }
        out.push_str(" }\n@group(1) @binding(0) var<uniform> P: Params;\n");
    }
    for b in &kernel.shared {
        // Innermost dimension last: `[16, 36]` is `array<array<f32, 36>, 16>`.
        let _ = write!(out, "var<workgroup> {}: ", b.name);
        for _ in &b.dims {
            out.push_str("array<");
        }
        out.push_str("f32");
        for d in b.dims.iter().rev() {
            let _ = write!(out, ", {d}>");
        }
        out.push_str(";\n");
    }
    if arity > 0 {
        // Flat layout of the (plane, spatial...) global ring; strides
        // are pipeline-overridable so one module serves any extent.
        out.push_str("override plane_stride: i32 = 1;\n");
        for d in 0..arity - 1 {
            let _ = writeln!(out, "override stride{d}: i32 = 1;");
        }
        out.push_str("fn gidx(plane: i32");
        for d in 0..arity {
            let _ = write!(out, ", i{d}: i32");
        }
        out.push_str(") -> u32 { return u32(plane * plane_stride");
        for d in 0..arity - 1 {
            let _ = write!(out, " + i{d} * stride{d}");
        }
        let _ = writeln!(out, " + i{}); }}", arity - 1);
    }
    // The body, printed first: the helpers it calls are the ones emitted.
    let mut body = String::new();
    write_stmts(&mut body, &Wgsl(&kernel.pool), kernel, &kernel.body, 1);
    if body.contains("floord(") {
        out.push_str("fn floord(a: i32, b: i32) -> i32 { var q = a / b; if ((a % b != 0) && ((a < 0) != (b < 0))) { q = q - 1; } return q; }\n");
    }
    if body.contains("pmod(") {
        out.push_str("fn pmod(a: i32, b: i32) -> i32 { let r = a % b; if (r < 0) { return r + b; } return r; }\n");
    }
    let _ = writeln!(out, "@compute @workgroup_size({x}, {y}, {z})");
    let _ = writeln!(
        out,
        "fn {}(@builtin(local_invocation_id) lid: vec3<u32>, @builtin(workgroup_id) wid: vec3<u32>) {{",
        kernel.name
    );
    for v in 0..kernel.n_vars {
        let _ = writeln!(out, "  var v{v}: i32 = 0;");
    }
    for r in 0..kernel.n_regs {
        let _ = writeln!(out, "  var r{r}: f32 = 0.0;");
    }
    out.push_str(&body);
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use crate::ir::{Cond, FExpr, IExpr, Kernel, PoolBuilder, SharedBuf, Stmt};
    use crate::BackendKind;
    use std::sync::Arc;

    fn demo_kernel() -> Kernel {
        let p = PoolBuilder::default();
        let (block, tx, v0, p0) = (
            p.iexpr(IExpr::BlockIdx),
            p.iexpr(IExpr::ThreadIdx(0)),
            p.var(0),
            p.iexpr(IExpr::Param(0)),
        );
        let scaled = p.scale(block, 32);
        let value = p.add(scaled, tx);
        let (zero, hundred) = (p.lit(0), p.lit(100));
        let cond = p.cond(Cond::Lt(v0, hundred));
        let (plane, column) = (p.modulo(p0, 2), p.modulo(tx, 10));
        let (gidx, sidx) = (p.indices(&[v0]), p.indices(&[zero, column]));
        let src = p.fexpr(FExpr::Reg(0));
        Kernel {
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
        }
    }

    #[test]
    fn emits_wgsl_surface_not_cuda() {
        let src = BackendKind::Wgsl.backend().emit_kernel(&demo_kernel());
        assert!(src.contains("@compute @workgroup_size(32, 1, 1)"));
        assert!(src.contains("var<workgroup> s_A: array<array<f32, 10>, 2>;"));
        assert!(src.contains("workgroupBarrier();"));
        assert!(src.contains("@builtin(local_invocation_id)"));
        assert!(src.contains("var<storage, read_write> g0: array<f32>;"));
        assert!(src.contains("gidx(pmod(P.p0, 2), v0)"));
        assert!(!src.contains("__shared__"));
        assert!(!src.contains("threadIdx"));
        assert!(!src.contains("__syncthreads"));
    }

    #[test]
    fn helpers_are_emitted_on_demand() {
        let src = BackendKind::Wgsl.backend().emit_kernel(&demo_kernel());
        assert!(src.contains("fn pmod("), "pmod is used by the body");
        assert!(!src.contains("fn floord("), "floord is not");
    }
}

//! WGSL compute-shader pretty printer for kernel IR.
//!
//! Each kernel renders as one self-contained WGSL module — the wgpu
//! execution model builds one compute pipeline per kernel, so a
//! multi-kernel plan is a sequence of modules, not one translation
//! unit. Targeting WGSL replaces the CUDA surface piece by piece:
//!
//! * `__shared__` buffers become `var<workgroup>` arrays (statically
//!   sized, matching [`crate::ir::SharedBuf`]);
//! * `threadIdx` / `blockIdx` become the `local_invocation_id` /
//!   `workgroup_id` `@builtin` inputs;
//! * `__syncthreads()` becomes `workgroupBarrier()`;
//! * global fields become `var<storage, read_write>` bindings. WGSL
//!   storage buffers are flat, so the `(plane, spatial...)` subscripts
//!   of the CUDA pseudo-source are linearized through a `gidx` helper
//!   whose strides are pipeline-overridable constants — one module
//!   serves any grid extent;
//! * per-launch parameters arrive through a uniform `Params` struct.

use crate::ir::{visit, Cond, CondId, FExpr, FExprId, IExpr, IExprId, Indices, Kernel, Pool, Stmt};
use std::fmt::Write;

/// Renders an integer expression of `pool` as WGSL (`i32` arithmetic).
pub fn iexpr_to_wgsl(pool: &Pool, e: IExprId) -> String {
    let iexpr_to_wgsl = |e| iexpr_to_wgsl(pool, e);
    match pool[e] {
        IExpr::Const(c) => format!("{c}"),
        IExpr::Var(v) => format!("v{v}"),
        IExpr::Param(p) => format!("P.p{p}"),
        IExpr::ThreadIdx(0) => "i32(lid.x)".into(),
        IExpr::ThreadIdx(1) => "i32(lid.y)".into(),
        IExpr::ThreadIdx(_) => "i32(lid.z)".into(),
        IExpr::BlockIdx => "i32(wid.x)".into(),
        IExpr::Add(a, b) => format!("({} + {})", iexpr_to_wgsl(a), iexpr_to_wgsl(b)),
        IExpr::Sub(a, b) => format!("({} - {})", iexpr_to_wgsl(a), iexpr_to_wgsl(b)),
        IExpr::Mul(a, b) => format!("({} * {})", iexpr_to_wgsl(a), iexpr_to_wgsl(b)),
        IExpr::FloorDiv(a, k) => format!("floord({}, {k})", iexpr_to_wgsl(a)),
        IExpr::Mod(a, k) => format!("pmod({}, {k})", iexpr_to_wgsl(a)),
        IExpr::Min(a, b) => format!("min({}, {})", iexpr_to_wgsl(a), iexpr_to_wgsl(b)),
        IExpr::Max(a, b) => format!("max({}, {})", iexpr_to_wgsl(a), iexpr_to_wgsl(b)),
    }
}

/// Renders a condition of `pool` as WGSL.
pub fn cond_to_wgsl(pool: &Pool, c: CondId) -> String {
    let (iexpr_to_wgsl, cond_to_wgsl) = (|e| iexpr_to_wgsl(pool, e), |c| cond_to_wgsl(pool, c));
    match pool[c] {
        Cond::True => "true".into(),
        Cond::Le(a, b) => format!("{} <= {}", iexpr_to_wgsl(a), iexpr_to_wgsl(b)),
        Cond::Lt(a, b) => format!("{} < {}", iexpr_to_wgsl(a), iexpr_to_wgsl(b)),
        Cond::Eq(a, b) => format!("{} == {}", iexpr_to_wgsl(a), iexpr_to_wgsl(b)),
        Cond::And(a, b) => format!("({} && {})", cond_to_wgsl(a), cond_to_wgsl(b)),
        Cond::Or(a, b) => format!("({} || {})", cond_to_wgsl(a), cond_to_wgsl(b)),
        Cond::Not(a) => format!("!({})", cond_to_wgsl(a)),
    }
}

/// Renders a float expression of `pool` as WGSL.
pub fn fexpr_to_wgsl(pool: &Pool, e: FExprId) -> String {
    let fexpr_to_wgsl = |e| fexpr_to_wgsl(pool, e);
    match pool[e] {
        FExpr::Reg(r) => format!("r{r}"),
        FExpr::Const(c) => format!("{c:?}f"),
        FExpr::Add(a, b) => format!("({} + {})", fexpr_to_wgsl(a), fexpr_to_wgsl(b)),
        FExpr::Sub(a, b) => format!("({} - {})", fexpr_to_wgsl(a), fexpr_to_wgsl(b)),
        FExpr::Mul(a, b) => format!("({} * {})", fexpr_to_wgsl(a), fexpr_to_wgsl(b)),
        FExpr::Sqrt(a) => format!("sqrt({})", fexpr_to_wgsl(a)),
    }
}

/// Number of global stencil fields the body touches (fields are densely
/// numbered from 0 — the kernel IR carries no separate field count).
fn field_count(stmts: &[Stmt]) -> usize {
    let mut max: Option<usize> = None;
    visit(stmts, &mut |s| {
        if let Stmt::GlobalLoad { field, .. } | Stmt::GlobalStore { field, .. } = s {
            max = Some(max.map_or(*field, |m| m.max(*field)));
        }
    });
    max.map_or(0, |m| m + 1)
}

/// Widest spatial subscript of any global access (1-, 2- or 3-D grid).
fn global_arity(kernel: &Kernel) -> usize {
    let mut arity = 0;
    visit(&kernel.body, &mut |s| {
        if let Stmt::GlobalLoad { index, .. } | Stmt::GlobalStore { index, .. } = s {
            arity = arity.max(kernel.pool[*index].len());
        }
    });
    arity
}

/// The flattened storage-buffer subscript for a `(plane, spatial...)`
/// global access: `gidx(plane, i0, ..)`.
fn global_index(pool: &Pool, plane: IExprId, index: Indices) -> String {
    let mut args = vec![iexpr_to_wgsl(pool, plane)];
    args.extend(pool[index].iter().map(|&e| iexpr_to_wgsl(pool, e)));
    format!("gidx({})", args.join(", "))
}

/// `[e]` per index expression.
fn subscripts(pool: &Pool, index: Indices) -> String {
    pool[index]
        .iter()
        .map(|&e| format!("[{}]", iexpr_to_wgsl(pool, e)))
        .collect()
}

fn emit_stmts(out: &mut String, stmts: &[Stmt], kernel: &Kernel, depth: usize) {
    let (pad, pool) = ("  ".repeat(depth), &*kernel.pool);
    for s in stmts {
        match s {
            Stmt::SetVar { var, value } => {
                let _ = writeln!(out, "{pad}v{var} = {};", iexpr_to_wgsl(pool, *value));
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}for (v{var} = {}; v{var} < {}; v{var} = v{var} + {step}) {{",
                    iexpr_to_wgsl(pool, *lo),
                    iexpr_to_wgsl(pool, *hi)
                );
                emit_stmts(out, body, kernel, depth + 1);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::If { cond, then_, else_ } => {
                let _ = writeln!(out, "{pad}if ({}) {{", cond_to_wgsl(pool, *cond));
                emit_stmts(out, then_, kernel, depth + 1);
                if else_.is_empty() {
                    let _ = writeln!(out, "{pad}}}");
                } else {
                    let _ = writeln!(out, "{pad}}} else {{");
                    emit_stmts(out, else_, kernel, depth + 1);
                    let _ = writeln!(out, "{pad}}}");
                }
            }
            Stmt::GlobalLoad {
                dst,
                field,
                plane,
                index,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}r{dst} = g{field}[{}];",
                    global_index(pool, *plane, *index)
                );
            }
            Stmt::GlobalStore {
                field,
                plane,
                index,
                src,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}g{field}[{}] = {};",
                    global_index(pool, *plane, *index),
                    fexpr_to_wgsl(pool, *src)
                );
            }
            Stmt::SharedLoad { dst, buf, index } => {
                let name = &kernel.shared[*buf].name;
                let idx = subscripts(pool, *index);
                let _ = writeln!(out, "{pad}r{dst} = {name}{idx};");
            }
            Stmt::SharedStore { buf, index, src } => {
                let name = &kernel.shared[*buf].name;
                let idx = subscripts(pool, *index);
                let _ = writeln!(out, "{pad}{name}{idx} = {};", fexpr_to_wgsl(pool, *src));
            }
            Stmt::Compute { dst, expr } => {
                let _ = writeln!(out, "{pad}r{dst} = {};", fexpr_to_wgsl(pool, *expr));
            }
            Stmt::Sync => {
                let _ = writeln!(out, "{pad}workgroupBarrier();");
            }
        }
    }
}

/// Nested WGSL array type for a shared buffer, innermost dimension last
/// (`dims = [16, 36]` → `array<array<f32, 36>, 16>`).
fn workgroup_array_type(dims: &[usize]) -> String {
    let mut ty = "f32".to_string();
    for d in dims.iter().rev() {
        ty = format!("array<{ty}, {d}>");
    }
    ty
}

/// Renders a full kernel as one self-contained WGSL compute module.
pub fn kernel_to_wgsl(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// block {}x{}x{}, {} bytes workgroup memory",
        kernel.block_dim[0],
        kernel.block_dim[1],
        kernel.block_dim[2],
        kernel.shared_bytes()
    );
    let fields = field_count(&kernel.body);
    for f in 0..fields {
        let _ = writeln!(
            out,
            "@group(0) @binding({f}) var<storage, read_write> g{f}: array<f32>;"
        );
    }
    if kernel.n_params > 0 {
        let members: Vec<String> = (0..kernel.n_params).map(|p| format!("p{p}: i32")).collect();
        let _ = writeln!(out, "struct Params {{ {} }}", members.join(", "));
        let _ = writeln!(out, "@group(1) @binding(0) var<uniform> P: Params;");
    }
    for b in &kernel.shared {
        let _ = writeln!(
            out,
            "var<workgroup> {}: {};",
            b.name,
            workgroup_array_type(&b.dims)
        );
    }
    let arity = global_arity(kernel);
    if arity > 0 {
        // Flat layout of the (plane, spatial...) global ring; strides
        // are pipeline-overridable so one module serves any extent.
        let _ = writeln!(out, "override plane_stride: i32 = 1;");
        for d in 0..arity.saturating_sub(1) {
            let _ = writeln!(out, "override stride{d}: i32 = 1;");
        }
        let args: Vec<String> = std::iter::once("plane: i32".to_string())
            .chain((0..arity).map(|d| format!("i{d}: i32")))
            .collect();
        let mut flat = "plane * plane_stride".to_string();
        for d in 0..arity {
            if d + 1 < arity {
                let _ = write!(flat, " + i{d} * stride{d}");
            } else {
                let _ = write!(flat, " + i{d}");
            }
        }
        let _ = writeln!(
            out,
            "fn gidx({}) -> u32 {{ return u32({flat}); }}",
            args.join(", ")
        );
    }
    // The body, printed first: the helpers it calls are the ones emitted.
    let mut body = String::new();
    emit_stmts(&mut body, &kernel.body, kernel, 1);
    if body.contains("floord(") {
        let _ = writeln!(
            out,
            "fn floord(a: i32, b: i32) -> i32 {{ var q = a / b; if ((a % b != 0) && ((a < 0) != (b < 0))) {{ q = q - 1; }} return q; }}"
        );
    }
    if body.contains("pmod(") {
        let _ = writeln!(
            out,
            "fn pmod(a: i32, b: i32) -> i32 {{ let r = a % b; if (r < 0) {{ return r + b; }} return r; }}"
        );
    }
    let _ = writeln!(
        out,
        "@compute @workgroup_size({}, {}, {})",
        kernel.block_dim[0], kernel.block_dim[1], kernel.block_dim[2]
    );
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{PoolBuilder, SharedBuf};
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
        let src = kernel_to_wgsl(&demo_kernel());
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
        let src = kernel_to_wgsl(&demo_kernel());
        assert!(src.contains("fn pmod("), "pmod is used by the body");
        assert!(!src.contains("fn floord("), "floord is not");
    }
}

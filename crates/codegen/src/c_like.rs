//! Shared C-family formatter layer.
//!
//! CUDA-C and HIP-C kernels differ only at the translation-unit edges
//! (include prologue, launch-bounds annotation); every expression,
//! condition and statement prints identically. This module owns that
//! common grammar once, parameterized by a tiny [`CDialect`], so the
//! `cuda` and `hip` backends cannot drift apart statement-by-statement.
//! The historical entry points (`cuda_emit::iexpr_to_c` and friends)
//! re-export from here unchanged.

use crate::ir::{Cond, FExpr, IExpr, Kernel, Stmt};
use std::fmt::Write;

/// The per-target knobs of the C-family printers. Everything not in
/// here is shared grammar.
pub struct CDialect {
    /// Translation-unit prologue emitted once per plan ("" for CUDA —
    /// the pseudo-source predates the backend split and stays
    /// header-free; HIP sources include the runtime header they would
    /// compile against).
    pub prologue: &'static str,
    /// Annotate kernels with `__launch_bounds__(threads)`. On AMD's
    /// 64-wide wavefronts occupancy is sensitive enough to it that the
    /// HIP backend always emits it; the CUDA output keeps its original
    /// (annotation-free) byte-identical form.
    pub launch_bounds: bool,
}

/// The CUDA flavor: no prologue, no launch bounds — byte-identical to
/// the emitter before the backend split.
pub const CUDA_DIALECT: CDialect = CDialect {
    prologue: "",
    launch_bounds: false,
};

/// The HIP flavor: runtime include plus `__launch_bounds__`.
pub const HIP_DIALECT: CDialect = CDialect {
    prologue: "#include <hip/hip_runtime.h>\n\n",
    launch_bounds: true,
};

/// One of the `write_*` printers: appends a node to the caller's buffer.
type Put<T> = fn(&mut String, &T);

/// `{open}{a}{op}{b}{close}` — every binary node of the three grammars.
fn infix<T>(out: &mut String, [open, op, close]: [&str; 3], a: &T, b: &T, put: Put<T>) {
    out.push_str(open);
    put(out, a);
    out.push_str(op);
    put(out, b);
    out.push_str(close);
}

/// `write!` into a `String`, which cannot fail.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {{
        let _ = write!($out, $($arg)*);
    }};
}

/// Appends an integer expression as C. The `write_*` functions are the one
/// C-family expression printer: a whole plan renders into one `String`, with
/// no allocation per IR node; the `*_to_c` names below only wrap them.
pub(crate) fn write_iexpr(out: &mut String, e: &IExpr) {
    let lit = |k: &i64| IExpr::Const(*k);
    match e {
        IExpr::Const(c) => put!(out, "{c}"),
        IExpr::Var(v) => put!(out, "v{v}"),
        IExpr::Param(p) => put!(out, "p{p}"),
        IExpr::ThreadIdx(d) => put!(out, "threadIdx.{}", ['x', 'y', 'z'][usize::from(*d).min(2)]),
        IExpr::BlockIdx => out.push_str("blockIdx.x"),
        IExpr::Add(a, b) => infix(out, ["(", " + ", ")"], &**a, &**b, write_iexpr),
        IExpr::Sub(a, b) => infix(out, ["(", " - ", ")"], &**a, &**b, write_iexpr),
        IExpr::Mul(a, b) => infix(out, ["(", " * ", ")"], &**a, &**b, write_iexpr),
        IExpr::Min(a, b) => infix(out, ["min(", ", ", ")"], &**a, &**b, write_iexpr),
        IExpr::Max(a, b) => infix(out, ["max(", ", ", ")"], &**a, &**b, write_iexpr),
        IExpr::FloorDiv(a, k) => infix(out, ["floord(", ", ", ")"], &**a, &lit(k), write_iexpr),
        IExpr::Mod(a, k) => infix(out, ["pmod(", ", ", ")"], &**a, &lit(k), write_iexpr),
    }
}

/// Appends a condition as C.
fn write_cond(out: &mut String, c: &Cond) {
    match c {
        Cond::True => out.push('1'),
        Cond::Le(a, b) => infix(out, ["", " <= ", ""], a, b, write_iexpr),
        Cond::Lt(a, b) => infix(out, ["", " < ", ""], a, b, write_iexpr),
        Cond::Eq(a, b) => infix(out, ["", " == ", ""], a, b, write_iexpr),
        Cond::And(a, b) => infix(out, ["(", " && ", ")"], &**a, &**b, write_cond),
        Cond::Or(a, b) => infix(out, ["(", " || ", ")"], &**a, &**b, write_cond),
        Cond::Not(a) => {
            out.push_str("!(");
            write_cond(out, a);
            out.push(')');
        }
    }
}

/// Appends a float expression as C.
fn write_fexpr(out: &mut String, e: &FExpr) {
    match e {
        FExpr::Reg(r) => put!(out, "r{r}"),
        FExpr::Const(c) => put!(out, "{c:?}f"),
        FExpr::Add(a, b) => infix(out, ["(", " + ", ")"], &**a, &**b, write_fexpr),
        FExpr::Sub(a, b) => infix(out, ["(", " - ", ")"], &**a, &**b, write_fexpr),
        FExpr::Mul(a, b) => infix(out, ["(", " * ", ")"], &**a, &**b, write_fexpr),
        FExpr::Sqrt(a) => {
            out.push_str("sqrtf(");
            write_fexpr(out, a);
            out.push(')');
        }
    }
}

/// Appends `[e]` per index expression.
fn write_idx(out: &mut String, index: &[IExpr]) {
    for e in index {
        out.push('[');
        write_iexpr(out, e);
        out.push(']');
    }
}

/// Runs one of the printers into a fresh `String`.
fn rendered<T>(put: Put<T>, node: &T) -> String {
    let mut out = String::new();
    put(&mut out, node);
    out
}

/// Renders an integer expression as C.
pub fn iexpr_to_c(e: &IExpr) -> String {
    rendered(write_iexpr, e)
}

/// Renders a condition as C.
pub fn cond_to_c(c: &Cond) -> String {
    rendered(write_cond, c)
}

/// Renders a float expression as C.
pub fn fexpr_to_c(e: &FExpr) -> String {
    rendered(write_fexpr, e)
}

/// Appends `depth` levels of two-space indentation.
fn pad(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_stmts(out: &mut String, stmts: &[Stmt], kernel: &Kernel, depth: usize) {
    for s in stmts {
        pad(out, depth);
        match s {
            Stmt::SetVar { var, value } => {
                put!(out, "int v{var} = ");
                write_iexpr(out, value);
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                put!(out, "for (int v{var} = ");
                write_iexpr(out, lo);
                put!(out, "; v{var} < ");
                write_iexpr(out, hi);
                let _ = writeln!(out, "; v{var} += {step}) {{");
                emit_stmts(out, body, kernel, depth + 1);
                pad(out, depth);
                out.push_str("}\n");
                continue;
            }
            Stmt::If { cond, then_, else_ } => {
                out.push_str("if (");
                write_cond(out, cond);
                out.push_str(") {\n");
                emit_stmts(out, then_, kernel, depth + 1);
                if !else_.is_empty() {
                    pad(out, depth);
                    out.push_str("} else {\n");
                    emit_stmts(out, else_, kernel, depth + 1);
                }
                pad(out, depth);
                out.push_str("}\n");
                continue;
            }
            Stmt::GlobalLoad {
                dst,
                field,
                plane,
                index,
            } => {
                put!(out, "r{dst} = g{field}[");
                write_iexpr(out, plane);
                out.push(']');
                write_idx(out, index);
            }
            Stmt::GlobalStore {
                field,
                plane,
                index,
                src,
            } => {
                put!(out, "g{field}[");
                write_iexpr(out, plane);
                out.push(']');
                write_idx(out, index);
                out.push_str(" = ");
                write_fexpr(out, src);
            }
            Stmt::SharedLoad { dst, buf, index } => {
                put!(out, "r{dst} = {}", kernel.shared[*buf].name);
                write_idx(out, index);
            }
            Stmt::SharedStore { buf, index, src } => {
                out.push_str(&kernel.shared[*buf].name);
                write_idx(out, index);
                out.push_str(" = ");
                write_fexpr(out, src);
            }
            Stmt::Compute { dst, expr } => {
                put!(out, "r{dst} = ");
                write_fexpr(out, expr);
            }
            Stmt::Sync => out.push_str("__syncthreads()"),
        }
        out.push_str(";\n");
    }
}

/// Appends a full kernel as C-family source under `dialect` (the
/// per-plan `dialect.prologue` is *not* included — plan emission owns
/// it, so multi-kernel plans include the runtime header exactly once).
pub(crate) fn write_kernel(out: &mut String, kernel: &Kernel, dialect: &CDialect) {
    let ([x, y, z], smem) = (kernel.block_dim, kernel.shared_bytes());
    let _ = writeln!(out, "// block {x}x{y}x{z}, {smem} bytes shared");
    out.push_str("__global__");
    if dialect.launch_bounds {
        put!(out, " __launch_bounds__({})", kernel.threads_per_block());
    }
    put!(out, " void {}(float *g0 /* .. per field */, ", kernel.name);
    for p in 0..kernel.n_params {
        put!(out, "{}int p{p}", if p == 0 { "" } else { ", " });
    }
    out.push_str(") {\n");
    for b in &kernel.shared {
        put!(out, "  __shared__ float {}", b.name);
        for d in &b.dims {
            put!(out, "[{d}]");
        }
        out.push_str(";\n");
    }
    let last = kernel.n_regs.saturating_sub(1);
    let _ = writeln!(out, "  float r0 /* .. r{last} */;");
    emit_stmts(out, &kernel.body, kernel, 1);
    out.push_str("}\n");
}

/// Renders a full kernel as C-family source under `dialect`.
pub fn kernel_to_c(kernel: &Kernel, dialect: &CDialect) -> String {
    let mut out = String::new();
    write_kernel(&mut out, kernel, dialect);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_render_every_variant_as_before_streaming() {
        // The expected strings are the renderings of the `format!`-per-node
        // printer this module replaced, on a tree with every variant.
        fn b<T>(node: T) -> Box<T> {
            Box::new(node)
        }
        let lanes = IExpr::Add(
            b(IExpr::ThreadIdx(0)),
            b(IExpr::Sub(b(IExpr::ThreadIdx(1)), b(IExpr::ThreadIdx(2)))),
        );
        let scaled = IExpr::Mul(b(IExpr::BlockIdx), b(IExpr::Const(-7)));
        let e = IExpr::Min(
            b(IExpr::Max(b(lanes), b(IExpr::FloorDiv(b(scaled), 4)))),
            b(IExpr::Mod(
                b(IExpr::Add(b(IExpr::Var(3)), b(IExpr::Param(1)))),
                5,
            )),
        );
        let e_text = "min(max((threadIdx.x + (threadIdx.y - threadIdx.z)), \
                      floord((blockIdx.x * -7), 4)), pmod((v3 + p1), 5))";
        assert_eq!(iexpr_to_c(&e), e_text);

        let (v, k) = (|| IExpr::Var(0), |c| IExpr::Const(c));
        let c = Cond::Or(
            b(Cond::And(b(Cond::Le(v(), k(-1))), b(Cond::Lt(e, k(9))))),
            b(Cond::Not(b(Cond::And(
                b(Cond::Eq(v(), k(0))),
                b(Cond::True),
            )))),
        );
        assert_eq!(
            cond_to_c(&c),
            format!("((v0 <= -1 && {e_text} < 9) || !((v0 == 0 && 1)))")
        );

        let f = FExpr::Sqrt(b(FExpr::Sub(
            b(FExpr::Add(b(FExpr::Reg(2)), b(FExpr::Const(-0.0)))),
            b(FExpr::Mul(b(FExpr::Const(1e-7)), b(FExpr::Const(0.25)))),
        )));
        assert_eq!(fexpr_to_c(&f), "sqrtf(((r2 + -0.0f) - (1e-7f * 0.25f)))");
    }
}

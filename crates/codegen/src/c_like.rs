//! Shared C-family formatter layer.
//!
//! CUDA-C and HIP-C kernels differ only at the translation-unit edges
//! (include prologue, launch-bounds annotation); every expression,
//! condition and statement prints identically. This module owns that
//! common grammar once, parameterized by a tiny [`CDialect`], so the
//! `cuda` and `hip` backends cannot drift apart statement-by-statement.
//! The historical entry points (`cuda_emit::iexpr_to_c` and friends)
//! re-export from here unchanged.

use crate::ir::{Cond, CondId, FExpr, FExprId, IExpr, IExprId, Indices, Kernel, Pool, Stmt};
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

/// One of the `write_*` printers: appends a node of `pool` to the caller's
/// buffer.
type Put<T> = fn(&mut String, &Pool, T);

/// `{open}{a}{op}{b}{close}` — every binary node of the three grammars.
fn infix<T>(out: &mut String, pool: &Pool, [open, op, close]: [&str; 3], a: T, b: T, put: Put<T>) {
    out.push_str(open);
    put(out, pool, a);
    out.push_str(op);
    put(out, pool, b);
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
pub(crate) fn write_iexpr(out: &mut String, pool: &Pool, e: IExprId) {
    let bin = |out: &mut String, parts, a, b| infix(out, pool, parts, a, b, write_iexpr);
    match pool[e] {
        IExpr::Const(c) => put!(out, "{c}"),
        IExpr::Var(v) => put!(out, "v{v}"),
        IExpr::Param(p) => put!(out, "p{p}"),
        IExpr::ThreadIdx(d) => put!(out, "threadIdx.{}", ['x', 'y', 'z'][usize::from(d).min(2)]),
        IExpr::BlockIdx => out.push_str("blockIdx.x"),
        IExpr::Add(a, b) => bin(out, ["(", " + ", ")"], a, b),
        IExpr::Sub(a, b) => bin(out, ["(", " - ", ")"], a, b),
        IExpr::Mul(a, b) => bin(out, ["(", " * ", ")"], a, b),
        IExpr::Min(a, b) => bin(out, ["min(", ", ", ")"], a, b),
        IExpr::Max(a, b) => bin(out, ["max(", ", ", ")"], a, b),
        IExpr::FloorDiv(a, k) | IExpr::Mod(a, k) => {
            let f = if matches!(pool[e], IExpr::Mod(..)) {
                "pmod"
            } else {
                "floord"
            };
            put!(out, "{f}(");
            write_iexpr(out, pool, a);
            put!(out, ", {k})");
        }
    }
}

/// Appends a condition as C.
fn write_cond(out: &mut String, pool: &Pool, c: CondId) {
    let cmp = |out: &mut String, op, a, b| infix(out, pool, ["", op, ""], a, b, write_iexpr);
    match pool[c] {
        Cond::True => out.push('1'),
        Cond::Le(a, b) => cmp(out, " <= ", a, b),
        Cond::Lt(a, b) => cmp(out, " < ", a, b),
        Cond::Eq(a, b) => cmp(out, " == ", a, b),
        Cond::And(a, b) => infix(out, pool, ["(", " && ", ")"], a, b, write_cond),
        Cond::Or(a, b) => infix(out, pool, ["(", " || ", ")"], a, b, write_cond),
        Cond::Not(a) => {
            out.push_str("!(");
            write_cond(out, pool, a);
            out.push(')');
        }
    }
}

/// Appends a float expression as C.
fn write_fexpr(out: &mut String, pool: &Pool, e: FExprId) {
    let bin = |out: &mut String, parts, a, b| infix(out, pool, parts, a, b, write_fexpr);
    match pool[e] {
        FExpr::Reg(r) => put!(out, "r{r}"),
        FExpr::Const(c) => put!(out, "{c:?}f"),
        FExpr::Add(a, b) => bin(out, ["(", " + ", ")"], a, b),
        FExpr::Sub(a, b) => bin(out, ["(", " - ", ")"], a, b),
        FExpr::Mul(a, b) => bin(out, ["(", " * ", ")"], a, b),
        FExpr::Sqrt(a) => {
            out.push_str("sqrtf(");
            write_fexpr(out, pool, a);
            out.push(')');
        }
    }
}

/// Appends `[e]` per index expression.
fn write_idx(out: &mut String, pool: &Pool, index: Indices) {
    for &e in &pool[index] {
        out.push('[');
        write_iexpr(out, pool, e);
        out.push(']');
    }
}

/// Runs one of the printers into a fresh `String`.
fn rendered<T>(put: Put<T>, pool: &Pool, node: T) -> String {
    let mut out = String::new();
    put(&mut out, pool, node);
    out
}

/// Renders an integer expression of `pool` as C.
pub fn iexpr_to_c(pool: &Pool, e: IExprId) -> String {
    rendered(write_iexpr, pool, e)
}

/// Renders a condition of `pool` as C.
pub fn cond_to_c(pool: &Pool, c: CondId) -> String {
    rendered(write_cond, pool, c)
}

/// Renders a float expression of `pool` as C.
pub fn fexpr_to_c(pool: &Pool, e: FExprId) -> String {
    rendered(write_fexpr, pool, e)
}

/// Appends `depth` levels of two-space indentation.
fn pad(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_stmts(out: &mut String, stmts: &[Stmt], kernel: &Kernel, depth: usize) {
    let pool = &*kernel.pool;
    for s in stmts {
        pad(out, depth);
        match s {
            Stmt::SetVar { var, value } => {
                put!(out, "int v{var} = ");
                write_iexpr(out, pool, *value);
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                put!(out, "for (int v{var} = ");
                write_iexpr(out, pool, *lo);
                put!(out, "; v{var} < ");
                write_iexpr(out, pool, *hi);
                let _ = writeln!(out, "; v{var} += {step}) {{");
                emit_stmts(out, body, kernel, depth + 1);
                pad(out, depth);
                out.push_str("}\n");
                continue;
            }
            Stmt::If { cond, then_, else_ } => {
                out.push_str("if (");
                write_cond(out, pool, *cond);
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
                write_iexpr(out, pool, *plane);
                out.push(']');
                write_idx(out, pool, *index);
            }
            Stmt::GlobalStore {
                field,
                plane,
                index,
                src,
            } => {
                put!(out, "g{field}[");
                write_iexpr(out, pool, *plane);
                out.push(']');
                write_idx(out, pool, *index);
                out.push_str(" = ");
                write_fexpr(out, pool, *src);
            }
            Stmt::SharedLoad { dst, buf, index } => {
                put!(out, "r{dst} = {}", kernel.shared[*buf].name);
                write_idx(out, pool, *index);
            }
            Stmt::SharedStore { buf, index, src } => {
                out.push_str(&kernel.shared[*buf].name);
                write_idx(out, pool, *index);
                out.push_str(" = ");
                write_fexpr(out, pool, *src);
            }
            Stmt::Compute { dst, expr } => {
                put!(out, "r{dst} = ");
                write_fexpr(out, pool, *expr);
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
    use crate::ir::PoolBuilder;

    #[test]
    fn wrappers_render_every_variant_as_before_streaming() {
        // The expected strings are the renderings of the `format!`-per-node
        // printer this module replaced, on an expression with every variant.
        let p = PoolBuilder::default();
        let [tx, ty, tz] = [0, 1, 2].map(|d| p.iexpr(IExpr::ThreadIdx(d)));
        let diff = p.iexpr(IExpr::Sub(ty, tz));
        let lanes = p.iexpr(IExpr::Add(tx, diff));
        let (block, minus7) = (p.iexpr(IExpr::BlockIdx), p.lit(-7));
        let scaled = p.iexpr(IExpr::Mul(block, minus7));
        let quotient = p.iexpr(IExpr::FloorDiv(scaled, 4));
        let max = p.iexpr(IExpr::Max(lanes, quotient));
        let (v3, p1) = (p.var(3), p.iexpr(IExpr::Param(1)));
        let sum = p.iexpr(IExpr::Add(v3, p1));
        let rem = p.iexpr(IExpr::Mod(sum, 5));
        let e = p.iexpr(IExpr::Min(max, rem));
        let e_text = "min(max((threadIdx.x + (threadIdx.y - threadIdx.z)), \
                      floord((blockIdx.x * -7), 4)), pmod((v3 + p1), 5))";

        let (v, [m1, k0, k9]) = (p.var(0), [-1, 0, 9].map(|c| p.lit(c)));
        let [le, lt, eq, t] = [
            Cond::Le(v, m1),
            Cond::Lt(e, k9),
            Cond::Eq(v, k0),
            Cond::True,
        ]
        .map(|c| p.cond(c));
        let (both, eq_t) = (p.cond(Cond::And(le, lt)), p.cond(Cond::And(eq, t)));
        let not = p.cond(Cond::Not(eq_t));
        let c = p.cond(Cond::Or(both, not));

        let [r2, z, tiny, quarter] = [
            FExpr::Reg(2),
            FExpr::Const(-0.0),
            FExpr::Const(1e-7),
            FExpr::Const(0.25),
        ]
        .map(|f| p.fexpr(f));
        let (sum, prod) = (
            p.fexpr(FExpr::Add(r2, z)),
            p.fexpr(FExpr::Mul(tiny, quarter)),
        );
        let diff = p.fexpr(FExpr::Sub(sum, prod));
        let f = p.fexpr(FExpr::Sqrt(diff));
        let p = p.finish();
        assert_eq!(iexpr_to_c(&p, e), e_text);
        assert_eq!(
            cond_to_c(&p, c),
            format!("((v0 <= -1 && {e_text} < 9) || !((v0 == 0 && 1)))")
        );
        assert_eq!(fexpr_to_c(&p, f), "sqrtf(((r2 + -0.0f) - (1e-7f * 0.25f)))");
    }
}

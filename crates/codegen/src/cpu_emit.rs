//! Whole-block vectorized CPU lowering of kernel IR to portable C.
//!
//! One GPU thread block becomes one C function; the block's threads
//! become `lane` iterations of short per-statement loops. Running every
//! lane through statement *N* before any lane reaches statement *N+1*
//! is statement-level lockstep, which makes every `__syncthreads()`
//! point barrier-synchronous by construction — the barrier erases to a
//! comment. Divergent `if`s (conditions that mention `threadIdx` or a
//! thread-dependent variable) become per-lane mask arrays guarding the
//! lane loops underneath, exactly the predication a SIMD compiler would
//! apply.
//!
//! Unlike the schematic CUDA/HIP artifacts (whose multi-dimensional
//! global subscripts document the access pattern rather than compile),
//! this emitter produces genuine C99: globals are flat `float *`
//! per-field pointers subscripted through caller-supplied `long`
//! strides, so `cc -c` accepts every artifact (CI checks this). The
//! in-process executable twin is the `gpusim` bytecode path (the
//! production executor compiles the same IR to flat op streams), which
//! the driver's verify step checks bit-exact against the sequential
//! stencil oracle.
//!
//! Variable classification: a `v` is **lane-dependent** if its value
//! expression mentions `threadIdx` or another lane-dependent variable,
//! or if it is assigned under a divergent branch (all lanes must keep
//! their own copy then). Lane-dependent variables print as
//! `int vN[TPB]`, uniform ones as scalars. `For` loop variables are
//! always uniform — the IR contract guarantees thread-independent loop
//! bounds. Float registers are always per-lane.

use crate::ir::{visit, Cond, CondId, FExpr, FExprId, IExpr, IExprId, Indices, Kernel, Pool, Stmt};
use std::collections::HashSet;
use std::fmt::Write;

/// Translation-unit prologue for a CPU plan: the integer helpers the
/// expression grammar relies on (plain C has no `min`/`max`).
pub const CPU_PROLOGUE: &str = "\
// Vectorized whole-block CPU lowering: one function per kernel, one
// `lane` loop iteration per GPU thread. Statement-level lockstep makes
// every former __syncthreads() barrier-synchronous by construction.
#include <math.h>

static inline int floord(int a, int b) {
  int q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}
static inline int pmod(int a, int b) { int r = a % b; return r < 0 ? r + b : r; }
static inline int min(int a, int b) { return a < b ? a : b; }
static inline int max(int a, int b) { return a > b ? a : b; }

";

struct Ctx<'a> {
    kernel: &'a Kernel,
    lane_dep: HashSet<usize>,
    tpb: usize,
}

fn iexpr_mentions_lane(pool: &Pool, e: IExprId, lane_dep: &HashSet<usize>) -> bool {
    let mentions = |e| iexpr_mentions_lane(pool, e, lane_dep);
    match pool[e] {
        IExpr::Const(_) | IExpr::Param(_) | IExpr::BlockIdx => false,
        IExpr::ThreadIdx(_) => true,
        IExpr::Var(v) => lane_dep.contains(&v),
        IExpr::Add(a, b)
        | IExpr::Sub(a, b)
        | IExpr::Mul(a, b)
        | IExpr::Min(a, b)
        | IExpr::Max(a, b) => mentions(a) || mentions(b),
        IExpr::FloorDiv(a, _) | IExpr::Mod(a, _) => mentions(a),
    }
}

fn cond_mentions_lane(pool: &Pool, c: CondId, lane_dep: &HashSet<usize>) -> bool {
    let mentions = |c| cond_mentions_lane(pool, c, lane_dep);
    match pool[c] {
        Cond::True => false,
        Cond::Le(a, b) | Cond::Lt(a, b) | Cond::Eq(a, b) => {
            iexpr_mentions_lane(pool, a, lane_dep) || iexpr_mentions_lane(pool, b, lane_dep)
        }
        Cond::And(a, b) | Cond::Or(a, b) => mentions(a) || mentions(b),
        Cond::Not(a) => mentions(a),
    }
}

/// One pass of the classification fixed point; returns true if the set
/// grew. `divergent` tracks whether we are under a lane-dependent `if`.
fn classify(pool: &Pool, stmts: &[Stmt], lane_dep: &mut HashSet<usize>, divergent: bool) -> bool {
    let mut grew = false;
    for s in stmts {
        match s {
            Stmt::SetVar { var, value }
                if divergent || iexpr_mentions_lane(pool, *value, lane_dep) =>
            {
                grew |= lane_dep.insert(*var);
            }
            Stmt::For { body, .. } => {
                // Loop variables stay uniform (thread-independent bounds
                // are an IR invariant); only the body is walked.
                grew |= classify(pool, body, lane_dep, divergent);
            }
            Stmt::If { cond, then_, else_ } => {
                let div = divergent || cond_mentions_lane(pool, *cond, lane_dep);
                grew |= classify(pool, then_, lane_dep, div);
                grew |= classify(pool, else_, lane_dep, div);
            }
            _ => {}
        }
    }
    grew
}

/// Deepest nesting of divergent `if`s — how many mask arrays we need.
fn mask_depth(pool: &Pool, stmts: &[Stmt], lane_dep: &HashSet<usize>, divergent: bool) -> usize {
    let mut deepest = 0;
    for s in stmts {
        let d = match s {
            Stmt::For { body, .. } => mask_depth(pool, body, lane_dep, divergent),
            Stmt::If { cond, then_, else_ } => {
                let div = divergent || cond_mentions_lane(pool, *cond, lane_dep);
                let depth = |arm| mask_depth(pool, arm, lane_dep, div);
                let inner = depth(then_).max(depth(else_));
                if div {
                    inner + 1
                } else {
                    inner
                }
            }
            _ => 0,
        };
        deepest = deepest.max(d);
    }
    deepest
}

fn iexpr_to_cpu(e: IExprId, ctx: &Ctx) -> String {
    let [bx, by, _] = ctx.kernel.block_dim;
    match ctx.kernel.pool[e] {
        IExpr::Const(c) => format!("{c}"),
        IExpr::Var(v) if ctx.lane_dep.contains(&v) => format!("v{v}[lane]"),
        IExpr::Var(v) => format!("v{v}"),
        IExpr::Param(p) => format!("p{p}"),
        IExpr::ThreadIdx(0) => format!("(lane % {bx})"),
        IExpr::ThreadIdx(1) => format!("((lane / {bx}) % {by})"),
        IExpr::ThreadIdx(_) => format!("(lane / {})", bx * by),
        IExpr::BlockIdx => "blockIdx".into(),
        IExpr::Add(a, b) => format!("({} + {})", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        IExpr::Sub(a, b) => format!("({} - {})", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        IExpr::Mul(a, b) => format!("({} * {})", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        IExpr::FloorDiv(a, k) => format!("floord({}, {k})", iexpr_to_cpu(a, ctx)),
        IExpr::Mod(a, k) => format!("pmod({}, {k})", iexpr_to_cpu(a, ctx)),
        IExpr::Min(a, b) => format!("min({}, {})", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        IExpr::Max(a, b) => format!("max({}, {})", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
    }
}

fn cond_to_cpu(c: CondId, ctx: &Ctx) -> String {
    match ctx.kernel.pool[c] {
        Cond::True => "1".into(),
        Cond::Le(a, b) => format!("{} <= {}", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        Cond::Lt(a, b) => format!("{} < {}", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        Cond::Eq(a, b) => format!("{} == {}", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        Cond::And(a, b) => format!("({} && {})", cond_to_cpu(a, ctx), cond_to_cpu(b, ctx)),
        Cond::Or(a, b) => format!("({} || {})", cond_to_cpu(a, ctx), cond_to_cpu(b, ctx)),
        Cond::Not(a) => format!("!({})", cond_to_cpu(a, ctx)),
    }
}

fn fexpr_to_cpu(e: FExprId, pool: &Pool) -> String {
    let fexpr_to_cpu = |e| fexpr_to_cpu(e, pool);
    match pool[e] {
        FExpr::Reg(r) => format!("r{r}[lane]"),
        FExpr::Const(c) => format!("{c:?}f"),
        FExpr::Add(a, b) => format!("({} + {})", fexpr_to_cpu(a), fexpr_to_cpu(b)),
        FExpr::Sub(a, b) => format!("({} - {})", fexpr_to_cpu(a), fexpr_to_cpu(b)),
        FExpr::Mul(a, b) => format!("({} * {})", fexpr_to_cpu(a), fexpr_to_cpu(b)),
        FExpr::Sqrt(a) => format!("sqrtf({})", fexpr_to_cpu(a)),
    }
}

fn idx_to_cpu(index: Indices, ctx: &Ctx) -> String {
    ctx.kernel.pool[index]
        .iter()
        .map(|&e| format!("[{}]", iexpr_to_cpu(e, ctx)))
        .collect()
}

/// `(fields, spatial dims)` of the kernel's global accesses: how many
/// per-field pointers the signature needs, and how many stride
/// parameters flatten an access.
fn global_shape(kernel: &Kernel) -> (usize, usize) {
    let (mut fields, mut nd) = (0usize, 0usize);
    visit(&kernel.body, &mut |s| {
        let (field, index) = match s {
            Stmt::GlobalLoad { field, index, .. } => (field, index),
            Stmt::GlobalStore { field, index, .. } => (field, index),
            _ => return,
        };
        fields = fields.max(field + 1);
        nd = nd.max(kernel.pool[*index].len());
    });
    (fields.max(1), nd.max(1))
}

/// One flat global subscript: `plane * plane_stride + i0 * stride0 +
/// ... + i_last`. The strides are `long` function parameters, so the
/// whole expression promotes past `int` before any multiply.
fn gflat(plane: IExprId, index: Indices, ctx: &Ctx) -> String {
    let index = &ctx.kernel.pool[index];
    let mut terms = vec![format!("{} * plane_stride", iexpr_to_cpu(plane, ctx))];
    for (d, &e) in index.iter().enumerate() {
        if d + 1 == index.len() {
            terms.push(iexpr_to_cpu(e, ctx));
        } else {
            terms.push(format!("{} * stride{d}", iexpr_to_cpu(e, ctx)));
        }
    }
    terms.join(" + ")
}

/// Emit one per-lane leaf statement wrapped in its lane loop, guarded by
/// `mask` when inside a divergent branch.
fn lane_stmt(out: &mut String, pad: &str, ctx: &Ctx, mask: Option<usize>, line: &str) {
    let _ = writeln!(
        out,
        "{pad}for (int lane = 0; lane < {}; ++lane) {{",
        ctx.tpb
    );
    if let Some(m) = mask {
        let _ = writeln!(out, "{pad}  if (!m{m}[lane]) continue;");
    }
    let _ = writeln!(out, "{pad}  {line}");
    let _ = writeln!(out, "{pad}}}");
}

fn emit_stmts(out: &mut String, stmts: &[Stmt], ctx: &Ctx, depth: usize, mask: Option<usize>) {
    let (pad, pool) = ("  ".repeat(depth), &*ctx.kernel.pool);
    for s in stmts {
        match s {
            Stmt::SetVar { var, value } => {
                if ctx.lane_dep.contains(var) {
                    let line = format!("v{var}[lane] = {};", iexpr_to_cpu(*value, ctx));
                    lane_stmt(out, &pad, ctx, mask, &line);
                } else {
                    let _ = writeln!(out, "{pad}v{var} = {};", iexpr_to_cpu(*value, ctx));
                }
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
                    "{pad}for (v{var} = {}; v{var} < {}; v{var} += {step}) {{",
                    iexpr_to_cpu(*lo, ctx),
                    iexpr_to_cpu(*hi, ctx)
                );
                emit_stmts(out, body, ctx, depth + 1, mask);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::If { cond, then_, else_ } => {
                let divergent = mask.is_some() || cond_mentions_lane(pool, *cond, &ctx.lane_dep);
                if !divergent {
                    let _ = writeln!(out, "{pad}if ({}) {{", cond_to_cpu(*cond, ctx));
                    emit_stmts(out, then_, ctx, depth + 1, None);
                    if else_.is_empty() {
                        let _ = writeln!(out, "{pad}}}");
                    } else {
                        let _ = writeln!(out, "{pad}}} else {{");
                        emit_stmts(out, else_, ctx, depth + 1, None);
                        let _ = writeln!(out, "{pad}}}");
                    }
                } else {
                    let m = mask.map_or(0, |m| m + 1);
                    let parent = mask.map_or(String::new(), |p| format!("m{p}[lane] && "));
                    let line = format!("m{m}[lane] = {parent}({});", cond_to_cpu(*cond, ctx));
                    lane_stmt(out, &pad, ctx, None, &line);
                    emit_stmts(out, then_, ctx, depth, Some(m));
                    if !else_.is_empty() {
                        // parent && !cond  ==  parent && !(parent && cond)
                        let flip = format!("m{m}[lane] = {parent}!m{m}[lane];");
                        lane_stmt(out, &pad, ctx, None, &flip);
                        emit_stmts(out, else_, ctx, depth, Some(m));
                    }
                }
            }
            Stmt::GlobalLoad {
                dst,
                field,
                plane,
                index,
            } => {
                let line = format!("r{dst}[lane] = g{field}[{}];", gflat(*plane, *index, ctx));
                lane_stmt(out, &pad, ctx, mask, &line);
            }
            Stmt::GlobalStore {
                field,
                plane,
                index,
                src,
            } => {
                let line = format!(
                    "g{field}[{}] = {};",
                    gflat(*plane, *index, ctx),
                    fexpr_to_cpu(*src, pool)
                );
                lane_stmt(out, &pad, ctx, mask, &line);
            }
            Stmt::SharedLoad { dst, buf, index } => {
                let name = &ctx.kernel.shared[*buf].name;
                let line = format!("r{dst}[lane] = {name}{};", idx_to_cpu(*index, ctx));
                lane_stmt(out, &pad, ctx, mask, &line);
            }
            Stmt::SharedStore { buf, index, src } => {
                let name = &ctx.kernel.shared[*buf].name;
                let line = format!(
                    "{name}{} = {};",
                    idx_to_cpu(*index, ctx),
                    fexpr_to_cpu(*src, pool)
                );
                lane_stmt(out, &pad, ctx, mask, &line);
            }
            Stmt::Compute { dst, expr } => {
                let line = format!("r{dst}[lane] = {};", fexpr_to_cpu(*expr, pool));
                lane_stmt(out, &pad, ctx, mask, &line);
            }
            Stmt::Sync => {
                let _ = writeln!(
                    out,
                    "{pad}/* __syncthreads(): lane loops run in statement lockstep */"
                );
            }
        }
    }
}

/// Renders a full kernel as one vectorized C function executing an
/// entire thread block.
pub fn kernel_to_cpu(kernel: &Kernel) -> String {
    let mut lane_dep = HashSet::new();
    while classify(&kernel.pool, &kernel.body, &mut lane_dep, false) {}
    let tpb = kernel.threads_per_block();
    let ctx = Ctx {
        kernel,
        lane_dep,
        tpb,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// block {}x{}x{} = {} lanes, {} bytes block-local",
        kernel.block_dim[0],
        kernel.block_dim[1],
        kernel.block_dim[2],
        tpb,
        kernel.shared_bytes()
    );
    let (fields, nd) = global_shape(kernel);
    let mut params: Vec<String> = (0..fields).map(|f| format!("float *g{f}")).collect();
    params.push("long plane_stride".into());
    params.extend((0..nd.saturating_sub(1)).map(|d| format!("long stride{d}")));
    params.extend((0..kernel.n_params).map(|p| format!("int p{p}")));
    params.push("int blockIdx".into());
    let _ = writeln!(out, "static void {}({}) {{", kernel.name, params.join(", "));
    for b in &kernel.shared {
        let dims: String = b.dims.iter().map(|d| format!("[{d}]")).collect();
        let _ = writeln!(out, "  float {}{dims};", b.name);
    }
    for v in 0..kernel.n_vars {
        if ctx.lane_dep.contains(&v) {
            let _ = writeln!(out, "  int v{v}[{tpb}];");
        } else {
            let _ = writeln!(out, "  int v{v} = 0;");
        }
    }
    for r in 0..kernel.n_regs {
        let _ = writeln!(out, "  float r{r}[{tpb}];");
    }
    for m in 0..mask_depth(&kernel.pool, &kernel.body, &ctx.lane_dep, false) {
        let _ = writeln!(out, "  int m{m}[{tpb}];");
    }
    emit_stmts(&mut out, &kernel.body, &ctx, 1, None);
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
        let (zero, four, hundred) = (p.lit(0), p.lit(4), p.lit(100));
        let cond = p.cond(Cond::Lt(v0, hundred));
        let (plane, column) = (p.modulo(p0, 2), p.modulo(tx, 10));
        let (gidx, sidx) = (p.indices(&[v0]), p.indices(&[zero, column]));
        let (src, nought) = (p.fexpr(FExpr::Reg(0)), p.fexpr(FExpr::Const(0.0)));
        Kernel {
            name: "demo".into(),
            block_dim: [32, 1, 1],
            shared: vec![SharedBuf {
                name: "s_A".into(),
                dims: vec![2, 10],
            }],
            n_vars: 2,
            n_regs: 2,
            n_params: 1,
            pool: Arc::new(p.finish()),
            body: vec![
                Stmt::SetVar { var: 0, value },
                Stmt::For {
                    var: 1,
                    lo: zero,
                    hi: four,
                    step: 1,
                    body: vec![Stmt::If {
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
                        else_: vec![Stmt::Compute {
                            dst: 1,
                            expr: nought,
                        }],
                    }],
                },
                Stmt::Sync,
            ],
        }
    }

    #[test]
    fn divergent_ifs_become_masked_lane_loops() {
        let src = kernel_to_cpu(&demo_kernel());
        assert!(
            src.contains("int v0[32];"),
            "v0 is thread-dependent:\n{src}"
        );
        assert!(
            src.contains("int v1 = 0;"),
            "loop var stays uniform:\n{src}"
        );
        assert!(src.contains("for (int lane = 0; lane < 32; ++lane)"));
        assert!(src.contains("m0[lane] = (v0[lane] < 100);"));
        assert!(src.contains("if (!m0[lane]) continue;"));
        assert!(
            src.contains("m0[lane] = !m0[lane];"),
            "else branch flips the mask"
        );
        assert!(src.contains("/* __syncthreads()"));
        assert!(!src.contains("threadIdx"));
        assert!(!src.contains("__shared__"));
    }

    #[test]
    fn uniform_control_flow_stays_scalar() {
        let src = kernel_to_cpu(&demo_kernel());
        assert!(src.contains("for (v1 = 0; v1 < 4; v1 += 1) {"));
    }
}

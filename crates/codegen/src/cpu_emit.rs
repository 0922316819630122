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

use crate::ir::{Cond, FExpr, IExpr, Kernel, Stmt};
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

fn iexpr_mentions_lane(e: &IExpr, lane_dep: &HashSet<usize>) -> bool {
    match e {
        IExpr::Const(_) | IExpr::Param(_) | IExpr::BlockIdx => false,
        IExpr::ThreadIdx(_) => true,
        IExpr::Var(v) => lane_dep.contains(v),
        IExpr::Add(a, b)
        | IExpr::Sub(a, b)
        | IExpr::Mul(a, b)
        | IExpr::Min(a, b)
        | IExpr::Max(a, b) => iexpr_mentions_lane(a, lane_dep) || iexpr_mentions_lane(b, lane_dep),
        IExpr::FloorDiv(a, _) | IExpr::Mod(a, _) => iexpr_mentions_lane(a, lane_dep),
    }
}

fn cond_mentions_lane(c: &Cond, lane_dep: &HashSet<usize>) -> bool {
    match c {
        Cond::True => false,
        Cond::Le(a, b) | Cond::Lt(a, b) | Cond::Eq(a, b) => {
            iexpr_mentions_lane(a, lane_dep) || iexpr_mentions_lane(b, lane_dep)
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            cond_mentions_lane(a, lane_dep) || cond_mentions_lane(b, lane_dep)
        }
        Cond::Not(a) => cond_mentions_lane(a, lane_dep),
    }
}

/// One pass of the classification fixed point; returns true if the set
/// grew. `divergent` tracks whether we are under a lane-dependent `if`.
fn classify(stmts: &[Stmt], lane_dep: &mut HashSet<usize>, divergent: bool) -> bool {
    let mut grew = false;
    for s in stmts {
        match s {
            Stmt::SetVar { var, value } if divergent || iexpr_mentions_lane(value, lane_dep) => {
                grew |= lane_dep.insert(*var);
            }
            Stmt::For { body, .. } => {
                // Loop variables stay uniform (thread-independent bounds
                // are an IR invariant); only the body is walked.
                grew |= classify(body, lane_dep, divergent);
            }
            Stmt::If { cond, then_, else_ } => {
                let div = divergent || cond_mentions_lane(cond, lane_dep);
                grew |= classify(then_, lane_dep, div);
                grew |= classify(else_, lane_dep, div);
            }
            _ => {}
        }
    }
    grew
}

/// Deepest nesting of divergent `if`s — how many mask arrays we need.
fn mask_depth(stmts: &[Stmt], lane_dep: &HashSet<usize>, divergent: bool) -> usize {
    let mut deepest = 0;
    for s in stmts {
        let d = match s {
            Stmt::For { body, .. } => mask_depth(body, lane_dep, divergent),
            Stmt::If { cond, then_, else_ } => {
                let div = divergent || cond_mentions_lane(cond, lane_dep);
                let inner = mask_depth(then_, lane_dep, div).max(mask_depth(else_, lane_dep, div));
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

fn iexpr_to_cpu(e: &IExpr, ctx: &Ctx) -> String {
    let [bx, by, _] = ctx.kernel.block_dim;
    match e {
        IExpr::Const(c) => format!("{c}"),
        IExpr::Var(v) if ctx.lane_dep.contains(v) => format!("v{v}[lane]"),
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

fn cond_to_cpu(c: &Cond, ctx: &Ctx) -> String {
    match c {
        Cond::True => "1".into(),
        Cond::Le(a, b) => format!("{} <= {}", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        Cond::Lt(a, b) => format!("{} < {}", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        Cond::Eq(a, b) => format!("{} == {}", iexpr_to_cpu(a, ctx), iexpr_to_cpu(b, ctx)),
        Cond::And(a, b) => format!("({} && {})", cond_to_cpu(a, ctx), cond_to_cpu(b, ctx)),
        Cond::Or(a, b) => format!("({} || {})", cond_to_cpu(a, ctx), cond_to_cpu(b, ctx)),
        Cond::Not(a) => format!("!({})", cond_to_cpu(a, ctx)),
    }
}

fn fexpr_to_cpu(e: &FExpr) -> String {
    match e {
        FExpr::Reg(r) => format!("r{r}[lane]"),
        FExpr::Const(c) => format!("{c:?}f"),
        FExpr::Add(a, b) => format!("({} + {})", fexpr_to_cpu(a), fexpr_to_cpu(b)),
        FExpr::Sub(a, b) => format!("({} - {})", fexpr_to_cpu(a), fexpr_to_cpu(b)),
        FExpr::Mul(a, b) => format!("({} * {})", fexpr_to_cpu(a), fexpr_to_cpu(b)),
        FExpr::Sqrt(a) => format!("sqrtf({})", fexpr_to_cpu(a)),
    }
}

fn idx_to_cpu(index: &[IExpr], ctx: &Ctx) -> String {
    index
        .iter()
        .map(|e| format!("[{}]", iexpr_to_cpu(e, ctx)))
        .collect()
}

/// Walks every statement in a body, recursing through control flow.
fn visit<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::For { body, .. } => visit(body, f),
            Stmt::If { then_, else_, .. } => {
                visit(then_, f);
                visit(else_, f);
            }
            _ => {}
        }
    }
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
        nd = nd.max(index.len());
    });
    (fields.max(1), nd.max(1))
}

/// One flat global subscript: `plane * plane_stride + i0 * stride0 +
/// ... + i_last`. The strides are `long` function parameters, so the
/// whole expression promotes past `int` before any multiply.
fn gflat(plane: &IExpr, index: &[IExpr], ctx: &Ctx) -> String {
    let mut terms = vec![format!("{} * plane_stride", iexpr_to_cpu(plane, ctx))];
    for (d, e) in index.iter().enumerate() {
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
    let pad = "  ".repeat(depth);
    for s in stmts {
        match s {
            Stmt::SetVar { var, value } => {
                if ctx.lane_dep.contains(var) {
                    let line = format!("v{var}[lane] = {};", iexpr_to_cpu(value, ctx));
                    lane_stmt(out, &pad, ctx, mask, &line);
                } else {
                    let _ = writeln!(out, "{pad}v{var} = {};", iexpr_to_cpu(value, ctx));
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
                    iexpr_to_cpu(lo, ctx),
                    iexpr_to_cpu(hi, ctx)
                );
                emit_stmts(out, body, ctx, depth + 1, mask);
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::If { cond, then_, else_ } => {
                let divergent = mask.is_some() || cond_mentions_lane(cond, &ctx.lane_dep);
                if !divergent {
                    let _ = writeln!(out, "{pad}if ({}) {{", cond_to_cpu(cond, ctx));
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
                    let line = format!("m{m}[lane] = {parent}({});", cond_to_cpu(cond, ctx));
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
                let line = format!("r{dst}[lane] = g{field}[{}];", gflat(plane, index, ctx));
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
                    gflat(plane, index, ctx),
                    fexpr_to_cpu(src)
                );
                lane_stmt(out, &pad, ctx, mask, &line);
            }
            Stmt::SharedLoad { dst, buf, index } => {
                let name = &ctx.kernel.shared[*buf].name;
                let line = format!("r{dst}[lane] = {name}{};", idx_to_cpu(index, ctx));
                lane_stmt(out, &pad, ctx, mask, &line);
            }
            Stmt::SharedStore { buf, index, src } => {
                let name = &ctx.kernel.shared[*buf].name;
                let line = format!("{name}{} = {};", idx_to_cpu(index, ctx), fexpr_to_cpu(src));
                lane_stmt(out, &pad, ctx, mask, &line);
            }
            Stmt::Compute { dst, expr } => {
                let line = format!("r{dst}[lane] = {};", fexpr_to_cpu(expr));
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
    while classify(&kernel.body, &mut lane_dep, false) {}
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
    for m in 0..mask_depth(&kernel.body, &ctx.lane_dep, false) {
        let _ = writeln!(out, "  int m{m}[{tpb}];");
    }
    emit_stmts(&mut out, &kernel.body, &ctx, 1, None);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::SharedBuf;

    fn demo_kernel() -> Kernel {
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
            body: vec![
                Stmt::SetVar {
                    var: 0,
                    value: IExpr::BlockIdx.scale(32).add(IExpr::ThreadIdx(0)),
                },
                Stmt::For {
                    var: 1,
                    lo: IExpr::Const(0),
                    hi: IExpr::Const(4),
                    step: 1,
                    body: vec![Stmt::If {
                        cond: Cond::Lt(IExpr::Var(0), IExpr::Const(100)),
                        then_: vec![
                            Stmt::GlobalLoad {
                                dst: 0,
                                field: 0,
                                plane: IExpr::Param(0).modulo(2),
                                index: vec![IExpr::Var(0)],
                            },
                            Stmt::SharedStore {
                                buf: 0,
                                index: vec![IExpr::Const(0), IExpr::ThreadIdx(0).modulo(10)],
                                src: FExpr::Reg(0),
                            },
                        ],
                        else_: vec![Stmt::Compute {
                            dst: 1,
                            expr: FExpr::Const(0.0),
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

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
//! Every expression, block head and plain statement prints through the
//! shared printer of [`crate::c_like`], under the `Lanes` spelling; this
//! module owns only what is the CPU's own: the lane loops, the masks and
//! the function around them.
//!
//! Variable classification: a `v` is **lane-dependent** if its value
//! expression is not lane-uniform (`ir::Pool::uniform_nodes`: it mentions
//! `threadIdx` or another lane-dependent variable), or if it is assigned
//! under a divergent branch (all lanes must keep their own copy then).
//! Lane-dependent variables print as `int vN[TPB]` and read as
//! `vN[lane]`, uniform ones as scalars. `For` loop variables are always
//! uniform — the IR contract guarantees thread-independent loop bounds.
//! Float registers are always per-lane.

use crate::c_like::{global_shape, pad, write_block, Spelling};
use crate::ir::{IExprId, Indices, Kernel, Pool, Stmt, Uniform};
use std::fmt::Write;

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

/// The CPU spelling: a lane-dependent var and every register are arrays
/// indexed by `lane`, the thread index is the lane's position in the
/// block, and a global access is one flat offset.
pub(crate) struct Lanes<'a> {
    /// The kernel printed.
    pub kernel: &'a Kernel,
    /// Whether each var is lane-uniform, by var.
    pub scalar: Vec<bool>,
    /// Whether each condition of the pool is lane-uniform, by id.
    pub uniform_conds: Vec<bool>,
}

impl Spelling for Lanes<'_> {
    const BLOCK_IDX: &'static str = "blockIdx";
    const DEFINE: &'static str = "";

    fn pool(&self) -> &Pool {
        &self.kernel.pool
    }

    fn var(&self, out: &mut String, v: usize) {
        let lane = if self.scalar[v] { "" } else { "[lane]" };
        let _ = write!(out, "v{v}{lane}");
    }

    fn reg(&self, out: &mut String, r: usize) {
        let _ = write!(out, "r{r}[lane]");
    }

    fn thread_idx(&self, out: &mut String, d: usize) {
        let [bx, by, _] = self.kernel.block_dim;
        let _ = match d {
            0 => write!(out, "(lane % {bx})"),
            1 => write!(out, "((lane / {bx}) % {by})"),
            _ => write!(out, "(lane / {})", bx * by),
        };
    }

    /// `[plane * plane_stride + i0 * stride0 + ... + i_last]`. The strides
    /// are `long` function parameters, so the whole expression promotes
    /// past `int` before any multiply.
    fn global(&self, out: &mut String, plane: IExprId, index: Indices) {
        out.push('[');
        self.iexpr(out, plane);
        out.push_str(" * plane_stride");
        let index = &self.kernel.pool[index];
        for (d, &e) in index.iter().enumerate() {
            out.push_str(" + ");
            self.iexpr(out, e);
            if d + 1 < index.len() {
                let _ = write!(out, " * stride{d}");
            }
        }
        out.push(']');
    }
}

impl<'a> Lanes<'a> {
    /// Classifies the vars of `kernel`: all start uniform, and [`demote`]
    /// runs until nothing changes.
    fn new(kernel: &'a Kernel) -> Self {
        let mut scalar = vec![true; kernel.n_vars];
        loop {
            let uniform = kernel.pool.uniform_nodes(&scalar);
            if !demote(&kernel.body, &uniform, &mut scalar, false) {
                let (_, uniform_conds) = uniform;
                return Lanes {
                    kernel,
                    scalar,
                    uniform_conds,
                };
            }
        }
    }
}

/// One pass of the classification: marks lane-dependent every var that
/// `stmts` set to a lane-dependent value, or set at all under a divergent
/// `if` (`divergent`: `stmts` are under one); true if it marked any.
/// Loop variables stay uniform (thread-independent bounds are an IR
/// invariant); only the body is walked.
fn demote(stmts: &[Stmt], uniform: &Uniform, scalar: &mut [bool], divergent: bool) -> bool {
    let mut changed = false;
    for s in stmts {
        match s {
            Stmt::SetVar { var, value }
                if scalar[*var] && (divergent || !uniform.0[value.index()]) =>
            {
                scalar[*var] = false;
                changed = true;
            }
            Stmt::For { body, .. } => changed |= demote(body, uniform, scalar, divergent),
            Stmt::If { cond, then_, else_ } => {
                let div = divergent || !uniform.1[cond.index()];
                changed |=
                    demote(then_, uniform, scalar, div) | demote(else_, uniform, scalar, div);
            }
            _ => {}
        }
    }
    changed
}

/// Deepest nesting of divergent `if`s — how many mask arrays we need.
fn mask_depth(sp: &Lanes, stmts: &[Stmt], divergent: bool) -> usize {
    let depth = |s: &Stmt| match s {
        Stmt::For { body, .. } => mask_depth(sp, body, divergent),
        Stmt::If { cond, then_, else_ } => {
            let div = divergent || !sp.uniform_conds[cond.index()];
            let inner = mask_depth(sp, then_, div).max(mask_depth(sp, else_, div));
            inner + usize::from(div)
        }
        _ => 0,
    };
    stmts.iter().map(depth).max().unwrap_or(0)
}

/// Appends one per-lane statement, printed by `line`, in its lane loop at
/// `depth`, skipping the lanes `mask` turns off.
fn lane_stmt(
    out: &mut String,
    sp: &Lanes,
    depth: usize,
    mask: Option<usize>,
    line: impl FnOnce(&mut String),
) {
    pad(out, depth);
    let tpb = sp.kernel.threads_per_block();
    let _ = writeln!(out, "for (int lane = 0; lane < {tpb}; ++lane) {{");
    if let Some(m) = mask {
        pad(out, depth + 1);
        let _ = writeln!(out, "if (!m{m}[lane]) continue;");
    }
    pad(out, depth + 1);
    line(out);
    out.push_str(";\n");
    pad(out, depth);
    out.push_str("}\n");
}

/// Appends `stmts` at `depth`, each statement that is not the same in every
/// lane in a lane loop, under `mask` inside a divergent branch.
fn write_stmts(out: &mut String, sp: &Lanes, stmts: &[Stmt], depth: usize, mask: Option<usize>) {
    for s in stmts {
        match s {
            Stmt::SetVar { var, .. } if sp.scalar[*var] => {
                pad(out, depth);
                sp.plain(out, sp.kernel, s);
                out.push_str(";\n");
            }
            Stmt::If { cond, then_, else_ }
                if mask.is_some() || !sp.uniform_conds[cond.index()] =>
            {
                let m = mask.map_or(0, |m| m + 1);
                let set = |out: &mut String| {
                    let _ = write!(out, "m{m}[lane] = ");
                    if let Some(p) = mask {
                        let _ = write!(out, "m{p}[lane] && ");
                    }
                };
                lane_stmt(out, sp, depth, None, |out| {
                    set(out);
                    out.push('(');
                    sp.cond(out, *cond);
                    out.push(')');
                });
                write_stmts(out, sp, then_, depth, Some(m));
                if !else_.is_empty() {
                    // parent && !cond  ==  parent && !(parent && cond)
                    lane_stmt(out, sp, depth, None, |out| {
                        set(out);
                        let _ = write!(out, "!m{m}[lane]");
                    });
                    write_stmts(out, sp, else_, depth, Some(m));
                }
            }
            Stmt::For { .. } | Stmt::If { .. } => {
                let nested = &mut |out: &mut String, body: &[Stmt]| {
                    write_stmts(out, sp, body, depth + 1, mask)
                };
                write_block(out, sp, s, depth, nested);
            }
            Stmt::Sync => {
                pad(out, depth);
                out.push_str("/* __syncthreads(): lane loops run in statement lockstep */\n");
            }
            _ => lane_stmt(out, sp, depth, mask, |out| sp.plain(out, sp.kernel, s)),
        }
    }
}

/// Appends a full kernel as one vectorized C function executing an
/// entire thread block.
pub(crate) fn write_kernel(out: &mut String, kernel: &Kernel) {
    let sp = Lanes::new(kernel);
    let ([x, y, z], tpb) = (kernel.block_dim, kernel.threads_per_block());
    let smem = kernel.shared_bytes();
    let _ = writeln!(
        out,
        "// block {x}x{y}x{z} = {tpb} lanes, {smem} bytes block-local"
    );
    // Per-field pointers, then the strides that flatten an access.
    let (fields, dims) = global_shape(kernel);
    let _ = write!(out, "static void {}(", kernel.name);
    for f in 0..fields.max(1) {
        let _ = write!(out, "float *g{f}, ");
    }
    out.push_str("long plane_stride");
    for d in 0..dims.max(1) - 1 {
        let _ = write!(out, ", long stride{d}");
    }
    for p in 0..kernel.n_params {
        let _ = write!(out, ", int p{p}");
    }
    out.push_str(", int blockIdx) {\n");
    for b in &kernel.shared {
        let _ = write!(out, "  float {}", b.name);
        for d in &b.dims {
            let _ = write!(out, "[{d}]");
        }
        out.push_str(";\n");
    }
    for (v, &scalar) in sp.scalar.iter().enumerate() {
        let _ = if scalar {
            writeln!(out, "  int v{v} = 0;")
        } else {
            writeln!(out, "  int v{v}[{tpb}];")
        };
    }
    for r in 0..kernel.n_regs {
        let _ = writeln!(out, "  float r{r}[{tpb}];");
    }
    for m in 0..mask_depth(&sp, &kernel.body, false) {
        let _ = writeln!(out, "  int m{m}[{tpb}];");
    }
    write_stmts(out, &sp, &kernel.body, 1, None);
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
        let src = BackendKind::Cpu.backend().emit_kernel(&demo_kernel());
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
        let src = BackendKind::Cpu.backend().emit_kernel(&demo_kernel());
        assert!(src.contains("for (v1 = 0; v1 < 4; v1 += 1) {"));
    }
}

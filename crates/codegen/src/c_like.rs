//! The one printer of the kernel IR's text grammar.
//!
//! Every text backend prints the same grammar: the same operators,
//! parentheses and helper calls (`min`, `max`, `floord`, `pmod`) in
//! expressions, and the same block structure in statements. What differs
//! between targets is how a few things are spelled, and a `Spelling` says
//! that once per target:
//!
//! * the leaves: a var, a launch parameter, `threadIdx`, `blockIdx`, a true
//!   condition, a register and the square root;
//! * four statement forms: what precedes a defined var, the loop step, the
//!   subscript of a global access (`[plane][i][j]` here, `[gidx(plane, i,
//!   j)]` in WGSL, one flat offset in C99) and the barrier.
//!
//! The spellings are `C` (CUDA and HIP), `wgsl_emit::Wgsl` and
//! `cpu_emit::Lanes`. CUDA, HIP and WGSL share the statement walker
//! `write_stmts`; the CPU backend walks statements itself, because it
//! wraps them in lane loops and masks, and prints every expression, block
//! head and plain statement through the same writers. Everything prints
//! into the caller's buffer, with no allocation per node.
//!
//! CUDA-C and HIP-C kernels also differ at the translation-unit edges
//! (include prologue, launch-bounds annotation); a [`CDialect`] says how.

use crate::ir::{
    Cond, CondId, FExpr, FExprId, IExpr, IExprId, Indices, Kernel, Pool, RegId, Stmt, VarId,
};
use std::fmt::Write;

/// The translation-unit edges of a C-family kernel.
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

/// `write!` into a `String`, which cannot fail.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {{
        let _ = write!($out, $($arg)*);
    }};
}

/// How one target spells what differs between targets (see the module
/// docs). The defaults are the C spelling. The provided printers from
/// [`Spelling::iexpr`] on are the shared grammar; no spelling overrides
/// them.
pub(crate) trait Spelling: Sized {
    /// A launch parameter's name, before its number.
    const PARAM: &'static str = "p";
    /// The block index.
    const BLOCK_IDX: &'static str = "blockIdx.x";
    /// [`Cond::True`].
    const TRUE: &'static str = "1";
    /// The `f32` square root.
    const SQRT: &'static str = "sqrtf";
    /// What precedes the var a `SetVar` or a loop defines.
    const DEFINE: &'static str = "int ";
    /// The block-wide barrier.
    const BARRIER: &'static str = "__syncthreads()";

    /// The pool the printed ids index.
    fn pool(&self) -> &Pool;

    /// Appends a var.
    fn var(&self, out: &mut String, v: VarId) {
        put!(out, "v{v}");
    }

    /// Appends a register.
    fn reg(&self, out: &mut String, r: RegId) {
        put!(out, "r{r}");
    }

    /// Appends thread index component `d` (0, 1 or 2).
    fn thread_idx(&self, out: &mut String, d: usize) {
        put!(out, "threadIdx.{}", ['x', 'y', 'z'][d]);
    }

    /// Appends a loop's step clause.
    fn step(&self, out: &mut String, var: VarId, step: i64) {
        put!(out, "v{var} += {step}");
    }

    /// Appends the subscript of a global access, after the field's name.
    fn global(&self, out: &mut String, plane: IExprId, index: Indices) {
        out.push('[');
        self.iexpr(out, plane);
        out.push(']');
        self.idx(out, index);
    }

    /// Appends an integer expression.
    fn iexpr(&self, out: &mut String, e: IExprId) {
        let bin = |out: &mut String, parts, a, b| infix(self, out, parts, a, b, Self::iexpr);
        match self.pool()[e] {
            IExpr::Const(c) => put!(out, "{c}"),
            IExpr::Var(v) => self.var(out, v),
            IExpr::Param(p) => put!(out, "{}{p}", Self::PARAM),
            IExpr::ThreadIdx(d) => self.thread_idx(out, usize::from(d).min(2)),
            IExpr::BlockIdx => out.push_str(Self::BLOCK_IDX),
            IExpr::Add(a, b) => bin(out, ["(", " + ", ")"], a, b),
            IExpr::Sub(a, b) => bin(out, ["(", " - ", ")"], a, b),
            IExpr::Mul(a, b) => bin(out, ["(", " * ", ")"], a, b),
            IExpr::Min(a, b) => bin(out, ["min(", ", ", ")"], a, b),
            IExpr::Max(a, b) => bin(out, ["max(", ", ", ")"], a, b),
            IExpr::FloorDiv(a, k) | IExpr::Mod(a, k) => {
                let f = if matches!(self.pool()[e], IExpr::Mod(..)) {
                    "pmod"
                } else {
                    "floord"
                };
                put!(out, "{f}(");
                self.iexpr(out, a);
                put!(out, ", {k})");
            }
        }
    }

    /// Appends a condition.
    fn cond(&self, out: &mut String, c: CondId) {
        let cmp = |out: &mut String, op, a, b| infix(self, out, ["", op, ""], a, b, Self::iexpr);
        match self.pool()[c] {
            Cond::True => out.push_str(Self::TRUE),
            Cond::Le(a, b) => cmp(out, " <= ", a, b),
            Cond::Lt(a, b) => cmp(out, " < ", a, b),
            Cond::Eq(a, b) => cmp(out, " == ", a, b),
            Cond::And(a, b) => infix(self, out, ["(", " && ", ")"], a, b, Self::cond),
            Cond::Or(a, b) => infix(self, out, ["(", " || ", ")"], a, b, Self::cond),
            Cond::Not(a) => {
                out.push_str("!(");
                self.cond(out, a);
                out.push(')');
            }
        }
    }

    /// Appends a float expression.
    fn fexpr(&self, out: &mut String, e: FExprId) {
        let bin = |out: &mut String, parts, a, b| infix(self, out, parts, a, b, Self::fexpr);
        match self.pool()[e] {
            FExpr::Reg(r) => self.reg(out, r),
            FExpr::Const(c) => put!(out, "{c:?}f"),
            FExpr::Add(a, b) => bin(out, ["(", " + ", ")"], a, b),
            FExpr::Sub(a, b) => bin(out, ["(", " - ", ")"], a, b),
            FExpr::Mul(a, b) => bin(out, ["(", " * ", ")"], a, b),
            FExpr::Sqrt(a) => {
                put!(out, "{}(", Self::SQRT);
                self.fexpr(out, a);
                out.push(')');
            }
        }
    }

    /// Appends `[e]` per index expression.
    fn idx(&self, out: &mut String, index: Indices) {
        for &e in &self.pool()[index] {
            out.push('[');
            self.iexpr(out, e);
            out.push(']');
        }
    }

    /// Appends a statement that opens no block, without its indentation and
    /// its `;`.
    fn plain(&self, out: &mut String, kernel: &Kernel, s: &Stmt) {
        match s {
            Stmt::SetVar { var, value } => {
                out.push_str(Self::DEFINE);
                self.var(out, *var);
                out.push_str(" = ");
                self.iexpr(out, *value);
            }
            Stmt::GlobalLoad {
                dst,
                field,
                plane,
                index,
            } => {
                self.reg(out, *dst);
                put!(out, " = g{field}");
                self.global(out, *plane, *index);
            }
            Stmt::GlobalStore {
                field,
                plane,
                index,
                src,
            } => {
                put!(out, "g{field}");
                self.global(out, *plane, *index);
                out.push_str(" = ");
                self.fexpr(out, *src);
            }
            Stmt::SharedLoad { dst, buf, index } => {
                self.reg(out, *dst);
                put!(out, " = {}", kernel.shared[*buf].name);
                self.idx(out, *index);
            }
            Stmt::SharedStore { buf, index, src } => {
                out.push_str(&kernel.shared[*buf].name);
                self.idx(out, *index);
                out.push_str(" = ");
                self.fexpr(out, *src);
            }
            Stmt::Compute { dst, expr } => {
                self.reg(out, *dst);
                out.push_str(" = ");
                self.fexpr(out, *expr);
            }
            Stmt::Sync => out.push_str(Self::BARRIER),
            Stmt::For { .. } | Stmt::If { .. } => unreachable!("a block is `write_block`'s"),
        }
    }
}

/// The C spelling, of CUDA and HIP: every default of [`Spelling`].
pub(crate) struct C<'a>(pub &'a Pool);

impl Spelling for C<'_> {
    fn pool(&self) -> &Pool {
        self.0
    }
}

/// `{open}{a}{op}{b}{close}` — every binary node of the three grammars.
fn infix<S, T>(
    sp: &S,
    out: &mut String,
    [open, op, close]: [&str; 3],
    a: T,
    b: T,
    put: fn(&S, &mut String, T),
) {
    out.push_str(open);
    put(sp, out, a);
    out.push_str(op);
    put(sp, out, b);
    out.push_str(close);
}

/// Appends `depth` levels of two-space indentation.
pub(crate) fn pad(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends a `For` or an `If` at `depth`, each of its bodies printed by
/// `nested`.
pub(crate) fn write_block<S: Spelling>(
    out: &mut String,
    sp: &S,
    s: &Stmt,
    depth: usize,
    nested: &mut dyn FnMut(&mut String, &[Stmt]),
) {
    pad(out, depth);
    match s {
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            put!(out, "for ({}v{var} = ", S::DEFINE);
            sp.iexpr(out, *lo);
            put!(out, "; v{var} < ");
            sp.iexpr(out, *hi);
            out.push_str("; ");
            sp.step(out, *var, *step);
            out.push_str(") {\n");
            nested(out, body);
        }
        Stmt::If { cond, then_, else_ } => {
            out.push_str("if (");
            sp.cond(out, *cond);
            out.push_str(") {\n");
            nested(out, then_);
            if !else_.is_empty() {
                pad(out, depth);
                out.push_str("} else {\n");
                nested(out, else_);
            }
        }
        _ => unreachable!("only `For` and `If` open a block"),
    }
    pad(out, depth);
    out.push_str("}\n");
}

/// Appends `stmts` at `depth`, one statement a line: the statement walker
/// of CUDA, HIP and WGSL.
pub(crate) fn write_stmts<S: Spelling>(
    out: &mut String,
    sp: &S,
    kernel: &Kernel,
    stmts: &[Stmt],
    depth: usize,
) {
    for s in stmts {
        if let Stmt::For { .. } | Stmt::If { .. } = s {
            let nested = &mut |out: &mut String, body: &[Stmt]| {
                write_stmts(out, sp, kernel, body, depth + 1)
            };
            write_block(out, sp, s, depth, nested);
        } else {
            pad(out, depth);
            sp.plain(out, kernel, s);
            out.push_str(";\n");
        }
    }
}

/// `(fields, spatial dims)` of the kernel's global accesses: one more than
/// the largest field number (fields are numbered densely from 0), and the
/// most subscripts any access has; 0 without global accesses.
pub(crate) fn global_shape(kernel: &Kernel) -> (usize, usize) {
    let (mut fields, mut dims) = (0, 0);
    crate::ir::visit(&kernel.body, &mut |s| {
        if let Stmt::GlobalLoad { field, index, .. } | Stmt::GlobalStore { field, index, .. } = s {
            fields = fields.max(field + 1);
            dims = dims.max(kernel.pool[*index].len());
        }
    });
    (fields, dims)
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
    write_stmts(out, &C(&kernel.pool), kernel, &kernel.body, 1);
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_emit::Lanes;
    use crate::ir::{PoolBuilder, SharedBuf};
    use crate::wgsl_emit::Wgsl;
    use crate::BackendKind;
    use std::sync::Arc;

    /// A node of any of the three grammars.
    #[derive(Clone, Copy)]
    enum Node {
        I(IExprId),
        C(CondId),
        F(FExprId),
    }

    fn text<S: Spelling>(sp: &S, node: Node) -> String {
        let mut out = String::new();
        match node {
            Node::I(e) => sp.iexpr(&mut out, e),
            Node::C(c) => sp.cond(&mut out, c),
            Node::F(f) => sp.fexpr(&mut out, f),
        }
        out
    }

    #[test]
    fn every_variant_prints_as_before_under_every_spelling() {
        // The expected texts are what the `format!`-per-node printers this
        // module replaced produced: `iexpr_to_c` and friends (CUDA),
        // `iexpr_to_wgsl` and friends, and the CPU backend's `iexpr_to_cpu`
        // and friends with v1 lane-dependent, in a 8x4x2 block.
        use Node::{C as Co, F, I};
        let p = PoolBuilder::default();
        let [tx, ty, tz] = [0, 1, 2].map(|d| p.iexpr(IExpr::ThreadIdx(d)));
        let (v0, v1, p1, block) = (
            p.var(0),
            p.var(1),
            p.iexpr(IExpr::Param(1)),
            p.iexpr(IExpr::BlockIdx),
        );
        let [m7, m1, k0, k9] = [-7, -1, 0, 9].map(|c| p.lit(c));
        let diff = p.iexpr(IExpr::Sub(ty, tz));
        let lanes = p.iexpr(IExpr::Add(tx, diff));
        let scaled = p.iexpr(IExpr::Mul(block, m7));
        let quotient = p.iexpr(IExpr::FloorDiv(scaled, 4));
        let max = p.iexpr(IExpr::Max(lanes, quotient));
        let sum = p.iexpr(IExpr::Add(v1, p1));
        let rem = p.iexpr(IExpr::Mod(sum, 5));
        let min = p.iexpr(IExpr::Min(max, rem));
        let [le, lt, eq, t] = [
            Cond::Le(v0, m1),
            Cond::Lt(min, k9),
            Cond::Eq(v1, k0),
            Cond::True,
        ]
        .map(|c| p.cond(c));
        let (both, eq_t) = (p.cond(Cond::And(le, lt)), p.cond(Cond::And(eq, t)));
        let not = p.cond(Cond::Not(eq_t));
        let or = p.cond(Cond::Or(both, not));
        let [r2, z, tiny, quarter] = [
            FExpr::Reg(2),
            FExpr::Const(-0.0),
            FExpr::Const(1e-7),
            FExpr::Const(0.25),
        ]
        .map(|f| p.fexpr(f));
        let fsum = p.fexpr(FExpr::Add(r2, z));
        let prod = p.fexpr(FExpr::Mul(tiny, quarter));
        let fdiff = p.fexpr(FExpr::Sub(fsum, prod));
        let sqrt = p.fexpr(FExpr::Sqrt(fdiff));
        let min_text = [
            "min(max((threadIdx.x + (threadIdx.y - threadIdx.z)), \
             floord((blockIdx.x * -7), 4)), pmod((v1 + p1), 5))",
            "min(max((i32(lid.x) + (i32(lid.y) - i32(lid.z))), \
             floord((i32(wid.x) * -7), 4)), pmod((v1 + P.p1), 5))",
            "min(max(((lane % 8) + (((lane / 8) % 4) - (lane / 32))), \
             floord((blockIdx * -7), 4)), pmod((v1[lane] + p1), 5))",
        ];
        let rows: Vec<(Node, [String; 3])> = vec![
            (I(m7), ["-7", "-7", "-7"].map(String::from)),
            (I(v0), ["v0", "v0", "v0"].map(String::from)),
            (I(v1), ["v1", "v1", "v1[lane]"].map(String::from)),
            (I(p1), ["p1", "P.p1", "p1"].map(String::from)),
            (
                I(tx),
                ["threadIdx.x", "i32(lid.x)", "(lane % 8)"].map(String::from),
            ),
            (
                I(ty),
                ["threadIdx.y", "i32(lid.y)", "((lane / 8) % 4)"].map(String::from),
            ),
            (
                I(tz),
                ["threadIdx.z", "i32(lid.z)", "(lane / 32)"].map(String::from),
            ),
            (
                I(block),
                ["blockIdx.x", "i32(wid.x)", "blockIdx"].map(String::from),
            ),
            (
                I(diff),
                [
                    "(threadIdx.y - threadIdx.z)",
                    "(i32(lid.y) - i32(lid.z))",
                    "(((lane / 8) % 4) - (lane / 32))",
                ]
                .map(String::from),
            ),
            (
                I(scaled),
                ["(blockIdx.x * -7)", "(i32(wid.x) * -7)", "(blockIdx * -7)"].map(String::from),
            ),
            (
                I(quotient),
                [
                    "floord((blockIdx.x * -7), 4)",
                    "floord((i32(wid.x) * -7), 4)",
                    "floord((blockIdx * -7), 4)",
                ]
                .map(String::from),
            ),
            (
                I(rem),
                [
                    "pmod((v1 + p1), 5)",
                    "pmod((v1 + P.p1), 5)",
                    "pmod((v1[lane] + p1), 5)",
                ]
                .map(String::from),
            ),
            (I(min), min_text.map(String::from)),
            (Co(t), ["1", "true", "1"].map(String::from)),
            (
                Co(le),
                ["v0 <= -1", "v0 <= -1", "v0 <= -1"].map(String::from),
            ),
            (
                Co(eq),
                ["v1 == 0", "v1 == 0", "v1[lane] == 0"].map(String::from),
            ),
            (Co(lt), min_text.map(|m| format!("{m} < 9"))),
            (
                Co(not),
                [
                    "!((v1 == 0 && 1))",
                    "!((v1 == 0 && true))",
                    "!((v1[lane] == 0 && 1))",
                ]
                .map(String::from),
            ),
            (
                Co(or),
                [
                    format!("((v0 <= -1 && {} < 9) || !((v1 == 0 && 1)))", min_text[0]),
                    format!(
                        "((v0 <= -1 && {} < 9) || !((v1 == 0 && true)))",
                        min_text[1]
                    ),
                    format!(
                        "((v0 <= -1 && {} < 9) || !((v1[lane] == 0 && 1)))",
                        min_text[2]
                    ),
                ],
            ),
            (F(r2), ["r2", "r2", "r2[lane]"].map(String::from)),
            (F(z), ["-0.0f", "-0.0f", "-0.0f"].map(String::from)),
            (
                F(prod),
                ["(1e-7f * 0.25f)", "(1e-7f * 0.25f)", "(1e-7f * 0.25f)"].map(String::from),
            ),
            (
                F(sqrt),
                [
                    "sqrtf(((r2 + -0.0f) - (1e-7f * 0.25f)))",
                    "sqrt(((r2 + -0.0f) - (1e-7f * 0.25f)))",
                    "sqrtf(((r2[lane] + -0.0f) - (1e-7f * 0.25f)))",
                ]
                .map(String::from),
            ),
        ];
        let kernel = Kernel {
            name: "k".into(),
            block_dim: [8, 4, 2],
            shared: vec![],
            n_vars: 2,
            n_regs: 3,
            n_params: 2,
            pool: Arc::new(p.finish()),
            body: vec![],
        };
        let pool = &*kernel.pool;
        let cpu = Lanes {
            kernel: &kernel,
            scalar: vec![true, false],
            uniform_conds: vec![],
        };
        for (node, want) in rows {
            let got = [
                text(&C(pool), node),
                text(&Wgsl(pool), node),
                text(&cpu, node),
            ];
            assert_eq!(got, want);
        }
    }

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
        let src = BackendKind::Cuda.backend().emit_kernel(&k);
        assert!(src.contains("__global__ void demo"));
        assert!(src.contains("__shared__ float s_A[2][10];"));
        assert!(src.contains("__syncthreads();"));
        assert!(src.contains("if (v0 < 100)"));
        assert!(src.contains("g0[pmod(p0, 2)][v0]"));
    }
}

//! The compiled-bytecode block executor: specialize once, run flat.
//!
//! The interpreter in [`crate::exec`] re-walks every expression of the
//! kernel's pool for every lane of every statement execution — a lookup
//! per node plus a heap-allocated index `Vec` per lane per memory access.
//! For simulated tuning that walk *is* the hot path: a tile-size sweep
//! interprets the same few kernels thousands of times. This module
//! removes it by compiling each [`Kernel`] once into a flat bytecode
//! that the executor then replays with branch-predictable linear loops:
//!
//! * expressions become linear op streams over **slot arrays**
//!   (three-address code, no recursion);
//! * an integer value is lowered **once per scope**, not once per use: a
//!   pool id lowered by a site that reaches this one reads that site's
//!   result from an array indexed by id, and the compiler numbers the ops
//!   themselves by `(op, operands)`, so distinct ids that lower to one op
//!   share it too — as long as the earlier site always runs first under a
//!   mask at least as wide (what an `If` arm or a `For` body computes is
//!   forgotten at its end) and no operand var has been reassigned since;
//! * multi-dimensional global/shared indices are folded into **flat
//!   row-major offsets** against the strides of the bound memory, so the
//!   executor uses [`Grid::get_flat`](stencil::Grid::get_flat)-style
//!   access instead of re-deriving the offset from an index vector
//!   (twice — once for the byte address, once for the data) per lane;
//!   immediate and scalar dimensions are checked and folded once per
//!   statement, only lane-dependent ones per lane;
//! * what the generator made linear in the thread index stays symbolic:
//!   `base + threadIdx.x` is an **affine** value — a scalar base and
//!   constant strides, no vector slot, no per-lane op — and so is what
//!   adding scalars, subtracting them or scaling by an immediate makes of
//!   it; `floord`/`pmod` by a constant of a value that steps from lane to
//!   lane take one division and carry; only what really differs per lane
//!   (those quotients, `f32` registers) is a vector;
//! * a divergence mask is its per-warp active bits and knows its own
//!   summary — active lanes, active warps — derived once where the mask is
//!   made (block entry, the arms of a lane `If`), so no statement scans
//!   it; a guard `lo <= base + threadIdx.x <= hi` is an interval of lanes
//!   (a box over `threadIdx.x`/`.y` in a `[32, k, 1]` block) whose bits are
//!   shifted into place from its scalar ends, no lane compared; a temporary
//!   is computed for every lane, masked or not, because nothing can observe
//!   its inactive lanes (one defining op, read only in the defining scope,
//!   under that op's mask or a narrower one), and only var and register
//!   writes select by lane;
//! * a memory statement whose index is uniform or affine in every
//!   dimension addresses `start + step · lane` within each warp: checked at
//!   the warp's first and last active lane, a slice copy and one
//!   transaction per warp when shared and unit-stride, one read when every
//!   lane loads the same global word; with a vector dimension it derives
//!   every lane's flat offset in one pass per such dimension,
//!   bounds-checked by a flag over the active lanes; either way a failed
//!   check re-walks the lanes in order for the interpreter's panic;
//! * flat offsets, divergence masks, shared memory, and the slot arrays
//!   live in a reusable [`ExecScratch`] pooled across blocks and launches
//!   instead of being reallocated per block.
//!
//! # Op format
//!
//! Compilation classifies every value by *rank*, and lowers it to the
//! cheapest matching storage:
//!
//! * **immediate** — a compile-time constant, folded into the consuming
//!   op ([`Val::SImm`]);
//! * **scalar** — uniform across lanes of a block: launch parameters,
//!   `BlockIdx`, and integer vars only ever assigned uniform values
//!   outside divergent control flow. Scalars occupy one `i64` cell
//!   ([`Val::SSlot`]) and are computed once per evaluation site by
//!   [`SOp`]s — or once per *block* when they do not depend on loop
//!   variables (the hoisted preamble);
//! * **affine** — `base + Σ stride · threadIdx` with an immediate or scalar
//!   base and constant strides: `ThreadIdx` itself (the constant 0 along a
//!   block dimension of extent 1) and its sums with scalars, differences
//!   and immediate multiples, in blocks whose warps each lie in one row
//!   (`block_dim.x` a multiple of 32, or a single row). It exists at
//!   compile time only — its base costs [`SOp`]s — and is consumed as a
//!   [`Guard`]'s box, a [`FlatIndex`] dimension or a lane-carried division
//!   ([`VOp::DivLane`]); any other use computes it as a vector, once per
//!   scope like every value. A vector var assigned one is known to hold it
//!   until reassigned, for the rest of the assigning scope;
//! * **vector** — lane-dependent: `f32` registers, quotients and
//!   remainders of lane-dependent values, `ThreadIdx` in other blocks, and
//!   anything derived from them. Vectors occupy `n_threads` consecutive
//!   cells ([`Val::VSlot`]) and are computed by [`VOp`]s/[`FOp`]s that
//!   loop over the lanes — all of them into a temporary, the current
//!   mask's active ones into a var or register.
//!
//! Slot layout: scalar slots are `[params.., block, scalar vars..,
//! temps..]`; vector `i64` slots are `[tid.x, tid.y, tid.z, vector
//! vars.., temps..]`; `f32` slots are `[registers.., temps..]`. Var and
//! register slots are zeroed per block (matching the interpreter);
//! temporaries are written before read by construction.
//!
//! Statements ([`BcStmt`]) mirror the source [`Stmt`]s — control flow
//! keeps its tree shape, which is cold — but every expression they carry
//! is a pre-lowered program, and every memory access is flat.
//!
//! # Equivalence contract
//!
//! The compiled executor is **bit-exact** with the interpreter: same
//! grids, same [`Counters`] — including warp instructions, divergence
//! events, coalescing transactions and bank conflicts — for any kernel
//! the interpreter accepts. `tests/parallel_equivalence.rs` property-
//! tests this against `run_plan` across random stencils, tile sizes and
//! shared-memory strategies. [`crate::GpuSim::run_plan`] remains the
//! oracle and never uses this path; every other entry point — the
//! production launch loop in [`crate::parallel`], at any worker count,
//! full or sampled — runs nothing else.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use gpu_codegen::ir::{
    visit, Cond, CondId, FExpr, FExprId, IExpr, IExprId, IdHasher, Indices, Kernel, Pool, Stmt,
    Uniform,
};

use crate::counters::Counters;
use crate::exec::{flop_weight, GlobalBackend};
use crate::memory::{GlobalMem, L2Cache};
use crate::shared::{charge_shared_load, charge_shared_store};

/// A compiled operand: where a value lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Val {
    /// Compile-time integer constant.
    SImm(i64),
    /// Scalar (block-uniform) slot.
    SSlot(u16),
    /// Vector (per-lane) slot.
    VSlot(u16),
}

/// A scalar op: evaluated once (not per lane) into a scalar slot.
///
/// Operands are [`Val::SImm`] or [`Val::SSlot`]; a scalar op never reads
/// a vector slot.
#[derive(Clone, Debug)]
pub enum SOp {
    /// `dst = a + b`.
    Add(u16, Val, Val),
    /// `dst = a - b`.
    Sub(u16, Val, Val),
    /// `dst = a * b`.
    Mul(u16, Val, Val),
    /// `dst = a.div_euclid(k)`.
    FloorDiv(u16, Val, i64),
    /// `dst = a.rem_euclid(k)`.
    Mod(u16, Val, i64),
    /// `dst = min(a, b)`.
    Min(u16, Val, Val),
    /// `dst = max(a, b)`.
    Max(u16, Val, Val),
    /// `dst = (a <= b) as i64`.
    Le(u16, Val, Val),
    /// `dst = (a < b) as i64`.
    Lt(u16, Val, Val),
    /// `dst = (a == b) as i64`.
    Eq(u16, Val, Val),
    /// `dst = a & b` (boolean conjunction over 0/1 values).
    And(u16, Val, Val),
    /// `dst = a | b` (boolean disjunction over 0/1 values).
    Or(u16, Val, Val),
    /// `dst = 1 - a` (boolean negation over 0/1 values).
    Not(u16, Val),
}

/// A vector integer op: evaluated per lane into a vector slot — for the
/// current mask's active lanes into a var, for every lane into a
/// temporary. Operands may be scalar (resolved once before the lane loop)
/// or vector.
#[derive(Clone, Debug)]
pub enum VOp {
    /// `dst[l] = src` for active lanes (scalar/immediate broadcast or
    /// vector copy — used when a var assignment is a bare operand).
    Copy(u16, Val),
    /// `dst[l] = a[l] + b[l]`.
    Add(u16, Val, Val),
    /// `dst[l] = a[l] - b[l]`.
    Sub(u16, Val, Val),
    /// `dst[l] = a[l] * b[l]`.
    Mul(u16, Val, Val),
    /// `dst[l] = a[l].div_euclid(k)`.
    FloorDiv(u16, Val, i64),
    /// `dst[l] = a[l].rem_euclid(k)`.
    Mod(u16, Val, i64),
    /// `dst[l] = min(a[l], b[l])`.
    Min(u16, Val, Val),
    /// `dst[l] = max(a[l], b[l])`.
    Max(u16, Val, Val),
    /// `dst[l] = (a[l] <= b[l]) as i64`.
    Le(u16, Val, Val),
    /// `dst[l] = (a[l] < b[l]) as i64`.
    Lt(u16, Val, Val),
    /// `dst[l] = (a[l] == b[l]) as i64`.
    Eq(u16, Val, Val),
    /// `dst[l] = a[l] & b[l]` (boolean over 0/1).
    And(u16, Val, Val),
    /// `dst[l] = a[l] | b[l]` (boolean over 0/1).
    Or(u16, Val, Val),
    /// `dst[l] = 1 - a[l]` (boolean negation over 0/1).
    Not(u16, Val),
    /// `dst[l] = (a + c * l).div_euclid(k)` for scalar `a`, `[c, k, m]` with
    /// `c, k > 0` and `l` the lane's index in the block — reduced
    /// `.rem_euclid(m)` when `m > 0`, and the remainder `(a + c *
    /// l).rem_euclid(k)` instead when `m < 0`: one division, then carries.
    DivLane(u16, Val, [i64; 3]),
}

/// An `f32` operand: an immediate or an `f32` vector slot.
#[derive(Clone, Copy, Debug)]
pub enum FVal {
    /// Compile-time `f32` constant.
    Imm(f32),
    /// Per-lane `f32` slot (registers first, then temporaries).
    Slot(u16),
}

/// A vector `f32` op: evaluated for every active lane into a register,
/// for every lane into a temporary.
#[derive(Clone, Debug)]
pub enum FOp {
    /// `dst[l] = src` (broadcast or copy).
    Copy(u16, FVal),
    /// `dst[l] = a[l] + b[l]`.
    Add(u16, FVal, FVal),
    /// `dst[l] = a[l] - b[l]`.
    Sub(u16, FVal, FVal),
    /// `dst[l] = a[l] * b[l]`.
    Mul(u16, FVal, FVal),
    /// `dst[l] = a[l].sqrt()`.
    Sqrt(u16, FVal),
}

/// The ops one evaluation site needs, in execution order: scalar ops
/// first (they never read vectors), then vector ops.
#[derive(Clone, Default, Debug)]
pub struct Prog {
    /// Scalar ops, evaluated once per site execution.
    pub sops: Vec<SOp>,
    /// Vector ops, evaluated per lane.
    pub vops: Vec<VOp>,
}

/// A compiled flat memory address: the row-major offset of a
/// multi-dimensional index, its dimensions told apart by rank so that only
/// lane-dependent ones cost per-lane work. Every dimension is
/// bounds-checked when the statement executes, as the interpreter does
/// (an out-of-bounds index is a code-generation bug).
#[derive(Clone, Debug)]
pub struct FlatIndex {
    /// Per dimension, `(index, extent, stride)`. An immediate or scalar
    /// index is resolved, checked and folded into the base once per
    /// statement execution; a vector one is checked and added per lane;
    /// an affine one is neither: when no dimension is a vector, the whole
    /// offset is affine in the thread index — no per-lane pass, and checked
    /// at the two ends of each warp's active lanes (inside a warp the index
    /// is monotone).
    dims: Vec<(Lin, i64, i64)>,
    /// Whether no dimension is a vector.
    affine: bool,
    /// Constant word offset (shared-memory buffer base within the block's
    /// shared address space; 0 for global).
    base: i64,
}

/// A lowered integer value, `base + Σ stride[d] · threadIdx[d]`. With no
/// stride it is just `base`, of any rank; with one, `base` is an immediate
/// or a scalar and the value is **affine** in the thread index — it
/// occupies no vector slot and costs scalar ops only.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Lin {
    base: Val,
    stride: [i64; 3],
}

impl Lin {
    /// `base` in every lane.
    fn of(base: Val) -> Lin {
        Lin {
            base,
            stride: [0; 3],
        }
    }

    fn is_affine(&self) -> bool {
        self.stride != [0; 3]
    }

    /// Neither affine nor a vector: the same in every lane.
    fn is_uniform(&self) -> bool {
        !self.is_affine() && !matches!(self.base, Val::VSlot(_))
    }

    /// The value in `lane`, given the scalar slots and the vector slots of
    /// `n` lanes each (the first three hold the thread index).
    #[inline]
    fn at(&self, s: &[i64], v: &[i64], n: usize, lane: usize) -> i64 {
        let base = match self.base {
            Val::VSlot(slot) => v[slot as usize * n + lane],
            uniform => scalar_operand(s, uniform),
        };
        (0..3).fold(base, |at, d| at + self.stride[d] * v[d * n + lane])
    }
}

/// A lowered condition, the conjunction of three parts: a block-uniform
/// 0/1 operand, a per-lane 0/1 vector (`SImm(1)` when there is none), and a
/// box `lo <= coordinate <= hi` over the four lane coordinates —
/// `threadIdx.x`, `.y`, `.z` and the lane's index in the block — with
/// immediate or scalar bounds inside the block's (`None` is all of it).
#[derive(Clone, PartialEq, Debug)]
pub struct Guard {
    uniform: Val,
    lanes: Val,
    within: Option<Box<[(Val, Val); 4]>>,
}

/// The value of an immediate or scalar operand, given the scalar slots.
#[inline]
fn scalar_operand(s: &[i64], v: Val) -> i64 {
    match v {
        Val::SImm(c) => c,
        Val::SSlot(i) => s[i as usize],
        Val::VSlot(_) => unreachable!("vector operand where a scalar one belongs"),
    }
}

/// Bounds-checks one resolved index value, returning it.
#[inline]
fn in_bounds(i: i64, extent: i64, d: usize) -> i64 {
    assert!(
        i >= 0 && i < extent,
        "compiled index {i} out of bounds for dim {d} (extent {extent})"
    );
    i
}

impl FlatIndex {
    /// The dimensions that are (`true`) or are not the same in every lane,
    /// with their number.
    fn ranked(&self, uniform: bool) -> impl Iterator<Item = (usize, &(Lin, i64, i64))> {
        let is = move |(_, dim): &(usize, &(Lin, i64, i64))| dim.0.is_uniform() == uniform;
        self.dims.iter().enumerate().filter(is)
    }

    /// The part of the offset every lane shares, given the scalar slots.
    #[inline]
    fn fold_uniform(&self, s: &[i64]) -> i64 {
        self.ranked(true)
            .fold(self.base, |off, (d, &(index, extent, stride))| {
                off + stride * in_bounds(scalar_operand(s, index.base), extent, d)
            })
    }

    /// The flat offset of `lane`, from [`FlatIndex::fold_uniform`]'s
    /// `uniform` part, the scalar slots and the vector slots `v` of `n`
    /// lanes each.
    fn offset(&self, uniform: i64, s: &[i64], v: &[i64], n: usize, lane: usize) -> usize {
        self.ranked(false)
            .fold(uniform, |off, (d, (index, extent, stride))| {
                off + stride * in_bounds(index.at(s, v, n, lane), *extent, d)
            }) as usize
    }

    /// Every lane's flat offset, into `out`: one pass over all lanes per
    /// vector dimension. Only the active lanes of `mask` are bounds-checked
    /// — an inactive lane's offset is never used and may be anything — and
    /// only by a flag; when it is raised the active lanes are re-walked in
    /// order through [`FlatIndex::offset`], so the first offender panics
    /// with the message it always has.
    fn offsets(&self, s: &[i64], v: &[i64], mask: &Mask, out: &mut Vec<usize>) {
        let n = mask.lanes.len();
        let uniform = self.fold_uniform(s);
        out.clear();
        out.resize(n, uniform as usize);
        let mut outside = false;
        for (_, &(index, extent, stride)) in self.ranked(false) {
            let Val::VSlot(slot) = index.base else {
                unreachable!("an affine address takes no per-lane pass");
            };
            let index = &v[slot as usize * n..][..n];
            for ((off, &i), &m) in out.iter_mut().zip(index).zip(&mask.lanes) {
                outside |= m & (i as u64 >= extent as u64);
                *off = off.wrapping_add(stride.wrapping_mul(i) as usize);
            }
        }
        if outside {
            for lane in (0..n).filter(|&lane| mask.lanes[lane]) {
                self.offset(uniform, s, v, n, lane);
            }
        }
    }
}

/// A compiled statement. Control flow keeps its (cold) tree shape; all
/// expressions are pre-lowered [`Prog`]s with [`Val`] results.
#[derive(Clone, Debug)]
pub enum BcStmt {
    /// Scalar var assignment (uniform value, non-divergent context).
    SetVarS {
        /// Value program.
        prog: Prog,
        /// Value operand.
        value: Val,
        /// Destination scalar slot.
        dst: u16,
    },
    /// Vector var assignment (masked, per lane).
    SetVarV {
        /// Value program; its final op targets the var's vector slot.
        prog: Prog,
    },
    /// `for (var = lo; var < hi; var += step)` with uniform bounds.
    For {
        /// Bounds program.
        prog: Prog,
        /// Lower bound operand.
        lo: Val,
        /// Upper bound operand.
        hi: Val,
        /// Positive step.
        step: i64,
        /// The loop variable's slot (scalar or vector).
        var: Val,
        /// Loop body.
        body: Vec<BcStmt>,
    },
    /// Conditional with a block-uniform condition: no mask is built and
    /// no divergence can occur.
    IfUniform {
        /// Condition program (scalar).
        prog: Prog,
        /// Condition operand (0/1).
        cond: Val,
        /// Taken branch.
        then_: Vec<BcStmt>,
        /// Else branch.
        else_: Vec<BcStmt>,
    },
    /// Conditional with a lane-dependent condition: splits the mask and
    /// counts per-warp divergence exactly as the interpreter does.
    IfLane {
        /// Condition program.
        prog: Prog,
        /// The lanes that take the branch.
        guard: Guard,
        /// Taken branch.
        then_: Vec<BcStmt>,
        /// Else branch.
        else_: Vec<BcStmt>,
    },
    /// `reg[dst] = global[field][plane][flat]` with coalescing charges.
    GlobalLoad {
        /// Index/plane program.
        prog: Prog,
        /// Destination register slot.
        dst: u16,
        /// Field identifier.
        field: u32,
        /// Time-plane operand.
        plane: Val,
        /// Flat spatial address.
        flat: FlatIndex,
    },
    /// `global[field][plane][flat] = src`.
    GlobalStore {
        /// Index/plane/value program.
        prog: Prog,
        /// Field identifier.
        field: u32,
        /// Time-plane operand.
        plane: Val,
        /// Flat spatial address.
        flat: FlatIndex,
        /// Value ops (evaluated before the warp loop).
        fops: Vec<FOp>,
        /// Value operand.
        src: FVal,
        /// FLOP weight of the source expression, charged per lane.
        flops: u64,
    },
    /// `reg[dst] = shared[flat]` with bank-conflict charges.
    SharedLoad {
        /// Index program.
        prog: Prog,
        /// Destination register slot.
        dst: u16,
        /// Flat word address within the block's shared space.
        flat: FlatIndex,
    },
    /// `shared[flat] = src`.
    SharedStore {
        /// Index/value program.
        prog: Prog,
        /// Flat word address within the block's shared space.
        flat: FlatIndex,
        /// Value ops.
        fops: Vec<FOp>,
        /// Value operand.
        src: FVal,
        /// FLOP weight of the source expression, charged per lane.
        flops: u64,
    },
    /// `reg[dst] = expr`, charging `flops` per active lane.
    Compute {
        /// Value ops; the final op targets the destination register.
        fops: Vec<FOp>,
        /// FLOP weight charged per active lane.
        flops: u64,
    },
    /// `__syncthreads()`.
    Sync,
}

/// One kernel compiled against the shape of a [`GlobalMem`].
///
/// The compilation is valid for any launch of the kernel on memory with
/// the same per-field extents (strides are baked into the flat
/// addresses).
#[derive(Clone, Debug)]
pub struct BcKernel {
    body: Vec<BcStmt>,
    /// Scalar ops depending only on params/block: run once per block.
    preamble: Vec<SOp>,
    n_threads: usize,
    n_params: usize,
    n_sslots: usize,
    n_vslots: usize,
    n_fslots: usize,
    /// Vector-var slots to zero per block (after the 3 tid slots).
    vector_var_slots: std::ops::Range<usize>,
    n_regs: usize,
    shared_words: usize,
    block_dim: [usize; 3],
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// How a kernel var is stored: scalar slot when every assignment is
/// uniform and outside divergent control flow, vector slot otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VarStorage {
    Scalar(u16),
    Vector(u16),
}

struct Compiler<'a> {
    kernel: &'a Kernel,
    pool: &'a Pool,
    mem: &'a GlobalMem,
    vars: Vec<VarStorage>,
    n_sslots: usize,
    n_vslots: usize,
    n_fslots: usize,
    preamble: Vec<SOp>,
    /// Scalar slots whose value is block-uniform (computable in the
    /// preamble): params, block, and ops over them.
    hoistable: Vec<bool>,
    /// Shared-buffer word bases (cumulative, matching `SharedMem`).
    shared_bases: Vec<i64>,
    /// Value numbers: the operand that holds `(op, a, b)`, for every op
    /// emitted at a site that reaches the one being compiled — it executes
    /// first whenever this one executes, under a mask at least as wide —
    /// and none of whose operand vars has been reassigned since.
    values: HashMap<ValueKey, Val, BuildHasherDefault<IdHasher>>,
    /// The keys of `values` that die with their scope, in insertion order
    /// (see [`Compiler::scope`]).
    scoped: Vec<ValueKey>,
    /// How often each scalar (`[0]`) and vector (`[1]`) var slot has been
    /// reassigned so far; the temporaries past them never are. A key
    /// carries its operands' counts, so reassigning a var strands every
    /// value computed from it without visiting the table.
    epochs: [Vec<u32>; 2],
    /// The vector vars known to hold an affine value, `(var, value, the
    /// reassignment counts of the var and of the value's base)`: facts of
    /// the scope that assigned them, dead once either count moves on.
    held: Vec<(usize, Lin, [u32; 2])>,
    /// Whether every warp of the block lies in one row of it. Only then is
    /// the thread index lowered as affine: inside a warp `threadIdx.x`
    /// steps by one and the other two stand still.
    warp_rows: bool,
    /// What each integer expression of the pool lowered to, by id, with the
    /// `kills` count it was lowered under: a site that reaches the one
    /// that lowered it, with no var reassigned since, reads it instead of
    /// lowering the expression again — every op it would emit is in
    /// `values` already.
    lowered: Vec<(u32, Option<Lin>)>,
    /// The ids `lowered` holds, in the order they were lowered (see
    /// [`Compiler::scope`]).
    lowered_log: Vec<IExprId>,
    /// How many times a var has been reassigned so far.
    kills: u32,
}

/// `(op, a, b)` with the reassignment counts of `a` and `b` when the value
/// was computed.
type ValueKey = (Ibin, Val, Val, u32, u32);

/// Decides which vars can live in scalar slots: every assignment must be
/// outside divergent control flow (an `If` on a lane-dependent condition)
/// and its value must be uniform — i.e. free of `ThreadIdx` and of vars
/// already known to be vector.
/// Iterates to a fixpoint because uniformity depends on other vars.
fn classify_vars(kernel: &Kernel) -> Vec<bool> {
    /// One pass: demotes the vars that break the rule under `uniform`;
    /// true if any was.
    fn demote(stmts: &[Stmt], divergent: bool, uniform: &Uniform, scalar: &mut [bool]) -> bool {
        let mut changed = false;
        for s in stmts {
            match s {
                Stmt::SetVar { var, value }
                    if scalar[*var] && (divergent || !uniform.0[value.index()]) =>
                {
                    scalar[*var] = false;
                    changed = true;
                }
                Stmt::For { var, body, .. } => {
                    // The loop value itself is uniform; only the
                    // context matters.
                    changed |= scalar[*var] && divergent;
                    scalar[*var] &= !divergent;
                    changed |= demote(body, divergent, uniform, scalar);
                }
                Stmt::If { cond, then_, else_ } => {
                    let divergent = divergent || !uniform.1[cond.index()];
                    changed |= demote(then_, divergent, uniform, scalar)
                        | demote(else_, divergent, uniform, scalar);
                }
                _ => {}
            }
        }
        changed
    }
    let mut scalar = vec![true; kernel.n_vars];
    while demote(
        &kernel.body,
        false,
        &kernel.pool.uniform_nodes(&scalar),
        &mut scalar,
    ) {}
    scalar
}

/// Every var `stmts` assign, at any depth: `SetVar` targets and loop vars.
fn assigned_vars(stmts: &[Stmt]) -> Vec<usize> {
    let mut vars = Vec::new();
    visit(stmts, &mut |s| {
        if let Stmt::SetVar { var, .. } | Stmt::For { var, .. } = s {
            vars.push(*var);
        }
    });
    vars
}

/// The [`SOp`] or [`VOp`] (`$Op`) of `$kind` into slot `$d`.
macro_rules! lower_op {
    ($Op:ident, $kind:expr, $d:expr, $a:expr, $b:expr) => {{
        let k = match $b {
            Val::SImm(k) => k,
            _ => 0,
        };
        match $kind {
            Ibin::Add => $Op::Add($d, $a, $b),
            Ibin::Sub => $Op::Sub($d, $a, $b),
            Ibin::Mul => $Op::Mul($d, $a, $b),
            Ibin::Min => $Op::Min($d, $a, $b),
            Ibin::Max => $Op::Max($d, $a, $b),
            Ibin::Le => $Op::Le($d, $a, $b),
            Ibin::Lt => $Op::Lt($d, $a, $b),
            Ibin::Eq => $Op::Eq($d, $a, $b),
            Ibin::And => $Op::And($d, $a, $b),
            Ibin::Or => $Op::Or($d, $a, $b),
            Ibin::FloorDiv => $Op::FloorDiv($d, $a, k),
            Ibin::Mod => $Op::Mod($d, $a, k),
            Ibin::Not => $Op::Not($d, $a),
            Ibin::DivLane(..) => unreachable!("lowered by `Compiler::op`"),
        }
    }};
}

impl<'a> Compiler<'a> {
    fn new(kernel: &'a Kernel, mem: &'a GlobalMem) -> Compiler<'a> {
        let scalar = classify_vars(kernel);
        // Scalar slots: [params.., block, scalar vars.., temps..].
        let mut n_sslots = kernel.n_params + 1;
        // Vector slots: [tid.x, tid.y, tid.z, vector vars.., temps..].
        let mut n_vslots = 3;
        let vars = scalar
            .iter()
            .map(|&s| {
                if s {
                    let slot = VarStorage::Scalar(n_sslots as u16);
                    n_sslots += 1;
                    slot
                } else {
                    let slot = VarStorage::Vector(n_vslots as u16);
                    n_vslots += 1;
                    slot
                }
            })
            .collect();
        let mut shared_bases = Vec::new();
        let mut next = 0i64;
        for b in &kernel.shared {
            shared_bases.push(next);
            next += b.len() as i64;
        }
        // Only params and the block index are known at preamble time;
        // scalar *var* slots are assigned by the body at runtime, so ops
        // reading them must stay at their site.
        let mut hoistable = vec![false; n_sslots];
        for h in hoistable.iter_mut().take(kernel.n_params + 1) {
            *h = true;
        }
        let [bx, by, bz] = kernel.block_dim;
        Compiler {
            held: Vec::new(),
            warp_rows: bx % 32 == 0 || by * bz == 1,
            kernel,
            pool: &kernel.pool,
            mem,
            vars,
            n_sslots,
            n_vslots,
            n_fslots: kernel.n_regs,
            preamble: Vec::new(),
            hoistable,
            shared_bases,
            values: HashMap::default(),
            scoped: Vec::new(),
            epochs: [vec![0; n_sslots], vec![0; n_vslots]],
            lowered: vec![(0, None); kernel.pool.iexprs().len()],
            lowered_log: Vec::new(),
            kills: 0,
        }
    }

    fn sslot(&mut self, hoisted: bool) -> u16 {
        let s = self.n_sslots;
        self.n_sslots += 1;
        self.hoistable.push(hoisted);
        s as u16
    }

    fn vslot(&mut self) -> u16 {
        let v = self.n_vslots;
        self.n_vslots += 1;
        v as u16
    }

    fn fslot(&mut self) -> u16 {
        let f = self.n_fslots;
        self.n_fslots += 1;
        f as u16
    }

    fn is_hoistable(&self, v: Val) -> bool {
        match v {
            Val::SImm(_) => true,
            Val::SSlot(s) => self.hoistable[s as usize],
            Val::VSlot(_) => false,
        }
    }

    /// Lowers an integer expression, once per scope while no var is
    /// reassigned (see `lowered`).
    fn iexpr(&mut self, e: IExprId, prog: &mut Prog) -> Lin {
        if let (kills, Some(lin)) = self.lowered[e.index()] {
            if kills == self.kills {
                return lin;
            }
        }
        let lin = self.lower(e, prog);
        self.lowered[e.index()] = (self.kills, Some(lin));
        self.lowered_log.push(e);
        lin
    }

    fn lower(&mut self, e: IExprId, prog: &mut Prog) -> Lin {
        match self.pool[e] {
            IExpr::Const(c) => Lin::of(Val::SImm(c)),
            IExpr::Param(p) => Lin::of(Val::SSlot(p as u16)),
            IExpr::BlockIdx => Lin::of(Val::SSlot(self.kernel.n_params as u16)),
            IExpr::ThreadIdx(d) if self.kernel.block_dim[d as usize] == 1 => Lin::of(Val::SImm(0)),
            IExpr::ThreadIdx(d) if self.warp_rows => Lin {
                base: Val::SImm(0),
                stride: self.coordinate(d as usize),
            },
            IExpr::ThreadIdx(d) => Lin::of(Val::VSlot(d as u16)),
            IExpr::Var(v) => self.var_value(v),
            IExpr::Add(a, b) => self.sum(a, b, prog, Ibin::Add),
            IExpr::Sub(a, b) => self.sum(a, b, prog, Ibin::Sub),
            IExpr::Mul(a, b) => {
                let (a, b) = (self.iexpr(a, prog), self.iexpr(b, prog));
                // An immediate factor scales the strides with the base.
                let (lin, k) = match (a.base, b.base) {
                    (_, Val::SImm(k)) if !b.is_affine() => (a, k),
                    (Val::SImm(k), _) if !a.is_affine() => (b, k),
                    _ => {
                        let (a, b) = (self.vector(a, prog), self.vector(b, prog));
                        return Lin::of(self.op(Ibin::Mul, a, b, prog));
                    }
                };
                Lin {
                    base: self.op(Ibin::Mul, lin.base, Val::SImm(k), prog),
                    stride: lin.stride.map(|c| c * k),
                }
            }
            IExpr::Min(a, b) => self.ibin(a, b, prog, Ibin::Min),
            IExpr::Max(a, b) => self.ibin(a, b, prog, Ibin::Max),
            IExpr::FloorDiv(a, k) => self.divide(a, k, 0, prog),
            IExpr::Mod(a, m) => match self.pool[a] {
                IExpr::FloorDiv(a, k) if m > 0 => self.divide(a, k, m, prog),
                _ => self.divide(a, m, -1, prog),
            },
        }
    }

    /// Lowers an integer expression to an operand, affine values to a
    /// vector.
    fn value(&mut self, e: IExprId, prog: &mut Prog) -> Val {
        let lin = self.iexpr(e, prog);
        self.vector(lin, prog)
    }

    /// The strides of lane coordinate `c` — `threadIdx.x`, `.y`, `.z`, or
    /// (3) the lane's index in the block — as a function of the thread
    /// index. A dimension of extent 1 has none: its index is the constant 0.
    fn coordinate(&self, c: usize) -> [i64; 3] {
        let [bx, by, _] = self.kernel.block_dim.map(|d| d as i64);
        let lane = [1, bx, bx * by];
        [0, 1, 2].map(|d| match self.kernel.block_dim[d] {
            1 => 0,
            _ if c == 3 => lane[d],
            _ => (c == d) as i64,
        })
    }

    /// The lane coordinate that `stride · threadIdx` is a multiple of, and
    /// the multiplier: the lane index when it fits, else a single dimension.
    fn multiple_of(&self, stride: [i64; 3]) -> Option<(usize, i64)> {
        if stride == [0; 3] {
            return None;
        }
        [3, 0, 1, 2].into_iter().find_map(|c| {
            let unit = self.coordinate(c);
            let d = unit.iter().position(|&u| u != 0)?;
            let k = stride[d] / unit[d];
            (k != 0 && stride == unit.map(|u| u * k)).then_some((c, k))
        })
    }

    /// The operand holding `lin` in every lane: its base when it has no
    /// stride, otherwise a vector computed — once per scope, like any other
    /// value — from the thread index.
    fn vector(&mut self, lin: Lin, prog: &mut Prog) -> Val {
        if !lin.is_affine() {
            return lin.base;
        }
        let mut sum = Val::SImm(0);
        for d in 0..3 {
            let term = self.op(
                Ibin::Mul,
                Val::VSlot(d as u16),
                Val::SImm(lin.stride[d]),
                prog,
            );
            sum = self.op(Ibin::Add, sum, term, prog);
        }
        self.op(Ibin::Add, sum, lin.base, prog)
    }

    /// What kernel var `v` holds: a known affine value, or its slot.
    fn var_value(&self, v: usize) -> Lin {
        let slot = self.var(v);
        let live = |&&(var, lin, at): &&(usize, Lin, [u32; 2])| {
            var == v && at == [self.epoch(slot), self.epoch(lin.base)]
        };
        self.held
            .iter()
            .rev()
            .find(live)
            .map_or(Lin::of(slot), |h| h.1)
    }

    /// The slot of kernel var `v`.
    fn var(&self, v: usize) -> Val {
        match self.vars[v] {
            VarStorage::Scalar(s) => Val::SSlot(s),
            VarStorage::Vector(s) => Val::VSlot(s),
        }
    }

    /// How often the var in `v`'s slot has been reassigned so far.
    fn epoch(&self, v: Val) -> u32 {
        match v {
            Val::SImm(_) => 0,
            Val::SSlot(i) => *self.epochs[0].get(i as usize).unwrap_or(&0),
            Val::VSlot(i) => *self.epochs[1].get(i as usize).unwrap_or(&0),
        }
    }

    fn ibin(&mut self, a: IExprId, b: IExprId, prog: &mut Prog, kind: Ibin) -> Lin {
        let a = self.value(a, prog);
        let b = self.value(b, prog);
        Lin::of(self.op(kind, a, b, prog))
    }

    /// `a + b` or `a - b`: affine while neither is a vector.
    fn sum(&mut self, a: IExprId, b: IExprId, prog: &mut Prog, kind: Ibin) -> Lin {
        let (a, b) = (self.iexpr(a, prog), self.iexpr(b, prog));
        let vector = matches!((a.base, b.base), (Val::VSlot(_), _) | (_, Val::VSlot(_)));
        if vector || !(a.is_affine() || b.is_affine()) {
            let (a, b) = (self.vector(a, prog), self.vector(b, prog));
            return Lin::of(self.op(kind, a, b, prog));
        }
        let sign = if kind == Ibin::Sub { -1 } else { 1 };
        Lin {
            base: self.op(kind, a.base, b.base, prog),
            stride: [0, 1, 2].map(|d| a.stride[d] + sign * b.stride[d]),
        }
    }

    /// `floord(a, k)` (`m == 0`), `pmod(floord(a, k), m)` (`m > 0`) or
    /// `pmod(a, k)` (`m < 0`): by carrying when `a` steps by a small
    /// positive constant from each lane of the block to the next.
    fn divide(&mut self, a: IExprId, k: i64, m: i64, prog: &mut Prog) -> Lin {
        let a = self.iexpr(a, prog);
        Lin::of(match self.multiple_of(a.stride) {
            Some((3, c)) if 0 < c && c <= 4 * k => {
                self.op(Ibin::DivLane(c, k), a.base, Val::SImm(m), prog)
            }
            _ => {
                let a = self.vector(a, prog);
                let kind = if m < 0 { Ibin::Mod } else { Ibin::FloorDiv };
                let q = self.op(kind, a, Val::SImm(k), prog);
                if m > 0 {
                    self.op(Ibin::Mod, q, Val::SImm(m), prog)
                } else {
                    q
                }
            }
        })
    }

    /// The operand holding `kind(a, b)`: folded when both operands are
    /// immediates or one is the op's identity, the value number when a site
    /// that reaches this one has computed it already, a new op otherwise —
    /// vector if either operand is (or the op is per lane by nature),
    /// scalar if not, and then in the per-block preamble when every operand
    /// is block-uniform.
    fn op(&mut self, kind: Ibin, a: Val, b: Val, prog: &mut Prog) -> Val {
        let lane = matches!(kind, Ibin::DivLane(..));
        match (a, b) {
            (Val::SImm(x), Val::SImm(y)) if !lane => return Val::SImm(kind.fold(x, y)),
            (x, Val::SImm(y)) => match (kind, y) {
                (Ibin::Add | Ibin::Sub, 0) | (Ibin::Mul | Ibin::FloorDiv | Ibin::And, 1) => {
                    return x
                }
                (Ibin::Mul, 0) => return b,
                _ => {}
            },
            (Val::SImm(x), y) => match (kind, x) {
                (Ibin::Add, 0) | (Ibin::Mul | Ibin::And, 1) => return y,
                _ => {}
            },
            _ => {}
        }
        let key = (kind, a, b, self.epoch(a), self.epoch(b));
        if let Some(&known) = self.values.get(&key) {
            return known;
        }
        let vector = lane || matches!(a, Val::VSlot(_)) || matches!(b, Val::VSlot(_));
        let hoisted = !vector && self.is_hoistable(a) && self.is_hoistable(b);
        let out = if vector {
            let dst = self.vslot();
            prog.vops.push(match (kind, b) {
                (Ibin::DivLane(c, k), Val::SImm(m)) => VOp::DivLane(dst, a, [c, k, m]),
                _ => lower_op!(VOp, kind, dst, a, b),
            });
            Val::VSlot(dst)
        } else {
            let dst = self.sslot(hoisted);
            let ops = if hoisted {
                &mut self.preamble
            } else {
                &mut prog.sops
            };
            ops.push(lower_op!(SOp, kind, dst, a, b));
            Val::SSlot(dst)
        };
        self.values.insert(key, out);
        // The preamble runs before everything and reads nothing that is
        // ever reassigned: a hoisted value belongs to no scope.
        if !hoisted {
            self.scoped.push(key);
        }
        out
    }

    /// Compiles `f` in a value-number scope of its own: what it computes
    /// is forgotten at its end. The arms of an `If` and the body of a
    /// `For` are such scopes — they may not run at all, and an arm runs
    /// under a narrower mask than the code after it.
    fn scope<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let (mark, held) = (self.scoped.len(), self.held.len());
        let lowered = self.lowered_log.len();
        let out = f(self);
        for key in self.scoped.drain(mark..) {
            self.values.remove(&key);
        }
        for e in self.lowered_log.drain(lowered..) {
            self.lowered[e.index()].1 = None;
        }
        self.held.truncate(held);
        out
    }

    /// Forgets every value number computed from one of `vars`, which are
    /// about to be reassigned: no later key carries their old counts.
    /// (Values computed from *those* become unreachable too: their keys
    /// name temporaries no lookup returns any more.)
    fn kill(&mut self, vars: &[usize]) {
        self.kills += 1;
        for &v in vars {
            match self.vars[v] {
                VarStorage::Scalar(i) => self.epochs[0][i as usize] += 1,
                VarStorage::Vector(i) => self.epochs[1][i as usize] += 1,
            }
        }
    }

    /// The guard that holds wherever the 0/1 operand `v` does.
    fn guard(v: Val) -> Guard {
        let (uniform, lanes) = match v {
            Val::VSlot(_) => (Val::SImm(1), v),
            _ => (v, Val::SImm(1)),
        };
        Guard {
            uniform,
            lanes,
            within: None,
        }
    }

    /// Lowers a condition to a 0/1 operand. Both operands of `And`/`Or` are
    /// always evaluated (conditions are pure), which the 0/1 arithmetic then
    /// combines without short-circuiting.
    fn cond_value(&mut self, c: CondId, prog: &mut Prog) -> Val {
        let node = self.pool[c];
        match node {
            Cond::True => Val::SImm(1),
            Cond::Le(a, b) => self.ibin(a, b, prog, Ibin::Le).base,
            Cond::Lt(a, b) => self.ibin(a, b, prog, Ibin::Lt).base,
            Cond::Eq(a, b) => self.ibin(a, b, prog, Ibin::Eq).base,
            Cond::And(a, b) | Cond::Or(a, b) => {
                let (a, b) = (self.cond_value(a, prog), self.cond_value(b, prog));
                let kind = if matches!(node, Cond::And(..)) {
                    Ibin::And
                } else {
                    Ibin::Or
                };
                self.op(kind, a, b, prog)
            }
            Cond::Not(a) => {
                let a = self.cond_value(a, prog);
                self.op(Ibin::Not, a, Val::SImm(0), prog)
            }
        }
    }

    /// Lowers a condition to a guard: a conjunction of comparisons keeps its
    /// parts apart, anything else is one 0/1 operand.
    fn cond(&mut self, c: CondId, prog: &mut Prog) -> Guard {
        match self.pool[c] {
            Cond::Le(a, b) => self.compare(a, b, prog, Ibin::Le),
            Cond::Lt(a, b) => self.compare(a, b, prog, Ibin::Lt),
            Cond::And(a, b) => {
                let (a, b) = (self.cond(a, prog), self.cond(b, prog));
                let within = match (a.within, b.within) {
                    (Some(mut a), Some(b)) => {
                        for (a, b) in a.iter_mut().zip(*b) {
                            *a = (
                                self.op(Ibin::Max, a.0, b.0, prog),
                                self.op(Ibin::Min, a.1, b.1, prog),
                            );
                        }
                        Some(a)
                    }
                    (a, b) => a.or(b),
                };
                Guard {
                    uniform: self.op(Ibin::And, a.uniform, b.uniform, prog),
                    lanes: self.op(Ibin::And, a.lanes, b.lanes, prog),
                    within,
                }
            }
            _ => Self::guard(self.cond_value(c, prog)),
        }
    }

    /// `a <= b` or `a < b`: a bound on one lane coordinate when `b - a` is
    /// affine in it alone.
    fn compare(&mut self, a: IExprId, b: IExprId, prog: &mut Prog, kind: Ibin) -> Guard {
        let (a, b) = (self.iexpr(a, prog), self.iexpr(b, prog));
        let coordinate = self.multiple_of([0, 1, 2].map(|d| b.stride[d] - a.stride[d]));
        let (Some((c, k)), Val::SImm(_) | Val::SSlot(_), Val::SImm(_) | Val::SSlot(_)) =
            (coordinate, a.base, b.base)
        else {
            let (a, b) = (self.vector(a, prog), self.vector(b, prog));
            return Self::guard(self.op(kind, a, b, prog));
        };
        // `room + k · coordinate >= 0`.
        let room = self.op(Ibin::Sub, b.base, a.base, prog);
        let room = self.op(Ibin::Sub, room, Val::SImm((kind == Ibin::Lt) as i64), prog);
        let [bx, by, bz] = self.kernel.block_dim.map(|d| d as i64);
        let mut within = [bx, by, bz, bx * by * bz].map(|n| (Val::SImm(0), Val::SImm(n - 1)));
        let (lo, hi) = &mut within[c];
        if k < 0 {
            let floor = self.op(Ibin::FloorDiv, room, Val::SImm(-k), prog);
            *hi = self.op(Ibin::Min, *hi, floor, prog);
        } else {
            // `ceil(-room / k)`.
            let up = self.op(Ibin::Sub, Val::SImm(k - 1), room, prog);
            let ceil = self.op(Ibin::FloorDiv, up, Val::SImm(k), prog);
            *lo = self.op(Ibin::Max, *lo, ceil, prog);
        }
        Guard {
            within: Some(Box::new(within)),
            ..Self::guard(Val::SImm(1))
        }
    }

    /// Lowers an `f32` expression; `dst` pins the final op's target (used
    /// to write registers in place).
    fn fexpr(&mut self, e: FExprId, fops: &mut Vec<FOp>) -> FVal {
        let mut op = match self.pool[e] {
            FExpr::Reg(r) => return FVal::Slot(r as u16),
            FExpr::Const(c) => return FVal::Imm(c),
            FExpr::Add(a, b) => FOp::Add(0, self.fexpr(a, fops), self.fexpr(b, fops)),
            FExpr::Sub(a, b) => FOp::Sub(0, self.fexpr(a, fops), self.fexpr(b, fops)),
            FExpr::Mul(a, b) => FOp::Mul(0, self.fexpr(a, fops), self.fexpr(b, fops)),
            FExpr::Sqrt(a) => FOp::Sqrt(0, self.fexpr(a, fops)),
        };
        let dst = self.fslot();
        retarget(&mut op, dst);
        fops.push(op);
        FVal::Slot(dst)
    }

    /// Lowers an `f32` expression whose result must land in register
    /// `reg`: the final op is retargeted, or a copy is emitted for bare
    /// operands.
    fn fexpr_into(&mut self, e: FExprId, reg: u16, fops: &mut Vec<FOp>) {
        let out = self.fexpr(e, fops);
        match (out, fops.last_mut()) {
            (FVal::Slot(s), Some(op)) if op_dst(op) == s => retarget(op, reg),
            _ => fops.push(FOp::Copy(reg, out)),
        }
    }

    /// Lowers a spatial index against the extents of global field
    /// `field`.
    fn global_index(&mut self, field: usize, index: Indices, prog: &mut Prog) -> FlatIndex {
        self.flat_index(index, self.mem.field_dims(field), 0, prog)
    }

    /// Lowers a shared-buffer index against the buffer's static extents.
    fn shared_index(&mut self, buf: usize, index: Indices, prog: &mut Prog) -> FlatIndex {
        let base = self.shared_bases[buf];
        self.flat_index(index, &self.kernel.shared[buf].dims, base, prog)
    }

    fn flat_index(
        &mut self,
        index: Indices,
        extents: &'a [usize],
        base: i64,
        prog: &mut Prog,
    ) -> FlatIndex {
        let index = &self.pool[index];
        assert_eq!(index.len(), extents.len(), "index arity mismatch");
        let mut flat = FlatIndex {
            dims: Vec::with_capacity(index.len()),
            affine: true,
            base,
        };
        for (d, &e) in index.iter().enumerate() {
            let stride: usize = extents[d + 1..].iter().product();
            let lin = self.iexpr(e, prog);
            flat.affine &= !matches!(lin.base, Val::VSlot(_));
            flat.dims.push((lin, extents[d] as i64, stride as i64));
        }
        // One vector dimension makes every lane dimension a vector.
        if !flat.affine {
            for (lin, ..) in &mut flat.dims {
                *lin = Lin::of(self.vector(*lin, prog));
            }
        }
        flat
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Vec<BcStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt) -> BcStmt {
        match stmt {
            Stmt::SetVar { var, value } => {
                let mut prog = Prog::default();
                let lin = self.iexpr(*value, &mut prog);
                let out = self.vector(lin, &mut prog);
                self.kill(&[*var]);
                match self.vars[*var] {
                    VarStorage::Scalar(dst) => BcStmt::SetVarS {
                        prog,
                        value: out,
                        dst,
                    },
                    VarStorage::Vector(dst) => {
                        match (out, prog.vops.last_mut()) {
                            (Val::VSlot(s), Some(op)) if vop_dst(op) == s => {
                                // The temporary is never written now. Its
                                // op is the root of `value`, emitted last.
                                retarget_v(op, dst);
                                let root = self.scoped.pop().expect("a vector op is scoped");
                                let held = self.values.remove(&root);
                                debug_assert_eq!(held, Some(out));
                            }
                            _ => prog.vops.push(VOp::Copy(dst, out)),
                        }
                        // Recorded after the retarget, which pops the last
                        // scoped fact.
                        if lin.is_affine() {
                            let at = [self.epoch(Val::VSlot(dst)), self.epoch(lin.base)];
                            self.held.push((*var, lin, at));
                        }
                        BcStmt::SetVarV { prog }
                    }
                }
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let mut prog = Prog::default();
                let lo = self.value(*lo, &mut prog);
                let hi = self.value(*hi, &mut prog);
                // The body runs again after its own assignments: nothing
                // computed from a var it steps or sets survives into it.
                let mut stepped = assigned_vars(body);
                stepped.push(*var);
                self.kill(&stepped);
                BcStmt::For {
                    prog,
                    lo,
                    hi,
                    step: *step,
                    var: self.var(*var),
                    body: self.scope(|c| c.stmts(body)),
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let mut prog = Prog::default();
                let guard = self.cond(*cond, &mut prog);
                let then_ = self.scope(|c| c.stmts(then_));
                let else_ = self.scope(|c| c.stmts(else_));
                if guard == Self::guard(guard.uniform) {
                    BcStmt::IfUniform {
                        prog,
                        cond: guard.uniform,
                        then_,
                        else_,
                    }
                } else {
                    BcStmt::IfLane {
                        prog,
                        guard,
                        then_,
                        else_,
                    }
                }
            }
            Stmt::GlobalLoad {
                dst,
                field,
                plane,
                index,
            } => {
                let mut prog = Prog::default();
                let plane = self.value(*plane, &mut prog);
                let flat = self.global_index(*field, *index, &mut prog);
                BcStmt::GlobalLoad {
                    prog,
                    dst: *dst as u16,
                    field: *field as u32,
                    plane,
                    flat,
                }
            }
            Stmt::GlobalStore {
                field,
                plane,
                index,
                src,
            } => {
                let mut prog = Prog::default();
                let plane = self.value(*plane, &mut prog);
                let flat = self.global_index(*field, *index, &mut prog);
                let mut fops = Vec::new();
                let out = self.fexpr(*src, &mut fops);
                BcStmt::GlobalStore {
                    prog,
                    field: *field as u32,
                    plane,
                    flat,
                    fops,
                    src: out,
                    flops: flop_weight(self.pool, *src),
                }
            }
            Stmt::SharedLoad { dst, buf, index } => {
                let mut prog = Prog::default();
                let flat = self.shared_index(*buf, *index, &mut prog);
                BcStmt::SharedLoad {
                    prog,
                    dst: *dst as u16,
                    flat,
                }
            }
            Stmt::SharedStore { buf, index, src } => {
                let mut prog = Prog::default();
                let flat = self.shared_index(*buf, *index, &mut prog);
                let mut fops = Vec::new();
                let out = self.fexpr(*src, &mut fops);
                BcStmt::SharedStore {
                    prog,
                    flat,
                    fops,
                    src: out,
                    flops: flop_weight(self.pool, *src),
                }
            }
            Stmt::Compute { dst, expr } => {
                let mut fops = Vec::new();
                self.fexpr_into(*expr, *dst as u16, &mut fops);
                BcStmt::Compute {
                    fops,
                    flops: flop_weight(self.pool, *expr),
                }
            }
            Stmt::Sync => BcStmt::Sync,
        }
    }
}

/// An integer op kind — with its two operands, the key of a value number.
/// `FloorDiv` and `Mod` carry their constant as an immediate second
/// operand; `Not` ignores its second operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Ibin {
    Add,
    Sub,
    Mul,
    Min,
    Max,
    Le,
    Lt,
    Eq,
    And,
    Or,
    FloorDiv,
    Mod,
    Not,
    /// [`VOp::DivLane`] with this lane step and divisor; the modulus is
    /// the immediate second operand.
    DivLane(i64, i64),
}

impl Ibin {
    /// The op on two immediates.
    fn fold(self, x: i64, y: i64) -> i64 {
        match self {
            Ibin::Add => x + y,
            Ibin::Sub => x - y,
            Ibin::Mul => x * y,
            Ibin::Min => x.min(y),
            Ibin::Max => x.max(y),
            Ibin::Le => (x <= y) as i64,
            Ibin::Lt => (x < y) as i64,
            Ibin::Eq => (x == y) as i64,
            Ibin::And => x & y,
            Ibin::Or => x | y,
            Ibin::FloorDiv => x.div_euclid(y),
            Ibin::Mod => x.rem_euclid(y),
            Ibin::Not => 1 - x,
            Ibin::DivLane(..) => unreachable!("a lane op is never folded"),
        }
    }
}

/// `$dst(op)`, the destination slot of a `$Op`, and `$retarget(op, d)`,
/// which makes it `d`.
macro_rules! dst_slot {
    ($Op:ident, $dst:ident, $retarget:ident: $($V:ident)|+) => {
        fn $dst(op: &$Op) -> u16 {
            match *op {
                $($Op::$V(d, ..))|+ => d,
            }
        }

        fn $retarget(op: &mut $Op, dst: u16) {
            match op {
                $($Op::$V(d, ..))|+ => *d = dst,
            }
        }
    };
}

dst_slot!(FOp, op_dst, retarget: Copy | Add | Sub | Mul | Sqrt);
dst_slot!(VOp, vop_dst, retarget_v: Copy | Add | Sub | Mul | FloorDiv | Mod | Min | Max
    | Le | Lt | Eq | And | Or | Not | DivLane);

/// Compiles one kernel against the field extents of `mem`.
pub(crate) fn compile_kernel(kernel: &Kernel, mem: &GlobalMem) -> BcKernel {
    let mut c = Compiler::new(kernel, mem);
    let body = c.stmts(&kernel.body);
    let vector_var_slots = 3..3 + c
        .vars
        .iter()
        .filter(|v| matches!(v, VarStorage::Vector(_)))
        .count();
    assert!(
        c.n_sslots < u16::MAX as usize
            && c.n_vslots < u16::MAX as usize
            && c.n_fslots < u16::MAX as usize,
        "kernel too large for 16-bit slot indices"
    );
    BcKernel {
        body,
        preamble: c.preamble,
        n_threads: kernel.threads_per_block(),
        n_params: kernel.n_params,
        n_sslots: c.n_sslots,
        n_vslots: c.n_vslots,
        n_fslots: c.n_fslots,
        vector_var_slots,
        n_regs: kernel.n_regs,
        shared_words: kernel.shared.iter().map(|b| b.len()).sum(),
        block_dim: kernel.block_dim,
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// A divergence mask with what every statement asks of it — how many
/// lanes and warps are active, and which lanes of each warp — derived once
/// where the mask is made ([`Mask::seal`]) rather than once per statement.
#[derive(Default, Debug)]
struct Mask {
    /// The active lanes of each 32-lane warp, lane `l` of the warp at bit
    /// `l`: what a mask is made of.
    warps: Vec<u32>,
    lanes: Vec<bool>,
    /// Active lanes.
    count: usize,
    /// Warps with at least one active lane.
    active_warps: u64,
}

impl Mask {
    /// Derives the lanes and the summary from `warps`.
    fn seal(&mut self) {
        for (&bits, lanes) in self.warps.iter().zip(self.lanes.chunks_mut(32)) {
            for (lane, m) in lanes.iter_mut().enumerate() {
                *m = bits >> lane & 1 != 0;
            }
        }
        self.count = self.warps.iter().map(|w| w.count_ones() as usize).sum();
        self.active_warps = self.warps.iter().filter(|&&w| w != 0).count() as u64;
    }

    /// Splits the mask by the lanes set in `then.warps`: `then` becomes
    /// those of its lanes, `else_` the others, both unsealed. Returns the
    /// divergence: the warps with lanes on both sides.
    fn split(&self, then: &mut Mask, else_: &mut Mask) -> u64 {
        for (warp, &bits) in self.warps.iter().enumerate() {
            then.warps[warp] &= bits;
            else_.warps[warp] = bits & !then.warps[warp];
        }
        let both = |(&t, &e): &(&u32, &u32)| t != 0 && e != 0;
        then.warps.iter().zip(&else_.warps).filter(both).count() as u64
    }

    /// Every lane is active.
    fn all(&self) -> bool {
        self.count == self.lanes.len()
    }

    /// The lanes an op into slot `dst` must leave alone, if any: none under
    /// a full mask, and none when `dst` is a temporary (slots from `temps`
    /// on). A temporary has one defining op and is read only in the scope
    /// that defines it, under that op's mask or a narrower one, so what its
    /// inactive lanes hold is never observed; vars and registers outlive
    /// the mask and keep their inactive lanes.
    #[inline]
    fn kept(&self, dst: u16, temps: usize) -> Option<&[bool]> {
        (!self.all() && (dst as usize) < temps).then_some(&self.lanes[..])
    }
}

/// Reusable per-worker execution state: slot arrays, shared memory, the
/// per-block L1 slice, the statement's flat offsets and a mask arena — all
/// pooled across blocks and launches so the four hot statement handlers
/// never allocate.
#[derive(Default, Debug)]
pub struct ExecScratch {
    s: Vec<i64>,
    v: Vec<i64>,
    f: Vec<f32>,
    shared: Vec<f32>,
    words: Vec<usize>,
    masks: Vec<Mask>,
    l1: Option<L2Cache>,
}

impl ExecScratch {
    /// Prepares the scratch for one block of `bc`: sizes the slot
    /// arrays, zeroes vars/registers/shared memory, seeds params, block
    /// index and thread-id vectors, resets the block-private L1 slice
    /// and runs the scalar preamble.
    fn bind(&mut self, bc: &BcKernel, params: &[i64], block: i64) {
        assert_eq!(params.len(), bc.n_params, "launch parameter arity");
        let n = bc.n_threads;
        self.s.clear();
        self.s.resize(bc.n_sslots, 0);
        self.s[..bc.n_params].copy_from_slice(params);
        self.s[bc.n_params] = block;
        self.v.resize(bc.n_vslots * n, 0);
        self.f.resize(bc.n_fslots * n, 0.0);
        self.shared.clear();
        self.shared.resize(bc.shared_words, 0.0);
        // Zero var and register slots (temps are written before read).
        for slot in bc.vector_var_slots.clone() {
            self.v[slot * n..(slot + 1) * n].fill(0);
        }
        self.f[..bc.n_regs * n].fill(0.0);
        // Thread-id vectors.
        for t in 0..n {
            self.v[t] = (t % bc.block_dim[0]) as i64;
            self.v[n + t] = ((t / bc.block_dim[0]) % bc.block_dim[1]) as i64;
            self.v[2 * n + t] = (t / (bc.block_dim[0] * bc.block_dim[1])) as i64;
        }
        // Fermi's 16 KB L1 configuration divided among ~8 resident
        // blocks per SM: a 2 KB effective slice per block, reset (not
        // reallocated) between blocks.
        match &mut self.l1 {
            Some(l1) => l1.reset(),
            None => self.l1 = Some(L2Cache::new(2 * 1024)),
        }
        for op in &bc.preamble {
            exec_sop(op, &mut self.s);
        }
    }

    /// An unsealed mask of `n` lanes, none of them active.
    fn take_mask(&mut self, n: usize) -> Mask {
        let mut m = self.masks.pop().unwrap_or_default();
        m.lanes.resize(n, false);
        m.warps.clear();
        m.warps.resize(n.div_ceil(32), 0);
        m
    }

    fn return_mask(&mut self, m: Mask) {
        self.masks.push(m);
    }
}

#[inline]
fn exec_sop(op: &SOp, s: &mut [i64]) {
    use scalar_operand as at;
    match *op {
        SOp::Add(d, a, b) => s[d as usize] = at(s, a) + at(s, b),
        SOp::Sub(d, a, b) => s[d as usize] = at(s, a) - at(s, b),
        SOp::Mul(d, a, b) => s[d as usize] = at(s, a) * at(s, b),
        SOp::FloorDiv(d, a, k) => s[d as usize] = at(s, a).div_euclid(k),
        SOp::Mod(d, a, k) => s[d as usize] = at(s, a).rem_euclid(k),
        SOp::Min(d, a, b) => s[d as usize] = at(s, a).min(at(s, b)),
        SOp::Max(d, a, b) => s[d as usize] = at(s, a).max(at(s, b)),
        SOp::Le(d, a, b) => s[d as usize] = (at(s, a) <= at(s, b)) as i64,
        SOp::Lt(d, a, b) => s[d as usize] = (at(s, a) < at(s, b)) as i64,
        SOp::Eq(d, a, b) => s[d as usize] = (at(s, a) == at(s, b)) as i64,
        SOp::And(d, a, b) => s[d as usize] = at(s, a) & at(s, b),
        SOp::Or(d, a, b) => s[d as usize] = at(s, a) | at(s, b),
        SOp::Not(d, a) => s[d as usize] = 1 - at(s, a),
    }
}

/// A vector-op operand resolved once per op (not once per lane): either a
/// lane-invariant broadcast value or a base offset into the slot array
/// (`i64` or `f32`) the op works on.
#[derive(Clone, Copy)]
enum Src<T> {
    Broadcast(T),
    Lanes(usize),
}

impl<T: Copy> Src<T> {
    /// The operand's value in `lane`, given its slot array.
    #[inline]
    fn at(self, slots: &[T], lane: usize) -> T {
        match self {
            Src::Broadcast(x) => x,
            Src::Lanes(base) => slots[base + lane],
        }
    }
}

/// Applies `f` to operand `a` lane by lane, writing slots `d..d + n`.
/// `mask: None` writes every lane; under `Some(mask)` an inactive lane
/// keeps its value — a select per lane, not a branch.
#[inline]
fn map1<T: Copy>(
    slots: &mut [T],
    d: usize,
    n: usize,
    mask: Option<&[bool]>,
    a: Src<T>,
    f: impl Fn(T) -> T,
) {
    match (a, mask) {
        (Src::Broadcast(x), None) => slots[d..d + n].fill(f(x)),
        (a, None) => {
            for lane in 0..n {
                slots[d + lane] = f(a.at(slots, lane));
            }
        }
        (a, Some(mask)) => {
            for (lane, &m) in mask.iter().enumerate() {
                let r = f(a.at(slots, lane));
                slots[d + lane] = if m { r } else { slots[d + lane] };
            }
        }
    }
}

/// Binary [`map1`].
#[inline]
fn map2<T: Copy>(
    slots: &mut [T],
    d: usize,
    n: usize,
    mask: Option<&[bool]>,
    a: Src<T>,
    b: Src<T>,
    f: impl Fn(T, T) -> T,
) {
    match (a, b, mask) {
        (Src::Broadcast(x), b, _) => map1(slots, d, n, mask, b, |y| f(x, y)),
        (a, Src::Broadcast(y), _) => map1(slots, d, n, mask, a, |x| f(x, y)),
        (Src::Lanes(ab), Src::Lanes(bb), None) => {
            for lane in 0..n {
                slots[d + lane] = f(slots[ab + lane], slots[bb + lane]);
            }
        }
        (Src::Lanes(ab), Src::Lanes(bb), Some(mask)) => {
            for (lane, &m) in mask.iter().enumerate() {
                let r = f(slots[ab + lane], slots[bb + lane]);
                slots[d + lane] = if m { r } else { slots[d + lane] };
            }
        }
    }
}

struct CompiledExec<'a, B: GlobalBackend> {
    bc: &'a BcKernel,
    glob: &'a mut B,
    counters: &'a mut Counters,
    scratch: &'a mut ExecScratch,
}

/// The set bits of `bits`, ascending.
fn set_bits(mut bits: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(lane)
    })
}

/// Sets the bits of lanes `from..to` in the per-warp words `warps`.
fn set_lanes(warps: &mut [u32], from: usize, to: usize) {
    for (warp, bits) in warps.iter_mut().enumerate() {
        let (lo, hi) = (from.max(warp * 32), to.min(warp * 32 + 32));
        if lo < hi {
            *bits |= (u32::MAX >> (32 - (hi - lo))) << (lo - warp * 32);
        }
    }
}

/// Sets the lanes of a block of `block_dim` threads whose four lane
/// coordinates lie in `lo[c]..=hi[c]` (bounds inside the block's, or empty):
/// the rows of the box, each cut to the lane interval.
fn set_box(warps: &mut [u32], block_dim: [usize; 3], lo: [i64; 4], hi: [i64; 4]) {
    let [bx, by, _] = block_dim.map(|d| d as i64);
    for row in (lo[2]..=hi[2]).flat_map(|z| (z * by + lo[1])..=(z * by + hi[1])) {
        let from = (row * bx + lo[0]).max(lo[3]);
        let to = (row * bx + hi[0]).min(hi[3]) + 1;
        set_lanes(warps, from as usize, to.max(0) as usize);
    }
}

/// Where the lanes of one warp point: the flat offset of bit `i`.
#[derive(Clone, Copy)]
enum WarpAddr<'a> {
    /// `words[i]`, derived per lane.
    Table(&'a [usize]),
    /// `start + step * i`, an affine address.
    Run { start: i64, step: i64 },
}

impl WarpAddr<'_> {
    #[inline]
    fn at(self, i: usize) -> usize {
        match self {
            WarpAddr::Table(words) => words[i],
            WarpAddr::Run { start, step } => (start + step * i as i64) as usize,
        }
    }

    /// `(first active bit, its offset, how many)` when the active lanes
    /// `bits` are consecutive and address consecutive words: a slice.
    fn span(self, bits: u32) -> Option<(usize, usize, usize)> {
        let (first, len) = (bits.trailing_zeros() as usize, bits.count_ones() as usize);
        match self {
            WarpAddr::Run { start, step: 1 } if bits >> first == u32::MAX >> (32 - len) => {
                Some((first, (start + first as i64) as usize, len))
            }
            _ => None,
        }
    }

    /// Words with the bank-conflict count of the active lanes `bits`: all
    /// of theirs, or just one when they are one word or distinct words
    /// inside one 32-word window — a bank each, one transaction.
    fn banked(self, bits: u32, buf: &mut [usize; 32]) -> &[usize] {
        let conflict_free = matches!(self, WarpAddr::Run { step: -1..=1, .. });
        let lanes = set_bits(bits).take(if conflict_free { 1 } else { 32 });
        let mut active = 0;
        for i in lanes {
            buf[active] = self.at(i);
            active += 1;
        }
        &buf[..active]
    }
}

impl<B: GlobalBackend> CompiledExec<'_, B> {
    #[inline]
    fn geti(&self, v: Val, lane: usize) -> i64 {
        match v {
            Val::SImm(c) => c,
            Val::SSlot(i) => self.scratch.s[i as usize],
            Val::VSlot(i) => self.scratch.v[i as usize * self.bc.n_threads + lane],
        }
    }

    fn run_prog(&mut self, prog: &Prog, mask: &Mask) {
        for op in &prog.sops {
            exec_sop(op, &mut self.scratch.s);
        }
        self.run_vops(&prog.vops, mask);
    }

    /// Resolves a vector-op operand once, hoisting the per-lane `match`
    /// out of the lane loops.
    #[inline]
    fn vsrc(&self, v: Val) -> Src<i64> {
        match v {
            Val::SImm(c) => Src::Broadcast(c),
            Val::SSlot(i) => Src::Broadcast(self.scratch.s[i as usize]),
            Val::VSlot(i) => Src::Lanes(i as usize * self.bc.n_threads),
        }
    }

    /// [`CompiledExec::vsrc`] for `f32` operands.
    #[inline]
    fn fsrc(&self, v: FVal) -> Src<f32> {
        match v {
            FVal::Imm(c) => Src::Broadcast(c),
            FVal::Slot(i) => Src::Lanes(i as usize * self.bc.n_threads),
        }
    }

    fn run_vops(&mut self, vops: &[VOp], mask: &Mask) {
        let n = self.bc.n_threads;
        for op in vops {
            let d = vop_dst(op);
            let kept = mask.kept(d, self.bc.vector_var_slots.end);
            macro_rules! vbin {
                ($a:expr, $b:expr, $f:expr) => {{
                    let (a, b) = (self.vsrc(*$a), self.vsrc(*$b));
                    map2(&mut self.scratch.v, d as usize * n, n, kept, a, b, $f);
                }};
            }
            macro_rules! vun {
                ($a:expr, $f:expr) => {{
                    let a = self.vsrc(*$a);
                    map1(&mut self.scratch.v, d as usize * n, n, kept, a, $f);
                }};
            }
            match op {
                VOp::Copy(_, a) => vun!(a, |x: i64| x),
                VOp::Add(_, a, b) => vbin!(a, b, |x: i64, y: i64| x + y),
                VOp::Sub(_, a, b) => vbin!(a, b, |x: i64, y: i64| x - y),
                VOp::Mul(_, a, b) => vbin!(a, b, |x: i64, y: i64| x * y),
                VOp::Min(_, a, b) => vbin!(a, b, |x: i64, y: i64| x.min(y)),
                VOp::Max(_, a, b) => vbin!(a, b, |x: i64, y: i64| x.max(y)),
                VOp::Le(_, a, b) => vbin!(a, b, |x: i64, y: i64| (x <= y) as i64),
                VOp::Lt(_, a, b) => vbin!(a, b, |x: i64, y: i64| (x < y) as i64),
                VOp::Eq(_, a, b) => vbin!(a, b, |x: i64, y: i64| (x == y) as i64),
                VOp::And(_, a, b) => vbin!(a, b, |x: i64, y: i64| x & y),
                VOp::Or(_, a, b) => vbin!(a, b, |x: i64, y: i64| x | y),
                VOp::FloorDiv(_, a, k) => {
                    let k = *k;
                    vun!(a, move |x: i64| x.div_euclid(k))
                }
                VOp::Mod(_, a, k) => {
                    let k = *k;
                    vun!(a, move |x: i64| x.rem_euclid(k))
                }
                VOp::Not(_, a) => vun!(a, |x: i64| 1 - x),
                VOp::DivLane(_, a, [c, k, m]) => {
                    let a = scalar_operand(&self.scratch.s, *a);
                    let (mut q, mut r) = (a.div_euclid(*k), a.rem_euclid(*k));
                    if *m > 0 {
                        q = q.rem_euclid(*m);
                    }
                    let out = &mut self.scratch.v[d as usize * n..][..n];
                    for (lane, out) in out.iter_mut().enumerate() {
                        if kept.is_none_or(|kept| kept[lane]) {
                            *out = if *m < 0 { r } else { q };
                        }
                        r += c;
                        while r >= *k {
                            (q, r) = (q + 1, r - k);
                            if q == *m {
                                q = 0;
                            }
                        }
                    }
                }
            }
        }
    }

    fn run_fops(&mut self, fops: &[FOp], mask: &Mask) {
        let n = self.bc.n_threads;
        for op in fops {
            let d = op_dst(op);
            let kept = mask.kept(d, self.bc.n_regs);
            macro_rules! fbin {
                ($a:expr, $b:expr, $f:expr) => {{
                    let (a, b) = (self.fsrc(*$a), self.fsrc(*$b));
                    map2(&mut self.scratch.f, d as usize * n, n, kept, a, b, $f);
                }};
            }
            macro_rules! fun {
                ($a:expr, $f:expr) => {{
                    let a = self.fsrc(*$a);
                    map1(&mut self.scratch.f, d as usize * n, n, kept, a, $f);
                }};
            }
            match op {
                FOp::Copy(_, a) => fun!(a, |x: f32| x),
                FOp::Add(_, a, b) => fbin!(a, b, |x: f32, y: f32| x + y),
                FOp::Sub(_, a, b) => fbin!(a, b, |x: f32, y: f32| x - y),
                FOp::Mul(_, a, b) => fbin!(a, b, |x: f32, y: f32| x * y),
                FOp::Sqrt(_, a) => fun!(a, f32::sqrt),
            }
        }
    }

    /// Calls `f(self, first lane, active bits, addresses)` for every warp
    /// of `mask` with an active lane, in order, having bounds-checked the
    /// index `flat` of those lanes — what the four memory statements share.
    fn each_warp(
        &mut self,
        flat: &FlatIndex,
        mask: &Mask,
        mut f: impl FnMut(&mut Self, usize, u32, WarpAddr),
    ) {
        let n = self.bc.n_threads;
        let active = |&(_, &bits): &(usize, &u32)| bits != 0;
        if !flat.affine {
            let mut words = std::mem::take(&mut self.scratch.words);
            flat.offsets(&self.scratch.s, &self.scratch.v, mask, &mut words);
            for (warp, &bits) in mask.warps.iter().enumerate().filter(active) {
                f(self, warp * 32, bits, WarpAddr::Table(&words[warp * 32..]));
            }
            self.scratch.words = words;
            return;
        }
        // Inside a warp only `threadIdx.x` moves, so every index is monotone
        // there: in bounds at the warp's first and last active lane, in
        // bounds between them. A failure re-walks the warp's lanes in order,
        // for the first offender's panic.
        let uniform = flat.fold_uniform(&self.scratch.s);
        for (warp, &bits) in mask.warps.iter().enumerate().filter(active) {
            let (s, v) = (&self.scratch.s, &self.scratch.v);
            let (first, last) = (
                bits.trailing_zeros() as i64,
                31 - bits.leading_zeros() as i64,
            );
            let lane = warp * 32 + first as usize;
            let (mut start, mut step, mut outside) = (uniform, 0, false);
            for (_, &(index, extent, stride)) in flat.ranked(false) {
                let at = index.at(s, v, n, lane);
                let ends = [at, at + index.stride[0] * (last - first)];
                outside |= ends.iter().any(|&i| i as u64 >= extent as u64);
                start += stride * at;
                step += stride * index.stride[0];
            }
            if outside {
                for i in set_bits(bits) {
                    flat.offset(uniform, s, v, n, warp * 32 + i);
                }
            }
            start -= step * first;
            f(self, warp * 32, bits, WarpAddr::Run { start, step });
        }
    }

    /// The byte address of word 0 of `plane`, when every lane is in that
    /// one plane: its other words are an addition away.
    fn plane_origin(&self, field: usize, plane: Src<i64>) -> Option<u64> {
        match plane {
            Src::Broadcast(pl) => Some(self.glob.byte_address_flat(field, pl as usize, 0)),
            Src::Lanes(_) => None,
        }
    }

    fn run(&mut self, stmts: &[BcStmt], mask: &Mask) {
        if mask.count == 0 {
            return;
        }
        for s in stmts {
            self.exec(s, mask);
        }
    }

    /// Executes `stmt` under `mask`, which has an active lane.
    fn exec(&mut self, stmt: &BcStmt, mask: &Mask) {
        self.counters.warp_instructions += mask.active_warps;
        let n = self.bc.n_threads;
        match stmt {
            BcStmt::SetVarS { prog, value, dst } => {
                self.run_prog(prog, mask);
                self.scratch.s[*dst as usize] = self.geti(*value, 0);
            }
            BcStmt::SetVarV { prog } => {
                self.run_prog(prog, mask);
            }
            BcStmt::For {
                prog,
                lo,
                hi,
                step,
                var,
                body,
            } => {
                assert!(*step > 0, "loop step must be positive");
                self.run_prog(prog, mask);
                let first = mask.lanes.iter().position(|&m| m).expect("non-empty mask");
                let lo_v = self.geti(*lo, first);
                let hi_v = self.geti(*hi, first);
                debug_assert!(
                    (0..n)
                        .filter(|&l| mask.lanes[l])
                        .all(|l| self.geti(*lo, l) == lo_v && self.geti(*hi, l) == hi_v),
                    "loop bounds must be uniform across active lanes"
                );
                let mut v = lo_v;
                while v < hi_v {
                    match *var {
                        Val::SSlot(s) => self.scratch.s[s as usize] = v,
                        Val::VSlot(s) => {
                            let kept = mask.kept(s, self.bc.vector_var_slots.end);
                            let d = s as usize * n;
                            map1(&mut self.scratch.v, d, n, kept, Src::Broadcast(v), |x| x);
                        }
                        Val::SImm(_) => unreachable!("loop var is a slot"),
                    }
                    self.run(body, mask);
                    v += step;
                }
            }
            BcStmt::IfUniform {
                prog,
                cond,
                then_,
                else_,
            } => {
                self.run_prog(prog, mask);
                if self.geti(*cond, 0) != 0 {
                    self.run(then_, mask);
                } else {
                    self.run(else_, mask);
                }
            }
            BcStmt::IfLane {
                prog,
                guard,
                then_,
                else_,
            } => {
                self.run_prog(prog, mask);
                let mut tmask = self.scratch.take_mask(n);
                let mut emask = self.scratch.take_mask(n);
                // The lanes the guard holds in: the rows of its box, each cut
                // to the lane interval, then the per-lane condition.
                let at = |v: Val| scalar_operand(&self.scratch.s, v);
                match &guard.within {
                    _ if at(guard.uniform) == 0 => {}
                    None => set_lanes(&mut tmask.warps, 0, n),
                    Some(within) => {
                        let (lo, hi) = (within.map(|b| at(b.0)), within.map(|b| at(b.1)));
                        set_box(&mut tmask.warps, self.bc.block_dim, lo, hi);
                    }
                }
                if let Val::VSlot(c) = guard.lanes {
                    let cond = self.scratch.v[c as usize * n..][..n].chunks(32);
                    for (taken, cond) in tmask.warps.iter_mut().zip(cond) {
                        *taken &= cond
                            .iter()
                            .rev()
                            .fold(0, |bits, &c| bits << 1 | (c != 0) as u32);
                    }
                }
                self.counters.divergent_branches += mask.split(&mut tmask, &mut emask);
                // An arm without statements (every generated `else`) needs
                // no lanes.
                for (arm, mask) in [(then_, &mut tmask), (else_, &mut emask)] {
                    if !arm.is_empty() {
                        mask.seal();
                        self.run(arm, mask);
                    }
                }
                self.scratch.return_mask(tmask);
                self.scratch.return_mask(emask);
            }
            BcStmt::GlobalLoad {
                prog,
                dst,
                field,
                plane,
                flat,
            } => {
                self.run_prog(prog, mask);
                let field = *field as usize;
                let d = *dst as usize * n;
                let plane = self.vsrc(*plane);
                let origin = self.plane_origin(field, plane);
                self.each_warp(flat, mask, |ex, base, bits, addr| {
                    let (mut addrs, mut active) = ([0; 32], 0);
                    if let (WarpAddr::Run { start, step: 0 }, Src::Broadcast(pl)) = (addr, plane) {
                        // One word of one plane for the whole warp: one read.
                        let (pl, word) = (pl as usize, start as usize);
                        let value = ex.glob.read_flat(field, pl, word);
                        active = bits.count_ones() as usize;
                        addrs[..active].fill(ex.glob.byte_address_flat(field, pl, word));
                        set_bits(bits).for_each(|i| ex.scratch.f[d + base + i] = value);
                    } else {
                        for i in set_bits(bits) {
                            let (pl, word) =
                                (plane.at(&ex.scratch.v, base + i) as usize, addr.at(i));
                            addrs[active] = match origin {
                                Some(origin) => origin + 4 * word as u64,
                                None => ex.glob.byte_address_flat(field, pl, word),
                            };
                            active += 1;
                            ex.scratch.f[d + base + i] = ex.glob.read_flat(field, pl, word);
                        }
                    }
                    let l1 = ex.scratch.l1.as_mut().expect("bound scratch has an L1");
                    ex.glob.charge_load(ex.counters, l1, &addrs[..active]);
                });
            }
            BcStmt::GlobalStore {
                prog,
                field,
                plane,
                flat,
                fops,
                src,
                flops,
            } => {
                self.run_prog(prog, mask);
                self.run_fops(fops, mask);
                let field = *field as usize;
                let (plane, src) = (self.vsrc(*plane), self.fsrc(*src));
                let origin = self.plane_origin(field, plane);
                self.each_warp(flat, mask, |ex, base, bits, addr| {
                    let (mut addrs, mut active) = ([0; 32], 0);
                    for i in set_bits(bits) {
                        let (pl, word) = (plane.at(&ex.scratch.v, base + i) as usize, addr.at(i));
                        addrs[active] = match origin {
                            Some(origin) => origin + 4 * word as u64,
                            None => ex.glob.byte_address_flat(field, pl, word),
                        };
                        active += 1;
                        let v = src.at(&ex.scratch.f, base + i);
                        ex.glob.write_flat(field, pl, word, v);
                    }
                    ex.glob.charge_store(ex.counters, &addrs[..active]);
                });
                self.counters.flops += flops * mask.count as u64;
            }
            BcStmt::SharedLoad { prog, dst, flat } => {
                self.run_prog(prog, mask);
                let d = *dst as usize * n;
                self.each_warp(flat, mask, |ex, base, bits, addr| {
                    if let Some((first, at, len)) = addr.span(bits) {
                        let dst = &mut ex.scratch.f[d + base + first..][..len];
                        dst.copy_from_slice(&ex.scratch.shared[at..at + len]);
                    } else {
                        for i in set_bits(bits) {
                            ex.scratch.f[d + base + i] = ex.scratch.shared[addr.at(i)];
                        }
                    }
                    charge_shared_load(ex.counters, addr.banked(bits, &mut [0; 32]));
                });
            }
            BcStmt::SharedStore {
                prog,
                flat,
                fops,
                src,
                flops,
            } => {
                self.run_prog(prog, mask);
                self.run_fops(fops, mask);
                let src = self.fsrc(*src);
                self.each_warp(flat, mask, |ex, base, bits, addr| {
                    match (addr.span(bits), src) {
                        (Some((first, at, len)), Src::Lanes(src)) => {
                            let src = &ex.scratch.f[src + base + first..][..len];
                            ex.scratch.shared[at..at + len].copy_from_slice(src);
                        }
                        _ => {
                            for i in set_bits(bits) {
                                ex.scratch.shared[addr.at(i)] = src.at(&ex.scratch.f, base + i);
                            }
                        }
                    }
                    charge_shared_store(ex.counters, addr.banked(bits, &mut [0; 32]));
                });
                self.counters.flops += flops * mask.count as u64;
            }
            BcStmt::Compute { fops, flops } => {
                self.run_fops(fops, mask);
                self.counters.flops += flops * mask.count as u64;
            }
            BcStmt::Sync => {
                self.counters.syncs += 1;
            }
        }
    }
}

/// Executes one block of a compiled kernel against `glob`, charging
/// `counters`, using (and reusing) `scratch`. Bit-exact with
/// [`crate::exec::exec_block`] on the same backend.
pub(crate) fn exec_block_compiled<B: GlobalBackend>(
    bc: &BcKernel,
    params: &[i64],
    block: i64,
    glob: &mut B,
    counters: &mut Counters,
    scratch: &mut ExecScratch,
) {
    scratch.bind(bc, params, block);
    let mut full = scratch.take_mask(bc.n_threads);
    set_lanes(&mut full.warps, 0, bc.n_threads);
    full.seal();
    let mut exec = CompiledExec {
        bc,
        glob,
        counters,
        scratch: &mut *scratch,
    };
    exec.run(&bc.body, &full);
    scratch.return_mask(full);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::exec::GpuSim;
    use crate::test_ir::*;
    use gpu_codegen::ir::{Launch, LaunchPlan, SharedBuf};
    use stencil::Grid;

    /// The hand-written kernels of `exec.rs`'s tests, re-run through the
    /// compiled path and compared bit-for-bit.
    fn assert_compiled_matches(plan: &LaunchPlan, init: &[Grid], planes: usize) {
        let mut seq = GpuSim::new(DeviceConfig::gtx470(), init, planes);
        seq.run_plan(plan);
        let mut comp = GpuSim::new(DeviceConfig::gtx470(), init, planes);
        comp.run_plan_compiled(plan);
        assert_eq!(comp.counters(), seq.counters(), "counters diverged");
        for f in 0..init.len() {
            for p in 0..planes {
                assert!(
                    comp.plane(f, p).bit_equal(seq.plane(f, p)),
                    "field {f} plane {p} diverged"
                );
            }
        }
    }

    #[test]
    fn compiled_copy_kernel_matches_interpreter() {
        let idx = block().scale(32).add(tid(0));
        let kernel = Kernel {
            name: "copy".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            body: vec![
                Stmt::GlobalLoad {
                    dst: 0,
                    field: 0,
                    plane: lit(0),
                    index: index(&[idx]),
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(1),
                    index: index(&[idx]),
                    src: f(FExpr::Add(reg(0), fconst(1.0))),
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 4,
            }],
            description: "copy".into(),
        };
        let mut g = Grid::zeros(&[128]);
        for i in 0..128 {
            g.set(&[i], i as f32);
        }
        assert_compiled_matches(&plan, &[g], 2);
    }

    #[test]
    fn compiled_divergent_if_counts_divergence() {
        let kernel = Kernel {
            name: "div".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 1,
            n_regs: 1,
            n_params: 0,
            body: vec![
                // A var assigned inside the If must be demoted to a
                // vector slot; a top-level uniform one stays scalar.
                Stmt::If {
                    cond: cond(Cond::Lt(tid(0), lit(16))),
                    then_: vec![
                        Stmt::SetVar {
                            var: 0,
                            value: lit(3),
                        },
                        Stmt::Compute {
                            dst: 0,
                            expr: fconst(1.0),
                        },
                    ],
                    else_: vec![Stmt::Compute {
                        dst: 0,
                        expr: fconst(2.0),
                    }],
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(0),
                    index: index(&[tid(0)]),
                    src: reg(0),
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 1,
            }],
            description: "divergence".into(),
        };
        assert_compiled_matches(&plan, &[Grid::zeros(&[32])], 1);
    }

    #[test]
    fn compiled_shared_roundtrip_matches() {
        let tx = tid(0);
        let kernel = Kernel {
            name: "stage".into(),
            block_dim: [32, 1, 1],
            shared: vec![SharedBuf {
                name: "s".into(),
                dims: vec![32],
            }],
            n_vars: 0,
            n_regs: 2,
            n_params: 0,
            body: vec![
                Stmt::GlobalLoad {
                    dst: 0,
                    field: 0,
                    plane: lit(0),
                    index: index(&[tx]),
                },
                Stmt::SharedStore {
                    buf: 0,
                    index: index(&[tx]),
                    src: reg(0),
                },
                Stmt::Sync,
                Stmt::SharedLoad {
                    dst: 1,
                    buf: 0,
                    index: index(&[lit(31).sub(tx)]),
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(1),
                    index: index(&[tx]),
                    src: reg(1),
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 1,
            }],
            description: "shared stage".into(),
        };
        let mut g = Grid::zeros(&[32]);
        for i in 0..32 {
            g.set(&[i], i as f32);
        }
        assert_compiled_matches(&plan, &[g], 2);
    }

    #[test]
    fn compiled_loop_with_params_matches() {
        let tx = tid(0);
        let kernel = Kernel {
            name: "loop".into(),
            block_dim: [8, 1, 1],
            shared: vec![],
            n_vars: 2,
            n_regs: 2,
            n_params: 1,
            body: vec![
                // Scalar var from a param — exercises the hoisted
                // preamble.
                Stmt::SetVar {
                    var: 1,
                    value: param(0).scale(2).offset(1),
                },
                Stmt::Compute {
                    dst: 1,
                    expr: fconst(0.0),
                },
                Stmt::For {
                    var: 0,
                    lo: lit(0),
                    hi: var(1),
                    step: 1,
                    body: vec![
                        Stmt::GlobalLoad {
                            dst: 0,
                            field: 0,
                            plane: lit(0),
                            index: index(&[tx.scale(4).add(var(0).modulo(4))]),
                        },
                        Stmt::Compute {
                            dst: 1,
                            expr: f(FExpr::Add(reg(1), reg(0))),
                        },
                    ],
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(1),
                    index: index(&[tx]),
                    src: reg(1),
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![1],
                blocks: 1,
            }],
            description: "param loop".into(),
        };
        let g = Grid::random(&[32], 9);
        assert_compiled_matches(&plan, &[g], 2);
    }

    #[test]
    fn compiled_min_max_floordiv_mod_match() {
        let tx = tid(0);
        let idx = i(IExpr::Min(
            i(IExpr::Max(tx.fdiv(2).scale(3).modulo(16), lit(1))),
            lit(30),
        ));
        let kernel = Kernel {
            name: "mm".into(),
            block_dim: [32, 1, 1],
            shared: vec![],
            n_vars: 0,
            n_regs: 1,
            n_params: 0,
            body: vec![
                Stmt::GlobalLoad {
                    dst: 0,
                    field: 0,
                    plane: lit(0),
                    index: index(&[idx]),
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(1),
                    index: index(&[tx]),
                    src: f(FExpr::Sqrt(f(FExpr::Mul(reg(0), reg(0))))),
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 1,
            }],
            description: "minmax".into(),
        };
        assert_compiled_matches(&plan, &[Grid::random(&[32], 5)], 2);
    }
    /// Every [`Prog`] of `stmts`, nested arms and bodies included.
    fn progs(stmts: &[BcStmt]) -> Vec<&Prog> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                BcStmt::SetVarS { prog, .. }
                | BcStmt::SetVarV { prog }
                | BcStmt::GlobalLoad { prog, .. }
                | BcStmt::GlobalStore { prog, .. }
                | BcStmt::SharedLoad { prog, .. }
                | BcStmt::SharedStore { prog, .. } => out.push(prog),
                BcStmt::For { prog, body, .. } => {
                    out.push(prog);
                    out.extend(progs(body));
                }
                BcStmt::IfUniform {
                    prog, then_, else_, ..
                }
                | BcStmt::IfLane {
                    prog, then_, else_, ..
                } => {
                    out.push(prog);
                    out.extend(progs(then_));
                    out.extend(progs(else_));
                }
                BcStmt::Compute { .. } | BcStmt::Sync => {}
            }
        }
        out
    }

    /// A one-block, 32-thread plan over one 32-point field with two planes;
    /// `body` leaves its result in registers 0 and 1, whose sum is stored.
    fn one_block_plan(n_vars: usize, mut body: Vec<Stmt>) -> LaunchPlan {
        let sum = f(FExpr::Add(reg(0), reg(1)));
        body.push(store(tid(0), sum));
        kernel_plan([32, 1, 1], vec![], n_vars, vec![], 1, body)
    }

    fn load(dst: usize, at: IExprId) -> Stmt {
        Stmt::GlobalLoad {
            dst,
            field: 0,
            plane: lit(0),
            index: index(&[at]),
        }
    }

    /// Compiles `plan`'s kernel, checks the compiled run against the
    /// interpreter, and returns how many ops satisfy `count`.
    fn checked_op_count(plan: &LaunchPlan, count: impl Fn(&Prog) -> usize) -> usize {
        let init = [Grid::random(&[32], 3)];
        assert_compiled_matches(plan, &init, 2);
        let bc = compile_kernel(&plan.kernels[0], &GlobalMem::new(&init, 2));
        progs(&bc.body).into_iter().map(count).sum()
    }

    /// Divisions, per lane or carried along the lanes.
    fn floor_divs(prog: &Prog) -> usize {
        let is_div = |op: &&VOp| matches!(op, VOp::FloorDiv(..) | VOp::DivLane(.., [_, _, 0]));
        prog.vops.iter().filter(is_div).count()
    }

    #[test]
    fn a_value_is_computed_once_until_its_var_is_reassigned() {
        let half = || var(0).fdiv(2);
        let set = |value: IExprId| Stmt::SetVar { var: 0, value };
        let tx = tid(0);
        // Two uses of `v0 / 2`, nothing in between: one op.
        let reused = one_block_plan(1, vec![set(tx), load(0, half()), load(1, half())]);
        assert_eq!(checked_op_count(&reused, floor_divs), 1);
        // `v0` reassigned in between: the second use must not see the
        // first one's value (the run would read the wrong cells).
        let reassigned = one_block_plan(
            1,
            vec![set(tx), load(0, half()), set(tx.offset(2)), load(1, half())],
        );
        assert_eq!(checked_op_count(&reassigned, floor_divs), 2);
    }

    #[test]
    fn a_value_computed_inside_a_lane_arm_is_recomputed_after_it() {
        let half = || tid(0).fdiv(2);
        let plan = one_block_plan(
            0,
            vec![
                Stmt::If {
                    cond: cond(Cond::Lt(tid(0), lit(16))),
                    then_: vec![load(0, half())],
                    else_: vec![],
                },
                // Lanes 16.. never ran the arm's op.
                load(1, half()),
            ],
        );
        assert_eq!(checked_op_count(&plan, floor_divs), 2);
    }

    #[test]
    fn a_loop_body_does_not_reuse_what_it_invalidates() {
        // `v1 * 3` is computed before the loop and again inside it, where
        // `v1` changes every iteration — after the in-loop use.
        let index = || var(1).scale(3).add(tid(0)).modulo(32);
        let plan = one_block_plan(
            2,
            vec![
                Stmt::SetVar {
                    var: 1,
                    value: lit(1),
                },
                load(0, index()),
                Stmt::For {
                    var: 0,
                    lo: lit(0),
                    hi: lit(3),
                    step: 1,
                    body: vec![
                        load(2, index()),
                        Stmt::Compute {
                            dst: 1,
                            expr: f(FExpr::Add(reg(1), reg(2))),
                        },
                        Stmt::SetVar {
                            var: 1,
                            value: var(1).offset(1),
                        },
                    ],
                },
            ],
        );
        let muls = |prog: &Prog| {
            let is_mul = |op: &&SOp| matches!(op, SOp::Mul(..));
            prog.sops.iter().filter(is_mul).count()
        };
        assert_eq!(checked_op_count(&plan, muls), 2);
    }

    /// Remainders, per lane or carried along the lanes.
    fn mods(prog: &Prog) -> usize {
        let is_mod = |op: &&VOp| matches!(op, VOp::Mod(..) | VOp::DivLane(.., [_, _, -1]));
        prog.vops.iter().filter(is_mod).count()
    }

    #[test]
    fn a_lane_arm_writes_registers_and_temporaries_for_its_own_lanes_only() {
        let tx = tid(0);
        let low = || cond(Cond::Lt(tid(0), lit(16)));
        let bump = |by: f32| Stmt::Compute {
            dst: 0,
            expr: f(FExpr::Add(reg(0), fconst(by))),
        };
        // A register assigned in an arm: the other lanes keep their value.
        let plan = one_block_plan(
            0,
            vec![
                bump(5.0),
                Stmt::If {
                    cond: low(),
                    then_: vec![bump(1.0)],
                    else_: vec![],
                },
            ],
        );
        let init = [Grid::zeros(&[32])];
        assert_compiled_matches(&plan, &init, 2);
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        sim.run_plan_compiled(&plan);
        let got: Vec<f32> = (0..32).map(|i| sim.plane(0, 1).get(&[i])).collect();
        let want: Vec<f32> = (0..32).map(|i| if i < 16 { 6.0 } else { 5.0 }).collect();
        assert_eq!(got, want);

        // `(v0 + 1) % 32` is a temporary of the taken arm, written there for
        // every lane from the `v0` of that moment; the other arm reassigns
        // `v0`. Nothing after the arm may read that temporary: each of the
        // three sites computes its own, and the run reads the cells the
        // interpreter reads.
        let next = || var(0).offset(1).modulo(32);
        let plan = one_block_plan(
            1,
            vec![
                Stmt::SetVar { var: 0, value: tx },
                Stmt::If {
                    cond: low(),
                    then_: vec![load(0, next())],
                    else_: vec![
                        Stmt::SetVar {
                            var: 0,
                            value: lit(40).sub(tx),
                        },
                        load(0, next()),
                    ],
                },
                load(1, next()),
            ],
        );
        assert_eq!(checked_op_count(&plan, mods), 3);
    }

    /// The sealed mask with exactly `lanes` active.
    fn mask_of(lanes: &[bool]) -> Mask {
        let mut mask = ExecScratch::default().take_mask(lanes.len());
        for lane in (0..lanes.len()).filter(|&lane| lanes[lane]) {
            set_lanes(&mut mask.warps, lane, lane + 1);
        }
        mask.seal();
        mask
    }

    #[test]
    fn mask_summary_equals_a_recount() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for case in 0..256 {
            // 1–96 lanes; most sizes leave a last warp shorter than 32.
            let n = 1 + next() % 96;
            let density = next() % 5;
            let lanes: Vec<bool> = (0..n)
                .map(|_| match density {
                    0 => false,
                    4 => true,
                    d => next() % 4 < d,
                })
                .collect();
            let mask = mask_of(&lanes);
            let what = format!("case {case}: {lanes:?}");
            assert_eq!(mask.lanes, lanes, "{what}");
            assert_eq!(mask.count, lanes.iter().filter(|&&m| m).count(), "{what}");
            let warps: Vec<&[bool]> = lanes.chunks(32).collect();
            let active = warps.iter().filter(|w| w.iter().any(|&m| m)).count();
            assert_eq!(mask.active_warps, active as u64, "{what}");
            assert_eq!(mask.warps.len(), warps.len(), "{what}");
            for (w, warp) in warps.iter().enumerate() {
                for l in 0..32 {
                    let bit = mask.warps[w] >> l & 1 == 1;
                    assert_eq!(bit, warp.get(l).copied().unwrap_or(false), "{what}");
                }
                let listed: Vec<usize> = set_bits(mask.warps[w]).collect();
                let set: Vec<usize> = (0..warp.len()).filter(|&l| warp[l]).collect();
                assert_eq!(listed, set, "{what}");
            }
            assert_eq!(mask.all(), lanes.iter().all(|&m| m), "{what}");
        }
    }

    /// The message of the panic `f` raises, if it raises one.
    fn panic_of(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        let payload = std::panic::catch_unwind(f).err()?;
        Some(
            payload
                .downcast_ref::<String>()
                .expect("a formatted panic")
                .clone(),
        )
    }

    #[test]
    fn the_address_pass_checks_active_lanes_in_lane_order() {
        // A 4 × 8 buffer indexed `[slot 3][slot 4]` — the first two past
        // the thread index — by four lanes.
        let flat = FlatIndex {
            dims: vec![
                (Lin::of(Val::VSlot(3)), 4, 8),
                (Lin::of(Val::VSlot(4)), 8, 1),
            ],
            affine: false,
            base: 100,
        };
        let offsets = |rows: [i64; 4], cols: [i64; 4], active: [bool; 4]| {
            let v: Vec<i64> = [0; 12].into_iter().chain(rows).chain(cols).collect();
            let mut out = Vec::new();
            flat.offsets(&[], &v, &mask_of(&active), &mut out);
            out
        };
        let all = [true; 4];
        assert_eq!(
            offsets([0, 1, 2, 3], [7, 0, 3, 5], all),
            [107, 108, 119, 129]
        );
        // One offender: the interpreter-order message.
        assert_eq!(
            panic_of(|| drop(offsets([0, 1, 4, 3], [7, 0, 3, 5], all))).as_deref(),
            Some("compiled index 4 out of bounds for dim 0 (extent 4)")
        );
        // Two, in different dimensions: lane 1 comes before lane 3, although
        // lane 3's dimension is walked first.
        assert_eq!(
            panic_of(|| drop(offsets([0, 1, 2, -1], [7, 9, 3, 5], all))).as_deref(),
            Some("compiled index 9 out of bounds for dim 1 (extent 8)")
        );
        // An inactive lane may hold anything.
        let masked = offsets([0, 1, 2, -1], [7, 9, 3, 5], [true, false, true, false]);
        assert_eq!((masked[0], masked[2]), (107, 119));
    }

    /// One kernel of `block_dim` threads, launched on `blocks` blocks with
    /// `params`, over a one-dimensional field.
    fn kernel_plan(
        block_dim: [usize; 3],
        shared: Vec<SharedBuf>,
        n_vars: usize,
        params: Vec<i64>,
        blocks: usize,
        body: Vec<Stmt>,
    ) -> LaunchPlan {
        LaunchPlan {
            kernels: vec![Kernel {
                name: "k".into(),
                block_dim,
                shared,
                n_vars,
                n_regs: 3,
                n_params: params.len(),
                body,
                pool: take_pool(),
            }],
            launches: vec![Launch {
                kernel: 0,
                params,
                blocks,
            }],
            description: "one kernel".into(),
        }
    }

    /// `field[1][index] = src`.
    fn store(at: IExprId, src: FExprId) -> Stmt {
        Stmt::GlobalStore {
            field: 0,
            plane: lit(1),
            index: index(&[at]),
            src,
        }
    }

    fn set(var: usize, value: IExprId) -> Stmt {
        Stmt::SetVar { var, value }
    }

    fn when(cond: CondId, then_: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_,
            else_: vec![],
        }
    }

    #[test]
    fn a_var_assigned_under_a_uniform_if_stays_scalar() {
        let tx = tid(0);
        let first_block = || cond(Cond::Eq(block(), lit(0)));
        let low = || cond(Cond::Lt(tid(0), lit(16)));
        let count = |var: usize, body: Vec<Stmt>| Stmt::For {
            var,
            lo: lit(0),
            hi: lit(2),
            step: 1,
            body,
        };
        let body = vec![
            // `v0` and the counter `v1`: uniform values under a uniform `If`.
            when(
                first_block(),
                vec![
                    set(0, lit(3)),
                    count(1, vec![load(0, tx.add(var(1)).add(var(0)))]),
                ],
            ),
            // `v2` under a lane `If`; `v3` and the counter `v4` under a
            // uniform one inside a lane one.
            when(low(), vec![set(2, lit(1))]),
            when(
                low(),
                vec![when(first_block(), vec![set(3, lit(2)), count(4, vec![])])],
            ),
            load(1, tx.add(var(2)).add(var(3)).add(var(4))),
            store(block().scale(32).add(tx), f(FExpr::Add(reg(0), reg(1)))),
        ];
        let plan = kernel_plan([32, 1, 1], vec![], 5, vec![], 2, body);
        assert_eq!(
            classify_vars(&plan.kernels[0]),
            [true, true, false, false, false]
        );
        assert_compiled_matches(&plan, &[Grid::random(&[64], 5)], 2);
    }

    #[test]
    fn a_box_splits_a_mask_as_its_lanes_would() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |below: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as i64 % below
        };
        for case in 0..400 {
            let block_dim = [
                [8, 1, 1],
                [32, 1, 1],
                [33, 1, 1],
                [64, 1, 1],
                [256, 1, 1],
                [32, 4, 1],
            ][case % 6];
            let [bx, by, _] = block_dim.map(|d| d as i64);
            let n = (bx * by) as usize;
            let density = next(4);
            let parent: Vec<bool> = (0..n).map(|_| next(3) < density).collect();
            // Bounds inside the block's (the compiler clamps them), empty
            // ones (`hi < lo`, down to -1) and full ones included.
            let mut bound = |extent: i64| match next(4) {
                0 => (0, extent - 1),
                1 => (next(extent), next(extent + 1) - 1),
                _ => {
                    let lo = next(extent);
                    (lo, lo + next(extent - lo))
                }
            };
            let (x, y, lane) = (bound(bx), bound(by), bound(n as i64));
            let inside = |l: usize| {
                let (lx, ly) = (l as i64 % bx, l as i64 / bx);
                let within = |at: i64, (lo, hi): (i64, i64)| lo <= at && at <= hi;
                within(lx, x) && within(ly, y) && within(l as i64, lane)
            };
            let what = format!("case {case}: {block_dim:?} x {x:?} y {y:?} lane {lane:?}");

            let parent = mask_of(&parent);
            let mut scratch = ExecScratch::default();
            let (mut then, mut else_) = (scratch.take_mask(n), scratch.take_mask(n));
            set_box(
                &mut then.warps,
                block_dim,
                [x.0, y.0, 0, lane.0],
                [x.1, y.1, 0, lane.1],
            );
            let divergent = parent.split(&mut then, &mut else_);
            then.seal();
            else_.seal();

            let taken: Vec<bool> = (0..n).map(|l| parent.lanes[l] && inside(l)).collect();
            let other: Vec<bool> = (0..n).map(|l| parent.lanes[l] && !inside(l)).collect();
            for (got, want) in [(&then, mask_of(&taken)), (&else_, mask_of(&other))] {
                assert_eq!(got.lanes, want.lanes, "{what}");
                assert_eq!(got.warps, want.warps, "{what}");
                assert_eq!(
                    (got.count, got.active_warps),
                    (want.count, want.active_warps),
                    "{what}"
                );
            }
            let both = |(t, e): (&[bool], &[bool])| t.contains(&true) && e.contains(&true);
            let warps = taken.chunks(32).zip(other.chunks(32));
            assert_eq!(
                divergent,
                warps.filter(|&w| both(w)).count() as u64,
                "{what}"
            );
        }
    }

    #[test]
    fn a_lane_interval_with_bounds_outside_the_block_matches_the_interpreter() {
        // `p0 <= tid + p2 <= p1` under `tid % 3 != 1`: a box inside a
        // per-lane mask, with its else arm.
        let tx = tid(0);
        for (p0, p1, p2) in [
            (0, 39, 0),
            (-50, 500, 0),
            (5, 4, 0),
            (70, 90, 0),
            (-9, -3, 0),
            (20, 60, 17),
            (3, 35, -30),
        ] {
            let at = tx.add(param(2));
            let bounded = cond(Cond::Le(param(0), at)).and(cond(Cond::Le(at, param(1))));
            let body = vec![
                load(0, tx),
                when(
                    cond(Cond::Not(cond(Cond::Eq(tx.modulo(3), lit(1))))),
                    vec![Stmt::If {
                        cond: bounded,
                        then_: vec![Stmt::Compute {
                            dst: 0,
                            expr: f(FExpr::Sqrt(reg(0))),
                        }],
                        else_: vec![Stmt::Compute {
                            dst: 0,
                            expr: fconst(7.0),
                        }],
                    }],
                ),
                store(tx, reg(0)),
            ];
            let plan = kernel_plan([40, 1, 1], vec![], 0, vec![p0, p1, p2], 1, body);
            assert_compiled_matches(&plan, &[Grid::random(&[40], 2)], 2);
        }
    }

    #[test]
    fn an_affine_index_is_checked_at_its_active_lanes_only() {
        // 64 lanes store `field[tid + 40]` of 96 cells under `tid < p0`.
        let run = |p0: i64| {
            let tx = tid(0);
            let body = vec![when(
                cond(Cond::Lt(tx, param(0))),
                vec![store(tx.offset(40), fconst(1.0))],
            )];
            let plan = kernel_plan([64, 1, 1], vec![], 0, vec![p0], 1, body);
            let mut sim = GpuSim::new(DeviceConfig::gtx470(), &[Grid::zeros(&[96])], 2);
            sim.run_plan_compiled(&plan);
            (0..96)
                .filter(|&i| sim.plane(0, 1).get(&[i]) == 1.0)
                .count()
        };
        // Lanes 56.. would write past the end, and are masked off.
        assert_eq!(run(56), 56);
        // Lanes 56 and 57 are not: the first of them panics, as ever.
        assert_eq!(
            panic_of(|| {
                run(58);
            })
            .as_deref(),
            Some("compiled index 96 out of bounds for dim 0 (extent 96)")
        );
        assert_eq!(
            panic_of(|| {
                run(64);
            })
            .as_deref(),
            Some("compiled index 96 out of bounds for dim 0 (extent 96)")
        );
    }

    #[test]
    fn carried_division_equals_euclidean_division_in_every_lane() {
        let lane_ops = |prog: &Prog| {
            let carried = |op: &&VOp| matches!(op, VOp::DivLane(..));
            prog.vops.iter().filter(carried).count()
        };
        let init = [Grid::random(&[32], 8)];
        for base in [-1000, -74, -73, -1, 0, 5, 71] {
            for c in 1..=4i64 {
                for k in [1, 3, 7, 73] {
                    let at = || param(0).add(tid(0).scale(c));
                    let indices = [
                        at().fdiv(k).modulo(32),
                        at().fdiv(k).modulo(5),
                        at().modulo(k).modulo(32),
                    ];
                    let want: [Box<dyn Fn(i64) -> i64>; 3] = [
                        Box::new(|x| x.div_euclid(k).rem_euclid(32)),
                        Box::new(|x| x.div_euclid(k).rem_euclid(5)),
                        Box::new(|x| x.rem_euclid(k).rem_euclid(32)),
                    ];
                    for (index, want) in indices.into_iter().zip(want) {
                        let body = vec![load(0, index), store(tid(0), reg(0))];
                        let plan = kernel_plan([32, 1, 1], vec![], 0, vec![base], 1, body);
                        assert_compiled_matches(&plan, &init, 2);
                        let bc = compile_kernel(&plan.kernels[0], &GlobalMem::new(&init, 2));
                        let carried: usize = progs(&bc.body).into_iter().map(lane_ops).sum();
                        assert_eq!(carried, (c <= 4 * k) as usize, "{base} + {c} * tid by {k}");
                        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
                        sim.run_plan_compiled(&plan);
                        for lane in 0..32 {
                            let from = want(base + c * lane);
                            let got = sim.plane(0, 1).get(&[lane]);
                            assert_eq!(got, init[0].get(&[from]), "{base} + {c} * {lane} by {k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_unit_stride_shared_access_costs_no_vector_op_and_one_transaction_a_warp() {
        let tx = tid(0);
        let shared = vec![SharedBuf {
            name: "s".into(),
            dims: vec![2, 136],
        }];
        let row = |at: IExprId| index(&[block(), at]);
        let body = vec![
            load(0, tx),
            // 40 of 64 lanes: a full warp and a quarter of one.
            when(
                cond(Cond::Lt(tx, lit(40))),
                vec![
                    Stmt::SharedStore {
                        buf: 0,
                        index: row(tx.offset(8)),
                        src: reg(0),
                    },
                    Stmt::SharedStore {
                        buf: 0,
                        index: row(tx.scale(2)),
                        src: reg(0),
                    },
                    Stmt::SharedLoad {
                        dst: 1,
                        buf: 0,
                        index: row(tx.offset(8)),
                    },
                    Stmt::SharedLoad {
                        dst: 2,
                        buf: 0,
                        index: row(tx.scale(2)),
                    },
                ],
            ),
            store(tx, f(FExpr::Add(reg(1), reg(2)))),
        ];
        let plan = kernel_plan([64, 1, 1], shared, 0, vec![], 1, body);
        let init = [Grid::random(&[64], 4)];
        assert_compiled_matches(&plan, &init, 2);
        let bc = compile_kernel(&plan.kernels[0], &GlobalMem::new(&init, 2));
        let vops: usize = progs(&bc.body).iter().map(|p| p.vops.len()).sum();
        assert_eq!(vops, 0, "every index is affine");
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        sim.run_plan_compiled(&plan);
        let c = sim.counters();
        // Two active warps a statement. `tid + 8`: one transaction each.
        // `2 * tid`: two banks deep in the full warp, one in the other.
        assert_eq!(
            (c.shared_load_requests, c.shared_load_transactions),
            (4, 2 + 3)
        );
        assert_eq!(
            (c.shared_store_requests, c.shared_store_transactions),
            (4, 2 + 3)
        );
    }

    #[test]
    fn lane_conditions_under_or_and_not_match_the_interpreter() {
        // A `[32, 3, 1]` block: boxes over `tid.x`/`tid.y`, an interval of
        // lane indices, and the lanes outside their union.
        let (tx, ty) = (tid(0), tid(1));
        let lane = || tx.add(ty.scale(32));
        let corner = cond(Cond::Lt(tx, lit(5))).and(cond(Cond::Le(lit(1), ty)));
        let middle = cond(Cond::Le(lit(40), lane())).and(cond(Cond::Lt(lane(), lit(70))));
        let either = cond(Cond::Or(corner, middle));
        let body = vec![
            load(0, lane()),
            Stmt::If {
                cond: either,
                then_: vec![Stmt::Compute {
                    dst: 0,
                    expr: f(FExpr::Mul(reg(0), fconst(3.0))),
                }],
                else_: vec![],
            },
            when(
                cond(Cond::Not(either)),
                vec![Stmt::Compute {
                    dst: 1,
                    expr: fconst(2.0),
                }],
            ),
            store(lane(), f(FExpr::Add(reg(0), reg(1)))),
        ];
        let plan = kernel_plan([32, 3, 1], vec![], 0, vec![], 1, body);
        assert_compiled_matches(&plan, &[Grid::random(&[96], 6)], 2);
    }

    #[test]
    fn a_block_of_one_full_and_one_partial_warp_matches_the_interpreter() {
        let tx = tid(0);
        let kernel = Kernel {
            name: "forty".into(),
            block_dim: [40, 1, 1],
            shared: vec![SharedBuf {
                name: "s".into(),
                dims: vec![80],
            }],
            n_vars: 0,
            n_regs: 2,
            n_params: 0,
            body: vec![
                load(0, tx),
                Stmt::SharedStore {
                    buf: 0,
                    index: index(&[tx.scale(2)]),
                    src: reg(0),
                },
                Stmt::Sync,
                // Splits both warps, the short one 3 : 5.
                Stmt::If {
                    cond: cond(Cond::Lt(tx.modulo(8), lit(3))),
                    then_: vec![Stmt::SharedLoad {
                        dst: 1,
                        buf: 0,
                        index: index(&[lit(78).sub(tx.scale(2))]),
                    }],
                    else_: vec![Stmt::Compute {
                        dst: 1,
                        expr: f(FExpr::Sqrt(reg(0))),
                    }],
                },
                Stmt::GlobalStore {
                    field: 0,
                    plane: lit(1),
                    index: index(&[tx]),
                    src: f(FExpr::Mul(reg(1), fconst(0.5))),
                },
            ],
            pool: take_pool(),
        };
        let plan = LaunchPlan {
            kernels: vec![kernel],
            launches: vec![Launch {
                kernel: 0,
                params: vec![],
                blocks: 1,
            }],
            description: "forty lanes".into(),
        };
        assert_compiled_matches(&plan, &[Grid::random(&[40], 11)], 2);
    }

    #[test]
    fn jacobi_copy_in_shares_its_index_arithmetic() {
        // The copy-in chunk loop sets a linear id and decomposes it into
        // box coordinates; the guard, the global load and the shared store
        // after it all need them. Lowered site by site those three were 27
        // vector ops per iteration (19 + 5 + 3).
        let program = stencil::gallery::jacobi2d();
        let plan = gpu_codegen::generate_hybrid(
            &program,
            &hybrid_tiling::TileParams::new(3, &[5, 64]),
            &[96, 96],
            12,
            gpu_codegen::CodegenOptions::best(),
        )
        .unwrap();
        let init = [Grid::zeros(&[96, 96])];
        let bc = compile_kernel(&plan.kernels[0], &GlobalMem::new(&init, 2));
        fn chunk_loop(stmts: &[BcStmt]) -> Option<&[BcStmt]> {
            stmts.iter().find_map(|s| match s {
                BcStmt::For { body, .. } if matches!(body[0], BcStmt::SetVarV { .. }) => {
                    Some(&body[..])
                }
                BcStmt::For { body, .. } => chunk_loop(body),
                BcStmt::IfUniform { then_, .. } => chunk_loop(then_),
                _ => None,
            })
        }
        let body = chunk_loop(&bc.body).expect("a copy-in chunk loop");
        let vops: usize = progs(&body[1..]).iter().map(|p| p.vops.len()).sum();
        assert!((1..=14).contains(&vops), "{vops} vector ops per iteration");
    }
}

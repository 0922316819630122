//! The kernel IR: a small structured language mirroring the CUDA kernels
//! PPCG emits, interpreted warp-synchronously by `gpusim`.
//!
//! Design notes:
//!
//! * Integer (address/index) expressions [`IExpr`] and `f32` value
//!   expressions [`FExpr`] are separate types — addresses never depend on
//!   floating-point data, exactly as in the generated CUDA.
//! * Expressions live in one [`Pool`] per plan. A node names its operands
//!   by id ([`IExprId`], [`CondId`], [`FExprId`]), and the
//!   [`PoolBuilder`] that makes the pool hash-conses on insert: a node
//!   structurally equal to one already there gets that node's id back, so
//!   **structural equality is id equality** and a subtree the generator
//!   builds many times (a time plane, a row's global column) is stored
//!   once. Ids are dense and a node's operands always have smaller ids
//!   than the node, so a consumer can keep a fact per node in an array
//!   indexed by id and fill it in one pass.
//! * The builder's smart constructors fold as they build, the same for
//!   every consumer: [`PoolBuilder::add`] folds two constants, drops a
//!   `+ 0` and normalizes `(e + c1) + c2` to `e + (c1 + c2)`;
//!   [`PoolBuilder::sub`] of a constant is an offset;
//!   [`PoolBuilder::scale`] folds `·0`, `·1` and constants;
//!   [`PoolBuilder::offset`], [`PoolBuilder::modulo`] and
//!   [`PoolBuilder::fdiv`] fold constants; [`PoolBuilder::and`] drops a
//!   `true` operand. [`PoolBuilder::iexpr`], [`PoolBuilder::cond`] and
//!   [`PoolBuilder::fexpr`] intern a node as given.
//! * A [`LaunchPlan`]'s kernels share its pool: each [`Kernel`] holds an
//!   `Arc` of it, and the statements ([`Stmt`]) keep their tree shape but
//!   hold ids. The generator builds into a [`PoolBuilder`] and hands the
//!   [`PoolBuilder::finish`]ed pool to the kernels, read-only from then
//!   on; dropping a plan drops a few `Vec`s. Memory statements name their
//!   index list by an [`Indices`] span of the pool.
//! * Global memory is addressed as `(field, plane, spatial index)`: each
//!   stencil field is a ring of `max_dt + 1` time planes (the
//!   generalization of the `A[(t+1)%2]` double buffer of Fig. 1).
//! * Shared memory is a set of per-kernel buffers with static extents.
//! * Loops have uniform (thread-independent) bounds; thread divergence can
//!   only arise from `If` with lane-dependent conditions, which the
//!   simulator masks and counts — mirroring the paper's divergence
//!   argument.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

/// Index of an integer scalar slot (loop variables, precomputed bases).
pub type VarId = usize;
/// Index of an `f32` register slot.
pub type RegId = usize;

/// A node kind of the [`Pool`]: its id type `$Id`, how a pool reads one
/// (`pool[id]`) and how a [`PoolBuilder`] interns one as given
/// (`builder.$intern(node)`).
macro_rules! node_kind {
    ($(#[$doc:meta])* $Id:ident => $Node:ident in $nodes:ident, $ids:ident, $intern:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
        pub struct $Id(u32);

        impl $Id {
            /// The node's position in its pool: dense from 0, and larger
            /// than the positions of its operands.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl Index<$Id> for Pool {
            type Output = $Node;

            fn index(&self, id: $Id) -> &$Node {
                &self.$nodes[id.index()]
            }
        }

        impl PoolBuilder {
            /// Interns the node as given.
            pub fn $intern(&self, node: $Node) -> $Id {
                let b = &mut *self.0.borrow_mut();
                $Id(intern(&mut b.pool.$nodes, &mut b.$ids, node))
            }
        }
    };
}

node_kind!(
    /// An integer expression of a [`Pool`].
    IExprId => IExpr in iexprs, iexpr_ids, iexpr
);
node_kind!(
    /// A condition of a [`Pool`].
    CondId => Cond in conds, cond_ids, cond
);
node_kind!(
    /// An `f32` expression of a [`Pool`].
    FExprId => FExpr in fexprs, fexpr_ids, fexpr
);

/// Integer expression over scalars, thread/block identifiers and launch
/// parameters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IExpr {
    /// Integer literal.
    Const(i64),
    /// Scalar variable (loop counter or `SetVar` result).
    Var(VarId),
    /// Per-launch scalar parameter (e.g. the time-tile index `T`).
    Param(usize),
    /// Thread index component: 0 = x (innermost/coalesced), 1 = y, 2 = z.
    ThreadIdx(u8),
    /// One-dimensional block index within the launch.
    BlockIdx,
    /// Sum.
    Add(IExprId, IExprId),
    /// Difference.
    Sub(IExprId, IExprId),
    /// Product.
    Mul(IExprId, IExprId),
    /// Floor division by a positive constant.
    FloorDiv(IExprId, i64),
    /// Euclidean remainder by a positive constant.
    Mod(IExprId, i64),
    /// Minimum.
    Min(IExprId, IExprId),
    /// Maximum.
    Max(IExprId, IExprId),
}

/// Boolean condition over integer expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Always true.
    True,
    /// `a <= b`.
    Le(IExprId, IExprId),
    /// `a < b`.
    Lt(IExprId, IExprId),
    /// `a == b`.
    Eq(IExprId, IExprId),
    /// Conjunction.
    And(CondId, CondId),
    /// Disjunction.
    Or(CondId, CondId),
    /// Negation.
    Not(CondId),
}

/// `f32` value expression over registers and literals. Two literals are
/// the same node when their bits are equal.
#[derive(Clone, Copy, Debug)]
pub enum FExpr {
    /// Register read.
    Reg(RegId),
    /// `f32` literal.
    Const(f32),
    /// Addition.
    Add(FExprId, FExprId),
    /// Subtraction.
    Sub(FExprId, FExprId),
    /// Multiplication.
    Mul(FExprId, FExprId),
    /// Square root.
    Sqrt(FExprId),
}

impl FExpr {
    /// The node as plain integers: its kind and its operands, a literal by
    /// its bits.
    fn key(&self) -> (u8, u64, u32) {
        match *self {
            FExpr::Reg(r) => (0, r as u64, 0),
            FExpr::Const(c) => (1, c.to_bits() as u64, 0),
            FExpr::Add(a, b) => (2, a.0 as u64, b.0),
            FExpr::Sub(a, b) => (3, a.0 as u64, b.0),
            FExpr::Mul(a, b) => (4, a.0 as u64, b.0),
            FExpr::Sqrt(a) => (5, a.0 as u64, 0),
        }
    }
}

impl PartialEq for FExpr {
    fn eq(&self, other: &FExpr) -> bool {
        self.key() == other.key()
    }
}

impl Eq for FExpr {}

impl Hash for FExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// A memory statement's index list: a span of the pool's index storage
/// (see [`PoolBuilder::indices`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Indices {
    start: u32,
    len: u32,
}

/// One multiply-rotate round per word under a fixed key: the hasher of
/// the pool's tables and of `gpusim`'s value numbers. Those tables are
/// keyed by the compiler's own nodes and operands, never by outside input,
/// so SipHash's resistance to crafted collisions buys nothing.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let mixed = self.0.rotate_left(5) ^ u64::from_ne_bytes(word);
            self.0 = mixed.wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

/// The id of `node` among `nodes`, which it joins if `ids` does not know it.
fn intern<T: Copy + Eq + Hash>(nodes: &mut Vec<T>, ids: &mut Ids<T>, node: T) -> u32 {
    *ids.entry(node).or_insert_with(|| {
        nodes.push(node);
        (nodes.len() - 1) as u32
    })
}

/// The id of each node of one kind.
type Ids<T> = HashMap<T, u32, BuildHasherDefault<IdHasher>>;

/// The hash-consed expressions of one plan, and the index lists of its
/// memory statements: read-only, made by a [`PoolBuilder`] (see the module
/// docs).
#[derive(Clone, Default, Debug)]
pub struct Pool {
    iexprs: Vec<IExpr>,
    conds: Vec<Cond>,
    fexprs: Vec<FExpr>,
    indices: Vec<IExprId>,
}

impl Index<Indices> for Pool {
    type Output = [IExprId];

    fn index(&self, span: Indices) -> &[IExprId] {
        &self.indices[span.start as usize..][..span.len as usize]
    }
}

impl Pool {
    /// Every integer expression, by id.
    pub fn iexprs(&self) -> &[IExpr] {
        &self.iexprs
    }

    /// Every condition, by id.
    pub fn conds(&self) -> &[Cond] {
        &self.conds
    }

    /// Which integer expressions and conditions are lane-uniform — the
    /// same in every thread of a block — given which vars are
    /// (`uniform_vars[v]`; a var past its end is not): one pass in id
    /// order, which visits every operand before the node that uses it.
    pub fn uniform_nodes(&self, uniform_vars: &[bool]) -> Uniform {
        let mut exprs: Vec<bool> = Vec::with_capacity(self.iexprs.len());
        for e in &self.iexprs {
            let uniform = match *e {
                IExpr::Const(_) | IExpr::Param(_) | IExpr::BlockIdx => true,
                IExpr::ThreadIdx(_) => false,
                IExpr::Var(v) => uniform_vars.get(v) == Some(&true),
                IExpr::Add(a, b)
                | IExpr::Sub(a, b)
                | IExpr::Mul(a, b)
                | IExpr::Min(a, b)
                | IExpr::Max(a, b) => exprs[a.index()] && exprs[b.index()],
                IExpr::FloorDiv(a, _) | IExpr::Mod(a, _) => exprs[a.index()],
            };
            exprs.push(uniform);
        }
        let mut conds: Vec<bool> = Vec::with_capacity(self.conds.len());
        for c in &self.conds {
            let uniform = match *c {
                Cond::True => true,
                Cond::Le(a, b) | Cond::Lt(a, b) | Cond::Eq(a, b) => {
                    exprs[a.index()] && exprs[b.index()]
                }
                Cond::And(a, b) | Cond::Or(a, b) => conds[a.index()] && conds[b.index()],
                Cond::Not(a) => conds[a.index()],
            };
            conds.push(uniform);
        }
        (exprs, conds)
    }

    /// Number of arithmetic operations of `e` (`sqrt` counts 1
    /// instruction; FLOP accounting weights it separately).
    pub fn op_count(&self, e: FExprId) -> u64 {
        match self[e] {
            FExpr::Reg(_) | FExpr::Const(_) => 0,
            FExpr::Add(a, b) | FExpr::Sub(a, b) | FExpr::Mul(a, b) => {
                1 + self.op_count(a) + self.op_count(b)
            }
            FExpr::Sqrt(a) => 1 + self.op_count(a),
        }
    }
}

/// Which integer expressions (`.0`) and conditions (`.1`) of a pool are
/// lane-uniform, by id (see [`Pool::uniform_nodes`]).
pub type Uniform = (Vec<bool>, Vec<bool>);

/// A pool being built, with the id of every node it holds, so that a node
/// structurally equal to one already there gets that one's id. Its methods
/// take `&self`, so calls nest: `p.add(p.var(0), p.lit(1))`.
#[derive(Clone, Default, Debug)]
pub struct PoolBuilder(RefCell<Building>);

#[derive(Clone, Default, Debug)]
struct Building {
    pool: Pool,
    iexpr_ids: Ids<IExpr>,
    cond_ids: Ids<Cond>,
    fexpr_ids: Ids<FExpr>,
    memo: Ids<(u8, [i64; 3])>,
}

impl PoolBuilder {
    /// The pool built so far; the id tables are dropped.
    pub fn finish(self) -> Pool {
        self.0.into_inner().pool
    }

    /// Stores an index list.
    pub fn indices(&self, ids: &[IExprId]) -> Indices {
        let indices = &mut self.0.borrow_mut().pool.indices;
        indices.extend_from_slice(ids);
        let len = ids.len() as u32;
        Indices {
            start: indices.len() as u32 - len,
            len,
        }
    }

    /// `make()`, or what it returned when `key` was asked for before: a
    /// generator that builds one compound expression many times names it
    /// by a key of its own, and pays one lookup instead of one per node.
    pub fn memo(&self, key: (u8, [i64; 3]), make: impl FnOnce() -> IExprId) -> IExprId {
        if let Some(&id) = self.0.borrow().memo.get(&key) {
            return IExprId(id);
        }
        let id = make();
        self.0.borrow_mut().memo.insert(key, id.0);
        id
    }

    /// The literal `k`.
    pub fn lit(&self, k: i64) -> IExprId {
        self.iexpr(IExpr::Const(k))
    }

    /// Scalar variable `v`.
    pub fn var(&self, v: VarId) -> IExprId {
        self.iexpr(IExpr::Var(v))
    }

    fn node(&self, e: IExprId) -> IExpr {
        self.0.borrow().pool[e]
    }

    /// The value of `e` when it is a literal.
    fn constant(&self, e: IExprId) -> Option<i64> {
        match self.node(e) {
            IExpr::Const(c) => Some(c),
            _ => None,
        }
    }

    /// `a + b`, folding constants so that equal addresses have equal ids
    /// (the pseudo-PTX emitter reuses a register per address).
    pub fn add(&self, a: IExprId, b: IExprId) -> IExprId {
        match (self.node(a), self.constant(b)) {
            (IExpr::Const(x), Some(y)) => self.lit(x + y),
            (IExpr::Const(0), None) => b,
            (_, Some(0)) => a,
            // Normalize (e + c1) + c2 -> e + (c1 + c2).
            (IExpr::Add(e, c1), Some(c2)) => match self.constant(c1) {
                Some(c1) => self.iexpr(IExpr::Add(e, self.lit(c1 + c2))),
                None => self.iexpr(IExpr::Add(a, b)),
            },
            _ => self.iexpr(IExpr::Add(a, b)),
        }
    }

    /// `a - b`, an offset when `b` is a literal.
    pub fn sub(&self, a: IExprId, b: IExprId) -> IExprId {
        match self.constant(b) {
            Some(c) => self.offset(a, -c),
            None => self.iexpr(IExpr::Sub(a, b)),
        }
    }

    /// `e · k` (constant-folding).
    pub fn scale(&self, e: IExprId, k: i64) -> IExprId {
        match (self.constant(e), k) {
            (_, 0) => self.lit(0),
            (_, 1) => e,
            (Some(c), k) => self.lit(c * k),
            (None, k) => self.iexpr(IExpr::Mul(e, self.lit(k))),
        }
    }

    /// `e + k` (constant-folding).
    pub fn offset(&self, e: IExprId, k: i64) -> IExprId {
        if k == 0 {
            e
        } else {
            self.add(e, self.lit(k))
        }
    }

    /// Euclidean `e mod k` (constant-folding).
    pub fn modulo(&self, e: IExprId, k: i64) -> IExprId {
        match self.constant(e) {
            Some(c) => self.lit(c.rem_euclid(k)),
            None => self.iexpr(IExpr::Mod(e, k)),
        }
    }

    /// `floor(e / k)` (constant-folding).
    pub fn fdiv(&self, e: IExprId, k: i64) -> IExprId {
        match self.constant(e) {
            Some(c) => self.lit(c.div_euclid(k)),
            None => self.iexpr(IExpr::FloorDiv(e, k)),
        }
    }

    /// `a && b`, dropping a `true` operand.
    pub fn and(&self, a: CondId, b: CondId) -> CondId {
        let pool = |c| self.0.borrow().pool[c];
        match (pool(a), pool(b)) {
            (Cond::True, _) => b,
            (_, Cond::True) => a,
            _ => self.cond(Cond::And(a, b)),
        }
    }

    /// `lo <= e <= hi` (inclusive).
    pub fn between(&self, e: IExprId, lo: IExprId, hi: IExprId) -> CondId {
        self.and(self.cond(Cond::Le(lo, e)), self.cond(Cond::Le(e, hi)))
    }
}

/// A statement of the kernel body.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// Assigns an integer scalar.
    SetVar {
        /// Destination scalar.
        var: VarId,
        /// Value.
        value: IExprId,
    },
    /// `for (var = lo; var < hi; var += step)` with uniform bounds.
    For {
        /// Loop variable.
        var: VarId,
        /// Inclusive lower bound.
        lo: IExprId,
        /// Exclusive upper bound.
        hi: IExprId,
        /// Positive step.
        step: i64,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Conditional; lane-dependent conditions cause (counted) divergence.
    If {
        /// Guard condition.
        cond: CondId,
        /// Taken branch.
        then_: Vec<Stmt>,
        /// Else branch (often empty).
        else_: Vec<Stmt>,
    },
    /// `dst = global[field][plane][index...]`.
    GlobalLoad {
        /// Destination register.
        dst: RegId,
        /// Field identifier.
        field: usize,
        /// Time-plane ring index.
        plane: IExprId,
        /// Spatial index per dimension.
        index: Indices,
    },
    /// `global[field][plane][index...] = src`.
    GlobalStore {
        /// Field identifier.
        field: usize,
        /// Time-plane ring index.
        plane: IExprId,
        /// Spatial index per dimension.
        index: Indices,
        /// Stored value.
        src: FExprId,
    },
    /// `dst = shared[buf][index...]`.
    SharedLoad {
        /// Destination register.
        dst: RegId,
        /// Shared buffer id.
        buf: usize,
        /// Index per buffer dimension.
        index: Indices,
    },
    /// `shared[buf][index...] = src`.
    SharedStore {
        /// Shared buffer id.
        buf: usize,
        /// Index per buffer dimension.
        index: Indices,
        /// Stored value.
        src: FExprId,
    },
    /// Pure arithmetic: `dst = expr`.
    Compute {
        /// Destination register.
        dst: RegId,
        /// Value expression.
        expr: FExprId,
    },
    /// `__syncthreads()`.
    Sync,
}

/// A statically sized shared-memory buffer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SharedBuf {
    /// Buffer name (for emitted code).
    pub name: String,
    /// Extents, row-major (last dimension contiguous).
    pub dims: Vec<usize>,
}

impl SharedBuf {
    /// Total elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied (4-byte floats).
    pub fn bytes(&self) -> usize {
        self.len() * 4
    }
}

/// A complete kernel: block shape, shared buffers, register/scalar counts
/// and the body, whose expressions live in `pool`.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Thread-block shape `[x, y, z]`; x is the coalescing dimension.
    pub block_dim: [usize; 3],
    /// Shared-memory buffers.
    pub shared: Vec<SharedBuf>,
    /// Number of integer scalar slots.
    pub n_vars: usize,
    /// Number of `f32` register slots.
    pub n_regs: usize,
    /// Number of per-launch parameters.
    pub n_params: usize,
    /// The expression pool of the plan the kernel belongs to.
    pub pool: Arc<Pool>,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Threads per block.
    pub fn threads_per_block(&self) -> usize {
        self.block_dim.iter().product()
    }

    /// Shared-memory bytes per block.
    pub fn shared_bytes(&self) -> usize {
        self.shared.iter().map(SharedBuf::bytes).sum()
    }
}

/// Calls `f` on every statement of `stmts`, a nested one after its parent.
pub fn visit<'s>(stmts: &'s [Stmt], f: &mut impl FnMut(&'s Stmt)) {
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

/// One kernel launch: the kernel, per-launch parameter values, and the
/// number of blocks (block `i` sees `BlockIdx = i`).
#[derive(Clone, Debug)]
pub struct Launch {
    /// Index into [`LaunchPlan::kernels`].
    pub kernel: usize,
    /// Values for `IExpr::Param(_)`.
    pub params: Vec<i64>,
    /// Grid size (1-D).
    pub blocks: usize,
}

/// A full program execution plan: kernels plus the host-side launch
/// sequence (the `T`/phase loop of §4.1 lives here). The kernels share one
/// expression [`Pool`].
#[derive(Clone, Debug)]
pub struct LaunchPlan {
    /// The kernels referenced by the launches.
    pub kernels: Vec<Kernel>,
    /// Launches in execution order; consecutive launches are implicitly
    /// ordered (as CUDA streams order kernels).
    pub launches: Vec<Launch>,
    /// Human-readable description of the strategy that produced the plan.
    pub description: String,
}

impl fmt::Display for LaunchPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} kernels, {} launches",
            self.description,
            self.kernels.len(),
            self.launches.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_nodes_follow_the_thread_index_and_the_vars() {
        let p = PoolBuilder::default();
        let (tx, v0, v1, v9) = (p.iexpr(IExpr::ThreadIdx(0)), p.var(0), p.var(1), p.var(9));
        let (param, block) = (p.iexpr(IExpr::Param(0)), p.iexpr(IExpr::BlockIdx));
        let (base, lane) = (p.iexpr(IExpr::Add(v0, param)), p.iexpr(IExpr::Mod(tx, 4)));
        let below = p.cond(Cond::Lt(base, block));
        let off = p.cond(Cond::Lt(lane, v0));
        let either = p.cond(Cond::Or(below, off));
        let (t, not) = (p.cond(Cond::True), p.cond(Cond::Not(below)));
        let (exprs, conds) = p.finish().uniform_nodes(&[true, false]);
        let uniform = |e: IExprId| exprs[e.index()];
        // v9 lies past the classification: not known to be uniform.
        assert_eq!(
            [tx, v0, v1, v9, param, block, base, lane].map(uniform),
            [false, true, false, false, true, true, true, false]
        );
        let uniform = |c: CondId| conds[c.index()];
        assert_eq!(
            [below, off, either, t, not].map(uniform),
            [true, false, false, true, true]
        );
    }

    #[test]
    fn iexpr_builders_compose() {
        let p = PoolBuilder::default();
        let (tx, bx) = (p.iexpr(IExpr::ThreadIdx(0)), p.iexpr(IExpr::BlockIdx));
        let scaled = p.scale(bx, 32);
        let e = p.offset(p.add(tx, scaled), 4);
        let k = p.lit(32);
        // Structure check: (tx + bx·32) + 4.
        let p = p.finish();
        let IExpr::Add(inner, four) = p[e] else {
            panic!("{:?}", p[e]);
        };
        assert_eq!(
            (p[inner], p[four]),
            (IExpr::Add(tx, scaled), IExpr::Const(4))
        );
        assert_eq!(p[scaled], IExpr::Mul(bx, k));
    }

    #[test]
    fn fexpr_op_count() {
        // (a + b) * c has 2 ops.
        let p = PoolBuilder::default();
        let [a, b, c] = [0, 1, 2].map(|r| p.fexpr(FExpr::Reg(r)));
        let e = p.fexpr(FExpr::Mul(p.fexpr(FExpr::Add(a, b)), c));
        assert_eq!(p.finish().op_count(e), 2);
    }

    #[test]
    fn cond_between_builds_conjunction() {
        let p = PoolBuilder::default();
        let c = p.between(p.var(0), p.lit(0), p.lit(9));
        assert!(matches!(p.finish()[c], Cond::And(_, _)));
    }

    #[test]
    fn shared_buf_bytes() {
        let b = SharedBuf {
            name: "sA".into(),
            dims: vec![2, 8, 36],
        };
        assert_eq!(b.len(), 576);
        assert_eq!(b.bytes(), 2304);
    }

    #[test]
    fn kernel_accounting() {
        let k = Kernel {
            name: "k".into(),
            block_dim: [32, 4, 1],
            shared: vec![SharedBuf {
                name: "s".into(),
                dims: vec![16, 34],
            }],
            n_vars: 2,
            n_regs: 4,
            n_params: 1,
            pool: Arc::default(),
            body: vec![],
        };
        assert_eq!(k.threads_per_block(), 128);
        assert_eq!(k.shared_bytes(), 16 * 34 * 4);
    }
}

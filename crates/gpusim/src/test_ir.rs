//! Terse kernel IR for the unit tests. Every constructor interns into a
//! pool of the test's own thread, and [`take_pool`] hands a copy of that
//! pool to the kernel being built — written as the `Kernel` literal's last
//! field, so that the body's expressions are in it. The pool only grows,
//! so an id stays valid for every later kernel of the test.

use std::sync::Arc;

use gpu_codegen::ir::{Cond, CondId, FExpr, FExprId, IExpr, IExprId, Indices, Pool, PoolBuilder};

thread_local! {
    static POOL: PoolBuilder = PoolBuilder::default();
}

fn with<T>(f: impl FnOnce(&PoolBuilder) -> T) -> T {
    POOL.with(f)
}

/// Everything interned on this thread so far.
pub(crate) fn take_pool() -> Arc<Pool> {
    Arc::new(with(|pool| pool.clone().finish()))
}

/// `e`, interned as given.
pub(crate) fn i(e: IExpr) -> IExprId {
    with(|pool| pool.iexpr(e))
}

/// The literal `k`.
pub(crate) fn lit(k: i64) -> IExprId {
    i(IExpr::Const(k))
}

/// Scalar variable `v`.
pub(crate) fn var(v: usize) -> IExprId {
    i(IExpr::Var(v))
}

/// Launch parameter `p`.
pub(crate) fn param(p: usize) -> IExprId {
    i(IExpr::Param(p))
}

/// Thread index component `d`.
pub(crate) fn tid(d: u8) -> IExprId {
    i(IExpr::ThreadIdx(d))
}

/// The block index.
pub(crate) fn block() -> IExprId {
    i(IExpr::BlockIdx)
}

/// An index list.
pub(crate) fn index(ids: &[IExprId]) -> Indices {
    with(|pool| pool.indices(ids))
}

/// `c`, interned as given.
pub(crate) fn cond(c: Cond) -> CondId {
    with(|pool| pool.cond(c))
}

/// `e`, interned as given.
pub(crate) fn f(e: FExpr) -> FExprId {
    with(|pool| pool.fexpr(e))
}

/// Register `r`.
pub(crate) fn reg(r: usize) -> FExprId {
    f(FExpr::Reg(r))
}

/// The `f32` literal `c`.
pub(crate) fn fconst(c: f32) -> FExprId {
    f(FExpr::Const(c))
}

/// The pool's folding constructors, as methods of an integer expression.
pub(crate) trait Fold {
    fn add(self, b: IExprId) -> IExprId;
    fn sub(self, b: IExprId) -> IExprId;
    fn scale(self, k: i64) -> IExprId;
    fn offset(self, k: i64) -> IExprId;
    fn modulo(self, k: i64) -> IExprId;
    fn fdiv(self, k: i64) -> IExprId;
}

impl Fold for IExprId {
    fn add(self, b: IExprId) -> IExprId {
        with(|pool| pool.add(self, b))
    }

    fn sub(self, b: IExprId) -> IExprId {
        with(|pool| pool.sub(self, b))
    }

    fn scale(self, k: i64) -> IExprId {
        with(|pool| pool.scale(self, k))
    }

    fn offset(self, k: i64) -> IExprId {
        with(|pool| pool.offset(self, k))
    }

    fn modulo(self, k: i64) -> IExprId {
        with(|pool| pool.modulo(self, k))
    }

    fn fdiv(self, k: i64) -> IExprId {
        with(|pool| pool.fdiv(self, k))
    }
}

/// [`Pool::and`] as a method of a condition.
pub(crate) trait And {
    fn and(self, b: CondId) -> CondId;
}

impl And for CondId {
    fn and(self, b: CondId) -> CondId {
        with(|pool| pool.and(self, b))
    }
}

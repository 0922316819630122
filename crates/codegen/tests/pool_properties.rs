//! Properties of the hash-consed expression pool (`gpu_codegen::ir::Pool`)
//! against a plain tree reference kept in this file:
//!
//! * interning is structural: two trees get the same id exactly when they
//!   are equal, and reading an id back gives the tree;
//! * every smart constructor folds exactly as the tree reference's does;
//! * an interned expression evaluates, under any scalar, thread and
//!   parameter environment, to what its tree evaluates to.
//!
//! Trees are drawn from a tape of random choices, so a failing case
//! prints the tape it was built from.

use gpu_codegen::ir::{Cond, CondId, FExpr, FExprId, IExpr, IExprId, Pool, PoolBuilder};
use proptest::prelude::*;

/// The reference integer tree.
#[derive(Clone, PartialEq, Debug)]
enum I {
    Const(i64),
    Var(usize),
    Param(usize),
    Tid(u8),
    Block,
    Add(Box<I>, Box<I>),
    Sub(Box<I>, Box<I>),
    Mul(Box<I>, Box<I>),
    FloorDiv(Box<I>, i64),
    Mod(Box<I>, i64),
    Min(Box<I>, Box<I>),
    Max(Box<I>, Box<I>),
}

/// The reference condition tree.
#[derive(Clone, PartialEq, Debug)]
enum C {
    True,
    Le(I, I),
    Lt(I, I),
    Eq(I, I),
    And(Box<C>, Box<C>),
    Or(Box<C>, Box<C>),
    Not(Box<C>),
}

/// The reference `f32` tree (literals compare by bits).
#[derive(Clone, Debug)]
enum F {
    Reg(usize),
    Const(f32),
    Add(Box<F>, Box<F>),
    Sub(Box<F>, Box<F>),
    Mul(Box<F>, Box<F>),
    Sqrt(Box<F>),
}

impl PartialEq for F {
    fn eq(&self, other: &F) -> bool {
        match (self, other) {
            (F::Reg(a), F::Reg(b)) => a == b,
            (F::Const(a), F::Const(b)) => a.to_bits() == b.to_bits(),
            (F::Add(a, b), F::Add(c, d))
            | (F::Sub(a, b), F::Sub(c, d))
            | (F::Mul(a, b), F::Mul(c, d)) => a == c && b == d,
            (F::Sqrt(a), F::Sqrt(b)) => a == b,
            _ => false,
        }
    }
}

fn bx<T>(t: T) -> Box<T> {
    Box::new(t)
}

// The tree forms of the pool's smart constructors: the folds the IR's
// builders have always made.

fn add(a: I, b: I) -> I {
    match (a, b) {
        (I::Const(x), I::Const(y)) => I::Const(x + y),
        (I::Const(0), e) | (e, I::Const(0)) => e,
        (I::Add(a, b), I::Const(c)) => match *b {
            I::Const(b) => I::Add(a, bx(I::Const(b + c))),
            b => I::Add(bx(I::Add(a, bx(b))), bx(I::Const(c))),
        },
        (a, b) => I::Add(bx(a), bx(b)),
    }
}

fn sub(a: I, b: I) -> I {
    match (a, b) {
        (a, I::Const(c)) => offset(a, -c),
        (a, b) => I::Sub(bx(a), bx(b)),
    }
}

fn scale(e: I, k: i64) -> I {
    match (e, k) {
        (_, 0) => I::Const(0),
        (e, 1) => e,
        (I::Const(c), k) => I::Const(c * k),
        (e, k) => I::Mul(bx(e), bx(I::Const(k))),
    }
}

fn offset(e: I, k: i64) -> I {
    if k == 0 {
        e
    } else {
        add(e, I::Const(k))
    }
}

fn modulo(e: I, k: i64) -> I {
    match e {
        I::Const(c) => I::Const(c.rem_euclid(k)),
        e => I::Mod(bx(e), k),
    }
}

fn fdiv(e: I, k: i64) -> I {
    match e {
        I::Const(c) => I::Const(c.div_euclid(k)),
        e => I::FloorDiv(bx(e), k),
    }
}

fn and(a: C, b: C) -> C {
    match (a, b) {
        (C::True, c) | (c, C::True) => c,
        (a, b) => C::And(bx(a), bx(b)),
    }
}

fn between(e: &I, lo: I, hi: I) -> C {
    and(C::Le(lo, e.clone()), C::Le(e.clone(), hi))
}

/// Draws from a tape of choices, then from 0 once it runs out.
struct Tape<'t>(std::slice::Iter<'t, i64>);

impl Tape<'_> {
    fn next(&mut self, below: i64) -> i64 {
        self.0.next().copied().unwrap_or(0).rem_euclid(below)
    }

    fn iexpr(&mut self, depth: u32) -> I {
        let leaf = depth == 0 || self.next(3) == 0;
        let pick = if leaf { self.next(5) } else { 5 + self.next(7) };
        let sub = |t: &mut Self| bx(t.iexpr(depth.saturating_sub(1)));
        match pick {
            0 => I::Const(self.next(9) - 4),
            1 => I::Var(self.next(3) as usize),
            2 => I::Param(self.next(2) as usize),
            3 => I::Tid(self.next(3) as u8),
            4 => I::Block,
            5 => I::Add(sub(self), sub(self)),
            6 => I::Sub(sub(self), sub(self)),
            7 => I::Mul(sub(self), sub(self)),
            8 => I::FloorDiv(sub(self), 1 + self.next(5)),
            9 => I::Mod(sub(self), 1 + self.next(5)),
            10 => I::Min(sub(self), sub(self)),
            _ => I::Max(sub(self), sub(self)),
        }
    }

    fn cond(&mut self, depth: u32) -> C {
        let leaf = depth == 0 || self.next(2) == 0;
        let pick = if leaf { self.next(4) } else { 4 + self.next(3) };
        let sub = |t: &mut Self| bx(t.cond(depth - 1));
        match pick {
            0 => C::True,
            1 => C::Le(self.iexpr(2), self.iexpr(2)),
            2 => C::Lt(self.iexpr(2), self.iexpr(2)),
            3 => C::Eq(self.iexpr(2), self.iexpr(2)),
            4 => C::And(sub(self), sub(self)),
            5 => C::Or(sub(self), sub(self)),
            _ => C::Not(sub(self)),
        }
    }

    fn fexpr(&mut self, depth: u32) -> F {
        let leaf = depth == 0 || self.next(3) == 0;
        let pick = if leaf { self.next(2) } else { 2 + self.next(4) };
        let sub = |t: &mut Self| bx(t.fexpr(depth - 1));
        match pick {
            0 => F::Reg(self.next(3) as usize),
            1 => F::Const([0.5, -0.0, 0.0, 2.0, -1.25][self.next(5) as usize]),
            2 => F::Add(sub(self), sub(self)),
            3 => F::Sub(sub(self), sub(self)),
            4 => F::Mul(sub(self), sub(self)),
            _ => F::Sqrt(sub(self)),
        }
    }
}

/// Interns `t` node for node, as given.
fn intern(p: &PoolBuilder, t: &I) -> IExprId {
    let node = match t {
        I::Const(c) => IExpr::Const(*c),
        I::Var(v) => IExpr::Var(*v),
        I::Param(i) => IExpr::Param(*i),
        I::Tid(d) => IExpr::ThreadIdx(*d),
        I::Block => IExpr::BlockIdx,
        I::Add(a, b) => IExpr::Add(intern(p, a), intern(p, b)),
        I::Sub(a, b) => IExpr::Sub(intern(p, a), intern(p, b)),
        I::Mul(a, b) => IExpr::Mul(intern(p, a), intern(p, b)),
        I::FloorDiv(a, k) => IExpr::FloorDiv(intern(p, a), *k),
        I::Mod(a, k) => IExpr::Mod(intern(p, a), *k),
        I::Min(a, b) => IExpr::Min(intern(p, a), intern(p, b)),
        I::Max(a, b) => IExpr::Max(intern(p, a), intern(p, b)),
    };
    p.iexpr(node)
}

fn intern_cond(p: &PoolBuilder, c: &C) -> CondId {
    let node = match c {
        C::True => Cond::True,
        C::Le(a, b) => Cond::Le(intern(p, a), intern(p, b)),
        C::Lt(a, b) => Cond::Lt(intern(p, a), intern(p, b)),
        C::Eq(a, b) => Cond::Eq(intern(p, a), intern(p, b)),
        C::And(a, b) => Cond::And(intern_cond(p, a), intern_cond(p, b)),
        C::Or(a, b) => Cond::Or(intern_cond(p, a), intern_cond(p, b)),
        C::Not(a) => Cond::Not(intern_cond(p, a)),
    };
    p.cond(node)
}

fn intern_f(p: &PoolBuilder, f: &F) -> FExprId {
    let node = match f {
        F::Reg(r) => FExpr::Reg(*r),
        F::Const(c) => FExpr::Const(*c),
        F::Add(a, b) => FExpr::Add(intern_f(p, a), intern_f(p, b)),
        F::Sub(a, b) => FExpr::Sub(intern_f(p, a), intern_f(p, b)),
        F::Mul(a, b) => FExpr::Mul(intern_f(p, a), intern_f(p, b)),
        F::Sqrt(a) => FExpr::Sqrt(intern_f(p, a)),
    };
    p.fexpr(node)
}

/// The tree an id stands for.
fn tree(p: &Pool, e: IExprId) -> I {
    let t = |e| bx(tree(p, e));
    match p[e] {
        IExpr::Const(c) => I::Const(c),
        IExpr::Var(v) => I::Var(v),
        IExpr::Param(i) => I::Param(i),
        IExpr::ThreadIdx(d) => I::Tid(d),
        IExpr::BlockIdx => I::Block,
        IExpr::Add(a, b) => I::Add(t(a), t(b)),
        IExpr::Sub(a, b) => I::Sub(t(a), t(b)),
        IExpr::Mul(a, b) => I::Mul(t(a), t(b)),
        IExpr::FloorDiv(a, k) => I::FloorDiv(t(a), k),
        IExpr::Mod(a, k) => I::Mod(t(a), k),
        IExpr::Min(a, b) => I::Min(t(a), t(b)),
        IExpr::Max(a, b) => I::Max(t(a), t(b)),
    }
}

fn cond_tree(p: &Pool, c: CondId) -> C {
    let t = |c| bx(cond_tree(p, c));
    match p[c] {
        Cond::True => C::True,
        Cond::Le(a, b) => C::Le(tree(p, a), tree(p, b)),
        Cond::Lt(a, b) => C::Lt(tree(p, a), tree(p, b)),
        Cond::Eq(a, b) => C::Eq(tree(p, a), tree(p, b)),
        Cond::And(a, b) => C::And(t(a), t(b)),
        Cond::Or(a, b) => C::Or(t(a), t(b)),
        Cond::Not(a) => C::Not(t(a)),
    }
}

/// Values of the scalars, parameters, thread index, block and registers.
struct Env {
    vars: [i64; 3],
    params: [i64; 2],
    tid: [i64; 3],
    block: i64,
    regs: [f32; 3],
}

impl Env {
    fn draw(tape: &mut Tape) -> Env {
        let mut small = |range| tape.next(range) - range / 2;
        Env {
            vars: [small(41), small(41), small(41)],
            params: [small(41), small(41)],
            tid: [small(64).abs(), small(8).abs(), small(4).abs()],
            block: small(20).abs(),
            regs: [
                small(9) as f32 * 0.5,
                small(9) as f32,
                small(9) as f32 * 0.25,
            ],
        }
    }

    fn i(&self, t: &I) -> i64 {
        match t {
            I::Const(c) => *c,
            I::Var(v) => self.vars[*v],
            I::Param(i) => self.params[*i],
            I::Tid(d) => self.tid[*d as usize],
            I::Block => self.block,
            I::Add(a, b) => self.i(a) + self.i(b),
            I::Sub(a, b) => self.i(a) - self.i(b),
            I::Mul(a, b) => self.i(a) * self.i(b),
            I::FloorDiv(a, k) => self.i(a).div_euclid(*k),
            I::Mod(a, k) => self.i(a).rem_euclid(*k),
            I::Min(a, b) => self.i(a).min(self.i(b)),
            I::Max(a, b) => self.i(a).max(self.i(b)),
        }
    }

    fn c(&self, t: &C) -> bool {
        match t {
            C::True => true,
            C::Le(a, b) => self.i(a) <= self.i(b),
            C::Lt(a, b) => self.i(a) < self.i(b),
            C::Eq(a, b) => self.i(a) == self.i(b),
            C::And(a, b) => self.c(a) && self.c(b),
            C::Or(a, b) => self.c(a) || self.c(b),
            C::Not(a) => !self.c(a),
        }
    }

    fn f(&self, t: &F) -> f32 {
        match t {
            F::Reg(r) => self.regs[*r],
            F::Const(c) => *c,
            F::Add(a, b) => self.f(a) + self.f(b),
            F::Sub(a, b) => self.f(a) - self.f(b),
            F::Mul(a, b) => self.f(a) * self.f(b),
            F::Sqrt(a) => self.f(a).sqrt(),
        }
    }

    // The same evaluation over the pool, by id.

    fn pool_i(&self, p: &Pool, e: IExprId) -> i64 {
        let v = |e| self.pool_i(p, e);
        match p[e] {
            IExpr::Const(c) => c,
            IExpr::Var(x) => self.vars[x],
            IExpr::Param(i) => self.params[i],
            IExpr::ThreadIdx(d) => self.tid[d as usize],
            IExpr::BlockIdx => self.block,
            IExpr::Add(a, b) => v(a) + v(b),
            IExpr::Sub(a, b) => v(a) - v(b),
            IExpr::Mul(a, b) => v(a) * v(b),
            IExpr::FloorDiv(a, k) => v(a).div_euclid(k),
            IExpr::Mod(a, k) => v(a).rem_euclid(k),
            IExpr::Min(a, b) => v(a).min(v(b)),
            IExpr::Max(a, b) => v(a).max(v(b)),
        }
    }

    fn pool_c(&self, p: &Pool, c: CondId) -> bool {
        let (i, b) = (|e| self.pool_i(p, e), |c| self.pool_c(p, c));
        match p[c] {
            Cond::True => true,
            Cond::Le(x, y) => i(x) <= i(y),
            Cond::Lt(x, y) => i(x) < i(y),
            Cond::Eq(x, y) => i(x) == i(y),
            Cond::And(x, y) => b(x) && b(y),
            Cond::Or(x, y) => b(x) || b(y),
            Cond::Not(x) => !b(x),
        }
    }

    fn pool_f(&self, p: &Pool, e: FExprId) -> f32 {
        let v = |e| self.pool_f(p, e);
        match p[e] {
            FExpr::Reg(r) => self.regs[r],
            FExpr::Const(c) => c,
            FExpr::Add(a, b) => v(a) + v(b),
            FExpr::Sub(a, b) => v(a) - v(b),
            FExpr::Mul(a, b) => v(a) * v(b),
            FExpr::Sqrt(a) => v(a).sqrt(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn equal_trees_share_an_id_and_unequal_ones_do_not(
        tape in prop::collection::vec(0i64..=1_000_000, 4..48)
    ) {
        let mut tape = Tape(tape.iter());
        // Small trees over a small alphabet, and a quarter of the pairs
        // equal by construction: both answers are common.
        let same = tape.next(4) == 0;
        let a = tape.iexpr(2);
        let b = if same { a.clone() } else { tape.iexpr(2) };
        let c = tape.cond(1);
        let d = if same { c.clone() } else { tape.cond(1) };
        let f = tape.fexpr(2);
        let g = if same { f.clone() } else { tape.fexpr(2) };
        let p = PoolBuilder::default();
        let (ia, ib) = (intern(&p, &a), intern(&p, &b));
        prop_assert_eq!(ia == ib, a == b);
        prop_assert_eq!(intern(&p, &a), ia);
        let (ic, id) = (intern_cond(&p, &c), intern_cond(&p, &d));
        prop_assert_eq!(ic == id, c == d);
        let (fi, gi) = (intern_f(&p, &f), intern_f(&p, &g));
        prop_assert_eq!(fi == gi, f == g);
        let p = p.finish();
        prop_assert_eq!(tree(&p, ia), a);
        prop_assert_eq!(cond_tree(&p, ic), c);
        // Every node's operands precede it.
        for (n, e) in p.iexprs().iter().enumerate() {
            if let IExpr::Add(x, y) | IExpr::Sub(x, y) | IExpr::Mul(x, y)
                | IExpr::Min(x, y) | IExpr::Max(x, y) = *e
            {
                prop_assert!(x.index() < n && y.index() < n);
            }
        }
    }

    #[test]
    fn smart_constructors_fold_as_the_tree_builders_do(
        tape in prop::collection::vec(0i64..=1_000_000, 8..64)
    ) {
        let mut tape = Tape(tape.iter());
        let (x, y) = (tape.iexpr(2), tape.iexpr(2));
        let k = tape.next(7) - 3;
        let m = 1 + tape.next(6);
        let (c, d) = (tape.cond(1), tape.cond(1));
        let p = PoolBuilder::default();
        let (ix, iy) = (intern(&p, &x), intern(&p, &y));
        let built = [
            (p.add(ix, iy), add(x.clone(), y.clone())),
            (p.sub(ix, iy), sub(x.clone(), y.clone())),
            (p.scale(ix, k), scale(x.clone(), k)),
            (p.offset(ix, k), offset(x.clone(), k)),
            (p.modulo(ix, m), modulo(x.clone(), m)),
            (p.fdiv(ix, m), fdiv(x.clone(), m)),
            // A chain exercises the `(e + c1) + c2` normalization.
            (p.offset(p.offset(ix, k), m), offset(offset(x.clone(), k), m)),
        ];
        let (ic, id) = (intern_cond(&p, &c), intern_cond(&p, &d));
        let conds = [
            (p.and(ic, id), and(c, d)),
            (p.between(ix, p.lit(k), iy), between(&x, I::Const(k), y)),
        ];
        let p = p.finish();
        for (id, want) in built {
            prop_assert_eq!(tree(&p, id), want);
        }
        for (id, want) in conds {
            prop_assert_eq!(cond_tree(&p, id), want);
        }
    }

    #[test]
    fn interned_expressions_evaluate_as_their_trees(
        tape in prop::collection::vec(0i64..=1_000_000, 16..96)
    ) {
        let mut tape = Tape(tape.iter());
        let (e, c, f) = (tape.iexpr(4), tape.cond(2), tape.fexpr(4));
        let env = Env::draw(&mut tape);
        let k = tape.next(7) - 3;
        let p = PoolBuilder::default();
        let (ie, ic, fi) = (intern(&p, &e), intern_cond(&p, &c), intern_f(&p, &f));
        // A built expression evaluates as its reference does, too.
        let built = p.offset(p.scale(ie, k), k);
        let p = p.finish();
        prop_assert_eq!(env.pool_i(&p, ie), env.i(&e));
        prop_assert_eq!(env.pool_c(&p, ic), env.c(&c));
        prop_assert_eq!(env.pool_f(&p, fi).to_bits(), env.f(&f).to_bits());
        prop_assert_eq!(env.pool_i(&p, built), env.i(&offset(scale(e, k), k)));
    }
}

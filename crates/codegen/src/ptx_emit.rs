//! Pseudo-PTX emission: the Fig. 2 view of a compiled core tile.
//!
//! The paper's Fig. 2 shows the PTX of one unrolled core-computation block:
//! straight-line `ld.shared.f32` / `add.f32` / `mul.f32` / `st.shared.f32`
//! with no control flow. This module lowers the *full-tile* point code of a
//! kernel to that form, assigning virtual registers and symbolic shared
//! addresses. It demonstrates the same properties the paper highlights:
//! no branches, few loads per compute instruction, and register reuse for
//! values live across unrolled points.

use crate::c_like::{Spelling, C};
use crate::ir::{FExpr, FExprId, IExprId, Indices, Kernel, Pool, Stmt};
use std::collections::HashMap;
use std::fmt::Write;

/// Lowering state: virtual register allocation plus a CSE table keyed by
/// shared address expressions, so values reused across unrolled points
/// stay in registers (the paper: "2 out of the 5 values in flight are
/// being reused in registers").
struct PtxEmitter<'p> {
    pool: &'p Pool,
    out: String,
    next_reg: u32,
    /// Map from shared address — the buffer and the ids of its index
    /// expressions — to the register holding its value.
    loaded: HashMap<(usize, &'p [IExprId]), u32>,
    loads: u64,
    stores: u64,
    arith: u64,
}

/// Symbolic byte offset rendered for the address operand.
fn addr_display(pool: &Pool, index: Indices) -> String {
    let mut out = String::from("[");
    for (i, &e) in pool[index].iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        C(pool).iexpr(&mut out, e);
    }
    out.push(']');
    out
}

impl PtxEmitter<'_> {
    fn fresh(&mut self) -> u32 {
        self.next_reg += 1;
        self.next_reg
    }

    fn emit_fexpr(&mut self, e: FExprId, regs: &HashMap<usize, u32>) -> u32 {
        match self.pool[e] {
            FExpr::Reg(r) => *regs.get(&r).unwrap_or(&0),
            FExpr::Const(c) => {
                let d = self.fresh();
                let _ = writeln!(self.out, "mov.f32    %f{d}, 0f{:08X};", c.to_bits());
                d
            }
            FExpr::Add(a, b) => self.bin("add.f32", a, b, regs),
            FExpr::Sub(a, b) => self.bin("sub.f32", a, b, regs),
            FExpr::Mul(a, b) => self.bin("mul.f32", a, b, regs),
            FExpr::Sqrt(a) => {
                let x = self.emit_fexpr(a, regs);
                let d = self.fresh();
                self.arith += 1;
                let _ = writeln!(self.out, "sqrt.rn.f32 %f{d}, %f{x};");
                d
            }
        }
    }

    fn bin(&mut self, op: &str, a: FExprId, b: FExprId, regs: &HashMap<usize, u32>) -> u32 {
        let x = self.emit_fexpr(a, regs);
        let y = self.emit_fexpr(b, regs);
        let d = self.fresh();
        self.arith += 1;
        let _ = writeln!(self.out, "{op}    %f{d}, %f{x}, %f{y};");
        d
    }

    fn walk(&mut self, stmts: &[Stmt], regs: &mut HashMap<usize, u32>) {
        for s in stmts {
            match s {
                Stmt::SharedLoad { dst, buf, index } => {
                    let key = (*buf, &self.pool[*index]);
                    if let Some(&r) = self.loaded.get(&key) {
                        // Register reuse across unrolled points: no load.
                        regs.insert(*dst, r);
                    } else {
                        let r = self.fresh();
                        self.loads += 1;
                        let _ = writeln!(
                            self.out,
                            "ld.shared.f32 %f{r}, {};",
                            addr_display(self.pool, *index)
                        );
                        self.loaded.insert(key, r);
                        regs.insert(*dst, r);
                    }
                }
                Stmt::GlobalLoad { dst, index, .. } => {
                    let r = self.fresh();
                    self.loads += 1;
                    let _ = writeln!(
                        self.out,
                        "ld.global.f32 %f{r}, {};",
                        addr_display(self.pool, *index)
                    );
                    regs.insert(*dst, r);
                }
                Stmt::Compute { dst, expr } => {
                    let r = self.emit_fexpr(*expr, regs);
                    regs.insert(*dst, r);
                }
                Stmt::SharedStore { buf, index, src } => {
                    let r = self.emit_fexpr(*src, regs);
                    self.stores += 1;
                    let _ = writeln!(
                        self.out,
                        "st.shared.f32 {}, %f{r};",
                        addr_display(self.pool, *index)
                    );
                    // The stored value now lives at this address.
                    self.loaded.insert((*buf, &self.pool[*index]), r);
                }
                Stmt::GlobalStore { index, src, .. } => {
                    let r = self.emit_fexpr(*src, regs);
                    self.stores += 1;
                    let _ = writeln!(
                        self.out,
                        "st.global.f32 {}, %f{r};",
                        addr_display(self.pool, *index)
                    );
                }
                // Core-tile emission covers straight-line point code only.
                Stmt::Sync | Stmt::SetVar { .. } => {}
                Stmt::For { body, .. } => self.walk(body, regs),
                Stmt::If { then_, .. } => self.walk(then_, regs),
            }
        }
    }
}

/// Statistics of an emitted core block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PtxStats {
    /// Load instructions emitted.
    pub loads: u64,
    /// Store instructions emitted.
    pub stores: u64,
    /// Arithmetic instructions emitted.
    pub arith: u64,
}

/// How many unrolled point computations the driver's PTX artifact shows
/// per kernel. Four points is enough to exhibit every property Fig. 2
/// highlights (straight-line code, register reuse across points, the
/// load/arith ratio) while keeping the artifact readable; callers wanting
/// a different window pass their own `max_points` to [`core_tile_ptx`].
pub const DEFAULT_CORE_TILE_POINTS: usize = 4;

/// Extracts the full-tile branch of a hybrid kernel and lowers its first
/// `max_points` unrolled point computations to pseudo-PTX. Returns the
/// text and its instruction statistics.
pub fn core_tile_ptx(kernel: &Kernel, max_points: usize) -> (String, PtxStats) {
    // The full-tile code is the `then` branch of the If whose else-branch
    // is non-empty and whose taken branch contains point computations
    // (the full/partial separation If; the inter-tile-reuse If only moves
    // data and contains no Compute).
    fn has_compute(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Compute { .. } => true,
            Stmt::If { then_, else_, .. } => has_compute(then_) || has_compute(else_),
            Stmt::For { body, .. } => has_compute(body),
            _ => false,
        })
    }
    fn find_full(stmts: &[Stmt]) -> Option<&[Stmt]> {
        for s in stmts {
            match s {
                Stmt::If { then_, else_, .. } => {
                    if !else_.is_empty() && has_compute(then_) {
                        return Some(then_);
                    }
                    if let Some(f) = find_full(then_).or_else(|| find_full(else_)) {
                        return Some(f);
                    }
                }
                Stmt::For { body, .. } => {
                    if let Some(f) = find_full(body) {
                        return Some(f);
                    }
                }
                _ => {}
            }
        }
        None
    }
    let full = find_full(&kernel.body).unwrap_or(&kernel.body);
    // Take a prefix of point computations: count Compute statements.
    let mut taken = Vec::new();
    let mut points = 0;
    for s in full {
        if matches!(s, Stmt::Compute { .. }) {
            points += 1;
        }
        taken.push(s.clone());
        if points >= max_points {
            break;
        }
    }
    let mut em = PtxEmitter {
        pool: &kernel.pool,
        out: String::new(),
        next_reg: 300,
        loaded: HashMap::new(),
        loads: 0,
        stores: 0,
        arith: 0,
    };
    let mut regs = HashMap::new();
    em.walk(&taken, &mut regs);
    (
        em.out,
        PtxStats {
            loads: em.loads,
            stores: em.stores,
            arith: em.arith,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid_gen::generate_hybrid;
    use crate::options::CodegenOptions;
    use hybrid_tiling::TileParams;
    use stencil::gallery;

    #[test]
    fn jacobi_core_tile_is_branch_free_and_reuses_registers() {
        let p = gallery::jacobi2d();
        let plan = generate_hybrid(
            &p,
            &TileParams::new(2, &[3, 32]),
            &[64, 64],
            8,
            CodegenOptions::best(),
        )
        .unwrap();
        let (ptx, stats) = core_tile_ptx(&plan.kernels[1], 3);
        assert!(ptx.contains("ld.shared.f32"));
        assert!(ptx.contains("st.shared.f32"));
        assert!(ptx.contains("add.f32"));
        assert!(ptx.contains("mul.f32"));
        assert!(!ptx.contains("bra"), "no branches in core tile");
        // Register reuse: 3 unrolled 5-point stencils would naively load
        // 15 values; neighbors along the unrolled direction are shared.
        assert!(
            stats.loads < 15,
            "expected register reuse, got {} loads",
            stats.loads
        );
    }
}

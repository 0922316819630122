//! Shared machinery for the baseline code generators: spatial tile/block
//! mapping and stencil-expression lowering.

use std::sync::Arc;

use gpu_codegen::ir::{Cond, CondId, FExpr, FExprId, IExpr, IExprId, Kernel, PoolBuilder, Stmt};
use stencil::{StencilExpr, StencilProgram};

/// A rectangular spatial tiling: per-dimension tile extents, a 1-D grid of
/// blocks enumerating tiles row-major, and thread coverage of the two
/// innermost dimensions.
#[derive(Clone, Debug)]
pub struct SpaceTiling {
    /// Grid extents.
    pub dims: Vec<usize>,
    /// Tile extents (one per dimension).
    pub tile: Vec<i64>,
    /// Tile counts per dimension.
    pub counts: Vec<i64>,
}

impl SpaceTiling {
    /// Builds a tiling of `dims` with the given tile extents.
    pub fn new(dims: &[usize], tile: &[i64]) -> SpaceTiling {
        assert_eq!(dims.len(), tile.len(), "tile arity");
        let counts = dims
            .iter()
            .zip(tile)
            .map(|(&n, &t)| (n as i64 + t - 1) / t)
            .collect();
        SpaceTiling {
            dims: dims.to_vec(),
            tile: tile.to_vec(),
            counts,
        }
    }

    /// Total number of blocks.
    pub fn blocks(&self) -> usize {
        self.counts.iter().product::<i64>() as usize
    }

    /// Thread-block shape: x covers the innermost tile extent, y the
    /// next-inner one (clamped to the tile sizes).
    pub fn block_dim(&self) -> [usize; 3] {
        let n = self.tile.len();
        let x = self.tile[n - 1] as usize;
        let y = if n >= 2 { self.tile[n - 2] as usize } else { 1 };
        [x, y, 1]
    }

    /// The tile index of dimension `d` as an expression of `BlockIdx`
    /// (row-major decomposition).
    pub fn tile_index(&self, p: &PoolBuilder, d: usize) -> IExprId {
        let tail: i64 = self.counts[d + 1..].iter().product();
        let block = p.iexpr(IExpr::BlockIdx);
        let e = if tail == 1 {
            block
        } else {
            p.fdiv(block, tail)
        };
        p.modulo(e, self.counts[d])
    }

    /// The global coordinate of dimension `d` covered by this thread:
    /// `tile_d * w_d + thread_part`, where the two innermost dims map to
    /// threads and outer dims iterate via the loop variable `var` if given.
    pub fn global_coord(&self, p: &PoolBuilder, d: usize, outer_var: Option<usize>) -> IExprId {
        let n = self.tile.len();
        let base = p.scale(self.tile_index(p, d), self.tile[d]);
        let part = if d == n - 1 {
            p.iexpr(IExpr::ThreadIdx(0))
        } else if d + 2 == n {
            p.iexpr(IExpr::ThreadIdx(1))
        } else {
            match outer_var {
                Some(v) => p.var(v),
                None => return base,
            }
        };
        p.add(base, part)
    }

    /// In-domain guard for the coordinates produced by
    /// [`SpaceTiling::global_coord`].
    pub fn interior_guard(p: &PoolBuilder, coords: &[IExprId], lo: &[i64], hi: &[i64]) -> CondId {
        let mut c = p.cond(Cond::True);
        for (d, &e) in coords.iter().enumerate() {
            c = p.and(c, p.between(e, p.lit(lo[d]), p.lit(hi[d])));
        }
        c
    }
}

/// Lowers a stencil expression to an [`FExpr`], appending one load
/// statement per access via `make_load(access, reg)`.
pub fn lower_expr(
    p: &PoolBuilder,
    e: &StencilExpr,
    next_reg: &mut usize,
    out: &mut Vec<Stmt>,
    make_load: &mut impl FnMut(&stencil::Access, usize) -> Stmt,
) -> FExprId {
    let mut operand = |x| lower_expr(p, x, next_reg, out, make_load);
    let node = match e {
        StencilExpr::Load(a) => {
            let reg = *next_reg;
            *next_reg += 1;
            out.push(make_load(a, reg));
            FExpr::Reg(reg)
        }
        StencilExpr::Const(c) => FExpr::Const(*c),
        StencilExpr::Add(a, b) => FExpr::Add(operand(a), operand(b)),
        StencilExpr::Sub(a, b) => FExpr::Sub(operand(a), operand(b)),
        StencilExpr::Mul(a, b) => FExpr::Mul(operand(a), operand(b)),
        StencilExpr::Sqrt(a) => FExpr::Sqrt(operand(a)),
    };
    p.fexpr(node)
}

/// Hands `pool`, the expressions of every kernel in `kernels`, to each of
/// them.
pub fn share_pool(pool: PoolBuilder, kernels: &mut [Kernel]) {
    let pool = Arc::new(pool.finish());
    for k in kernels {
        k.pool = Arc::clone(&pool);
    }
}

/// Maximum number of loads in any statement (register budget helper).
pub fn max_loads(program: &StencilProgram) -> usize {
    program
        .statements()
        .iter()
        .map(|s| s.expr.loads().len())
        .max()
        .unwrap_or(1)
}

/// Default spatial tile extents per dimensionality, innermost a warp
/// multiple.
pub fn default_tile(dims: usize) -> Vec<i64> {
    match dims {
        1 => vec![256],
        2 => vec![8, 32],
        _ => vec![4, 4, 32],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiling_covers_grid() {
        let t = SpaceTiling::new(&[100, 64], &[8, 32]);
        assert_eq!(t.counts, vec![13, 2]);
        assert_eq!(t.blocks(), 26);
        assert_eq!(t.block_dim(), [32, 8, 1]);
    }

    #[test]
    fn tile_index_decomposition_is_row_major() {
        let t = SpaceTiling::new(&[64, 64, 64], &[4, 4, 32]);
        // counts = [16, 16, 2]; block 37 = (1, 2, 1).
        assert_eq!(t.blocks(), 16 * 16 * 2);
        let b = 37i64;
        let d0 = b.div_euclid(32).rem_euclid(16);
        let d1 = b.div_euclid(2).rem_euclid(16);
        let d2 = b.rem_euclid(2);
        assert_eq!((d0, d1, d2), (1, 2, 1));
    }

    #[test]
    fn default_tiles_are_warp_aligned() {
        assert_eq!(default_tile(2)[1] % 32, 0);
        assert_eq!(default_tile(3)[2] % 32, 0);
    }
}

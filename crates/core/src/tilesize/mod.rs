//! Tile-size selection via the load-to-compute-ratio model (§3.7).
//!
//! The paper selects `h, w0, .., wn` by exactly counting, for a generic
//! (non-boundary) tile, the number of iterations and the number of values
//! loaded from global memory, then picking the parameters with the smallest
//! load-to-compute ratio among those whose memory tile fits the shared
//! memory budget. The paper used manually derived closed forms and notes
//! that "tools to count points in integer polyhedra can automate this" —
//! here the counting is automated, and still exact, but it is neither a
//! closed form nor Barvinok: a [`TileEvaluator`] derives the dependence
//! cone and the per-statement access table once per program, takes a
//! representative full tile row by row from the schedule
//! ([`crate::schedule::TileRow`] — each hexagon row is a box), and marks
//! every value the tile reads, writes, or inherits from its §4.2.2
//! predecessor as a bit range in a dense grid (the private `dense`
//! module). Cold and steady-state loads are popcounts of `reads & !writes`
//! (`& !inherited`); the shared-memory footprint is the per-field bounding
//! box of the marked boxes.
//!
//! **What bounds it.** Time is proportional to the tile's rows × accesses ×
//! lines per box, not to its points. Memory is the grid: per producer time
//! step, the product over dimensions of the coordinates anything touches —
//! the tile's extent plus the stencil radius for contiguous neighbourhoods,
//! the extent times the number of distinct offsets for far-apart ones,
//! never the offsets' magnitude — and at most 8 MiB per bitset, beyond
//! which the tile is refused with [`TileError::ModelTooLarge`].

pub mod autotune;
mod dense;

use stencil::StencilProgram;

use crate::cancel::CancelToken;
use crate::classical::ClassicalDim;
use crate::cone::DepCone;
use crate::hexagon::HexShape;
use crate::params::{TileError, TileParams};
use crate::phase::Phase;
use crate::schedule::{tile_rows, TileCoord};
use dense::Touch;

/// Exact per-tile cost statistics for one parameter choice.
#[derive(Clone, PartialEq, Debug)]
pub struct TileSizeModel {
    /// The parameters evaluated.
    pub params: TileParams,
    /// Statement instances per full tile (`hex points × Π w_i`).
    pub iterations: u64,
    /// Distinct externally produced values a *cold* full tile reads.
    pub cold_loads: u64,
    /// Loads after inter-tile reuse with the predecessor along the
    /// innermost classical dimension (§4.2.2) — the steady-state cost.
    pub steady_loads: u64,
    /// Shared-memory bytes for the bounding box of all values the tile
    /// touches (one slab per live time plane, 4-byte floats).
    pub smem_bytes: u64,
}

impl TileSizeModel {
    /// The steady-state load-to-compute ratio the paper minimizes.
    pub fn ratio(&self) -> f64 {
        self.steady_loads as f64 / self.iterations as f64
    }
}

/// The closed-form §3.7 iteration count for a 3D stencil with
/// `δ0 = δ1 = 1`: `2(1 + 2h + h² + w0(h+1))·w1·w2`.
pub fn formula_3d_iterations(h: i64, w0: i64, w1: i64, w2: i64) -> u64 {
    (2 * (1 + 2 * h + h * h + w0 * (h + 1)) * w1 * w2) as u64
}

/// A hexagon with its rows enumerated: derived once per `(h, w0)` and
/// shared by every `(w1..wn)` candidate of a sweep.
pub(crate) struct HexRows {
    shape: HexShape,
    rows: Vec<(i64, i64, i64)>,
}

/// The per-program half of the tile-size model: everything
/// [`evaluate_tile`] needs that does not depend on the tile parameters —
/// the dependence cone and, per statement, the values an instance touches
/// — derived once, so a sweep pays for them once instead of per candidate.
pub struct TileEvaluator {
    cone: DepCone,
    /// Per statement: its own result first, then its loads.
    touches: Vec<Vec<Touch>>,
    max_shift: i64,
    num_fields: usize,
    /// Live time planes per field (`max_dt + 1`).
    planes: u64,
}

impl TileEvaluator {
    /// Derives the cone and access table of `program`.
    ///
    /// # Errors
    ///
    /// [`TileError`] when the program has no bounded dependence cone.
    pub fn new(program: &StencilProgram) -> Result<TileEvaluator, TileError> {
        let cone = DepCone::of_program(program)?;
        let k = program.num_statements() as i64;
        let n = program.spatial_dims();
        let touches: Vec<Vec<Touch>> = program
            .statements()
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let own = Touch {
                    field: st.writes.0,
                    shift: 0,
                    offsets: vec![0; n],
                };
                let loads = st.expr.loads().into_iter().map(|a| Touch {
                    field: a.field.0,
                    shift: k * a.dt + (i as i64 - program.writer_of(a.field) as i64),
                    offsets: a.offsets.clone(),
                });
                std::iter::once(own).chain(loads).collect()
            })
            .collect();
        let max_shift = touches.iter().flatten().map(|t| t.shift).max().unwrap_or(0);
        Ok(TileEvaluator {
            cone,
            touches,
            max_shift,
            num_fields: program.num_fields(),
            planes: program.max_dt() as u64 + 1,
        })
    }

    /// The hexagon of the `(τ, s0)` plane for `(h, w0)`, rows enumerated.
    pub(crate) fn hexagon(&self, h: i64, w0: i64) -> Result<HexRows, TileError> {
        let shape = HexShape::new(self.cone.delta0(0), self.cone.delta1(0), h, w0)?;
        let rows = shape.rows();
        Ok(HexRows { shape, rows })
    }

    /// Evaluates the exact per-tile model for one parameter choice.
    ///
    /// # Errors
    ///
    /// [`TileError`] when no hybrid schedule exists for `params`, or the
    /// tile is beyond the model's memory bound.
    pub fn evaluate(&self, params: &TileParams) -> Result<TileSizeModel, TileError> {
        let n = self.cone.spatial_dims();
        if params.w.len() != n {
            return Err(TileError::ArityMismatch {
                got: params.w.len(),
                expected: n,
            });
        }
        self.evaluate_on(&self.hexagon(params.h, params.w[0])?, params)
    }

    /// [`TileEvaluator::evaluate`] on an already derived hexagon, which
    /// must be the one of `(params.h, params.w[0])`; `params` must have
    /// the program's arity.
    pub(crate) fn evaluate_on(
        &self,
        hex: &HexRows,
        params: &TileParams,
    ) -> Result<TileSizeModel, TileError> {
        self.count_on(hex, params).map(|c| TileSizeModel {
            params: params.clone(),
            iterations: c.iterations,
            cold_loads: c.cold_loads,
            steady_loads: c.steady_loads,
            smem_bytes: c.smem_bytes,
        })
    }

    fn count_on(&self, hex: &HexRows, params: &TileParams) -> Result<dense::Counts, TileError> {
        let n = params.w.len();
        debug_assert_eq!((hex.shape.h(), hex.shape.w0()), (params.h, params.w[0]));
        let classical: Vec<ClassicalDim> = (1..n)
            .map(|d| ClassicalDim::new(self.cone.delta1(d), params.w[d]))
            .collect();
        // A representative interior tile, far from τ = 0.
        let tile = TileCoord {
            t_tile: 8,
            phase: Phase::One,
            s_tiles: vec![0; n],
        };
        let rows = tile_rows(&hex.shape, &hex.rows, &classical, &tile);
        // The §4.2.2 predecessor is the same tile one innermost classical
        // width earlier; 1-D tiles have none.
        let reuse_shift = (n >= 2).then(|| params.w[n - 1]);
        dense::count(
            &rows,
            &self.touches,
            self.num_fields,
            self.planes,
            self.max_shift,
            reuse_shift,
        )
    }
}

/// Evaluates the exact per-tile model for one parameter choice. Callers
/// evaluating several choices for one program should build a
/// [`TileEvaluator`] once instead.
///
/// # Errors
///
/// Propagates schedule-construction failures ([`TileError`]).
pub fn evaluate_tile(
    program: &StencilProgram,
    params: &TileParams,
) -> Result<TileSizeModel, TileError> {
    TileEvaluator::new(program)?.evaluate(params)
}

/// Search space for [`select_tile_sizes`].
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// Candidate heights.
    pub h: Vec<i64>,
    /// Candidate hexagon widths.
    pub w0: Vec<i64>,
    /// Candidate widths per classical dimension.
    pub wi: Vec<Vec<i64>>,
}

impl SearchSpace {
    /// A space for `n` spatial dimensions from explicit candidate lists:
    /// middle classical dimensions draw from `mid`, the innermost from
    /// `inner` — which should stick to warp-size multiples (the §4.2.3
    /// alignment argument).
    pub fn for_dims(
        n: usize,
        h: Vec<i64>,
        w0: Vec<i64>,
        mid: &[i64],
        inner: &[i64],
    ) -> SearchSpace {
        let wi = (1..n)
            .map(|d| {
                if d == n - 1 {
                    inner.to_vec()
                } else {
                    mid.to_vec()
                }
            })
            .collect();
        SearchSpace { h, w0, wi }
    }

    /// A small default space for `n` spatial dimensions.
    pub fn default_for(n: usize) -> SearchSpace {
        SearchSpace::for_dims(
            n,
            vec![1, 2, 3],
            vec![1, 3, 5, 7],
            &[4, 8, 10, 16],
            &[32, 64],
        )
    }
}

/// Exhaustively evaluates the search space and returns the model with the
/// smallest steady-state load-to-compute ratio among those fitting in
/// `smem_limit` bytes (ties broken toward more iterations per tile).
///
/// Returns `None` if no candidate fits.
pub fn select_tile_sizes(
    program: &StencilProgram,
    smem_limit: u64,
    space: &SearchSpace,
) -> Option<TileSizeModel> {
    let (models, _) = autotune::evaluate_space(program, space, 1, &CancelToken::never());
    let mut best: Option<TileSizeModel> = None;
    for model in models.into_iter().flatten().flatten() {
        if model.smem_bytes > smem_limit {
            continue;
        }
        let better = match &best {
            None => true,
            Some(b) => {
                model.ratio() < b.ratio()
                    || (model.ratio() == b.ratio() && model.iterations > b.iterations)
            }
        };
        if better {
            best = Some(model);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    #[test]
    fn closed_form_matches_enumeration_for_unit_slopes() {
        let p = gallery::heat3d();
        for (h, w0, w1, w2) in [(1, 1, 2, 3), (2, 3, 2, 4), (1, 4, 3, 2)] {
            let m = evaluate_tile(&p, &TileParams::new(h, &[w0, w1, w2])).unwrap();
            assert_eq!(
                m.iterations,
                formula_3d_iterations(h, w0, w1, w2),
                "h={h} w0={w0}"
            );
        }
    }

    #[test]
    fn taller_tiles_amortize_loads() {
        // Raising h must lower the load-to-compute ratio for jacobi2d.
        let p = gallery::jacobi2d();
        let flat = evaluate_tile(&p, &TileParams::new(0, &[3, 8])).unwrap();
        let tall = evaluate_tile(&p, &TileParams::new(3, &[3, 8])).unwrap();
        assert!(
            tall.ratio() < flat.ratio(),
            "tall {} !< flat {}",
            tall.ratio(),
            flat.ratio()
        );
    }

    #[test]
    fn inter_tile_reuse_reduces_loads() {
        let p = gallery::jacobi2d();
        let m = evaluate_tile(&p, &TileParams::new(2, &[3, 8])).unwrap();
        assert!(m.steady_loads < m.cold_loads);
        assert!(m.steady_loads > 0);
    }

    #[test]
    fn smem_grows_with_widths() {
        let p = gallery::jacobi2d();
        let small = evaluate_tile(&p, &TileParams::new(1, &[1, 4])).unwrap();
        let large = evaluate_tile(&p, &TileParams::new(1, &[5, 16])).unwrap();
        assert!(large.smem_bytes > small.smem_bytes);
    }

    /// A 3-D seven-point stencil whose neighbours in both classical
    /// dimensions sit `MAX_OFFSET` (10⁶) away.
    fn far_apart_3d() -> StencilProgram {
        use stencil::{FieldId, Statement, StencilExpr};
        let far = 1_000_000;
        let a = |o: [i64; 3]| StencilExpr::load(FieldId(0), 1, &o);
        let expr = StencilExpr::sum(vec![
            a([0, 0, 0]),
            a([1, 0, 0]),
            a([-1, 0, 0]),
            a([0, far, 0]),
            a([0, -far, 0]),
            a([0, 0, far]),
            a([0, 0, -far]),
        ]);
        let st = Statement {
            name: "S0".into(),
            writes: FieldId(0),
            expr,
        };
        StencilProgram::new("far3d", 3, &["A"], vec![st]).unwrap()
    }

    #[test]
    fn far_apart_offsets_are_refused_by_the_budget_in_bounded_memory() {
        let program = far_apart_3d();
        let space = SearchSpace::for_dims(3, vec![0, 1, 2, 3], vec![1, 3, 5], &[4, 8], &[32, 64]);
        // The sweep's verdict: all 48 schedulable, all far over 48 KB.
        let cfg = autotune::AutotuneConfig::fermi();
        let report = autotune::autotune(&program, &space, &cfg, |_| Some(1.0));
        assert_eq!(
            (
                report.examined,
                report.rejected_schedule,
                report.rejected_smem
            ),
            (48, 0, 48)
        );
        assert!(report.ranked.is_empty());
        // And what it cost: the grid follows the tile and the number of
        // loads, not the 10⁶ between them (a naive dense grid would need
        // ~10¹³ cells here).
        let evaluator = TileEvaluator::new(&program).unwrap();
        for (h, w) in [(0, [1, 4, 32]), (3, [5, 8, 64])] {
            let params = TileParams::new(h, &w);
            let hex = evaluator.hexagon(h, w[0]).unwrap();
            let counts = evaluator.count_on(&hex, &params).unwrap();
            assert!(counts.smem_bytes > 1 << 40, "{counts:?}");
            assert!(
                counts.grid_bits <= 8 * counts.iterations * 7,
                "h={h} w={w:?}: {} grid bits for {} points x 7 loads",
                counts.grid_bits,
                counts.iterations
            );
        }
    }

    #[test]
    fn a_grid_beyond_the_memory_bound_is_a_typed_refusal() {
        // 40 loads, pairwise 10⁴ apart in both classical dimensions: each
        // slab's axes hold 40 windows per dimension, and their product is
        // past the bound.
        use stencil::{FieldId, Statement, StencilExpr};
        let loads = (0..40)
            .map(|i| StencilExpr::load(FieldId(0), 1, &[0, 10_000 * i, -10_000 * i]))
            .collect();
        let st = Statement {
            name: "S0".into(),
            writes: FieldId(0),
            expr: StencilExpr::sum(loads),
        };
        let program = StencilProgram::new("scattered", 3, &["A"], vec![st]).unwrap();
        let err = evaluate_tile(&program, &TileParams::new(3, &[5, 8, 64])).unwrap_err();
        assert!(
            matches!(err, TileError::ModelTooLarge { bits } if bits > dense::MAX_GRID_BITS),
            "{err:?}"
        );
    }

    #[test]
    fn selection_respects_smem_limit() {
        let p = gallery::jacobi2d();
        let space = SearchSpace {
            h: vec![1, 2],
            w0: vec![1, 3],
            wi: vec![vec![8, 16]],
        };
        let best = select_tile_sizes(&p, 8 * 1024, &space).unwrap();
        assert!(best.smem_bytes <= 8 * 1024);
        // An absurdly small limit leaves no candidates.
        assert!(select_tile_sizes(&p, 64, &space).is_none());
    }

    #[test]
    fn selection_prefers_lower_ratio() {
        let p = gallery::jacobi2d();
        let space = SearchSpace {
            h: vec![0, 2],
            w0: vec![2],
            wi: vec![vec![8]],
        };
        let best = select_tile_sizes(&p, 1 << 20, &space).unwrap();
        assert_eq!(best.params.h, 2, "taller tile has lower ratio");
    }
}

//! The combined hybrid hexagonal/classical schedule (§3.6, Fig. 6).
//!
//! [`HybridSchedule`] maps statement instances `[τ, s0, .., sn]` of the
//! scheduled space to
//!
//! ```text
//! [T, p, S0, S1, .., Sn, t', s'0, s'1, .., s'n]
//! ```
//!
//! with `(T, S0, t'=a, s'0=b)` from the hexagonal phase maps
//! ([`crate::phase`]), `p` the phase index, and `(S_i, s'_i)` from the
//! classical dimensions ([`crate::classical`]) skewed by the phase-local
//! time `u = a` (equations (15)/(16)).

use polylib::QExpr;
use stencil::StencilProgram;

use crate::classical::ClassicalDim;
use crate::cone::DepCone;
use crate::hexagon::HexShape;
use crate::params::{TileError, TileParams};
use crate::phase::{self, Phase, PhaseCoords};

/// The tile coordinates `(T, p, S0, .., Sn)` of one statement instance.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TileCoord {
    /// Time-tile index `T`.
    pub t_tile: i64,
    /// Phase within the time tile.
    pub phase: Phase,
    /// Spatial tile indices `S0, S1, .., Sn`.
    pub s_tiles: Vec<i64>,
}

/// One hexagon row of an ideal tile in global coordinates: the instances
/// at scheduled time `tau` whose spatial position lies in the box
/// `lo[d]..=hi[d]` — the row's `s0` run crossed with the classical windows
/// of `s1..sn` as skewed at that time step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TileRow {
    /// Scheduled time `τ` of the row.
    pub tau: i64,
    /// Inclusive lower corner, one entry per spatial dimension.
    pub lo: Vec<i64>,
    /// Inclusive upper corner, one entry per spatial dimension.
    pub hi: Vec<i64>,
}

/// The row-wise enumeration of an ideal tile — the only one in the crate:
/// [`HybridSchedule::ideal_tile_points`] expands the boxes into points and
/// the tile-size model ([`crate::tilesize`]) counts them without expanding.
/// `hex_rows` are [`HexShape::rows`] of `hex`, passed in so a sweep derives
/// them once per `(h, w0)`.
pub(crate) fn tile_rows(
    hex: &HexShape,
    hex_rows: &[(i64, i64, i64)],
    classical: &[ClassicalDim],
    tile: &TileCoord,
) -> Vec<TileRow> {
    hex_rows
        .iter()
        .map(|&(a, b_lo, b_hi)| {
            let (tau, s0) =
                phase::to_global(hex, tile.phase, tile.t_tile, tile.s_tiles[0], a, b_lo);
            let mut lo = vec![s0];
            let mut hi = vec![s0 + (b_hi - b_lo)];
            for (d, cd) in classical.iter().enumerate() {
                let start = cd.to_global(tile.s_tiles[1 + d], 0, a);
                lo.push(start);
                hi.push(start + cd.width - 1);
            }
            TileRow { tau, lo, hi }
        })
        .collect()
}

/// A fully constructed hybrid schedule for one stencil program.
#[derive(Clone, Debug)]
pub struct HybridSchedule {
    hex: HexShape,
    classical: Vec<ClassicalDim>,
    k: usize,
    cone: DepCone,
}

impl HybridSchedule {
    /// Derives the hybrid schedule of `program` for tile parameters
    /// `params`: computes the dependence cone, builds the hexagon on
    /// `(τ, s0)` and classical tilings on `s1..sn`.
    ///
    /// # Errors
    ///
    /// Propagates [`TileError`] for non-canonical inputs, unbounded cones,
    /// arity mismatches, or a `w0` violating inequality (1).
    pub fn compute(
        program: &StencilProgram,
        params: &TileParams,
    ) -> Result<HybridSchedule, TileError> {
        let cone = DepCone::of_program(program)?;
        HybridSchedule::from_cone(program, params, cone)
    }

    /// Like [`HybridSchedule::compute`], but the cone additionally covers
    /// the storage anti-dependences of the ring-buffered array layout —
    /// required for schedules that drive *executable* code (see
    /// [`DepCone::of_program_with_storage`]).
    ///
    /// # Errors
    ///
    /// See [`HybridSchedule::compute`].
    pub fn compute_executable(
        program: &StencilProgram,
        params: &TileParams,
    ) -> Result<HybridSchedule, TileError> {
        let cone = DepCone::of_program_with_storage(program)?;
        HybridSchedule::from_cone(program, params, cone)
    }

    /// The schedule of `program` under `params` for an already derived
    /// `cone` of that program — what [`HybridSchedule::compute`] and
    /// [`HybridSchedule::compute_executable`] do after deriving theirs, for
    /// callers that build many schedules of one program.
    ///
    /// # Errors
    ///
    /// [`TileError::ArityMismatch`], or a `w0` violating inequality (1).
    pub fn from_cone(
        program: &StencilProgram,
        params: &TileParams,
        cone: DepCone,
    ) -> Result<HybridSchedule, TileError> {
        let n = program.spatial_dims();
        if params.w.len() != n {
            return Err(TileError::ArityMismatch {
                got: params.w.len(),
                expected: n,
            });
        }
        let hex = HexShape::new(cone.delta0(0), cone.delta1(0), params.h, params.w[0])?;
        let classical = (1..n)
            .map(|d| ClassicalDim::new(cone.delta1(d), params.w[d]))
            .collect();
        Ok(HybridSchedule {
            hex,
            classical,
            k: program.num_statements(),
            cone,
        })
    }

    /// The hexagon shape of the `(τ, s0)` plane.
    pub fn hex(&self) -> &HexShape {
        &self.hex
    }

    /// The classical dimensions `s1..sn`.
    pub fn classical(&self) -> &[ClassicalDim] {
        &self.classical
    }

    /// The dependence cone the schedule was derived from.
    pub fn cone(&self) -> &DepCone {
        &self.cone
    }

    /// Statements per outer iteration (`k` of §3.2).
    pub fn num_statements(&self) -> usize {
        self.k
    }

    /// Number of spatial dimensions.
    pub fn spatial_dims(&self) -> usize {
        1 + self.classical.len()
    }

    /// The hexagonal phase/tile claim of the `(τ, s0)` projection of
    /// `point` — `None` if the hexagonal tiling is broken there.
    pub fn locate_hex(&self, tau: i64, s0: i64) -> Option<(Phase, PhaseCoords)> {
        phase::locate(&self.hex, tau, s0)
    }

    /// The tile coordinates of a statement instance `[τ, s0, .., sn]`.
    ///
    /// Returns `None` only if the hexagonal partition fails to claim the
    /// instance exactly once (a bug caught by [`crate::verify`]).
    pub fn tile_of(&self, point: &[i64]) -> Option<TileCoord> {
        assert_eq!(point.len(), 1 + self.spatial_dims(), "point arity");
        let (p, c) = self.locate_hex(point[0], point[1])?;
        let mut s_tiles = Vec::with_capacity(self.spatial_dims());
        s_tiles.push(c.s_tile);
        for (d, cd) in self.classical.iter().enumerate() {
            s_tiles.push(cd.tile_of(point[2 + d], c.a));
        }
        Some(TileCoord {
            t_tile: c.t_tile,
            phase: p,
            s_tiles,
        })
    }

    /// The full schedule vector `[T, p, S0..Sn, t', s'0..s'n]` of an
    /// instance (Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if the hexagonal partition does not claim the instance
    /// exactly once.
    pub fn schedule_vector(&self, point: &[i64]) -> Vec<i64> {
        let (p, c) = self
            .locate_hex(point[0], point[1])
            .expect("instance not claimed exactly once");
        let n = self.spatial_dims();
        let mut v = Vec::with_capacity(2 * n + 3);
        v.push(c.t_tile);
        v.push(p.index());
        v.push(c.s_tile);
        for (d, cd) in self.classical.iter().enumerate() {
            v.push(cd.tile_of(point[2 + d], c.a));
        }
        v.push(c.a);
        v.push(c.b);
        for (d, cd) in self.classical.iter().enumerate() {
            v.push(cd.local_of(point[2 + d], c.a));
        }
        v
    }

    /// The ideal tile `tile`, one box per hexagon row (see [`TileRow`]).
    pub fn tile_rows(&self, tile: &TileCoord) -> Vec<TileRow> {
        tile_rows(&self.hex, &self.hex.rows(), &self.classical, tile)
    }

    /// Enumerates the *ideal* (untrimmed) instances of a tile: hexagon
    /// points × classical windows, mapped back to global coordinates. A
    /// tile is "full" exactly when all of these lie inside the iteration
    /// domain.
    pub fn ideal_tile_points(&self, tile: &TileCoord) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        for row in self.tile_rows(tile) {
            // Odometer over the row's box, innermost dimension fastest.
            let mut pos = row.lo.clone();
            loop {
                let mut pt = Vec::with_capacity(1 + pos.len());
                pt.push(row.tau);
                pt.extend_from_slice(&pos);
                out.push(pt);
                let Some(d) = (0..pos.len()).rev().find(|&d| pos[d] < row.hi[d]) else {
                    break;
                };
                pos[d] += 1;
                pos[d + 1..].copy_from_slice(&row.lo[d + 1..]);
            }
        }
        out
    }

    /// Points per full tile: hexagon size × product of classical widths.
    pub fn points_per_full_tile(&self) -> u64 {
        self.hex.count_points()
            * self
                .classical
                .iter()
                .map(|c| c.width as u64)
                .product::<u64>()
    }

    /// The Fig. 6 quasi-affine schedule expressions for `phase`, over
    /// variables `[t, s0, .., sn]`, as `(name, expression)` pairs.
    ///
    /// Exact only for integer slopes (as in Fig. 6, which assumes ±1
    /// distances); returns `None` when a slope is fractional.
    pub fn as_qexprs(&self, ph: Phase) -> Option<Vec<(String, QExpr)>> {
        let d0 = self.hex.delta0();
        let d1 = self.hex.delta1();
        if !d0.is_integer() || !d1.is_integer() {
            return None;
        }
        for c in &self.classical {
            if !c.delta1.is_integer() {
                return None;
            }
        }
        let h = self.hex.h();
        let height = self.hex.box_height();
        let width = self.hex.box_width();
        let w0 = self.hex.w0();
        let f0 = self.hex.f0();
        let f1 = self.hex.f1();
        let t = || QExpr::var(0);
        let s0 = || QExpr::var(1);
        let (t_shift, s_shift) = match ph {
            Phase::Zero => (h + 1, f0 + w0 + 1),
            Phase::One => (0, 0),
        };
        let t_num = || t() + QExpr::constant(t_shift);
        let big_t = t_num().floor_div(height);
        // Drift term T(f1 - f0).
        let drift = f1 - f0;
        let s_num = || s0() + QExpr::constant(s_shift) + (t_num().floor_div(height)).scale(drift);
        let mut v: Vec<(String, QExpr)> = vec![
            ("T".into(), big_t),
            ("p".into(), QExpr::constant(ph.index())),
            ("S0".into(), s_num().floor_div(width)),
        ];
        for (i, c) in self.classical.iter().enumerate() {
            let si = QExpr::var(2 + i);
            let skew = c.delta1.to_integer().expect("checked integer") as i64;
            let e = si + t_num().modulo(height).scale(skew);
            v.push((format!("S{}", i + 1), e.floor_div(c.width)));
        }
        v.push(("t'".into(), t_num().modulo(height)));
        v.push(("s0'".into(), s_num().modulo(width)));
        for (i, c) in self.classical.iter().enumerate() {
            let si = QExpr::var(2 + i);
            let skew = c.delta1.to_integer().expect("checked integer") as i64;
            let e = si + t_num().modulo(height).scale(skew);
            v.push((format!("s{}'", i + 1), e.modulo(c.width)));
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    fn jacobi_schedule(h: i64, w: &[i64]) -> HybridSchedule {
        HybridSchedule::compute(&gallery::jacobi2d(), &TileParams::new(h, w)).unwrap()
    }

    #[test]
    fn schedule_vector_shape() {
        let s = jacobi_schedule(1, &[2, 4]);
        let v = s.schedule_vector(&[0, 1, 1]);
        assert_eq!(v.len(), 7); // T,p,S0,S1,t',s0',s1'
    }

    #[test]
    fn schedule_vector_matches_qexprs_for_unit_slopes() {
        // The closed-form Fig. 6 expressions and the direct computation
        // must agree on every instance of the claimed phase.
        let s = jacobi_schedule(2, &[3, 4]);
        let q0 = s.as_qexprs(Phase::Zero).unwrap();
        let q1 = s.as_qexprs(Phase::One).unwrap();
        for tau in 0..14 {
            for i in -6..14 {
                for j in -6..14 {
                    let pt = [tau, i, j];
                    let v = s.schedule_vector(&pt);
                    let (ph, _) = s.locate_hex(tau, i).unwrap();
                    let q = if ph == Phase::Zero { &q0 } else { &q1 };
                    let qv: Vec<i64> = q.iter().map(|(_, e)| e.eval(&pt)).collect();
                    assert_eq!(v, qv, "instance {pt:?}");
                }
            }
        }
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let err = HybridSchedule::compute(&gallery::jacobi2d(), &TileParams::new(1, &[2]));
        assert!(matches!(err, Err(TileError::ArityMismatch { .. })));
    }

    #[test]
    fn ideal_tile_points_have_uniform_count() {
        let s = jacobi_schedule(1, &[2, 3]);
        let expected = s.points_per_full_tile();
        // Probe several tiles of both phases.
        for tau in [0, 3, 7] {
            for s0 in [1, 5, 9] {
                let tile = s.tile_of(&[tau, s0, 4]).unwrap();
                let pts = s.ideal_tile_points(&tile);
                assert_eq!(pts.len() as u64, expected);
                // Every ideal point maps back to this very tile.
                for p in &pts {
                    assert_eq!(s.tile_of(p).unwrap(), tile, "point {p:?}");
                }
            }
        }
    }

    #[test]
    fn fdtd_schedule_builds_with_fractional_slopes() {
        let p = gallery::fdtd2d();
        let s = HybridSchedule::compute(&p, &TileParams::new(2, &[2, 8])).unwrap();
        // Fractional slopes: no closed-form Fig. 6 rendering.
        assert!(s.as_qexprs(Phase::Zero).is_none() || s.hex().delta0().is_integer());
        let v = s.schedule_vector(&[4, 3, 3]);
        assert_eq!(v.len(), 7);
    }

    #[test]
    fn contrived_schedule_uses_asymmetric_cone() {
        let p = gallery::contrived1d();
        let s = HybridSchedule::compute(&p, &TileParams::new(2, &[3])).unwrap();
        assert_eq!(s.hex().delta0(), polylib::Rat::ONE);
        assert_eq!(s.hex().delta1(), polylib::Rat::from(2));
        assert_eq!(s.spatial_dims(), 1);
        let v = s.schedule_vector(&[5, 0]);
        assert_eq!(v.len(), 5); // T,p,S0,t',s0'
    }
}

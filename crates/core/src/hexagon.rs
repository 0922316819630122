//! The hexagonal tile shape (§3.3.2–§3.3.3, Fig. 4).
//!
//! A hexagonal tile lives in the local coordinates `(a, b)` of a rectangular
//! box of height `2h + 2` and width `2w0 + 2 + ⌊δ0h⌋ + ⌊δ1h⌋`. Its boundary
//! is given by the constraints (6)–(13) of the paper:
//!
//! ```text
//! (6)   δ0·a - b <= (2h+1)δ0 - ⌊δ0h⌋
//! (7)   a <= 2h + 1
//! (8)   δ1·a + b <= (2h+1)δ1 + ⌊δ0h⌋ + w0
//! (10)  δ1·a + b >= h·δ1 - (d1-1)/d1
//! (12)  δ0·a - b >= δ0h - ⌊δ0h⌋ - w0 - ⌊δ1h⌋ - (d0-1)/d0
//! (13)  a >= 0
//! ```
//!
//! The same shape arises by subtracting three shifted truncated dependence
//! cones from a fourth (Fig. 4); [`HexShape::points_by_cone_subtraction`]
//! implements that construction literally and the test suite asserts both
//! constructions produce identical point sets — including the width bound of
//! inequality (1), below which the subtraction stops being a convex
//! hexagon.

use polylib::{Aff, BasicSet, Rat};

use crate::params::TileError;

/// A hexagonal tile shape in box-local coordinates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HexShape {
    delta0: Rat,
    delta1: Rat,
    h: i64,
    w0: i64,
    /// `⌊δ0·h⌋`.
    f0: i64,
    /// `⌊δ1·h⌋`.
    f1: i64,
}

impl HexShape {
    /// Constructs the hexagon for slopes `(delta0, delta1)`, height
    /// parameter `h` and width `w0`.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::WidthTooSmall`] if `w0` violates inequality (1):
    /// `w0 >= max(δ0 + {δ0h}, δ1 + {δ1h}) - 1`.
    pub fn new(delta0: Rat, delta1: Rat, h: i64, w0: i64) -> Result<HexShape, TileError> {
        assert!(h >= 0, "height parameter must be non-negative");
        assert!(
            delta0 >= Rat::ZERO && delta1 >= Rat::ZERO,
            "slopes must be non-negative"
        );
        let minimum = HexShape::min_width(delta0, delta1, h);
        if w0 < minimum {
            return Err(TileError::WidthTooSmall {
                requested: w0,
                minimum,
            });
        }
        let f0 = (delta0 * Rat::from(h)).floor() as i64;
        let f1 = (delta1 * Rat::from(h)).floor() as i64;
        Ok(HexShape {
            delta0,
            delta1,
            h,
            w0,
            f0,
            f1,
        })
    }

    /// The minimal legal width of inequality (1):
    /// `⌈max(δ0 + {δ0h}, δ1 + {δ1h}) - 1⌉`, clamped to `>= 0`.
    pub fn min_width(delta0: Rat, delta1: Rat, h: i64) -> i64 {
        let hh = Rat::from(h);
        let c0 = delta0 + (delta0 * hh).fract();
        let c1 = delta1 + (delta1 * hh).fract();
        (c0.max(c1) - Rat::ONE).ceil().max(0) as i64
    }

    /// Slope δ0 (upper bound on `Δs0/Δt`).
    pub fn delta0(&self) -> Rat {
        self.delta0
    }

    /// Slope δ1 (upper bound on `-Δs0/Δt`).
    pub fn delta1(&self) -> Rat {
        self.delta1
    }

    /// Height parameter `h`.
    pub fn h(&self) -> i64 {
        self.h
    }

    /// Width parameter `w0`.
    pub fn w0(&self) -> i64 {
        self.w0
    }

    /// `⌊δ0·h⌋`.
    pub fn f0(&self) -> i64 {
        self.f0
    }

    /// `⌊δ1·h⌋`.
    pub fn f1(&self) -> i64 {
        self.f1
    }

    /// Height of the enclosing box: `2h + 2` time steps.
    pub fn box_height(&self) -> i64 {
        2 * self.h + 2
    }

    /// Width of the enclosing box (the `S0` stride):
    /// `2w0 + 2 + ⌊δ0h⌋ + ⌊δ1h⌋`.
    pub fn box_width(&self) -> i64 {
        2 * self.w0 + 2 + self.f0 + self.f1
    }

    /// True if local coordinates `(a, b)` lie inside the hexagon
    /// (constraints (6)–(13)).
    pub fn contains_local(&self, a: i64, b: i64) -> bool {
        if a < 0 || a > 2 * self.h + 1 {
            return false; // (7), (13)
        }
        let (a, b) = (Rat::from(a), Rat::from(b));
        let h = Rat::from(self.h);
        let two_h1 = Rat::from(2 * self.h + 1);
        let f0 = Rat::from(self.f0);
        let f1 = Rat::from(self.f1);
        let w0 = Rat::from(self.w0);
        let d0 = Rat::new(1, self.delta0.den()); // 1/d0
        let d1 = Rat::new(1, self.delta1.den()); // 1/d1
        let lhs0 = self.delta0 * a - b;
        let lhs1 = self.delta1 * a + b;
        // (6)
        lhs0 <= two_h1 * self.delta0 - f0
            // (8)
            && lhs1 <= two_h1 * self.delta1 + f0 + w0
            // (10): δ1a + b >= hδ1 - (d1-1)/d1
            && lhs1 >= h * self.delta1 - (Rat::ONE - d1)
            // (12)
            && lhs0 >= self.delta0 * h - f0 - w0 - f1 - (Rat::ONE - d0)
    }

    /// The hexagon as a polyhedral set over `(a, b)`.
    pub fn as_basic_set(&self) -> BasicSet {
        let dim = 2;
        let a = || Aff::var(dim, 0);
        let b = || Aff::var(dim, 1);
        let c = |r: Rat| Aff::constant(dim, r);
        let h = Rat::from(self.h);
        let two_h1 = Rat::from(2 * self.h + 1);
        let f0 = Rat::from(self.f0);
        let f1 = Rat::from(self.f1);
        let w0 = Rat::from(self.w0);
        let inv_d0 = Rat::new(1, self.delta0.den());
        let inv_d1 = Rat::new(1, self.delta1.den());
        BasicSet::new(dim)
            // (13) a >= 0
            .with_ge(a())
            // (7) 2h+1 - a >= 0
            .with_ge(c(two_h1) - a())
            // (6) (2h+1)δ0 - f0 - δ0 a + b >= 0
            .with_ge(c(two_h1 * self.delta0 - f0) - a() * self.delta0 + b())
            // (8) (2h+1)δ1 + f0 + w0 - δ1 a - b >= 0
            .with_ge(c(two_h1 * self.delta1 + f0 + w0) - a() * self.delta1 - b())
            // (10) δ1 a + b - hδ1 + (d1-1)/d1 >= 0
            .with_ge(a() * self.delta1 + b() - c(h * self.delta1 - (Rat::ONE - inv_d1)))
            // (12) δ0 a - b - (δ0 h - f0 - w0 - f1) + (d0-1)/d0 >= 0
            .with_ge(
                a() * self.delta0 - b() - c(self.delta0 * h - f0 - w0 - f1 - (Rat::ONE - inv_d0)),
            )
    }

    /// Exact number of integer points in the hexagon.
    ///
    /// For `δ0 = δ1 = 1` this equals `2(h+1)(h+1+w0)` — the per-tile
    /// iteration count underlying the §3.7 formula
    /// `2(1 + 2h + h² + w0(h+1))·w1·w2`.
    pub fn count_points(&self) -> u64 {
        self.as_basic_set().count_points()
    }

    /// All hexagon points `(a, b)`, lexicographically.
    pub fn points(&self) -> Vec<(i64, i64)> {
        self.as_basic_set().points().map(|p| (p[0], p[1])).collect()
    }

    /// Range of `b` for a given row `a`, or `None` if the row is empty:
    /// constraints (6) and (10) solved for the lower bound on `b`, (8)
    /// and (12) for the upper one.
    pub fn row_range(&self, a: i64) -> Option<(i64, i64)> {
        if a < 0 || a > 2 * self.h + 1 {
            return None; // (7), (13)
        }
        let a = Rat::from(a);
        let h = Rat::from(self.h);
        let two_h1 = Rat::from(2 * self.h + 1);
        let f0 = Rat::from(self.f0);
        let f1 = Rat::from(self.f1);
        let w0 = Rat::from(self.w0);
        let slack0 = Rat::ONE - Rat::new(1, self.delta0.den()); // (d0-1)/d0
        let slack1 = Rat::ONE - Rat::new(1, self.delta1.den()); // (d1-1)/d1
        let lo6 = self.delta0 * a - (two_h1 * self.delta0 - f0);
        let lo10 = h * self.delta1 - slack1 - self.delta1 * a;
        let hi8 = two_h1 * self.delta1 + f0 + w0 - self.delta1 * a;
        let hi12 = self.delta0 * a - (self.delta0 * h - f0 - w0 - f1 - slack0);
        let lo = lo6.max(lo10).ceil() as i64;
        let hi = hi8.min(hi12).floor() as i64;
        (lo <= hi).then_some((lo, hi))
    }

    /// The non-empty rows `(a, b_lo, b_hi)` of the hexagon, bottom row
    /// first — the same points as [`HexShape::points`], one contiguous
    /// run per time step.
    pub fn rows(&self) -> Vec<(i64, i64, i64)> {
        (0..self.box_height())
            .filter_map(|a| self.row_range(a).map(|(lo, hi)| (a, lo, hi)))
            .collect()
    }

    /// Fig. 4's literal construction: the set of points of one tile obtained
    /// by subtracting three shifted truncated opposite-dependence cones from
    /// the anchor truncated cone, translated into the same `(a, b)` local
    /// coordinates as [`HexShape::contains_local`].
    ///
    /// The anchor cone hangs below the `w0 + 1` instances at offsets
    /// `(0, 0)..(0, w0)`; the subtracted cones sit at offsets
    /// `(-h-1, -w0-1-⌊δ0h⌋)`, `(-h-1, w0+1+⌊δ1h⌋)` and
    /// `(-2h-2, ⌊δ1h⌋-⌊δ0h⌋)`. Local coordinates: `a = x + 2h + 1`,
    /// `b = y + ⌊δ0h⌋`.
    pub fn points_by_cone_subtraction(&self) -> Vec<(i64, i64)> {
        let in_cone = |x: i64, y: i64| -> bool {
            // Truncated cone: x <= 0, y >= δ0 x, y <= -δ1 x + w0.
            let (x, y) = (Rat::from(x), Rat::from(y));
            x.signum() <= 0 && y >= self.delta0 * x && y <= -(self.delta1 * x) + Rat::from(self.w0)
        };
        let offsets = [
            (-self.h - 1, -self.w0 - 1 - self.f0),
            (-self.h - 1, self.w0 + 1 + self.f1),
            (-2 * self.h - 2, self.f1 - self.f0),
        ];
        let mut out = Vec::new();
        // The tile is contained in x ∈ [-2h-1, 0]; scan a safe window in y.
        let y_lo = -(self.box_width()) - self.f0 - 2;
        let y_hi = 2 * self.box_width() + self.f1 + 2;
        for x in (-2 * self.h - 2)..=0 {
            for y in y_lo..=y_hi {
                if in_cone(x, y) && offsets.iter().all(|&(ox, oy)| !in_cone(x - ox, y - oy)) {
                    out.push((x + 2 * self.h + 1, y + self.f0));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d0: (i128, i128), d1: (i128, i128), h: i64, w0: i64) -> HexShape {
        HexShape::new(Rat::new(d0.0, d0.1), Rat::new(d1.0, d1.1), h, w0).unwrap()
    }

    #[test]
    fn unit_slope_count_matches_section37_formula() {
        for h in 0..4 {
            for w0 in 0..5 {
                let s = hex((1, 1), (1, 1), h, w0);
                assert_eq!(
                    s.count_points() as i64,
                    2 * (h + 1) * (h + 1 + w0),
                    "h={h}, w0={w0}"
                );
            }
        }
    }

    #[test]
    fn constraints_equal_cone_subtraction() {
        // The two §3.3.2 constructions must agree, across slope shapes that
        // exercise fractional floors (d=2,3) and the paper's Fig. 4 example.
        let cases = [
            ((1, 1), (1, 1), 2, 3),
            ((1, 1), (2, 1), 2, 3), // Fig. 4: δ0=1, δ1=2, h=2, w0=3
            ((1, 2), (1, 1), 3, 2),
            ((1, 3), (2, 3), 4, 2),
            ((0, 1), (1, 1), 2, 1),
            ((3, 2), (1, 2), 1, 2),
        ];
        for ((a0, b0), (a1, b1), h, w0) in cases {
            let s = hex((a0, b0), (a1, b1), h, w0);
            let from_constraints: Vec<(i64, i64)> = s.points();
            let from_cones = s.points_by_cone_subtraction();
            assert_eq!(
                from_constraints, from_cones,
                "δ0={a0}/{b0}, δ1={a1}/{b1}, h={h}, w0={w0}"
            );
        }
    }

    #[test]
    fn width_below_inequality_1_is_rejected() {
        // δ1 = 2, h = 2: {δ1 h} = 0, so w0 >= 2 - 1 = 1; w0 = 0 must fail.
        let err = HexShape::new(Rat::ONE, Rat::from(2), 2, 0);
        assert!(matches!(
            err,
            Err(TileError::WidthTooSmall { minimum: 1, .. })
        ));
    }

    #[test]
    fn min_width_accounts_for_fractional_part() {
        // δ0 = 3/2, h = 1: {δ0 h} = 1/2, bound = 3/2 + 1/2 - 1 = 1.
        assert_eq!(HexShape::min_width(Rat::new(3, 2), Rat::ZERO, 1), 1);
        // δ0 = δ1 = 1: bound = 0.
        assert_eq!(HexShape::min_width(Rat::ONE, Rat::ONE, 2), 0);
    }

    #[test]
    fn paper_figure4_dimensions() {
        // Fig. 4: w0 = 3, h = 2, δ0 = 1, δ1 = 2 (from Fig. 3's example).
        let s = hex((1, 1), (2, 1), 2, 3);
        assert_eq!(s.box_height(), 6);
        assert_eq!(s.f0(), 2);
        assert_eq!(s.f1(), 4);
        assert_eq!(s.box_width(), 2 * 3 + 2 + 2 + 4);
    }

    #[test]
    fn top_row_has_w0_plus_1_points() {
        for (d0, d1, h, w0) in [((1, 1), (1, 1), 2, 3), ((1, 2), (1, 1), 3, 2)] {
            let s = hex(d0, d1, h, w0);
            let (lo, hi) = s.row_range(2 * h + 1).expect("top row non-empty");
            assert_eq!(hi - lo + 1, w0 + 1, "top row is the adjustable peak");
        }
    }

    #[test]
    fn rows_tile_contiguously() {
        // Every row of the hexagon is a contiguous run (needed for
        // divergence-free unrolled loops).
        let s = hex((1, 1), (2, 1), 2, 3);
        for a in 0..=2 * s.h() + 1 {
            if let Some((lo, hi)) = s.row_range(a) {
                for b in lo..=hi {
                    assert!(s.contains_local(a, b), "gap at ({a},{b})");
                }
            }
        }
    }

    #[test]
    // The unreduced arithmetic spells out the closed form at h = 0.
    #[allow(clippy::identity_op)]
    fn zero_height_hexagon_is_two_rows() {
        let s = hex((1, 1), (1, 1), 0, 1);
        assert_eq!(s.box_height(), 2);
        assert_eq!(s.count_points(), 2 * (0 + 1) * (0 + 1 + 1));
    }
}

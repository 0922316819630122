//! The opposite dependence cone and its slopes δ0/δ1 (§3.3.2, Fig. 3).
//!
//! Given the dependence distance vectors `(Δt, Δs)` of a stencil (all with
//! `Δt >= 1`), the paper bounds the spatial distance by the time distance:
//!
//! ```text
//! Δs_d <= δ0_d · Δt      and      Δs_d >= -δ1_d · Δt
//! ```
//!
//! The minimal such constants are the largest ratios `±Δs_d / Δt` over the
//! distance vectors, clamped at zero (the solution of a one-variable LP,
//! written out). The *opposite* dependence cone — the set of offsets of instances
//! a point depends on, transitively — is then generated by `(-1, -δ0)` and
//! `(-1, δ1)` in each time/space plane.

use polylib::Rat;
use stencil::{distance_vectors, DistanceVector, StencilProgram};

use crate::params::TileError;

/// The dependence cone slopes of a stencil program, per spatial dimension.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DepCone {
    /// The distance vectors the cone was derived from.
    vectors: Vec<DistanceVector>,
    /// `(δ0_d, δ1_d)` per spatial dimension: minimal non-negative rationals
    /// with `Δs_d <= δ0_d Δt` and `Δs_d >= -δ1_d Δt` for all vectors.
    slopes: Vec<(Rat, Rat)>,
}

impl DepCone {
    /// Derives the cone from a program's dependence distance vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TileError::UncarriedDependence`] if any vector has
    /// `Δt < 1`. A finite set of vectors with `Δt >= 1` always has finite
    /// slopes, so [`TileError::UnboundedCone`] is never produced here.
    pub fn of_program(program: &StencilProgram) -> Result<DepCone, TileError> {
        DepCone::from_vectors(distance_vectors(program))
    }

    /// Derives the cone including the *storage* (anti) dependences of the
    /// ring-buffered layout with `max_dt + 1` planes per field — the
    /// dependences isl would see in the paper's modulo-buffered C input
    /// (`A[(t+1)%2]` in Fig. 1). Executable schedules must use this cone;
    /// for the symmetric gallery stencils it coincides with the flow cone.
    ///
    /// # Errors
    ///
    /// See [`DepCone::of_program`].
    pub fn of_program_with_storage(program: &StencilProgram) -> Result<DepCone, TileError> {
        let planes = program.max_dt() + 1;
        DepCone::from_vectors(stencil::deps::distance_vectors_with_storage(
            program, planes,
        ))
    }

    /// Derives the cone from explicit distance vectors.
    ///
    /// # Errors
    ///
    /// See [`DepCone::of_program`].
    pub fn from_vectors(vectors: Vec<DistanceVector>) -> Result<DepCone, TileError> {
        let spatial = vectors.first().map_or(0, |v| v.ds.len());
        for v in &vectors {
            if v.dt < 1 {
                return Err(TileError::UncarriedDependence(format!(
                    "distance vector {v:?} has Δt < 1"
                )));
            }
        }
        let slopes = (0..spatial)
            .map(|d| {
                (
                    min_slope(&vectors, d, Direction::Upper),
                    min_slope(&vectors, d, Direction::Lower),
                )
            })
            .collect();
        Ok(DepCone { vectors, slopes })
    }

    /// The distance vectors the cone was computed from.
    pub fn vectors(&self) -> &[DistanceVector] {
        &self.vectors
    }

    /// Number of spatial dimensions.
    pub fn spatial_dims(&self) -> usize {
        self.slopes.len()
    }

    /// `δ0` of spatial dimension `d`: `Δs_d <= δ0 · Δt` for all dependences.
    pub fn delta0(&self, d: usize) -> Rat {
        self.slopes[d].0
    }

    /// `δ1` of spatial dimension `d`: `Δs_d >= -δ1 · Δt` for all
    /// dependences.
    pub fn delta1(&self, d: usize) -> Rat {
        self.slopes[d].1
    }

    /// True if the *opposite* cone in the `(t, s_d)` plane contains the
    /// offset `(dt, ds)` (both typically non-positive / arbitrary): the cone
    /// generated by `(-1, -δ0)` and `(-1, δ1)`, i.e.
    /// `dt <= 0 and δ0·dt <= ds <= -δ1·dt`.
    pub fn opposite_cone_contains(&self, d: usize, dt: i64, ds: i64) -> bool {
        let (d0, d1) = self.slopes[d];
        let (dt, ds) = (Rat::from(dt), Rat::from(ds));
        dt.signum() <= 0 && ds >= d0 * dt && ds <= -(d1 * dt)
    }
}

#[derive(Clone, Copy)]
enum Direction {
    /// Find minimal δ with `Δs <= δ·Δt`.
    Upper,
    /// Find minimal δ with `Δs >= -δ·Δt`.
    Lower,
}

/// The minimal `δ >= 0` with `δ·Δt >= ±Δs_d` for every vector: the largest
/// ratio `±Δs_d / Δt`, clamped at zero (a non-negative slope keeps the cone
/// an over-approximation, which is always safe). Every `Δt` is `>= 1`
/// (validated by the caller).
fn min_slope(vectors: &[DistanceVector], d: usize, dir: Direction) -> Rat {
    vectors
        .iter()
        .map(|v| {
            let ds = match dir {
                Direction::Upper => v.ds[d],
                Direction::Lower => -v.ds[d],
            };
            Rat::new(ds.into(), v.dt.into())
        })
        .fold(Rat::ZERO, Rat::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polylib::{lp, Aff, Constraint, LpResult, Objective};
    use proptest::prelude::*;
    use stencil::gallery;

    /// The formulation `min_slope` writes out: the 1-variable LP
    /// `min δ  s.t.  δ·Δt ∓ Δs_d >= 0 per vector,  δ >= 0`.
    fn min_slope_lp(vectors: &[DistanceVector], d: usize, dir: Direction) -> Option<Rat> {
        let mut cons: Vec<Constraint> = vectors
            .iter()
            .map(|v| {
                let c0 = match dir {
                    Direction::Upper => -v.ds[d],
                    Direction::Lower => v.ds[d],
                };
                Constraint::ge0(Aff::from_ints(&[v.dt], c0))
            })
            .collect();
        cons.push(Constraint::ge0(Aff::from_ints(&[1], 0)));
        match lp(&cons, &Aff::from_ints(&[1], 0), Objective::Minimize) {
            LpResult::Optimal { value, .. } => Some(value),
            _ => None,
        }
    }

    fn assert_slopes_match_lp(program: &StencilProgram) {
        for cone in [
            DepCone::of_program(program).unwrap(),
            DepCone::of_program_with_storage(program).unwrap(),
        ] {
            for d in 0..cone.spatial_dims() {
                for (dir, got) in [
                    (Direction::Upper, cone.delta0(d)),
                    (Direction::Lower, cone.delta1(d)),
                ] {
                    assert_eq!(Some(got), min_slope_lp(cone.vectors(), d, dir), "dim {d}");
                }
            }
        }
    }

    #[test]
    fn closed_form_slopes_equal_the_lp_on_the_gallery() {
        // heat3d's 27-point storage cone is the LP's most expensive input.
        for program in gallery::table3_stencils() {
            assert_slopes_match_lp(&program);
        }
        assert_slopes_match_lp(&gallery::contrived1d());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn closed_form_slopes_equal_the_lp_on_generated_programs(
            n in 1usize..=3,
            loads in prop::collection::vec(
                prop::collection::vec(
                    (0usize..3, 0i64..=2, prop::collection::vec(-3i64..=3, 3)),
                    1..5,
                ),
                1..4,
            ),
        ) {
            assert_slopes_match_lp(&gallery::from_loads(n, loads));
        }
    }

    #[test]
    fn paper_example_slopes() {
        // Fig. 3: vectors {(1,-2),(2,2)} give δ0 = 1, δ1 = 2.
        let cone = DepCone::of_program(&gallery::contrived1d()).unwrap();
        assert_eq!(cone.delta0(0), Rat::ONE);
        assert_eq!(cone.delta1(0), Rat::from(2));
    }

    #[test]
    fn jacobi_slopes_are_unit() {
        let cone = DepCone::of_program(&gallery::jacobi2d()).unwrap();
        for d in 0..2 {
            assert_eq!(cone.delta0(d), Rat::ONE);
            assert_eq!(cone.delta1(d), Rat::ONE);
        }
    }

    #[test]
    fn fdtd_slopes_are_fractional() {
        // fdtd's scheduled distances include (1, ds) and (2, ds) vectors
        // over k=3 statements; slopes come out as max ratios.
        let cone = DepCone::of_program(&gallery::fdtd2d()).unwrap();
        for d in 0..2 {
            assert!(cone.delta0(d) >= Rat::ZERO);
            assert!(cone.delta1(d) >= Rat::ZERO);
            // All offsets are within ±1 at dt >= 1, so slopes are <= 1.
            assert!(cone.delta0(d) <= Rat::ONE);
            assert!(cone.delta1(d) <= Rat::ONE);
        }
    }

    #[test]
    fn slopes_clamped_non_negative() {
        // A pure forward shift: Δs always = -3 (never positive). δ0 clamps
        // to 0 rather than going negative.
        let cone = DepCone::from_vectors(vec![DistanceVector::new(1, &[-3])]).unwrap();
        assert_eq!(cone.delta0(0), Rat::ZERO);
        assert_eq!(cone.delta1(0), Rat::from(3));
    }

    #[test]
    fn rejects_uncarried_vectors() {
        let err = DepCone::from_vectors(vec![DistanceVector::new(0, &[1])]);
        assert!(matches!(err, Err(TileError::UncarriedDependence(_))));
    }

    #[test]
    fn opposite_cone_membership_matches_figure3() {
        let cone = DepCone::of_program(&gallery::contrived1d()).unwrap();
        // Generators: (-1, -1) and (-1, 2).
        assert!(cone.opposite_cone_contains(0, -1, -1));
        assert!(cone.opposite_cone_contains(0, -1, 2));
        assert!(cone.opposite_cone_contains(0, -2, 0));
        assert!(!cone.opposite_cone_contains(0, -1, 3));
        assert!(!cone.opposite_cone_contains(0, -1, -2));
        assert!(!cone.opposite_cone_contains(0, 1, 0));
    }

    #[test]
    fn half_slopes_from_dt2() {
        // (2, 1) gives δ0 = 1/2.
        let cone = DepCone::from_vectors(vec![DistanceVector::new(2, &[1])]).unwrap();
        assert_eq!(cone.delta0(0), Rat::new(1, 2));
        assert_eq!(cone.delta1(0), Rat::ZERO);
    }
}

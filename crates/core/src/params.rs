//! Tile-size parameters and construction errors.

use std::fmt;

/// Tile-size parameters of the hybrid schedule (paper §3.6): the time
/// height parameter `h` and the per-spatial-dimension widths `w0..wn`.
///
/// `h` controls the tile extent along time: one phase covers `2h + 2` time
/// steps. `w[0]` is the *minimal* width of the hexagonal dimension (the
/// adjustable peak of §2); `w[1..]` are the exact widths of the classically
/// tiled dimensions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TileParams {
    /// Time height parameter `h >= 0`.
    pub h: i64,
    /// Widths `w0, w1, .., wn`, one per spatial dimension.
    pub w: Vec<i64>,
}

impl TileParams {
    /// Creates tile parameters.
    ///
    /// # Panics
    ///
    /// Panics if `h < 0` or any width is `< 0` (zero `w0` is allowed — the
    /// hexagon peak then has a single column; classical widths must be
    /// `>= 1`).
    pub fn new(h: i64, w: &[i64]) -> TileParams {
        assert!(h >= 0, "tile height must be non-negative");
        assert!(!w.is_empty(), "at least one spatial width required");
        assert!(w[0] >= 0, "hexagon width must be non-negative");
        assert!(
            w[1..].iter().all(|&x| x >= 1),
            "classical widths must be positive"
        );
        TileParams { h, w: w.to_vec() }
    }

    /// Number of spatial dimensions covered.
    pub fn spatial_dims(&self) -> usize {
        self.w.len()
    }

    /// The time extent of one phase: `2h + 2`.
    pub fn time_extent(&self) -> i64 {
        2 * self.h + 2
    }
}

/// Errors arising while constructing a hybrid schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TileError {
    /// A dependence has non-positive scheduled time distance: the input is
    /// not in the canonical form of §3.2.
    UncarriedDependence(String),
    /// The dependence cone is unbounded in some spatial direction, so no
    /// finite δ exists (violates the §3.3.1 boundedness assumption). No
    /// finite set of distance vectors with `Δt >= 1` produces it — the
    /// slopes are largest ratios `±Δs/Δt` ([`crate::DepCone`]) — so it is
    /// reserved for dependences that are not uniform.
    UnboundedCone(usize),
    /// `w0` is below the lower bound of inequality (1); the subtraction
    /// would not produce a convex hexagon.
    WidthTooSmall {
        /// Requested hexagon width.
        requested: i64,
        /// Minimal legal width for the given slopes and height.
        minimum: i64,
    },
    /// Parameter arity does not match the program's spatial dimensions.
    ArityMismatch {
        /// Widths supplied.
        got: usize,
        /// Spatial dimensions of the program.
        expected: usize,
    },
    /// The values one tile touches are scattered so widely that counting
    /// them exactly would need a grid beyond the tile-size model's memory
    /// bound (see [`crate::tilesize`]); such a tile could never fit shared
    /// memory either.
    ModelTooLarge {
        /// Grid bits the count would have needed.
        bits: u64,
    },
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileError::UncarriedDependence(s) => {
                write!(f, "dependence not carried by the time dimension: {s}")
            }
            TileError::UnboundedCone(d) => write!(
                f,
                "dependence distances unbounded relative to time in spatial dim {d}"
            ),
            TileError::WidthTooSmall { requested, minimum } => write!(
                f,
                "hexagon width w0 = {requested} below the inequality-(1) minimum {minimum}"
            ),
            TileError::ArityMismatch { got, expected } => {
                write!(f, "got {got} widths for {expected} spatial dimensions")
            }
            TileError::ModelTooLarge { bits } => write!(
                f,
                "tile touches values too scattered to count exactly ({bits} grid bits)"
            ),
        }
    }
}

impl std::error::Error for TileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_extent_is_2h_plus_2() {
        assert_eq!(TileParams::new(0, &[1]).time_extent(), 2);
        assert_eq!(TileParams::new(3, &[1, 32]).time_extent(), 8);
    }

    #[test]
    #[should_panic(expected = "classical widths")]
    fn zero_classical_width_rejected() {
        let _ = TileParams::new(1, &[3, 0]);
    }

    #[test]
    fn errors_display() {
        let e = TileError::WidthTooSmall {
            requested: 0,
            minimum: 2,
        };
        assert!(e.to_string().contains("inequality-(1)"));
    }
}

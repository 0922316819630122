//! # hybrid-tiling — hybrid hexagonal/classical tiling (CGO 2014, §3)
//!
//! This crate implements the paper's primary contribution: the construction
//! of a *hybrid hexagonal/classical* tiling schedule for iterative stencil
//! computations, mapping statement instances
//!
//! ```text
//! [t, s0, .., sn]  ->  [T, p, S0, S1, .., Sn, t', s'0, .., s'n]
//! ```
//!
//! where `(T, p)` enumerate time tiles and their two wavefront *phases*,
//! `S0` indexes hexagonal tiles along the time/`s0` plane (parallel within a
//! phase), `S1..Sn` index classical (parallelogram) tiles along the
//! remaining spatial dimensions (sequential inside a thread block), and the
//! primed coordinates are intra-tile schedules.
//!
//! The pipeline follows the paper section by section:
//!
//! * [`cone`] — the opposite dependence cone and its slopes δ0/δ1, computed
//!   from dependence distance vectors by exact LP (§3.3.2, Fig. 3);
//! * [`hexagon`] — the hexagonal tile shape: the width lower bound of
//!   inequality (1) and the local-coordinate constraints (6)–(13)
//!   (§3.3.2–§3.3.3, Fig. 4); the shape is *also* constructible by the
//!   truncated-cone subtraction of Fig. 4, and the two constructions are
//!   asserted equal in tests;
//! * [`phase`] — the two-phase tile indexing of equations (2)–(5) (Fig. 5);
//! * [`classical`] — the classical tiling of the inner dimensions,
//!   equations (14)–(17) (§3.4–§3.5);
//! * [`schedule`] — the combined hybrid schedule of §3.6 (Fig. 6);
//! * [`verify`] — exhaustive correctness checking: unique tile ownership,
//!   dependence legality under the CUDA execution model, and identical
//!   point counts across full tiles (the paper's no-divergence argument);
//! * [`tilesize`] — the load-to-compute-ratio tile-size model of §3.7;
//! * [`tilesize::autotune`] — the §6 autotuning sweep: enumerate the
//!   `(h, w0, ..)` space under shared-memory/register budgets, verify the
//!   surviving schedules, and rank them by a caller-supplied (typically
//!   simulator-backed) score.
//!
//! ```
//! use hybrid_tiling::{HybridSchedule, TileParams};
//! use stencil::gallery;
//!
//! let program = gallery::jacobi2d();
//! let params = TileParams::new(2, &[3, 8]);
//! let schedule = HybridSchedule::compute(&program, &params)?;
//! // Map one statement instance [tau, i, j] to its schedule vector.
//! let v = schedule.schedule_vector(&[5, 7, 9]);
//! assert_eq!(v.len(), 7); // [T, p, S0, S1, t', s0', s1']
//! # Ok::<(), hybrid_tiling::TileError>(())
//! ```

pub mod cancel;
pub mod classical;
pub mod cone;
pub mod hexagon;
pub mod params;
pub mod phase;
pub mod schedule;
pub mod tilesize;
pub mod verify;

pub use cancel::{CancelKind, CancelToken};
pub use cone::DepCone;
pub use hexagon::HexShape;
pub use params::{TileError, TileParams};
pub use phase::{Phase, PhaseCoords};
pub use schedule::{HybridSchedule, TileCoord, TileRow};
pub use tilesize::autotune::{
    autotune, autotune_cancellable, AutotuneConfig, AutotuneEntry, AutotuneError, AutotuneReport,
};
pub use tilesize::{select_tile_sizes, SearchSpace, TileEvaluator, TileSizeModel};
pub use verify::{verify_schedule, VerifyError};

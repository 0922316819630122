//! The input programs: the six `examples/stencils/*.stencil` shapes,
//! verbatim for the hot set and with one seeded coefficient replaced for
//! never-seen (cold) programs.

/// One of the six example stencil shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    Wave1d,
    Jacobi2d,
    Blur2d,
    Gradient2d,
    Fdtd2d,
    Laplacian3d,
}

impl Shape {
    pub const ALL: [Shape; 6] = [
        Shape::Wave1d,
        Shape::Jacobi2d,
        Shape::Blur2d,
        Shape::Gradient2d,
        Shape::Fdtd2d,
        Shape::Laplacian3d,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Wave1d => "wave1d",
            Shape::Jacobi2d => "jacobi2d",
            Shape::Blur2d => "blur2d",
            Shape::Gradient2d => "gradient2d",
            Shape::Fdtd2d => "fdtd2d",
            Shape::Laplacian3d => "laplacian3d",
        }
    }

    pub fn spatial_dims(self) -> usize {
        match self {
            Shape::Wave1d => 1,
            Shape::Laplacian3d => 3,
            _ => 2,
        }
    }

    /// The example file, byte for byte (compiled into the harness so a run
    /// reads nothing outside its own directories).
    pub fn source(self) -> &'static str {
        match self {
            Shape::Wave1d => include_str!("../../examples/stencils/wave1d.stencil"),
            Shape::Jacobi2d => include_str!("../../examples/stencils/jacobi2d.stencil"),
            Shape::Blur2d => include_str!("../../examples/stencils/blur2d.stencil"),
            Shape::Gradient2d => include_str!("../../examples/stencils/gradient2d.stencil"),
            Shape::Fdtd2d => include_str!("../../examples/stencils/fdtd2d.stencil"),
            Shape::Laplacian3d => include_str!("../../examples/stencils/laplacian3d.stencil"),
        }
    }

    /// The coefficient literal a cold program replaces; it occurs exactly
    /// once in [`Shape::source`] (unit-tested).
    fn coefficient(self) -> &'static str {
        match self {
            Shape::Wave1d => "0.4f",
            Shape::Jacobi2d => "0.2f",
            Shape::Blur2d => "0.25f",
            Shape::Gradient2d => "0.5f",
            Shape::Fdtd2d => "0.5f",
            Shape::Laplacian3d => "0.125f",
        }
    }

    /// A program of this shape no cache has seen: the coefficient becomes
    /// the `id`-th `f32` of `[0.125, 0.25)`, so distinct ids are distinct
    /// programs (distinct fingerprints) with identical structure, and every
    /// iteration stays bounded.
    pub fn cold_source(self, id: ColdId) -> String {
        let value = ((1u32 << 23) + id.0) as f32 / (1u32 << 26) as f32;
        self.source()
            .replacen(self.coefficient(), &format!("{value}f"), 1)
    }
}

/// Which part of a process's id space a cold program draws from, so timed
/// ops, warm-up ops and the trace's sibling programs can never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Timed ops of connection 0 or 1.
    Conn(usize),
    WarmUp,
    TraceSibling,
}

/// A 23-bit cold-program id: 9 seed bits, 2 lane bits, 12 counter bits.
/// Seeds that differ modulo 512 therefore generate disjoint programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ColdId(u32);

impl ColdId {
    pub const PER_LANE: u32 = 1 << 12;

    /// # Panics
    ///
    /// Panics when a lane's 4096 ids are used up — about thirty times the
    /// ops a run issues at the commit that introduced the benchmark.
    pub fn new(seed: u64, lane: Lane, n: u32) -> ColdId {
        assert!(
            n < ColdId::PER_LANE,
            "cold-program id space of one lane exhausted ({n} ops); widen ColdId"
        );
        let lane = match lane {
            Lane::Conn(c) => {
                assert!(c < 2, "at most two connections");
                c as u32
            }
            Lane::WarmUp => 2,
            Lane::TraceSibling => 3,
        };
        ColdId(((seed % 512) as u32) << 14 | lane << 12 | n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::parse::parse_stencil;

    #[test]
    fn every_shape_has_exactly_one_replaceable_coefficient() {
        for shape in Shape::ALL {
            assert_eq!(
                shape.source().matches(shape.coefficient()).count(),
                1,
                "{}",
                shape.name()
            );
        }
    }

    #[test]
    fn cold_programs_parse_keep_their_shape_and_differ_by_id() {
        for shape in Shape::ALL {
            let base = parse_stencil(shape.name(), shape.source()).unwrap();
            let a = shape.cold_source(ColdId::new(3, Lane::Conn(0), 0));
            let b = shape.cold_source(ColdId::new(3, Lane::Conn(0), 1));
            let pa = parse_stencil(shape.name(), &a).unwrap();
            let pb = parse_stencil(shape.name(), &b).unwrap();
            assert_ne!(pa.to_c_like(), pb.to_c_like());
            assert_ne!(pa.to_c_like(), base.to_c_like());
            assert_eq!(pa.spatial_dims(), shape.spatial_dims());
            assert_eq!(pa.num_statements(), base.num_statements());
            assert_eq!(pa.radius(), base.radius());
        }
    }

    #[test]
    fn ids_are_disjoint_across_seeds_and_lanes() {
        let mut seen = std::collections::HashSet::new();
        for seed in [1, 2, 511] {
            for lane in [
                Lane::Conn(0),
                Lane::Conn(1),
                Lane::WarmUp,
                Lane::TraceSibling,
            ] {
                for n in [0, 1, ColdId::PER_LANE - 1] {
                    assert!(seen.insert(ColdId::new(seed, lane, n)));
                }
            }
        }
    }
}

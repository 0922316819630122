//! Sequential CPU oracle executor.
//!
//! The executor runs a [`StencilProgram`] exactly as the canonical loop nest
//! would: statement by statement, interior points only, with ring-buffered
//! time planes supporting arbitrary `dt` reach. Every simulated GPU kernel in
//! this repository is validated bit-for-bit against this oracle — the
//! generated code evaluates the same `f32` expression tree per point, so the
//! results must be identical, not merely close.

use crate::grid::Grid;
use crate::program::{StencilExpr, StencilProgram};

/// Sequential oracle executor holding the time-plane ring buffers.
#[derive(Clone, Debug)]
pub struct ReferenceExecutor {
    program: StencilProgram,
    /// `planes[f]` is the ring of time planes of field `f`; `planes[f][0]`
    /// is the most recent completed (or in-progress) plane.
    planes: Vec<Vec<Grid>>,
    /// Row-major strides of the grid.
    strides: Vec<usize>,
    /// Per statement, its expression in postfix order.
    rows: Vec<Vec<RowOp>>,
    /// The operand stack of a row's evaluation, one row buffer per level.
    stack: Vec<Vec<f32>>,
    steps_done: usize,
}

/// One node of a statement's expression, applied to a whole interior row
/// at a time: the operands are the top row buffers of the stack.
#[derive(Clone, Debug)]
enum RowOp {
    /// Pushes the row of `planes[field][plane]` (`plane` is `dt`: 0 the
    /// in-progress plane) `delta` cells from the written row.
    Load {
        field: usize,
        plane: usize,
        delta: isize,
    },
    Const(f32),
    Add,
    Sub,
    Mul,
    Sqrt,
}

/// Appends `expr` in postfix order — the order [`StencilExpr::eval`] visits
/// it in, so every point sees the same `f32` ops on the same operands.
fn flatten(expr: &StencilExpr, strides: &[usize], out: &mut Vec<RowOp>) {
    let (a, b, op) = match expr {
        StencilExpr::Load(a) => {
            let delta = a.offsets.iter().zip(strides);
            return out.push(RowOp::Load {
                field: a.field.0,
                plane: a.dt as usize,
                delta: delta.map(|(&o, &s)| o as isize * s as isize).sum(),
            });
        }
        StencilExpr::Const(c) => return out.push(RowOp::Const(*c)),
        StencilExpr::Add(a, b) => (a, Some(b), RowOp::Add),
        StencilExpr::Sub(a, b) => (a, Some(b), RowOp::Sub),
        StencilExpr::Mul(a, b) => (a, Some(b), RowOp::Mul),
        StencilExpr::Sqrt(a) => (a, None, RowOp::Sqrt),
    };
    flatten(a, strides, out);
    if let Some(b) = b {
        flatten(b, strides, out);
    }
    out.push(op);
}

impl ReferenceExecutor {
    /// Creates an executor with all fields initialized from `init`.
    ///
    /// `init[f]` seeds field `f`; every ring slot starts as a copy (as if
    /// the state had been steady before `t = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `init.len()` does not match the number of fields.
    pub fn new(program: &StencilProgram, init: &[Grid]) -> ReferenceExecutor {
        assert_eq!(
            init.len(),
            program.num_fields(),
            "one initial grid per field required"
        );
        let depth = (program.max_dt() as usize) + 1;
        let planes = init.iter().map(|g| vec![g.clone(); depth]).collect();
        let dims = init[0].dims();
        let mut strides = vec![1usize; dims.len()];
        for d in (1..dims.len()).rev() {
            strides[d - 1] = strides[d] * dims[d];
        }
        let rows = program.statements().iter().map(|st| {
            let mut ops = Vec::new();
            flatten(&st.expr, &strides, &mut ops);
            ops
        });
        ReferenceExecutor {
            program: program.clone(),
            planes,
            rows: rows.collect(),
            strides,
            stack: Vec::new(),
            steps_done: 0,
        }
    }

    /// Convenience: deterministic pseudo-random initial state.
    pub fn with_random_init(
        program: &StencilProgram,
        dims: &[usize],
        seed: u64,
    ) -> ReferenceExecutor {
        let grids: Vec<Grid> = (0..program.num_fields())
            .map(|f| Grid::random(dims, seed.wrapping_add(f as u64)))
            .collect();
        ReferenceExecutor::new(program, &grids)
    }

    /// The wrapped program.
    pub fn program(&self) -> &StencilProgram {
        &self.program
    }

    /// Number of completed time steps.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// The newest completed plane of field `f`.
    pub fn field(&self, f: usize) -> &Grid {
        &self.planes[f][0]
    }

    /// Runs `steps` outer-loop iterations.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs a single outer-loop iteration (all statements, all interior
    /// points; none if the interior is empty in some dimension).
    pub fn step(&mut self) {
        self.steps_done += 1;
        // Rotate every field's ring: the new plane starts as a copy of the
        // previous one, so boundary cells persist.
        for ring in self.planes.iter_mut() {
            let newest = ring[0].clone();
            ring.rotate_right(1);
            ring[0] = newest;
        }

        let ReferenceExecutor {
            program,
            planes,
            strides,
            rows,
            stack,
            ..
        } = self;
        let radius = program.radius();
        let dims = planes[0][0].dims().to_vec();
        // Interior box: lo[d] <= idx[d] < hi[d].
        let lo: Vec<usize> = radius.iter().map(|&r| r as usize).collect();
        let hi: Vec<usize> = dims
            .iter()
            .zip(&lo)
            .map(|(&n, &r)| n.saturating_sub(r))
            .collect();
        if lo.iter().zip(&hi).any(|(l, h)| l >= h) {
            return;
        }
        let inner = dims.len() - 1;
        let len = hi[inner] - lo[inner];

        for (st, ops) in program.statements().iter().zip(rows.iter()) {
            // Odometer over the outer dimensions; the innermost interior row
            // is a run of consecutive flat offsets, evaluated op by op. A
            // statement never reads the plane it writes (its own field is
            // read at `dt >= 1`), so row order equals point order.
            let mut idx = lo[..inner].to_vec();
            loop {
                let row: usize = idx.iter().zip(&*strides).map(|(i, s)| i * s).sum();
                let from = row + lo[inner];
                let mut depth = 0;
                for op in ops {
                    if let RowOp::Load { .. } | RowOp::Const(_) = op {
                        if stack.len() == depth {
                            stack.push(vec![0.0; len]);
                        }
                        depth += 1;
                    }
                    let (below, top) = stack[..depth].split_at_mut(depth - 1);
                    let top = &mut top[0][..];
                    match *op {
                        RowOp::Load {
                            field,
                            plane,
                            delta,
                        } => {
                            let at = (from as isize + delta) as usize;
                            top.copy_from_slice(&planes[field][plane].as_slice()[at..at + len]);
                        }
                        RowOp::Const(c) => top.fill(c),
                        RowOp::Sqrt => top.iter_mut().for_each(|x| *x = x.sqrt()),
                        RowOp::Add | RowOp::Sub | RowOp::Mul => {
                            // `top` is the right operand, the row below it
                            // the left one and the result.
                            depth -= 1;
                            let left = below[depth - 1].iter_mut().zip(top.iter());
                            match op {
                                RowOp::Add => left.for_each(|(a, b)| *a += b),
                                RowOp::Sub => left.for_each(|(a, b)| *a -= b),
                                _ => left.for_each(|(a, b)| *a *= b),
                            }
                        }
                    }
                }
                planes[st.writes.0][0].as_mut_slice()[from..from + len].copy_from_slice(&stack[0]);
                let Some(d) = (0..inner).rev().find(|&d| idx[d] + 1 < hi[d]) else {
                    break;
                };
                idx[d] += 1;
                idx[d + 1..].copy_from_slice(&lo[d + 1..inner]);
            }
        }
    }

    /// Total stencil point-updates performed so far (for GStencils/s
    /// bookkeeping): interior points × statements × steps.
    pub fn point_updates(&self) -> u64 {
        let radius = self.program.radius();
        let dims = self.planes[0][0].dims();
        let interior: u64 = dims
            .iter()
            .zip(&radius)
            .map(|(&n, &r)| (n as i64 - 2 * r).max(0) as u64)
            .product();
        interior * self.program.num_statements() as u64 * self.steps_done as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use crate::program::{Access, Statement};
    use proptest::prelude::*;

    /// The per-point evaluator `step` replaced: an index vector per load,
    /// `Grid::get`'s arity and per-dimension bounds checks per access, an
    /// odometer over every dimension.
    fn naive_step(program: &StencilProgram, planes: &mut [Vec<Grid>]) {
        for ring in planes.iter_mut() {
            let newest = ring[0].clone();
            ring.rotate_right(1);
            ring[0] = newest;
        }
        let radius = program.radius();
        let dims = planes[0][0].dims().to_vec();
        if dims
            .iter()
            .zip(&radius)
            .any(|(&n, &r)| (n as i64) < 2 * r + 1)
        {
            return;
        }
        for st in program.statements() {
            let mut idx = radius.clone();
            loop {
                let value = st.expr.eval(&mut |a: &Access| {
                    let pos: Vec<i64> = idx.iter().zip(&a.offsets).map(|(&i, &o)| i + o).collect();
                    planes[a.field.0][a.dt as usize].get(&pos)
                });
                planes[st.writes.0][0].set(&idx, value);
                let inside = |d: usize| idx[d] < dims[d] as i64 - radius[d] - 1;
                let Some(d) = (0..idx.len()).rev().find(|&d| inside(d)) else {
                    break;
                };
                idx[d] += 1;
                idx[d + 1..].copy_from_slice(&radius[d + 1..]);
            }
        }
    }

    /// Runs both evaluators side by side and compares every ring plane of
    /// every field after every step.
    fn assert_matches_naive(program: &StencilProgram, dims: &[usize], steps: usize) {
        let mut ex = ReferenceExecutor::with_random_init(program, dims, 11);
        let mut naive = ex.planes.clone();
        for step in 0..steps {
            ex.step();
            naive_step(program, &mut naive);
            for (f, (got, want)) in ex.planes.iter().zip(&naive).enumerate() {
                for (p, (got, want)) in got.iter().zip(want).enumerate() {
                    assert!(
                        got.bit_equal(want),
                        "{} {dims:?}: field {f} plane {p} differs after step {step}",
                        program.name()
                    );
                }
            }
        }
    }

    #[test]
    fn row_walk_equals_the_per_point_evaluator_on_the_gallery() {
        for p in gallery::table3_stencils() {
            let dims: &[usize] = if p.spatial_dims() == 2 {
                &[9, 12]
            } else {
                &[6, 7, 9]
            };
            assert_matches_naive(&p, dims, 3);
        }
        assert_matches_naive(&gallery::contrived1d(), &[19], 5);
        // The smallest grid with an interior, and one without: no point is
        // updated there, and every plane still rotates.
        assert_matches_naive(&gallery::jacobi2d(), &[3, 3], 2);
        assert_matches_naive(&gallery::jacobi2d(), &[7, 2], 2);
        assert_matches_naive(&gallery::laplacian3d(), &[5, 2, 5], 2);
    }

    /// `program` with each statement's sum of loads rebuilt in the shape
    /// its draw picks, so that every node kind is walked: a difference, a
    /// scaled sum, a product with a constant term, and the square root of a
    /// sum of squares (finite on any input). The loads — fields, `dt`s and
    /// offsets — are the program's own, so it stays carried.
    fn reshaped(program: &StencilProgram, shapes: &[usize]) -> StencilProgram {
        let b = Box::new;
        let statements = program.statements().iter().zip(shapes).map(|(st, shape)| {
            let mut loads = st.expr.loads().into_iter().cloned().map(StencilExpr::Load);
            let first = loads.next().expect("a statement loads something");
            let expr = match shape {
                0 => st.expr.clone(),
                1 => loads.fold(first, |acc, l| StencilExpr::Sub(b(acc), b(l))),
                2 => StencilExpr::sum(std::iter::once(first).chain(loads).collect()).scale(0.25),
                3 => {
                    let rest = loads.fold(StencilExpr::Const(1.5), |acc, l| {
                        StencilExpr::Add(b(acc), b(l))
                    });
                    StencilExpr::Mul(b(first), b(rest))
                }
                _ => {
                    let square = |l: StencilExpr| StencilExpr::Mul(b(l.clone()), b(l));
                    let squares = std::iter::once(first).chain(loads).map(square);
                    StencilExpr::Sqrt(b(StencilExpr::sum(squares.collect())))
                }
            };
            Statement {
                name: st.name.clone(),
                writes: st.writes,
                expr,
            }
        });
        let names: Vec<&str> = program.field_names().iter().map(String::as_str).collect();
        StencilProgram::new(
            "reshaped",
            program.spatial_dims(),
            &names,
            statements.collect(),
        )
        .expect("same loads, same dependences")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Generated programs: 1–3-D, asymmetric offsets up to ±3, dt up to
        /// 2, 1–3 statements reading each other's fields, each in one of
        /// five expression shapes.
        #[test]
        fn row_walk_equals_the_per_point_evaluator_on_generated_programs(
            n in 1usize..=3,
            loads in prop::collection::vec(
                prop::collection::vec(
                    (0usize..3, 0i64..=2, prop::collection::vec(-3i64..=3, 3)),
                    1..5,
                ),
                1..4,
            ),
            shapes in prop::collection::vec(0usize..5, 3),
            extents in prop::collection::vec(5usize..=11, 3),
        ) {
            let program = reshaped(&gallery::from_loads(n, loads), &shapes);
            assert_matches_naive(&program, &extents[..n], 4);
        }
    }

    #[test]
    fn constant_field_is_fixed_point_of_jacobi() {
        let p = gallery::jacobi2d();
        let mut g = Grid::zeros(&[8, 8]);
        for i in 0..8 {
            for j in 0..8 {
                g.set(&[i, j], 1.0);
            }
        }
        let mut ex = ReferenceExecutor::new(&p, &[g.clone()]);
        ex.run(3);
        // 0.2 * (5 * 1.0) == 1.0 exactly in f32.
        assert!(ex.field(0).bit_equal(&g));
    }

    #[test]
    fn boundary_cells_never_change() {
        let p = gallery::jacobi2d();
        let init = Grid::random(&[10, 10], 7);
        let mut ex = ReferenceExecutor::new(&p, std::slice::from_ref(&init));
        ex.run(4);
        let out = ex.field(0);
        for i in 0..10i64 {
            for j in 0..10i64 {
                if i == 0 || i == 9 || j == 0 || j == 9 {
                    assert_eq!(out.get(&[i, j]).to_bits(), init.get(&[i, j]).to_bits());
                }
            }
        }
    }

    #[test]
    fn single_step_matches_hand_computation() {
        let p = gallery::jacobi2d();
        let mut g = Grid::zeros(&[3, 3]);
        g.set(&[0, 1], 1.0);
        g.set(&[1, 0], 2.0);
        g.set(&[1, 2], 3.0);
        g.set(&[2, 1], 4.0);
        g.set(&[1, 1], 5.0);
        let mut ex = ReferenceExecutor::new(&p, &[g]);
        ex.step();
        let expect = 0.2f32 * (5.0 + 4.0 + 1.0 + 3.0 + 2.0);
        assert_eq!(ex.field(0).get(&[1, 1]), expect);
    }

    #[test]
    fn dt2_reaches_two_planes_back() {
        let p = gallery::contrived1d();
        // A[t+1][i] = 0.5*(A[t-1][i-2] + A[t][i+2]); seed with distinct
        // values and check one interior cell after two steps by hand.
        let mut g = Grid::zeros(&[8]);
        for i in 0..8 {
            g.set(&[i], i as f32);
        }
        let mut ex = ReferenceExecutor::new(&p, &[g.clone()]);
        ex.step();
        // Step 1 (reads both planes = initial): A1[2] = .5*(A0[0] + A0[4]).
        let a1_2 = 0.5f32 * (0.0 + 4.0);
        assert_eq!(ex.field(0).get(&[2]), a1_2);
        ex.step();
        // Step 2: A2[4] = .5*(A0[2] + A1[6]); A1[6] interior? radius=2, so
        // interior is 2..=5; A1[6] = initial 6.0.
        let a2_4 = 0.5f32 * (2.0 + 6.0);
        assert_eq!(ex.field(0).get(&[4]), a2_4);
    }

    #[test]
    fn fdtd_multi_statement_pipeline() {
        let p = gallery::fdtd2d();
        let dims = [6usize, 6];
        let mut ex = ReferenceExecutor::with_random_init(&p, &dims, 3);
        let ey0 = ex.field(0).clone();
        let hz0 = ex.field(2).clone();
        ex.step();
        // ey[2][3] = ey0[2][3] - 0.5*(hz0[2][3] - hz0[1][3])
        let expect = ey0.get(&[2, 3]) - 0.5 * (hz0.get(&[2, 3]) - hz0.get(&[1, 3]));
        assert_eq!(ex.field(0).get(&[2, 3]), expect);
    }

    #[test]
    fn point_updates_counts_interior() {
        let p = gallery::jacobi2d();
        let mut ex = ReferenceExecutor::with_random_init(&p, &[10, 10], 1);
        ex.run(2);
        assert_eq!(ex.point_updates(), 8 * 8 * 2);
    }
}

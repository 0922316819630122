//! Hybrid hexagonal/classical kernel generation (§4).
//!
//! For each phase, one kernel is generated; the host launch plan loops
//! over time tiles `T`, launching phase 0 then phase 1 with a
//! one-dimensional grid of hexagonal tiles `S0` (§4.1). Inside a kernel:
//!
//! * classical tiles `S1..Sn` are sequential loops;
//! * a uniform `If` separates specialized full-tile code from guarded
//!   partial-tile code (§4.3.1) — full-tile point code carries no
//!   conditions at all, so it cannot diverge;
//! * the intra-tile time loop `a` is always fully unrolled and the hexagon
//!   row loop `b` optionally so (§4.3.2), with all row bounds resolved to
//!   constants at generation time (constraint-level unrolling);
//! * shared-memory staging follows the selected [`SmemStrategy`]
//!   (§4.2): copy-in/copy-out phases, interleaved copy-out, aligned
//!   copy-in windows, and static or dynamic inter-tile reuse.
//!
//! Global arrays are rings of `max_dt + 1` time planes per field. The
//! schedule is computed with storage dependences included
//! ([`HybridSchedule::compute_executable`]), so the ring is never
//! clobbered while a reader still needs an old value.

use std::fmt;
use std::sync::Arc;

use hybrid_tiling::classical::ClassicalDim;
use hybrid_tiling::phase::Phase;
use hybrid_tiling::{DepCone, HybridSchedule, TileError, TileParams};
use stencil::domain::ScheduledDomain;
use stencil::{StencilExpr, StencilProgram};

use crate::ir::{
    Cond, CondId, FExpr, FExprId, IExpr, IExprId, Indices, Kernel, Launch, LaunchPlan, Pool,
    PoolBuilder, SharedBuf, Stmt,
};
use crate::options::{CodegenOptions, SmemStrategy};

/// A typed code-generation failure.
///
/// Every input combination [`generate_hybrid`] rejects maps to one of
/// these variants instead of panicking — the compile service keeps
/// running no matter what (parseable) program, tile sizes or workload a
/// request supplies. The variants mirror the validation ladder: schedule
/// construction ([`CodegenError::Tile`]), workload shape
/// ([`CodegenError::DimsArity`], [`CodegenError::EmptyInterior`]),
/// hexagon geometry ([`CodegenError::EmptyHexagon`]) and the
/// multi-statement height constraint
/// ([`CodegenError::HeightNotMultiple`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodegenError {
    /// Hybrid schedule construction failed (§3 constraints).
    Tile(TileError),
    /// The workload's spatial arity does not match the program's.
    DimsArity {
        /// Dimensions supplied in the workload.
        got: usize,
        /// Spatial dimensions of the program.
        expected: usize,
    },
    /// A grid dimension is too small to hold one interior point for the
    /// stencil's halo.
    EmptyInterior {
        /// The offending spatial dimension (0-based).
        dim: usize,
        /// Grid extent requested for that dimension.
        extent: usize,
        /// Stencil radius along that dimension.
        radius: i64,
    },
    /// The hexagonal tile contains no integer points, so no kernel body
    /// can be generated.
    EmptyHexagon {
        /// Tile height parameter.
        h: i64,
        /// Hexagon width parameter.
        w0: i64,
    },
    /// Multi-statement kernels need the tile height `2h+2` to be a
    /// multiple of the statement count `k` (§4.3.2 unrolling resolves the
    /// statement index per row at generation time).
    HeightNotMultiple {
        /// Tile height `2h+2`.
        height: i64,
        /// Statements per outer iteration.
        k: i64,
    },
    /// The requested emission backend cannot lower the requested
    /// shared-memory strategy (e.g. WGSL has no dynamically-addressed
    /// workgroup-array equivalent of ladder step (f)). Raised by
    /// [`crate::backend::Backend::check_options`] before any IR is built.
    UnsupportedStrategy {
        /// Name of the rejecting backend.
        backend: &'static str,
        /// The strategy it cannot lower.
        smem: SmemStrategy,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Tile(e) => write!(f, "{e}"),
            CodegenError::DimsArity { got, expected } => write!(
                f,
                "workload has {got} spatial dimensions but the program has {expected}"
            ),
            CodegenError::EmptyInterior {
                dim,
                extent,
                radius,
            } => write!(
                f,
                "dimension {dim} has extent {extent}, too small for stencil radius \
                 {radius} (needs at least {})",
                2 * radius + 1
            ),
            CodegenError::EmptyHexagon { h, w0 } => write!(
                f,
                "hexagonal tile (h = {h}, w0 = {w0}) contains no integer points"
            ),
            CodegenError::HeightNotMultiple { height, k } => write!(
                f,
                "multi-statement kernels need the tile height 2h+2 = {height} to be a \
                 multiple of k = {k} (choose h so that h+1 is a multiple of k)"
            ),
            CodegenError::UnsupportedStrategy { backend, smem } => write!(
                f,
                "backend `{backend}` does not support shared-memory strategy {smem:?}"
            ),
        }
    }
}

impl std::error::Error for CodegenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodegenError::Tile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TileError> for CodegenError {
    fn from(e: TileError) -> CodegenError {
        CodegenError::Tile(e)
    }
}

/// The geometry of one hybrid plan — everything [`generate_hybrid`] derives
/// and validates before it builds any IR: the schedule, the hexagon's rows,
/// the classical skews, the shared-memory box. A tuner asks it whether a
/// candidate generates and what it allocates ([`HybridGeometry::shared_bytes`])
/// without paying for the plan; [`HybridGeometry::build_plan`] is the plan.
pub struct HybridGeometry<'a> {
    program: &'a StencilProgram,
    schedule: HybridSchedule,
    domain: ScheduledDomain,
    opts: CodegenOptions,
    dims: Vec<usize>,
    /// Spatial dimensionality `n`.
    n: usize,
    /// Statements per outer iteration.
    k: i64,
    /// Global plane ring depth (`max_dt + 1`).
    planes: i64,
    radius: Vec<i64>,
    /// Hexagon row `b` bounds per `a` (`a` indexed `0..2h+2`).
    rows: Vec<Option<(i64, i64)>>,
    b_min: i64,
    b_max: i64,
    /// Classical skews `⌊δ1_d · a⌋` per dimension (index 1..n) and `a`.
    skews: Vec<Vec<i64>>,
    /// Maximum classical skew per dimension (index 1..n) — precomputed so
    /// the per-point emitters never re-derive it from a possibly empty
    /// slice.
    skew_max: Vec<i64>,
    /// Left halo pad per classical dimension (index 1..n).
    pad_left: Vec<i64>,
    /// Shared box extents: `ext[0]` for the hexagon dim, `ext[d]` for
    /// classical dims.
    ext: Vec<i64>,
}

// Scalar variable slots.
const V_S0: usize = 0;
const V_TAUBASE: usize = 1;
const V_S0BASE: usize = 2;
const V_CLS0: usize = 3; // classical loop vars: V_CLS0 + (d-1)
const P_T: usize = 0;

const P_S0MIN: usize = 1;

/// A point of the intra-tile sweep: phase, local time `a`, row coordinate
/// `b`, and whether it is guarded.
type Point = (Phase, i64, i64, bool);

/// The largest classical skew `⌊δ1 · a⌋` over the tile's `height` rows
/// (`height = 2h+2 >= 2`, so the range is never empty).
fn skew_max(cd: &ClassicalDim, height: i64) -> i64 {
    (0..height).map(|a| cd.skew(a)).max().unwrap_or(0)
}

/// The global-array translation (in words) that makes every copy-in row of
/// the innermost dimension start on a 128-byte boundary (§4.2.3: "we allow
/// the tiles in the schedule to be translated by manually specifying the
/// translation offset"). Returns 0 unless `opts.aligned_loads` is set.
/// Assumes the innermost tile width and the innermost grid extent are warp
/// multiples (the harness enforces both). Derives the schedule to answer;
/// a caller that holds the plan's [`HybridGeometry`] asks it instead.
pub fn alignment_offset_words(
    program: &StencilProgram,
    params: &TileParams,
    opts: &CodegenOptions,
) -> i64 {
    let n = program.spatial_dims();
    if !opts.aligned_loads || n < 2 {
        return 0;
    }
    let Ok(schedule) = HybridSchedule::compute_executable(program, params) else {
        return 0;
    };
    let pad = skew_max(&schedule.classical()[n - 2], schedule.hex().box_height())
        + program.radius()[n - 1];
    pad.rem_euclid(32)
}

/// Generates the complete launch plan for running `program` on a grid of
/// `dims` for `steps` outer iterations under hybrid tiling.
///
/// # Errors
///
/// Every rejected input maps to a [`CodegenError`]: schedule-construction
/// failures, workload arity/interior mismatches, degenerate hexagons, and
/// the multi-statement height constraint (`k | 2h+2`). No input reachable
/// through this function panics — the compile service depends on that.
pub fn generate_hybrid(
    program: &StencilProgram,
    params: &TileParams,
    dims: &[usize],
    steps: usize,
    opts: CodegenOptions,
) -> Result<LaunchPlan, CodegenError> {
    Ok(HybridGeometry::new(program, params, dims, steps, opts)?.build_plan())
}

impl<'a> HybridGeometry<'a> {
    /// Derives and validates the geometry; [`generate_hybrid`] succeeds
    /// exactly when this does.
    ///
    /// # Errors
    ///
    /// See [`generate_hybrid`].
    pub fn new(
        program: &'a StencilProgram,
        params: &TileParams,
        dims: &[usize],
        steps: usize,
        opts: CodegenOptions,
    ) -> Result<HybridGeometry<'a>, CodegenError> {
        let cone = DepCone::of_program_with_storage(program)?;
        HybridGeometry::with_cone(program, &cone, params, dims, steps, opts)
    }

    /// [`HybridGeometry::new`] for a caller that already derived `cone`,
    /// the program's [`DepCone::of_program_with_storage`] — a tuner checking
    /// many candidates of one program.
    ///
    /// # Errors
    ///
    /// See [`generate_hybrid`].
    pub fn with_cone(
        program: &'a StencilProgram,
        cone: &DepCone,
        params: &TileParams,
        dims: &[usize],
        steps: usize,
        opts: CodegenOptions,
    ) -> Result<HybridGeometry<'a>, CodegenError> {
        let schedule = HybridSchedule::from_cone(program, params, cone.clone())?;
        let n = program.spatial_dims();
        let k = program.num_statements() as i64;
        let height = schedule.hex().box_height();
        if k > 1 && height % k != 0 {
            return Err(CodegenError::HeightNotMultiple { height, k });
        }
        let radius = program.radius();
        // Validate the workload shape before `ScheduledDomain` (which asserts
        // the same properties) can abort the process.
        if dims.len() != n {
            return Err(CodegenError::DimsArity {
                got: dims.len(),
                expected: n,
            });
        }
        for (d, (&extent, &rad)) in dims.iter().zip(&radius).enumerate() {
            if (extent as i64) < 2 * rad + 1 {
                return Err(CodegenError::EmptyInterior {
                    dim: d,
                    extent,
                    radius: rad,
                });
            }
        }
        let mut opts = opts;
        if n == 1 && opts.smem.uses_shared() {
            // 1-D hybrid tiling degenerates (paper §6.1); shared staging is
            // only generated for the 2-D/3-D cases.
            opts.smem = SmemStrategy::GlobalOnly;
        }
        let domain = ScheduledDomain::new(program, dims, steps);
        let hex = schedule.hex();
        let rows: Vec<Option<(i64, i64)>> = (0..height).map(|a| hex.row_range(a)).collect();
        let b_lo = rows.iter().flatten().map(|r| r.0).min();
        let b_hi = rows.iter().flatten().map(|r| r.1).max();
        let (Some(b_min), Some(b_max)) = (b_lo, b_hi) else {
            return Err(CodegenError::EmptyHexagon {
                h: hex.h(),
                w0: hex.w0(),
            });
        };
        let mut skews = vec![Vec::new()];
        let mut skew_maxes = vec![0i64];
        let mut pad_left = vec![0i64];
        let mut ext = vec![(b_max - b_min + 1) + 2 * radius[0]];
        for (d, &rad) in radius.iter().enumerate().take(n).skip(1) {
            let cd = &schedule.classical()[d - 1];
            skews.push((0..height).map(|a| cd.skew(a)).collect());
            let sk_max = skew_max(cd, height);
            skew_maxes.push(sk_max);
            let pad = sk_max + rad;
            pad_left.push(pad);
            ext.push(cd.width + pad + rad);
        }
        Ok(HybridGeometry {
            program,
            schedule,
            domain,
            opts,
            dims: dims.to_vec(),
            n,
            k,
            planes: program.max_dt() + 1,
            radius,
            rows,
            b_min,
            b_max,
            skews,
            skew_max: skew_maxes,
            pad_left,
            ext,
        })
    }

    /// Shared-memory bytes per block of the plan's kernels (both phases
    /// allocate the same buffers): `fields × planes × Π ext` words, one
    /// uniform box per field; 0 when nothing is staged (1-D, or
    /// [`SmemStrategy::GlobalOnly`]).
    pub fn shared_bytes(&self) -> usize {
        self.shared_bufs().iter().map(SharedBuf::bytes).sum()
    }

    /// [`alignment_offset_words`] of this plan, read off the geometry.
    pub fn alignment_offset_words(&self) -> i64 {
        if !self.opts.aligned_loads || self.n < 2 {
            return 0;
        }
        self.pad_left[self.n - 1].rem_euclid(32)
    }

    fn hex(&self) -> &hybrid_tiling::HexShape {
        self.schedule.hex()
    }

    fn height(&self) -> i64 {
        self.hex().box_height()
    }

    fn width(&self) -> i64 {
        self.hex().box_width()
    }

    /// Phase-specific time offset: `τ = T·H + a - t_off`.
    fn t_off(&self, phase: Phase) -> i64 {
        match phase {
            Phase::Zero => self.hex().h() + 1,
            Phase::One => 0,
        }
    }

    /// Phase-specific spatial offset of the box numerator.
    fn s_extra(&self, phase: Phase) -> i64 {
        match phase {
            Phase::Zero => self.hex().f0() + self.hex().w0() + 1,
            Phase::One => 0,
        }
    }

    fn drift(&self) -> i64 {
        self.hex().f1() - self.hex().f0()
    }

    /// Block shape: x covers the innermost classical width (coalescing),
    /// y the next one; the hexagon row `b` is a sequential per-thread loop.
    fn block_dim(&self) -> [usize; 3] {
        let widths: Vec<i64> = self.schedule.classical().iter().map(|c| c.width).collect();
        match self.n {
            1 => [
                ((self.b_max - self.b_min + 1).max(1) as usize).next_multiple_of(32),
                1,
                1,
            ],
            2 => [widths[0] as usize, 1, 1],
            _ => [widths[1] as usize, widths[0] as usize, 1],
        }
    }

    /// Thread expression covering classical dimension `d` (1-based).
    fn tid_for(&self, p: &PoolBuilder, d: usize) -> IExprId {
        let x = self.n == 2 || d == self.n - 1;
        p.iexpr(IExpr::ThreadIdx(if x { 0 } else { 1 }))
    }

    /// Linearized thread id.
    fn tid_linear(&self, p: &PoolBuilder) -> IExprId {
        let y = p.scale(p.iexpr(IExpr::ThreadIdx(1)), self.block_dim()[0] as i64);
        p.add(p.iexpr(IExpr::ThreadIdx(0)), y)
    }

    /// Classical tile-loop bounds (constants) for dimension `d` (1-based).
    fn cls_range(&self, d: usize) -> (i64, i64) {
        let cd = &self.schedule.classical()[d - 1];
        let lo = self.domain.lo()[d];
        let hi = self.domain.hi()[d];
        (
            lo.div_euclid(cd.width),
            (hi + self.skew_max[d]).div_euclid(cd.width),
        )
    }

    /// Statement index at unrolled local time `a` for the given phase
    /// (constant because `k | 2h+2`).
    fn stmt_at(&self, phase: Phase, a: i64) -> usize {
        (a - self.t_off(phase)).rem_euclid(self.k) as usize
    }

    /// `τ` as an expression: `Var(V_TAUBASE) + a`.
    fn tau(&self, p: &PoolBuilder, a: i64) -> IExprId {
        p.offset(p.var(V_TAUBASE), a)
    }

    /// Ring plane holding values produced at outer iteration `t - dt`:
    /// `(t - dt + 1) mod planes`, with `t = ⌊τ/k⌋`.
    fn plane_expr(&self, p: &PoolBuilder, a: i64, dt: i64) -> IExprId {
        p.memo((0, [a, dt, 0]), || {
            let t = match self.k {
                1 => self.tau(p, a),
                k => p.fdiv(self.tau(p, a), k),
            };
            p.modulo(p.offset(t, 1 - dt), self.planes)
        })
    }

    /// `w_d·S_d`, the first global index of classical tile `S_d` of
    /// dimension `d`.
    fn tile_base(&self, p: &PoolBuilder, d: usize) -> IExprId {
        p.scale(
            p.var(V_CLS0 + d - 1),
            self.schedule.classical()[d - 1].width,
        )
    }

    /// Global spatial index of classical dimension `d` at local time `a`:
    /// `w_d·S_d + tid - skew_d(a) + off`.
    fn global_cls(&self, p: &PoolBuilder, d: usize, a: i64, off: i64) -> IExprId {
        p.memo((1, [d as i64, a, off]), || {
            let e = p.add(self.tile_base(p, d), self.tid_for(p, d));
            p.offset(e, -self.skews[d][a as usize] + off)
        })
    }

    /// Shared-memory index for dimension `d` (1-based classical), given
    /// the same coordinates: dense (`local = tid - skew + off + pad`) or
    /// mod-mapped for [`SmemStrategy::ReuseStatic`].
    fn shared_cls(&self, p: &PoolBuilder, d: usize, a: i64, off: i64) -> IExprId {
        p.memo((2, [d as i64, a, off]), || {
            if self.opts.smem == SmemStrategy::ReuseStatic && d == self.n - 1 {
                p.modulo(self.global_cls(p, d, a, off), self.ext[d])
            } else {
                let local = -self.skews[d][a as usize] + off + self.pad_left[d];
                p.offset(self.tid_for(p, d), local)
            }
        })
    }

    /// Global `s0` for row coordinate `b`.
    fn global_hex(&self, p: &PoolBuilder, b: i64, off: i64) -> IExprId {
        p.memo((3, [b, off, 0]), || {
            p.offset(p.add(p.var(V_S0BASE), p.lit(b)), off)
        })
    }

    /// The global index of the point `(a, b)` displaced by `offsets`.
    fn global_index(&self, p: &PoolBuilder, a: i64, b: i64, offsets: &[i64]) -> Indices {
        let mut index = [self.global_hex(p, b, offsets[0]); 3];
        for d in 1..self.n {
            index[d] = self.global_cls(p, d, a, offsets[d]);
        }
        p.indices(&index[..self.n])
    }

    /// The shared index of the point `(a, b)` displaced by `offsets`, in
    /// time plane `plane`; along the hexagon dimension `b - b_min + r0 +
    /// off`.
    fn shared_index(
        &self,
        p: &PoolBuilder,
        plane: IExprId,
        (a, b): (i64, i64),
        offsets: &[i64],
    ) -> Indices {
        let mut index = [
            plane,
            p.lit(b - self.b_min + self.radius[0] + offsets[0]),
            plane,
            plane,
        ];
        for d in 1..self.n {
            index[d + 1] = self.shared_cls(p, d, a, offsets[d]);
        }
        p.indices(&index[..self.n + 1])
    }

    fn shared_bufs(&self) -> Vec<SharedBuf> {
        if !self.opts.smem.uses_shared() {
            return Vec::new();
        }
        let mut dims = vec![self.planes as usize];
        dims.extend(self.ext.iter().map(|&e| e as usize));
        let buf = |name| SharedBuf {
            name: format!("s_{name}"),
            dims: dims.clone(),
        };
        self.program.field_names().iter().map(buf).collect()
    }

    /// The uniform full-tile condition (§4.3.1).
    fn full_cond(&self, p: &PoolBuilder) -> CondId {
        let (tau, s0) = (p.var(V_TAUBASE), p.var(V_S0BASE));
        let (lo, hi) = (self.domain.lo(), self.domain.hi());
        let mut bounds = vec![
            (p.lit(0), tau),
            (
                p.offset(tau, self.height() - 1),
                p.lit(self.domain.tau_end() - 1),
            ),
            (p.lit(lo[0]), p.offset(s0, self.b_min)),
            (p.offset(s0, self.b_max), p.lit(hi[0])),
        ];
        for d in 1..self.n {
            let (base, width) = (self.tile_base(p, d), self.schedule.classical()[d - 1].width);
            bounds.push((p.lit(lo[d] + self.skew_max[d]), base));
            bounds.push((p.offset(base, width - 1), p.lit(hi[d])));
        }
        let le = |(a, b)| p.cond(Cond::Le(a, b));
        bounds
            .into_iter()
            .fold(p.cond(Cond::True), |c, ab| p.and(c, le(ab)))
    }

    /// Per-point guard for partial tiles: iteration inside the scheduled
    /// domain.
    fn point_guard(&self, p: &PoolBuilder, a: i64, b: i64) -> CondId {
        let tau_end = p.lit(self.domain.tau_end() - 1);
        let mut c = p.between(self.tau(p, a), p.lit(0), tau_end);
        for d in 0..self.n {
            let s = match d {
                0 => self.global_hex(p, b, 0),
                d => self.global_cls(p, d, a, 0),
            };
            let (lo, hi) = (p.lit(self.domain.lo()[d]), p.lit(self.domain.hi()[d]));
            c = p.and(c, p.between(s, lo, hi));
        }
        c
    }

    /// The FExpr of a statement body at the point `(a, b)` with loads
    /// appended to `out` (from shared memory when `from_shared`), each into
    /// the next register.
    fn build_fexpr(
        &self,
        p: &PoolBuilder,
        out: &mut Vec<Stmt>,
        e: &StencilExpr,
        next_reg: &mut usize,
        (a, b, from_shared): (i64, i64, bool),
    ) -> FExprId {
        let mut operand = |x| self.build_fexpr(p, out, x, next_reg, (a, b, from_shared));
        let node = match e {
            StencilExpr::Load(acc) => {
                let (dst, plane) = (*next_reg, self.plane_expr(p, a, acc.dt));
                *next_reg += 1;
                out.push(if from_shared {
                    let index = self.shared_index(p, plane, (a, b), &acc.offsets);
                    let buf = acc.field.0;
                    Stmt::SharedLoad { dst, buf, index }
                } else {
                    let index = self.global_index(p, a, b, &acc.offsets);
                    let field = acc.field.0;
                    Stmt::GlobalLoad {
                        dst,
                        field,
                        plane,
                        index,
                    }
                });
                FExpr::Reg(dst)
            }
            StencilExpr::Const(c) => FExpr::Const(*c),
            StencilExpr::Add(x, y) => FExpr::Add(operand(x), operand(y)),
            StencilExpr::Sub(x, y) => FExpr::Sub(operand(x), operand(y)),
            StencilExpr::Mul(x, y) => FExpr::Mul(operand(x), operand(y)),
            StencilExpr::Sqrt(x) => FExpr::Sqrt(operand(x)),
        };
        p.fexpr(node)
    }

    /// One stencil point: loads, compute, stores (shared and/or global) —
    /// under the point's guard when `guarded`.
    fn emit_point(&self, p: &PoolBuilder, out: &mut Vec<Stmt>, (phase, a, b, guarded): Point) {
        let st = &self.program.statements()[self.stmt_at(phase, a)];
        let (start, from_shared) = (out.len(), self.opts.smem.uses_shared());
        let expr = self.build_fexpr(p, out, &st.expr, &mut 1, (a, b, from_shared));
        out.push(Stmt::Compute { dst: 0, expr });
        let (buf, src) = (st.writes.0, p.fexpr(FExpr::Reg(0)));
        let plane = self.plane_expr(p, a, 0); // (t + 1) mod planes
        if from_shared {
            let index = self.shared_index(p, plane, (a, b), &[0; 3]);
            out.push(Stmt::SharedStore { buf, index, src });
        }
        if !from_shared || self.opts.smem.interleaved_copy_out() {
            let index = self.global_index(p, a, b, &[0; 3]);
            out.push(Stmt::GlobalStore {
                field: buf,
                plane,
                index,
                src,
            });
        }
        if guarded {
            self.guard_from(p, out, start, a, b);
        }
    }

    /// The copy-out walk for [`SmemStrategy::CopyInOut`]: re-visits every
    /// computed point, moving its value from shared to global.
    fn emit_copyout_point(
        &self,
        p: &PoolBuilder,
        out: &mut Vec<Stmt>,
        (phase, a, b, guarded): Point,
    ) {
        let buf = self.program.statements()[self.stmt_at(phase, a)].writes.0;
        let (start, plane) = (out.len(), self.plane_expr(p, a, 0));
        let index = self.shared_index(p, plane, (a, b), &[0; 3]);
        out.push(Stmt::SharedLoad { dst: 0, buf, index });
        let (index, src) = (self.global_index(p, a, b, &[0; 3]), p.fexpr(FExpr::Reg(0)));
        out.push(Stmt::GlobalStore {
            field: buf,
            plane,
            index,
            src,
        });
        if guarded {
            self.guard_from(p, out, start, a, b);
        }
    }

    /// Wraps the statements `out` holds from `start` on in the guard of
    /// the point `(a, b)`.
    fn guard_from(&self, p: &PoolBuilder, out: &mut Vec<Stmt>, start: usize, a: i64, b: i64) {
        let then_ = out.split_off(start);
        let cond = self.point_guard(p, a, b);
        out.push(Stmt::If {
            cond,
            then_,
            else_: vec![],
        });
    }

    /// The full intra-tile sweep: unrolled `a`, every point `b` of the
    /// row emitted by `emit` (a hexagon row is a compact interval with
    /// constant bounds — §4.3.2's constraint-level unrolling), and a
    /// barrier between time steps.
    fn emit_sweep(
        &self,
        p: &PoolBuilder,
        out: &mut Vec<Stmt>,
        (phase, guarded): (Phase, bool),
        emit: fn(&Self, &PoolBuilder, &mut Vec<Stmt>, Point),
    ) {
        for a in 0..self.height() {
            let Some((blo, bhi)) = self.rows[a as usize] else {
                continue;
            };
            for b in blo..=bhi {
                emit(self, p, out, (phase, a, b, guarded));
            }
            out.push(Stmt::Sync);
        }
    }

    /// `lin` decomposed into local coordinates, row-major over `region`:
    /// `local_d = (lin / prod(region[d+1..])) mod region[d]`.
    fn locals(&self, p: &PoolBuilder, lin: IExprId, region: &[i64]) -> [IExprId; 3] {
        let mut locals = [lin; 3];
        for d in 0..self.n {
            let tail: i64 = region[d + 1..].iter().product();
            let coord = if tail == 1 { lin } else { p.fdiv(lin, tail) };
            locals[d] = p.modulo(coord, region[d]);
        }
        locals
    }

    /// The chunk loop of a cooperative copy over `cells` cells, for every
    /// time plane: each thread of the block takes one cell per iteration,
    /// and `chunk(plane, lin)` gives the statements for the cell `lin`,
    /// guarded by `lin < cells`. A barrier follows.
    fn emit_chunks(
        &self,
        p: &PoolBuilder,
        cells: i64,
        chunk: impl Fn(i64, IExprId, CondId) -> Vec<Stmt>,
    ) -> Vec<Stmt> {
        let nthreads = self.block_dim().iter().product::<usize>() as i64;
        let v_c = V_CLS0 + self.n; // chunk loop var
        let v_lin = v_c + 1;
        let mut out = Vec::new();
        for plane in 0..self.planes {
            let value = p.add(p.scale(p.var(v_c), nthreads), self.tid_linear(p));
            let lin = p.var(v_lin);
            let mut body = vec![Stmt::SetVar { var: v_lin, value }];
            body.extend(chunk(plane, lin, p.cond(Cond::Lt(lin, p.lit(cells)))));
            out.push(Stmt::For {
                var: v_c,
                lo: p.lit(0),
                hi: p.lit((cells + nthreads - 1).div_euclid(nthreads)),
                step: 1,
                body,
            });
        }
        out.push(Stmt::Sync);
        out
    }

    /// Copy-in of a box region (all planes) from global to shared.
    /// `slab_only` restricts to the advancing window along the innermost
    /// classical dimension (inter-tile reuse).
    fn emit_copyin(&self, p: &PoolBuilder, slab_only: bool) -> Vec<Stmt> {
        // Extents of the copied region per dimension (hexagon dim first).
        let mut region: Vec<i64> = self.ext.clone();
        let inner = self.n - 1;
        if slab_only && self.n >= 2 {
            region[inner] = self.schedule.classical()[inner - 1].width;
        }
        let cells: i64 = region.iter().product();
        self.emit_chunks(p, cells, |plane, lin, in_range| {
            let locals = self.locals(p, lin, &region);
            // Global coordinates.
            let corner = p.offset(p.var(V_S0BASE), self.b_min - self.radius[0]);
            let mut globals = [p.add(corner, locals[0]); 3];
            // Shared indices: dense locals, except the innermost classical
            // dimension under static reuse, which is global-mod-extent.
            let mut sidx = [p.lit(plane), locals[0], locals[0], locals[0]];
            for d in 1..self.n {
                let base = p.offset(self.tile_base(p, d), -self.pad_left[d]);
                let local = if slab_only && d == inner {
                    p.offset(locals[d], self.ext[d] - region[d])
                } else {
                    locals[d]
                };
                globals[d] = p.add(base, local);
                sidx[d + 1] = if self.opts.smem == SmemStrategy::ReuseStatic && d == inner {
                    p.modulo(globals[d], self.ext[d])
                } else {
                    local
                };
            }
            // Guard: chunk in range and global coordinates inside the grid.
            let mut guard = in_range;
            for (d, &g) in globals[..self.n].iter().enumerate() {
                let inside = p.between(g, p.lit(0), p.lit(self.dims[d] as i64 - 1));
                guard = p.and(guard, inside);
            }
            let (plane, index) = (p.lit(plane), p.indices(&globals[..self.n]));
            let to = p.indices(&sidx[..self.n + 1]);
            self.copies(p, guard, to, |field| Stmt::GlobalLoad {
                dst: 0,
                field,
                plane,
                index,
            })
        })
    }

    /// Per field, `if (guard) { r0 = load(field); shared[field][to] = r0; }`.
    fn copies(
        &self,
        p: &PoolBuilder,
        guard: CondId,
        to: Indices,
        load: impl Fn(usize) -> Stmt,
    ) -> Vec<Stmt> {
        let src = p.fexpr(FExpr::Reg(0));
        let copy = |buf| Stmt::If {
            cond: guard,
            then_: vec![
                load(buf),
                Stmt::SharedStore {
                    buf,
                    index: to,
                    src,
                },
            ],
            else_: vec![],
        };
        (0..self.program.num_fields()).map(copy).collect()
    }

    /// The shared-to-shared move phase of dynamic reuse: shifts the
    /// overlap window left by `w_inner`.
    fn emit_move(&self, p: &PoolBuilder) -> Vec<Stmt> {
        let inner = self.n - 1;
        let w_inner = self.schedule.classical()[inner - 1].width;
        let mut region: Vec<i64> = self.ext.clone();
        region[inner] = self.ext[inner] - w_inner;
        let cells: i64 = region.iter().product();
        if cells <= 0 {
            return vec![];
        }
        self.emit_chunks(p, cells, |plane, lin, guard| {
            let locals = self.locals(p, lin, &region);
            let mut to = vec![p.lit(plane)];
            to.extend_from_slice(&locals[..self.n]);
            let mut from = to.clone();
            from[inner + 1] = p.offset(locals[inner], w_inner);
            let (index, to) = (p.indices(&from), p.indices(&to));
            self.copies(p, guard, to, |buf| Stmt::SharedLoad { dst: 0, buf, index })
        })
    }

    /// The body of one classical tile iteration.
    fn emit_tile_body(&self, p: &PoolBuilder, phase: Phase) -> Vec<Stmt> {
        let mut body = Vec::new();
        if self.opts.smem.uses_shared() {
            if self.opts.smem.inter_tile_reuse() && self.n >= 2 {
                let (lo, _) = self.cls_range(self.n - 1);
                let first = p.cond(Cond::Eq(p.var(V_CLS0 + self.n - 2), p.lit(lo)));
                let mut else_branch = Vec::new();
                if self.opts.smem == SmemStrategy::ReuseDynamic {
                    else_branch.extend(self.emit_move(p));
                }
                else_branch.extend(self.emit_copyin(p, true));
                body.push(Stmt::If {
                    cond: first,
                    then_: self.emit_copyin(p, false),
                    else_: else_branch,
                });
            } else {
                body.extend(self.emit_copyin(p, false));
            }
        }
        let [full, partial] = [false, true].map(|guarded| {
            let mut v = Vec::new();
            self.emit_sweep(p, &mut v, (phase, guarded), Self::emit_point);
            if self.opts.smem == SmemStrategy::CopyInOut {
                self.emit_sweep(p, &mut v, (phase, guarded), Self::emit_copyout_point);
            }
            v
        });
        body.push(Stmt::If {
            cond: self.full_cond(p),
            then_: full,
            else_: partial,
        });
        body
    }

    /// The body of the kernel for one phase.
    fn kernel_body(&self, p: &PoolBuilder, phase: Phase) -> Vec<Stmt> {
        let t = p.iexpr(IExpr::Param(P_T));
        let s0 = p.sub(p.scale(p.var(V_S0), self.width()), p.scale(t, self.drift()));
        let block = p.iexpr(IExpr::BlockIdx);
        let mut body = vec![
            Stmt::SetVar {
                var: V_S0,
                value: p.add(block, p.iexpr(IExpr::Param(P_S0MIN))),
            },
            Stmt::SetVar {
                var: V_TAUBASE,
                value: p.offset(p.scale(t, self.height()), -self.t_off(phase)),
            },
            Stmt::SetVar {
                var: V_S0BASE,
                value: p.offset(s0, -self.s_extra(phase)),
            },
        ];
        // Nest classical tile loops around the tile body.
        let mut inner = self.emit_tile_body(p, phase);
        for d in (1..self.n).rev() {
            let (lo, hi) = self.cls_range(d);
            inner = vec![Stmt::For {
                var: V_CLS0 + d - 1,
                lo: p.lit(lo),
                hi: p.lit(hi + 1),
                step: 1,
                body: inner,
            }];
        }
        body.extend(inner);
        body
    }

    /// The kernel for one phase, its body's expressions in `pool`.
    fn build_kernel(&self, phase: Phase, pool: &Arc<Pool>, body: Vec<Stmt>) -> Kernel {
        let max_loads = self
            .program
            .statements()
            .iter()
            .map(|s| s.expr.loads().len())
            .max()
            .unwrap_or(1);
        Kernel {
            name: format!(
                "hybrid_{}_phase{}",
                self.program.name(),
                match phase {
                    Phase::Zero => 0,
                    Phase::One => 1,
                }
            ),
            block_dim: self.block_dim(),
            shared: self.shared_bufs(),
            n_vars: V_CLS0 + self.n + 2,
            n_regs: max_loads + 1,
            n_params: 2,
            pool: Arc::clone(pool),
            body,
        }
    }

    /// `S0` tile range intersecting the domain for `(phase, T)`.
    fn s0_range(&self, phase: Phase, t_tile: i64) -> (i64, i64) {
        let num_lo = self.domain.lo()[0] + self.s_extra(phase) + t_tile * self.drift();
        let num_hi = self.domain.hi()[0] + self.s_extra(phase) + t_tile * self.drift();
        (
            (num_lo - self.b_max).div_euclid(self.width()),
            (num_hi - self.b_min).div_euclid(self.width()),
        )
    }

    /// Time-tile range for a phase.
    fn t_range(&self, phase: Phase) -> (i64, i64) {
        let tau_last = self.domain.tau_end() - 1;
        match phase {
            Phase::Zero => (0, (tau_last + self.hex().h() + 1).div_euclid(self.height())),
            Phase::One => (0, tau_last.div_euclid(self.height())),
        }
    }

    /// The launch plan: one kernel per phase, launched per time tile.
    pub fn build_plan(&self) -> LaunchPlan {
        let pool = PoolBuilder::default();
        let bodies = [Phase::Zero, Phase::One].map(|phase| (phase, self.kernel_body(&pool, phase)));
        let pool = Arc::new(pool.finish());
        let kernels = bodies.map(|(phase, body)| self.build_kernel(phase, &pool, body));
        let mut launches = Vec::new();
        let (t0_min, t0_max) = self.t_range(Phase::Zero);
        let (t1_min, t1_max) = self.t_range(Phase::One);
        for t in t0_min.min(t1_min)..=t0_max.max(t1_max) {
            if t >= t0_min && t <= t0_max {
                let (lo, hi) = self.s0_range(Phase::Zero, t);
                launches.push(Launch {
                    kernel: 0,
                    params: vec![t, lo],
                    blocks: (hi - lo + 1).max(0) as usize,
                });
            }
            if t >= t1_min && t <= t1_max {
                let (lo, hi) = self.s0_range(Phase::One, t);
                launches.push(Launch {
                    kernel: 1,
                    params: vec![t, lo],
                    blocks: (hi - lo + 1).max(0) as usize,
                });
            }
        }
        LaunchPlan {
            kernels: kernels.into(),
            launches,
            description: format!(
                "hybrid hexagonal/classical tiling of {} ({:?}, aligned={}, h={}, w={:?})",
                self.program.name(),
                self.opts.smem,
                self.opts.aligned_loads,
                self.hex().h(),
                {
                    let mut w = vec![self.hex().w0()];
                    w.extend(self.schedule.classical().iter().map(|c| c.width));
                    w
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    #[test]
    fn plan_structure_for_jacobi() {
        let p = gallery::jacobi2d();
        let plan = generate_hybrid(
            &p,
            &TileParams::new(1, &[2, 8]),
            &[20, 20],
            6,
            CodegenOptions::best(),
        )
        .unwrap();
        assert_eq!(plan.kernels.len(), 2);
        assert!(plan.launches.len() >= 4);
        // Phase 0 launches precede phase 1 launches of the same T.
        let first_two: Vec<usize> = plan.launches[..2].iter().map(|l| l.kernel).collect();
        assert_eq!(first_two, vec![0, 1]);
    }

    #[test]
    fn shared_buffers_sized_from_geometry() {
        let p = gallery::jacobi2d();
        let plan = generate_hybrid(
            &p,
            &TileParams::new(2, &[3, 8]),
            &[32, 32],
            8,
            CodegenOptions::best(),
        )
        .unwrap();
        let k = &plan.kernels[0];
        assert_eq!(k.shared.len(), 1);
        // planes = 2; hexagon b-span is [0, 7] for h=2, w0=3, δ=1, plus a
        // halo of radius 1 on both sides.
        assert_eq!(k.shared[0].dims[0], 2);
        assert_eq!(k.shared[0].dims[1], 8 + 2);
    }

    #[test]
    fn multi_statement_requires_height_multiple() {
        let p = gallery::fdtd2d();
        // k = 3, h = 1 -> H = 4 not divisible by 3.
        let err = generate_hybrid(
            &p,
            &TileParams::new(1, &[2, 8]),
            &[20, 20],
            4,
            CodegenOptions::best(),
        );
        assert!(err.is_err());
        // h = 2 -> H = 6 works.
        let ok = generate_hybrid(
            &p,
            &TileParams::new(2, &[2, 8]),
            &[20, 20],
            4,
            CodegenOptions::best(),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn workload_arity_mismatch_is_an_error_not_a_panic() {
        // Regression: a 1-D workload for a 2-D program used to abort in
        // `ScheduledDomain::new`'s arity assert; reachable from any serve
        // request that pairs a program with the wrong `size`.
        let p = gallery::jacobi2d();
        let err = generate_hybrid(
            &p,
            &TileParams::new(1, &[2, 8]),
            &[20],
            6,
            CodegenOptions::best(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CodegenError::DimsArity {
                got: 1,
                expected: 2
            }
        );
        assert!(err.to_string().contains("spatial dimensions"));
    }

    #[test]
    fn empty_interior_is_an_error_not_a_panic() {
        // Regression: a grid smaller than the stencil halo used to abort
        // in `ScheduledDomain::new`'s interior assert.
        let p = gallery::jacobi2d();
        let err = generate_hybrid(
            &p,
            &TileParams::new(1, &[2, 8]),
            &[20, 2],
            6,
            CodegenOptions::best(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CodegenError::EmptyInterior {
                dim: 1,
                extent: 2,
                radius: 1
            }
        );
        assert!(err.to_string().contains("too small"));
    }

    #[test]
    fn tile_errors_carry_their_source() {
        let p = gallery::jacobi2d();
        // Arity mismatch at the schedule level surfaces as Tile(..).
        let err = generate_hybrid(
            &p,
            &TileParams::new(1, &[2]),
            &[20, 20],
            6,
            CodegenOptions::best(),
        )
        .unwrap_err();
        assert!(matches!(err, CodegenError::Tile(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn one_d_falls_back_to_global_only() {
        let p = gallery::contrived1d();
        let plan = generate_hybrid(
            &p,
            &TileParams::new(2, &[3]),
            &[64],
            8,
            CodegenOptions::best(),
        )
        .unwrap();
        assert!(plan.kernels[0].shared.is_empty());
    }
}

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

use hybrid_tiling::classical::ClassicalDim;
use hybrid_tiling::phase::Phase;
use hybrid_tiling::{DepCone, HybridSchedule, TileError, TileParams};
use stencil::domain::ScheduledDomain;
use stencil::{StencilExpr, StencilProgram};

use crate::ir::{Cond, FExpr, IExpr, Kernel, Launch, LaunchPlan, SharedBuf, Stmt};
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
    fn tid_for(&self, d: usize) -> IExpr {
        match self.n {
            2 => IExpr::ThreadIdx(0),
            _ => {
                if d == self.n - 1 {
                    IExpr::ThreadIdx(0)
                } else {
                    IExpr::ThreadIdx(1)
                }
            }
        }
    }

    /// Linearized thread id.
    fn tid_linear(&self) -> IExpr {
        let bd = self.block_dim();
        IExpr::ThreadIdx(0).add(IExpr::ThreadIdx(1).scale(bd[0] as i64))
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
    fn tau(&self, a: i64) -> IExpr {
        IExpr::Var(V_TAUBASE).offset(a)
    }

    /// Outer iteration `t = ⌊τ/k⌋`.
    fn t_outer(&self, a: i64) -> IExpr {
        if self.k == 1 {
            self.tau(a)
        } else {
            self.tau(a).fdiv(self.k)
        }
    }

    /// Ring plane holding values produced at outer iteration `t - dt`:
    /// `(t - dt + 1) mod planes`.
    fn plane_expr(&self, a: i64, dt: i64) -> IExpr {
        self.t_outer(a).offset(1 - dt).modulo(self.planes)
    }

    /// Global spatial index of classical dimension `d` at local time `a`:
    /// `w_d·S_d + tid - skew_d(a) + off`.
    fn global_cls(&self, d: usize, a: i64, off: i64) -> IExpr {
        let cd = &self.schedule.classical()[d - 1];
        IExpr::Var(V_CLS0 + d - 1)
            .scale(cd.width)
            .add(self.tid_for(d))
            .offset(-self.skews[d][a as usize] + off)
    }

    /// Shared-memory index for dimension `d` (1-based classical), given
    /// the same coordinates: dense (`local = tid - skew + off + pad`) or
    /// mod-mapped for [`SmemStrategy::ReuseStatic`].
    fn shared_cls(&self, d: usize, a: i64, off: i64) -> IExpr {
        if self.opts.smem == SmemStrategy::ReuseStatic && d == self.n - 1 {
            self.global_cls(d, a, off).modulo(self.ext[d])
        } else {
            self.tid_for(d)
                .offset(-self.skews[d][a as usize] + off + self.pad_left[d])
        }
    }

    /// Shared index along the hexagon dimension for row coordinate `b`:
    /// `b - b_min + r0 + off`.
    fn shared_hex(&self, b: IExpr, off: i64) -> IExpr {
        b.offset(-self.b_min + self.radius[0] + off)
    }

    /// Global `s0` for row coordinate `b`.
    fn global_hex(&self, b: IExpr, off: i64) -> IExpr {
        IExpr::Var(V_S0BASE).add(b).offset(off)
    }

    fn shared_bufs(&self) -> Vec<SharedBuf> {
        if !self.opts.smem.uses_shared() {
            return Vec::new();
        }
        self.program
            .field_names()
            .iter()
            .map(|name| {
                let mut dims = vec![self.planes as usize];
                for e in &self.ext {
                    dims.push(*e as usize);
                }
                SharedBuf {
                    name: format!("s_{name}"),
                    dims,
                }
            })
            .collect()
    }

    /// The uniform full-tile condition (§4.3.1).
    fn full_cond(&self) -> Cond {
        let tau_end = self.domain.tau_end();
        let mut c = Cond::Le(IExpr::Const(0), IExpr::Var(V_TAUBASE)).and(Cond::Le(
            IExpr::Var(V_TAUBASE).offset(self.height() - 1),
            IExpr::Const(tau_end - 1),
        ));
        c = c
            .and(Cond::Le(
                IExpr::Const(self.domain.lo()[0]),
                IExpr::Var(V_S0BASE).offset(self.b_min),
            ))
            .and(Cond::Le(
                IExpr::Var(V_S0BASE).offset(self.b_max),
                IExpr::Const(self.domain.hi()[0]),
            ));
        for d in 1..self.n {
            let cd = &self.schedule.classical()[d - 1];
            let base = IExpr::Var(V_CLS0 + d - 1).scale(cd.width);
            c = c
                .and(Cond::Le(
                    IExpr::Const(self.domain.lo()[d] + self.skew_max[d]),
                    base.clone(),
                ))
                .and(Cond::Le(
                    base.offset(cd.width - 1),
                    IExpr::Const(self.domain.hi()[d]),
                ));
        }
        c
    }

    /// Per-point guard for partial tiles: iteration inside the scheduled
    /// domain.
    fn point_guard(&self, phase: Phase, a: i64, b: i64) -> Cond {
        let tau_end = self.domain.tau_end();
        let _ = phase;
        let mut c = Cond::Le(IExpr::Const(0), self.tau(a))
            .and(Cond::Le(self.tau(a), IExpr::Const(tau_end - 1)));
        let s0 = self.global_hex(IExpr::Const(b), 0);
        c = c.and(Cond::between(
            &s0,
            IExpr::Const(self.domain.lo()[0]),
            IExpr::Const(self.domain.hi()[0]),
        ));
        for d in 1..self.n {
            let s = self.global_cls(d, a, 0);
            c = c.and(Cond::between(
                &s,
                IExpr::Const(self.domain.lo()[d]),
                IExpr::Const(self.domain.hi()[d]),
            ));
        }
        c
    }

    /// The FExpr of a statement body with loads resolved through
    /// `make_load`, which appends load statements and returns registers.
    #[allow(clippy::too_many_arguments)]
    fn build_fexpr(
        &self,
        e: &StencilExpr,
        loads: &mut Vec<Stmt>,
        next_reg: &mut usize,
        phase: Phase,
        a: i64,
        b: i64,
        from_shared: bool,
    ) -> FExpr {
        match e {
            StencilExpr::Load(acc) => {
                let reg = *next_reg;
                *next_reg += 1;
                let stmt = if from_shared {
                    let mut index = vec![self.plane_expr(a, acc.dt)];
                    index.push(self.shared_hex(IExpr::Const(b), acc.offsets[0]));
                    for d in 1..self.n {
                        index.push(self.shared_cls(d, a, acc.offsets[d]));
                    }
                    Stmt::SharedLoad {
                        dst: reg,
                        buf: acc.field.0,
                        index,
                    }
                } else {
                    let mut index = vec![self.global_hex(IExpr::Const(b), acc.offsets[0])];
                    for d in 1..self.n {
                        index.push(self.global_cls(d, a, acc.offsets[d]));
                    }
                    Stmt::GlobalLoad {
                        dst: reg,
                        field: acc.field.0,
                        plane: self.plane_expr(a, acc.dt),
                        index,
                    }
                };
                loads.push(stmt);
                let _ = phase;
                FExpr::Reg(reg)
            }
            StencilExpr::Const(c) => FExpr::Const(*c),
            StencilExpr::Add(x, y) => FExpr::Add(
                Box::new(self.build_fexpr(x, loads, next_reg, phase, a, b, from_shared)),
                Box::new(self.build_fexpr(y, loads, next_reg, phase, a, b, from_shared)),
            ),
            StencilExpr::Sub(x, y) => FExpr::Sub(
                Box::new(self.build_fexpr(x, loads, next_reg, phase, a, b, from_shared)),
                Box::new(self.build_fexpr(y, loads, next_reg, phase, a, b, from_shared)),
            ),
            StencilExpr::Mul(x, y) => FExpr::Mul(
                Box::new(self.build_fexpr(x, loads, next_reg, phase, a, b, from_shared)),
                Box::new(self.build_fexpr(y, loads, next_reg, phase, a, b, from_shared)),
            ),
            StencilExpr::Sqrt(x) => FExpr::Sqrt(Box::new(self.build_fexpr(
                x,
                loads,
                next_reg,
                phase,
                a,
                b,
                from_shared,
            ))),
        }
    }

    /// One stencil point: loads, compute, stores (shared and/or global).
    fn emit_point(&self, phase: Phase, a: i64, b: i64, guarded: bool) -> Vec<Stmt> {
        let i = self.stmt_at(phase, a);
        let st = &self.program.statements()[i];
        let from_shared = self.opts.smem.uses_shared();
        let mut body = Vec::new();
        let mut next_reg = 1;
        let expr = self.build_fexpr(&st.expr, &mut body, &mut next_reg, phase, a, b, from_shared);
        body.push(Stmt::Compute { dst: 0, expr });
        let wf = st.writes.0;
        let wplane = self.plane_expr(a, 0); // (t + 1) mod planes
        if from_shared {
            let mut index = vec![wplane.clone()];
            index.push(self.shared_hex(IExpr::Const(b), 0));
            for d in 1..self.n {
                index.push(self.shared_cls(d, a, 0));
            }
            body.push(Stmt::SharedStore {
                buf: wf,
                index,
                src: FExpr::Reg(0),
            });
        }
        if !from_shared || self.opts.smem.interleaved_copy_out() {
            let mut index = vec![self.global_hex(IExpr::Const(b), 0)];
            for d in 1..self.n {
                index.push(self.global_cls(d, a, 0));
            }
            body.push(Stmt::GlobalStore {
                field: wf,
                plane: wplane,
                index,
                src: FExpr::Reg(0),
            });
        }
        if guarded {
            vec![Stmt::If {
                cond: self.point_guard(phase, a, b),
                then_: body,
                else_: vec![],
            }]
        } else {
            body
        }
    }

    /// The copy-out walk for [`SmemStrategy::CopyInOut`]: re-visits every
    /// computed point, moving its value from shared to global.
    fn emit_copyout_point(&self, phase: Phase, a: i64, b: i64, guarded: bool) -> Vec<Stmt> {
        let i = self.stmt_at(phase, a);
        let wf = self.program.statements()[i].writes.0;
        let wplane = self.plane_expr(a, 0);
        let mut sidx = vec![wplane.clone()];
        sidx.push(self.shared_hex(IExpr::Const(b), 0));
        let mut gidx = vec![self.global_hex(IExpr::Const(b), 0)];
        for d in 1..self.n {
            sidx.push(self.shared_cls(d, a, 0));
            gidx.push(self.global_cls(d, a, 0));
        }
        let body = vec![
            Stmt::SharedLoad {
                dst: 0,
                buf: wf,
                index: sidx,
            },
            Stmt::GlobalStore {
                field: wf,
                plane: wplane,
                index: gidx,
                src: FExpr::Reg(0),
            },
        ];
        if guarded {
            vec![Stmt::If {
                cond: self.point_guard(phase, a, b),
                then_: body,
                else_: vec![],
            }]
        } else {
            body
        }
    }

    /// The full intra-tile sweep: unrolled `a`, per-row `b` iteration,
    /// with `emit(phase, a, b, guarded)` as the point body, and a barrier
    /// between time steps.
    fn emit_sweep(
        &self,
        phase: Phase,
        guarded: bool,
        emit: &dyn Fn(Phase, i64, i64, bool) -> Vec<Stmt>,
    ) -> Vec<Stmt> {
        let mut out = Vec::new();
        for a in 0..self.height() {
            let Some((blo, bhi)) = self.rows[a as usize] else {
                continue;
            };
            // The hexagon row is a compact interval; unroll or loop.
            if self.opts.unroll || self.n == 1 {
                for b in blo..=bhi {
                    out.extend(emit(phase, a, b, guarded));
                }
            } else {
                // Non-unrolled rows still resolve to constant bounds; emit
                // a loop over b via repeated emission under a loop var is
                // not possible with constant-b point bodies, so unrolling
                // is the only mode for row iteration (mirroring §4.3.2's
                // constraint-level unrolling).
                for b in blo..=bhi {
                    out.extend(emit(phase, a, b, guarded));
                }
            }
            out.push(Stmt::Sync);
        }
        out
    }

    /// Copy-in of a box region (all planes) from global to shared.
    /// `slab_only` restricts to the advancing window along the innermost
    /// classical dimension (inter-tile reuse).
    fn emit_copyin(&self, slab_only: bool) -> Vec<Stmt> {
        let mut out = Vec::new();
        let nthreads = {
            let bd = self.block_dim();
            (bd[0] * bd[1] * bd[2]) as i64
        };
        // Extents of the copied region per dimension (hexagon dim first).
        let mut region: Vec<i64> = self.ext.clone();
        let inner = self.n - 1;
        if slab_only && self.n >= 2 {
            region[inner] = self.schedule.classical()[inner - 1].width;
        }
        let cells: i64 = region.iter().product();
        let v_c = V_CLS0 + self.n; // chunk loop var
        let v_lin = v_c + 1;
        for plane in 0..self.planes {
            let mut chunk_body = vec![Stmt::SetVar {
                var: v_lin,
                value: IExpr::Var(v_c).scale(nthreads).add(self.tid_linear()),
            }];
            // Decompose v_lin into local coordinates (row-major over
            // `region`): local_d = (lin / prod(region[d+1..])) mod region[d].
            let mut locals: Vec<IExpr> = Vec::new();
            for d in 0..self.n {
                let tail: i64 = region[d + 1..].iter().product();
                let coord = if tail == 1 {
                    IExpr::Var(v_lin)
                } else {
                    IExpr::Var(v_lin).fdiv(tail)
                };
                locals.push(coord.modulo(region[d]));
            }
            // Global coordinates.
            let mut globals: Vec<IExpr> = Vec::new();
            let g0 = IExpr::Var(V_S0BASE)
                .offset(self.b_min - self.radius[0])
                .add(locals[0].clone());
            globals.push(g0);
            for d in 1..self.n {
                let cd = &self.schedule.classical()[d - 1];
                let base = IExpr::Var(V_CLS0 + d - 1)
                    .scale(cd.width)
                    .offset(-self.pad_left[d]);
                let local = if slab_only && d == inner {
                    locals[d].clone().offset(self.ext[d] - region[d])
                } else {
                    locals[d].clone()
                };
                globals.push(base.add(local));
            }
            // Shared indices: dense locals, except the innermost classical
            // dimension under static reuse, which is global-mod-extent.
            let mut sidx: Vec<IExpr> = vec![IExpr::Const(plane)];
            sidx.push(locals[0].clone());
            for d in 1..self.n {
                let s = if self.opts.smem == SmemStrategy::ReuseStatic && d == inner {
                    globals[d].clone().modulo(self.ext[d])
                } else if slab_only && d == inner {
                    locals[d].clone().offset(self.ext[d] - region[d])
                } else {
                    locals[d].clone()
                };
                sidx.push(s);
            }
            // Guard: chunk in range and global coordinates inside the grid.
            let mut guard = Cond::Lt(IExpr::Var(v_lin), IExpr::Const(cells));
            for (d, g) in globals.iter().enumerate() {
                guard = guard.and(Cond::between(
                    g,
                    IExpr::Const(0),
                    IExpr::Const(self.dims[d] as i64 - 1),
                ));
            }
            for field in 0..self.program.num_fields() {
                let mut body = vec![Stmt::GlobalLoad {
                    dst: 0,
                    field,
                    plane: IExpr::Const(plane),
                    index: globals.clone(),
                }];
                let mut s = sidx.clone();
                s[0] = IExpr::Const(plane);
                body.push(Stmt::SharedStore {
                    buf: field,
                    index: s,
                    src: FExpr::Reg(0),
                });
                chunk_body.push(Stmt::If {
                    cond: guard.clone(),
                    then_: body,
                    else_: vec![],
                });
            }
            out.push(Stmt::For {
                var: v_c,
                lo: IExpr::Const(0),
                hi: IExpr::Const((cells + nthreads - 1).div_euclid(nthreads)),
                step: 1,
                body: chunk_body,
            });
        }
        out.push(Stmt::Sync);
        out
    }

    /// The shared-to-shared move phase of dynamic reuse: shifts the
    /// overlap window left by `w_inner`.
    fn emit_move(&self) -> Vec<Stmt> {
        let inner = self.n - 1;
        let w_inner = self.schedule.classical()[inner - 1].width;
        let mut region: Vec<i64> = self.ext.clone();
        region[inner] = self.ext[inner] - w_inner;
        let cells: i64 = region.iter().product();
        if cells <= 0 {
            return vec![];
        }
        let nthreads = {
            let bd = self.block_dim();
            (bd[0] * bd[1] * bd[2]) as i64
        };
        let v_c = V_CLS0 + self.n;
        let v_lin = v_c + 1;
        let mut out = Vec::new();
        for plane in 0..self.planes {
            let mut chunk_body = vec![Stmt::SetVar {
                var: v_lin,
                value: IExpr::Var(v_c).scale(nthreads).add(self.tid_linear()),
            }];
            let mut locals: Vec<IExpr> = Vec::new();
            for d in 0..self.n {
                let tail: i64 = region[d + 1..].iter().product();
                let coord = if tail == 1 {
                    IExpr::Var(v_lin)
                } else {
                    IExpr::Var(v_lin).fdiv(tail)
                };
                locals.push(coord.modulo(region[d]));
            }
            let mut src_idx = vec![IExpr::Const(plane)];
            let mut dst_idx = vec![IExpr::Const(plane)];
            for (d, l) in locals.iter().enumerate() {
                if d == inner {
                    src_idx.push(l.clone().offset(w_inner));
                    dst_idx.push(l.clone());
                } else {
                    src_idx.push(l.clone());
                    dst_idx.push(l.clone());
                }
            }
            let guard = Cond::Lt(IExpr::Var(v_lin), IExpr::Const(cells));
            for field in 0..self.program.num_fields() {
                chunk_body.push(Stmt::If {
                    cond: guard.clone(),
                    then_: vec![
                        Stmt::SharedLoad {
                            dst: 0,
                            buf: field,
                            index: src_idx.clone(),
                        },
                        Stmt::SharedStore {
                            buf: field,
                            index: dst_idx.clone(),
                            src: FExpr::Reg(0),
                        },
                    ],
                    else_: vec![],
                });
            }
            out.push(Stmt::For {
                var: v_c,
                lo: IExpr::Const(0),
                hi: IExpr::Const((cells + nthreads - 1).div_euclid(nthreads)),
                step: 1,
                body: chunk_body,
            });
        }
        out.push(Stmt::Sync);
        out
    }

    /// The body of one classical tile iteration.
    fn emit_tile_body(&self, phase: Phase) -> Vec<Stmt> {
        let mut body = Vec::new();
        if self.opts.smem.uses_shared() {
            if self.opts.smem.inter_tile_reuse() && self.n >= 2 {
                let inner_var = V_CLS0 + self.n - 2;
                let (lo, _) = self.cls_range(self.n - 1);
                let first = Cond::Eq(IExpr::Var(inner_var), IExpr::Const(lo));
                let mut else_branch = Vec::new();
                if self.opts.smem == SmemStrategy::ReuseDynamic {
                    else_branch.extend(self.emit_move());
                }
                else_branch.extend(self.emit_copyin(true));
                body.push(Stmt::If {
                    cond: first,
                    then_: self.emit_copyin(false),
                    else_: else_branch,
                });
            } else {
                body.extend(self.emit_copyin(false));
            }
        }
        let full = {
            let mut v = self.emit_sweep(phase, false, &|p, a, b, g| self.emit_point(p, a, b, g));
            if self.opts.smem == SmemStrategy::CopyInOut {
                v.extend(self.emit_sweep(phase, false, &|p, a, b, g| {
                    self.emit_copyout_point(p, a, b, g)
                }));
            }
            v
        };
        let partial = {
            let mut v = self.emit_sweep(phase, true, &|p, a, b, g| self.emit_point(p, a, b, g));
            if self.opts.smem == SmemStrategy::CopyInOut {
                v.extend(self.emit_sweep(phase, true, &|p, a, b, g| {
                    self.emit_copyout_point(p, a, b, g)
                }));
            }
            v
        };
        body.push(Stmt::If {
            cond: self.full_cond(),
            then_: full,
            else_: partial,
        });
        body
    }

    /// Builds the kernel for one phase.
    fn build_kernel(&self, phase: Phase) -> Kernel {
        let mut body = vec![
            Stmt::SetVar {
                var: V_S0,
                value: IExpr::BlockIdx.add(IExpr::Param(P_S0MIN)),
            },
            Stmt::SetVar {
                var: V_TAUBASE,
                value: IExpr::Param(P_T)
                    .scale(self.height())
                    .offset(-self.t_off(phase)),
            },
            Stmt::SetVar {
                var: V_S0BASE,
                value: IExpr::Var(V_S0)
                    .scale(self.width())
                    .sub(IExpr::Param(P_T).scale(self.drift()))
                    .offset(-self.s_extra(phase)),
            },
        ];
        // Nest classical tile loops around the tile body.
        let mut inner = self.emit_tile_body(phase);
        for d in (1..self.n).rev() {
            let (lo, hi) = self.cls_range(d);
            inner = vec![Stmt::For {
                var: V_CLS0 + d - 1,
                lo: IExpr::Const(lo),
                hi: IExpr::Const(hi + 1),
                step: 1,
                body: inner,
            }];
        }
        body.extend(inner);
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
        let k0 = self.build_kernel(Phase::Zero);
        let k1 = self.build_kernel(Phase::One);
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
            kernels: vec![k0, k1],
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

//! Overtile-like overlapped time tiling.
//!
//! Each launch advances `ts` time steps. A block owns an output tile and
//! redundantly computes a halo that shrinks by the stencil radius every
//! step, so blocks never communicate within a launch — the classic
//! overlapped-tiling trade: DRAM traffic amortized over `ts` steps, paid
//! for with redundant computation and divergence at the shrinking-region
//! guards. Following the paper's observation about Overtile's autotuned
//! configurations, 3D stencils fall back to `ts = 1` (pure spatial
//! tiling).

use std::sync::Arc;

use gpu_codegen::ir::{
    Cond, CondId, FExpr, IExpr, IExprId, Kernel, Launch, LaunchPlan, PoolBuilder, SharedBuf, Stmt,
};
use stencil::StencilProgram;

use crate::common::{self, SpaceTiling};

/// Guard factory used by the chunked sweep: maps per-dimension local
/// coordinates to an extra guard condition plus prologue statements.
type ExtraGuard<'a> = dyn Fn(&[IExprId]) -> (CondId, Vec<Stmt>) + 'a;

/// Time steps per launch chosen like Overtile's autotuner: time-tile 2D
/// kernels, fall back to spatial tiling in 3D.
///
/// The depth must satisfy `ts ≡ 1 (mod planes)` (or `ts == 1`): the launch
/// output plane must not alias any input plane, because concurrent blocks
/// of one launch read the input planes while others write the output —
/// the ring-buffer expression of overlapped tiling's ping-pong arrays.
pub fn default_time_tile(spatial_dims: usize) -> usize {
    match spatial_dims {
        1 | 2 => 5,
        _ => 1,
    }
}

/// Generates the Overtile-like plan with `ts` time steps per launch.
///
/// # Panics
///
/// Panics if `steps` is not a multiple of `ts` (keeps launch logic simple;
/// the harness picks compatible values).
pub fn generate_overtile_ts(
    program: &StencilProgram,
    dims: &[usize],
    steps: usize,
    ts: usize,
) -> LaunchPlan {
    assert!(
        ts >= 1 && steps.is_multiple_of(ts),
        "steps must be a multiple of ts"
    );
    let ring = program.max_dt() as usize + 1;
    assert!(
        ts == 1 || ts % ring == 1,
        "time-tile depth {ts} aliases the ring of {ring} planes: concurrent \
         blocks would read planes another block's copy-out overwrites \
         (choose ts = 1 mod planes)"
    );
    let n = program.spatial_dims();
    let planes = program.max_dt() + 1;
    let radius = program.radius();
    let lo: Vec<i64> = radius.clone();
    let hi: Vec<i64> = dims
        .iter()
        .zip(&radius)
        .map(|(&d, &r)| d as i64 - r - 1)
        .collect();
    let tile = common::default_tile(n);
    let tiling = SpaceTiling::new(dims, &tile);
    let nthreads: i64 = tiling.block_dim().iter().product::<usize>() as i64;
    // Per-dimension reach of one full outer iteration: statements chain
    // within a step through dt=0 reads (fdtd's hz consumes the ex/ey just
    // produced one cell over), so the per-step halo consumption is the
    // *sum* of the statements' reaches, not their max.
    let stmt_reach: Vec<Vec<i64>> = program
        .statements()
        .iter()
        .map(|st| {
            let mut r = vec![0i64; n];
            for a in st.expr.loads() {
                for (d, &o) in a.offsets.iter().enumerate() {
                    r[d] = r[d].max(o.abs());
                }
            }
            r
        })
        .collect();
    let per_step: Vec<i64> = (0..n)
        .map(|d| stmt_reach.iter().map(|r| r[d]).sum())
        .collect();
    // Halo consumed by statements *after* j within the same step.
    let extra: Vec<Vec<i64>> = (0..program.num_statements())
        .map(|j| {
            (0..n)
                .map(|d| stmt_reach[j + 1..].iter().map(|r| r[d]).sum())
                .collect()
        })
        .collect();
    let reach: Vec<i64> = per_step.iter().map(|&r| r * ts as i64).collect();
    let ext: Vec<i64> = (0..n).map(|d| tile[d] + 2 * reach[d]).collect();

    let shared: Vec<SharedBuf> = program
        .field_names()
        .iter()
        .map(|f| {
            let mut d = vec![planes as usize];
            d.extend(ext.iter().map(|&e| e as usize));
            SharedBuf {
                name: format!("s_{f}"),
                dims: d,
            }
        })
        .collect();

    let v_c = 0usize;
    let v_lin = 1usize;
    let p = PoolBuilder::default();
    let ty = p.scale(p.iexpr(IExpr::ThreadIdx(1)), tiling.block_dim()[0] as i64);
    let tid = p.add(p.iexpr(IExpr::ThreadIdx(0)), ty);

    // Copy in every ring slot: later steps read the *written* plane slot
    // at boundary cells, which must carry the persisting global values
    // (boundary cells are never recomputed). Loading dt = 0..planes-1
    // covers all ring slots exactly once.
    let entry_dts: Vec<i64> = if ts == 1 {
        // Pure spatial tiling: the output slot never aliases an input slot
        // within the launch, so stage only the planes actually read.
        let mut v: Vec<i64> = Vec::new();
        for st in program.statements() {
            for a in st.expr.loads() {
                if a.dt >= 1 && !v.contains(&a.dt) {
                    v.push(a.dt);
                }
            }
        }
        v
    } else {
        (0..planes).collect()
    };

    // Helper: chunked sweep over a box of `region` extents; `body(locals)`
    // runs under `lin < cells(region)` plus `extra_guard`.
    let chunked = |region: &[i64], extra: &ExtraGuard| -> Vec<Stmt> {
        let rc: i64 = region.iter().product();
        let lin = p.var(v_lin);
        let mut locals: Vec<IExprId> = Vec::new();
        for d in 0..n {
            let tail: i64 = region[d + 1..].iter().product();
            let coord = if tail == 1 { lin } else { p.fdiv(lin, tail) };
            locals.push(p.modulo(coord, region[d]));
        }
        let (guard, inner) = extra(&locals);
        let first = p.scale(p.var(v_c), nthreads);
        let in_range = p.cond(Cond::Lt(lin, p.lit(rc)));
        vec![Stmt::For {
            var: v_c,
            lo: p.lit(0),
            hi: p.lit((rc + nthreads - 1) / nthreads),
            step: 1,
            body: vec![
                Stmt::SetVar {
                    var: v_lin,
                    value: p.add(first, tid),
                },
                Stmt::If {
                    cond: p.and(in_range, guard),
                    then_: inner,
                    else_: vec![],
                },
            ],
        }]
    };

    // The global coordinates `tile_d · w_d - shift_d + local_d`.
    let globals = |shift: &[i64], locals: &[IExprId]| -> Vec<IExprId> {
        let base = |d| p.offset(p.scale(tiling.tile_index(&p, d), tile[d]), -shift[d]);
        (0..n).map(|d| p.add(base(d), locals[d])).collect()
    };
    let plane_at = |t: i64, dt: i64| {
        let t = p.offset(p.offset(p.iexpr(IExpr::Param(0)), t), 1 - dt);
        p.modulo(t, planes)
    };
    let zeros = vec![0; n];
    let grid_hi: Vec<i64> = dims.iter().map(|&d| d as i64 - 1).collect();

    let mut body: Vec<Stmt> = Vec::new();
    // Copy-in every needed plane of the reach-expanded box, every field.
    for &dt in &entry_dts {
        for field in 0..program.num_fields() {
            body.extend(chunked(&ext, &|locals| {
                let globals = globals(&reach, locals);
                let g = SpaceTiling::interior_guard(&p, &globals, &zeros, &grid_hi);
                let plane = plane_at(0, dt);
                let mut sidx = vec![plane];
                sidx.extend_from_slice(locals);
                (
                    g,
                    vec![
                        Stmt::GlobalLoad {
                            dst: 0,
                            field,
                            plane,
                            index: p.indices(&globals),
                        },
                        Stmt::SharedStore {
                            buf: field,
                            index: p.indices(&sidx),
                            src: p.fexpr(FExpr::Reg(0)),
                        },
                    ],
                )
            }));
        }
    }
    body.push(Stmt::Sync);

    // ts time steps, each statement sweeping its shrinking region.
    for step in 0..ts as i64 {
        for (j, st) in program.statements().iter().enumerate() {
            let shrink: Vec<i64> = (0..n)
                .map(|d| per_step[d] * (ts as i64 - 1 - step) + extra[j][d])
                .collect();
            let region: Vec<i64> = (0..n).map(|d| tile[d] + 2 * shrink[d]).collect();
            body.extend(chunked(&region, &|locals| {
                // Global coordinates of this compute point.
                let globals = globals(&shrink, locals);
                let g = SpaceTiling::interior_guard(&p, &globals, &lo, &hi);
                // Shared-local coordinate: global - box base.
                let slocal = |d: usize, off: i64| p.offset(locals[d], reach[d] - shrink[d] + off);
                let mut point = Vec::new();
                let mut next_reg = 1usize;
                let mut load = |acc: &stencil::Access, reg| {
                    let mut sidx = vec![plane_at(step, acc.dt)];
                    sidx.extend((0..n).map(|d| slocal(d, acc.offsets[d])));
                    Stmt::SharedLoad {
                        dst: reg,
                        buf: acc.field.0,
                        index: p.indices(&sidx),
                    }
                };
                let expr = common::lower_expr(&p, &st.expr, &mut next_reg, &mut point, &mut load);
                let dst = 0usize;
                point.push(Stmt::Compute { dst, expr });
                let mut widx = vec![plane_at(step, 0)];
                widx.extend((0..n).map(|d| slocal(d, 0)));
                point.push(Stmt::SharedStore {
                    buf: st.writes.0,
                    index: p.indices(&widx),
                    src: p.fexpr(FExpr::Reg(dst)),
                });
                (g, point)
            }));
            body.push(Stmt::Sync);
        }
    }

    // Copy-out: owned tile region, last iteration's plane, every field.
    let out_plane = plane_at(ts as i64, 1);
    for field in 0..program.num_fields() {
        body.extend(chunked(&tile, &|locals| {
            let globals = globals(&zeros, locals);
            let g = SpaceTiling::interior_guard(&p, &globals, &lo, &hi);
            let mut sidx = vec![out_plane];
            sidx.extend((0..n).map(|d| p.offset(locals[d], reach[d])));
            (
                g,
                vec![
                    Stmt::SharedLoad {
                        dst: 0,
                        buf: field,
                        index: p.indices(&sidx),
                    },
                    Stmt::GlobalStore {
                        field,
                        plane: out_plane,
                        index: p.indices(&globals),
                        src: p.fexpr(FExpr::Reg(0)),
                    },
                ],
            )
        }));
    }

    let kernel = Kernel {
        name: format!("overtile_{}_ts{ts}", program.name()),
        block_dim: tiling.block_dim(),
        shared,
        n_vars: 2,
        n_regs: common::max_loads(program) + 1,
        n_params: 1,
        pool: Arc::new(p.finish()),
        body,
    };
    let launches = (0..(steps / ts) as i64)
        .map(|i| Launch {
            kernel: 0,
            params: vec![i * ts as i64],
            blocks: tiling.blocks(),
        })
        .collect();
    LaunchPlan {
        kernels: vec![kernel],
        launches,
        description: format!(
            "overtile-like overlapped tiling of {} (ts = {ts})",
            program.name()
        ),
    }
}

/// Generates the Overtile-like plan with the default time-tile depth.
pub fn generate_overtile(program: &StencilProgram, dims: &[usize], steps: usize) -> LaunchPlan {
    let ring = program.max_dt() as usize + 1;
    let max_ts = default_time_tile(program.spatial_dims());
    let ts = (1..=max_ts)
        .rev()
        .find(|&ts| steps.is_multiple_of(ts) && (ts == 1 || ts % ring == 1))
        .unwrap_or(1);
    generate_overtile_ts(program, dims, steps, ts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    #[test]
    fn two_d_kernels_time_tile() {
        let p = gallery::jacobi2d();
        let plan = generate_overtile(&p, &[32, 32], 15);
        assert_eq!(plan.launches.len(), 3); // 15 steps / ts=5
    }

    #[test]
    fn three_d_falls_back_to_space_tiling() {
        let p = gallery::heat3d();
        let plan = generate_overtile(&p, &[16, 16, 16], 4);
        assert_eq!(plan.launches.len(), 4); // ts = 1
    }

    #[test]
    fn shared_box_grows_with_time_depth() {
        let p = gallery::jacobi2d();
        let p1 = generate_overtile_ts(&p, &[32, 32], 15, 1);
        let p4 = generate_overtile_ts(&p, &[32, 32], 15, 5);
        assert!(p4.kernels[0].shared_bytes() > p1.kernels[0].shared_bytes());
    }
}

//! PPCG-like classical tiling: per-time-step kernels with spatial tiles
//! staged through shared memory.
//!
//! This mirrors the configuration the paper measured as its baseline:
//! PPCG extracts the parallel spatial loops of each time step, tiles them,
//! copies each tile (plus halo) of every plane the statement reads into
//! shared memory, computes from shared, and writes results to global. No
//! time tiling: every value travels through DRAM once per step — which is
//! why PPCG is DRAM-bound in Tables 1/2.

use gpu_codegen::ir::{
    Cond, FExpr, IExpr, IExprId, Kernel, Launch, LaunchPlan, PoolBuilder, SharedBuf, Stmt,
};
use stencil::StencilProgram;

use crate::common::{self, SpaceTiling};

/// Generates a PPCG-like plan with the given spatial tile extents.
pub fn generate_ppcg_tiled(
    program: &StencilProgram,
    dims: &[usize],
    steps: usize,
    tile: &[i64],
    name: &str,
) -> LaunchPlan {
    let n = program.spatial_dims();
    let planes = program.max_dt() + 1;
    let radius = program.radius();
    let lo: Vec<i64> = radius.clone();
    let hi: Vec<i64> = dims
        .iter()
        .zip(&radius)
        .map(|(&d, &r)| d as i64 - r - 1)
        .collect();
    let tiling = SpaceTiling::new(dims, tile);
    let nthreads: i64 = tiling.block_dim().iter().product::<usize>() as i64;

    let (mut kernels, p) = (Vec::new(), PoolBuilder::default());
    let plane_at = |dt: i64| p.modulo(p.offset(p.iexpr(IExpr::Param(0)), 1 - dt), planes);
    for st in program.statements() {
        // Distinct (field, dt) planes this statement reads.
        let mut staged: Vec<(usize, i64)> = Vec::new();
        for a in st.expr.loads() {
            let key = (a.field.0, a.dt);
            if !staged.contains(&key) {
                staged.push(key);
            }
        }
        let ext: Vec<i64> = (0..n).map(|d| tile[d] + 2 * radius[d]).collect();
        let shared: Vec<SharedBuf> = staged
            .iter()
            .map(|(f, dt)| SharedBuf {
                name: format!("s_{}_dt{dt}", program.field_names()[*f]),
                dims: ext.iter().map(|&e| e as usize).collect(),
            })
            .collect();
        let cells: i64 = ext.iter().product();
        let v_outer = 0usize;
        let v_c = 1usize;
        let v_lin = 2usize;

        // Copy-in: chunked cooperative load of each staged plane.
        let mut body = Vec::new();
        for (buf, (field, dt)) in staged.iter().enumerate() {
            let lin = p.var(v_lin);
            let mut locals: Vec<IExprId> = Vec::new();
            for d in 0..n {
                let tail: i64 = ext[d + 1..].iter().product();
                let coord = if tail == 1 { lin } else { p.fdiv(lin, tail) };
                locals.push(p.modulo(coord, ext[d]));
            }
            let globals: Vec<IExprId> = (0..n)
                .map(|d| {
                    let base = p.scale(tiling.tile_index(&p, d), tile[d]);
                    p.add(p.offset(base, -radius[d]), locals[d])
                })
                .collect();
            let mut guard = p.cond(Cond::Lt(lin, p.lit(cells)));
            for (d, &g) in globals.iter().enumerate() {
                guard = p.and(guard, p.between(g, p.lit(0), p.lit(dims[d] as i64 - 1)));
            }
            let first = p.scale(p.var(v_c), nthreads);
            let ty = p.scale(p.iexpr(IExpr::ThreadIdx(1)), tiling.block_dim()[0] as i64);
            let tid = p.add(p.iexpr(IExpr::ThreadIdx(0)), ty);
            body.push(Stmt::For {
                var: v_c,
                lo: p.lit(0),
                hi: p.lit((cells + nthreads - 1) / nthreads),
                step: 1,
                body: vec![
                    Stmt::SetVar {
                        var: v_lin,
                        value: p.add(first, tid),
                    },
                    Stmt::If {
                        cond: guard,
                        then_: vec![
                            Stmt::GlobalLoad {
                                dst: 0,
                                field: *field,
                                plane: plane_at(*dt),
                                index: p.indices(&globals),
                            },
                            Stmt::SharedStore {
                                buf,
                                index: p.indices(&locals),
                                src: p.fexpr(FExpr::Reg(0)),
                            },
                        ],
                        else_: vec![],
                    },
                ],
            });
        }
        body.push(Stmt::Sync);

        // Compute from shared, store to global.
        let coords: Vec<IExprId> = (0..n)
            .map(|d| tiling.global_coord(&p, d, Some(v_outer)))
            .collect();
        let local_of = |d: usize, off: i64| -> IExprId {
            // Local tile coordinate + halo pad + access offset.
            let base = match d {
                d if d == n - 1 => p.iexpr(IExpr::ThreadIdx(0)),
                d if d + 2 == n => p.iexpr(IExpr::ThreadIdx(1)),
                _ => p.var(v_outer),
            };
            p.offset(base, radius[d] + off)
        };
        let mut point = Vec::new();
        let mut next_reg = 0usize;
        let mut load = |acc: &stencil::Access, reg| {
            let buf = staged
                .iter()
                .position(|&(f, dt)| f == acc.field.0 && dt == acc.dt)
                .expect("staged plane");
            let index: Vec<IExprId> = (0..n).map(|d| local_of(d, acc.offsets[d])).collect();
            Stmt::SharedLoad {
                dst: reg,
                buf,
                index: p.indices(&index),
            }
        };
        let expr = common::lower_expr(&p, &st.expr, &mut next_reg, &mut point, &mut load);
        let dst = next_reg;
        point.push(Stmt::Compute { dst, expr });
        point.push(Stmt::GlobalStore {
            field: st.writes.0,
            plane: plane_at(0),
            index: p.indices(&coords),
            src: p.fexpr(FExpr::Reg(dst)),
        });
        let guarded = vec![Stmt::If {
            cond: SpaceTiling::interior_guard(&p, &coords, &lo, &hi),
            then_: point,
            else_: vec![],
        }];
        let compute = if n > 2 {
            vec![Stmt::For {
                var: v_outer,
                lo: p.lit(0),
                hi: p.lit(tile[0]),
                step: 1,
                body: guarded,
            }]
        } else {
            guarded
        };
        body.extend(compute);

        kernels.push(Kernel {
            name: format!("{name}_{}_{}", program.name(), st.name),
            block_dim: tiling.block_dim(),
            shared,
            n_vars: 3,
            n_regs: common::max_loads(program) + 1,
            n_params: 1,
            pool: Default::default(),
            body,
        });
    }
    common::share_pool(p, &mut kernels);

    let mut launches = Vec::new();
    for t in 0..steps as i64 {
        for k in 0..kernels.len() {
            launches.push(Launch {
                kernel: k,
                params: vec![t],
                blocks: tiling.blocks(),
            });
        }
    }
    LaunchPlan {
        kernels,
        launches,
        description: format!("{name} classical spatial tiling of {}", program.name()),
    }
}

/// Generates the PPCG-like plan with the default tile sizes.
pub fn generate_ppcg(program: &StencilProgram, dims: &[usize], steps: usize) -> LaunchPlan {
    let tile = common::default_tile(program.spatial_dims());
    generate_ppcg_tiled(program, dims, steps, &tile, "ppcg")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    #[test]
    fn jacobi_stages_exactly_one_plane() {
        let p = gallery::jacobi2d();
        let plan = generate_ppcg(&p, &[64, 64], 1);
        assert_eq!(plan.kernels[0].shared.len(), 1);
    }

    #[test]
    fn contrived_stages_two_planes() {
        let p = gallery::contrived1d();
        let plan = generate_ppcg(&p, &[512], 1);
        assert_eq!(plan.kernels[0].shared.len(), 2); // dt=1 and dt=2
    }

    #[test]
    fn fdtd_hz_statement_stages_three_buffers() {
        let p = gallery::fdtd2d();
        let plan = generate_ppcg(&p, &[64, 64], 1);
        // Shz reads hz(dt=1), ex(dt=0), ey(dt=0).
        assert_eq!(plan.kernels[2].shared.len(), 3);
    }
}

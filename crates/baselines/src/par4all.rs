//! Par4All-like code generation: one kernel launch per time step and
//! statement, all accesses on global memory.
//!
//! Par4All is not a polyhedral compiler; it maps the parallel spatial loops
//! of each time step to a CUDA grid and leaves all data movement to the
//! hardware caches. Reuse across neighboring points and across time steps
//! is whatever the L2 model recovers — exactly the behaviour the paper's
//! Tables 1/2 baseline shows.

use gpu_codegen::ir::{FExpr, IExpr, IExprId, Kernel, Launch, LaunchPlan, PoolBuilder, Stmt};
use stencil::StencilProgram;

use crate::common::{self, SpaceTiling};

/// Generates the Par4All-like launch plan.
pub fn generate_par4all(program: &StencilProgram, dims: &[usize], steps: usize) -> LaunchPlan {
    let n = program.spatial_dims();
    let planes = program.max_dt() + 1;
    let radius = program.radius();
    let lo: Vec<i64> = radius.clone();
    let hi: Vec<i64> = dims
        .iter()
        .zip(&radius)
        .map(|(&d, &r)| d as i64 - r - 1)
        .collect();
    let tiling = SpaceTiling::new(dims, &common::default_tile(n));

    // One kernel per statement; the time step arrives as Param(0).
    let (mut kernels, p) = (Vec::new(), PoolBuilder::default());
    let plane_at = |dt: i64| p.modulo(p.offset(p.iexpr(IExpr::Param(0)), 1 - dt), planes);
    for st in program.statements() {
        let v_outer = 0usize;
        let coords: Vec<IExprId> = (0..n)
            .map(|d| tiling.global_coord(&p, d, Some(v_outer)))
            .collect();
        let mut body_point = Vec::new();
        let mut next_reg = 0usize;
        let mut load = |acc: &stencil::Access, reg| {
            let index: Vec<IExprId> = coords
                .iter()
                .zip(&acc.offsets)
                .map(|(&c, &o)| p.offset(c, o))
                .collect();
            Stmt::GlobalLoad {
                dst: reg,
                field: acc.field.0,
                plane: plane_at(acc.dt),
                index: p.indices(&index),
            }
        };
        let expr = common::lower_expr(&p, &st.expr, &mut next_reg, &mut body_point, &mut load);
        let dst = next_reg;
        body_point.push(Stmt::Compute { dst, expr });
        body_point.push(Stmt::GlobalStore {
            field: st.writes.0,
            plane: plane_at(0),
            index: p.indices(&coords),
            src: p.fexpr(FExpr::Reg(dst)),
        });
        let guarded = vec![Stmt::If {
            cond: SpaceTiling::interior_guard(&p, &coords, &lo, &hi),
            then_: body_point,
            else_: vec![],
        }];
        // Outer tile dims beyond the two thread dims iterate sequentially.
        let body = if n > 2 {
            vec![Stmt::For {
                var: v_outer,
                lo: p.lit(0),
                hi: p.lit(tiling.tile[0]),
                step: 1,
                body: guarded,
            }]
        } else {
            guarded
        };
        kernels.push(Kernel {
            name: format!("par4all_{}_{}", program.name(), st.name),
            block_dim: tiling.block_dim(),
            shared: vec![],
            n_vars: 1,
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
        description: format!("par4all-like global-memory codegen of {}", program.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::gallery;

    #[test]
    fn plan_has_one_launch_per_step_and_statement() {
        let p = gallery::fdtd2d();
        let plan = generate_par4all(&p, &[16, 16], 3);
        assert_eq!(plan.kernels.len(), 3);
        assert_eq!(plan.launches.len(), 9);
    }

    #[test]
    fn kernels_have_no_shared_memory() {
        let p = gallery::jacobi2d();
        let plan = generate_par4all(&p, &[16, 16], 1);
        assert!(plan.kernels.iter().all(|k| k.shared.is_empty()));
    }
}

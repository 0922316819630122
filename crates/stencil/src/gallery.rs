//! The benchmark gallery: every stencil of the paper's evaluation (Table 3),
//! plus Fig. 1's Jacobi and §3.3.2's contrived 1D example.
//!
//! | stencil       | loads | FLOPs/stencil | data size | steps |
//! |---------------|-------|---------------|-----------|-------|
//! | laplacian 2D  | 5     | 6             | 3072²     | 512   |
//! | heat 2D       | 9     | 9             | 3072²     | 512   |
//! | gradient 2D   | 5     | 15            | 3072²     | 512   |
//! | fdtd 2D       | 3/3/5 | 3/3/5         | 3072²     | 512   |
//! | laplacian 3D  | 7     | 8             | 384³      | 128   |
//! | heat 3D       | 27    | 27            | 384³      | 128   |
//! | gradient 3D   | 7     | 20            | 384³      | 128   |

use crate::program::{FieldId, Statement, StencilExpr, StencilProgram};

/// Paper data size for 2D stencils (3072²).
pub const SIZE_2D: usize = 3072;
/// Paper step count for 2D stencils.
pub const STEPS_2D: usize = 512;
/// Paper data size for 3D stencils (384³).
pub const SIZE_3D: usize = 384;
/// Paper step count for 3D stencils.
pub const STEPS_3D: usize = 128;

fn single(name: &str, dims: usize, expr: StencilExpr) -> StencilProgram {
    StencilProgram::new(
        name,
        dims,
        &["A"],
        vec![Statement {
            name: "S0".into(),
            writes: FieldId(0),
            expr,
        }],
    )
    .expect("gallery stencil is canonical")
}

/// Fig. 1: the 2D Jacobi five-point stencil.
///
/// `A[t+1][i][j] = 0.2f * (A[t][i][j] + A[t][i+1][j] + A[t][i-1][j]
///                        + A[t][i][j+1] + A[t][i][j-1])`
pub fn jacobi2d() -> StencilProgram {
    let a = FieldId(0);
    single(
        "jacobi2d",
        2,
        StencilExpr::sum(vec![
            StencilExpr::load(a, 1, &[0, 0]),
            StencilExpr::load(a, 1, &[1, 0]),
            StencilExpr::load(a, 1, &[-1, 0]),
            StencilExpr::load(a, 1, &[0, 1]),
            StencilExpr::load(a, 1, &[0, -1]),
        ])
        .scale(0.2),
    )
}

/// The 2D Laplacian kernel (5 loads, 6 FLOPs).
pub fn laplacian2d() -> StencilProgram {
    let a = FieldId(0);
    single(
        "laplacian2d",
        2,
        StencilExpr::sum(vec![
            StencilExpr::load(a, 1, &[-1, 0]),
            StencilExpr::load(a, 1, &[1, 0]),
            StencilExpr::load(a, 1, &[0, -1]),
            StencilExpr::load(a, 1, &[0, 1]),
            StencilExpr::load(a, 1, &[0, 0]).scale(-4.0),
        ])
        .scale(0.25),
    )
}

/// The 2D heat kernel: dense 3x3 weighted box (9 loads, 9 FLOPs).
pub fn heat2d() -> StencilProgram {
    let a = FieldId(0);
    let mut terms = Vec::new();
    for di in -1..=1 {
        for dj in -1..=1 {
            terms.push(StencilExpr::load(a, 1, &[di, dj]));
        }
    }
    single("heat2d", 2, StencilExpr::sum(terms).scale(1.0 / 9.0))
}

/// The 2D gradient kernel (5 loads, 15 FLOPs): root of squared differences.
pub fn gradient2d() -> StencilProgram {
    let a = FieldId(0);
    let c = || StencilExpr::load(a, 1, &[0, 0]);
    let sq = |o: [i64; 2]| {
        let d = StencilExpr::Sub(Box::new(c()), Box::new(StencilExpr::load(a, 1, &o)));
        StencilExpr::Mul(Box::new(d.clone()), Box::new(d))
    };
    // Note: the four `c()` loads alias the same cell; load counting counts
    // distinct cells (see `characteristics`), matching the paper's 5.
    let s = StencilExpr::sum(vec![sq([1, 0]), sq([-1, 0]), sq([0, 1]), sq([0, -1])]);
    single("gradient2d", 2, StencilExpr::Sqrt(Box::new(s)).scale(0.5))
}

/// The 2D FDTD multi-statement kernel (three statements: ey, ex, hz).
pub fn fdtd2d() -> StencilProgram {
    let (ey, ex, hz) = (FieldId(0), FieldId(1), FieldId(2));
    let stmts = vec![
        // ey[i][j] -= 0.5 * (hz[i][j] - hz[i-1][j])
        Statement {
            name: "Sey".into(),
            writes: ey,
            expr: StencilExpr::Sub(
                Box::new(StencilExpr::load(ey, 1, &[0, 0])),
                Box::new(
                    StencilExpr::Sub(
                        Box::new(StencilExpr::load(hz, 1, &[0, 0])),
                        Box::new(StencilExpr::load(hz, 1, &[-1, 0])),
                    )
                    .scale(0.5),
                ),
            ),
        },
        // ex[i][j] -= 0.5 * (hz[i][j] - hz[i][j-1])
        Statement {
            name: "Sex".into(),
            writes: ex,
            expr: StencilExpr::Sub(
                Box::new(StencilExpr::load(ex, 1, &[0, 0])),
                Box::new(
                    StencilExpr::Sub(
                        Box::new(StencilExpr::load(hz, 1, &[0, 0])),
                        Box::new(StencilExpr::load(hz, 1, &[0, -1])),
                    )
                    .scale(0.5),
                ),
            ),
        },
        // hz[i][j] -= 0.7 * (ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j])
        Statement {
            name: "Shz".into(),
            writes: hz,
            expr: StencilExpr::Sub(
                Box::new(StencilExpr::load(hz, 1, &[0, 0])),
                Box::new(
                    StencilExpr::Add(
                        Box::new(StencilExpr::Sub(
                            Box::new(StencilExpr::load(ex, 0, &[0, 1])),
                            Box::new(StencilExpr::load(ex, 0, &[0, 0])),
                        )),
                        Box::new(StencilExpr::Sub(
                            Box::new(StencilExpr::load(ey, 0, &[1, 0])),
                            Box::new(StencilExpr::load(ey, 0, &[0, 0])),
                        )),
                    )
                    .scale(0.7),
                ),
            ),
        },
    ];
    StencilProgram::new("fdtd2d", 2, &["ey", "ex", "hz"], stmts).expect("fdtd is canonical")
}

/// The 3D Laplacian kernel (7 loads, 8 FLOPs).
pub fn laplacian3d() -> StencilProgram {
    let a = FieldId(0);
    single(
        "laplacian3d",
        3,
        StencilExpr::sum(vec![
            StencilExpr::load(a, 1, &[-1, 0, 0]),
            StencilExpr::load(a, 1, &[1, 0, 0]),
            StencilExpr::load(a, 1, &[0, -1, 0]),
            StencilExpr::load(a, 1, &[0, 1, 0]),
            StencilExpr::load(a, 1, &[0, 0, -1]),
            StencilExpr::load(a, 1, &[0, 0, 1]),
            StencilExpr::load(a, 1, &[0, 0, 0]).scale(-6.0),
        ])
        .scale(0.125),
    )
}

/// The 3D heat kernel: dense 3x3x3 weighted box (27 loads, 27 FLOPs).
pub fn heat3d() -> StencilProgram {
    let a = FieldId(0);
    let mut terms = Vec::new();
    for di in -1..=1 {
        for dj in -1..=1 {
            for dk in -1..=1 {
                terms.push(StencilExpr::load(a, 1, &[di, dj, dk]));
            }
        }
    }
    single("heat3d", 3, StencilExpr::sum(terms).scale(1.0 / 27.0))
}

/// The 3D gradient kernel (7 loads, 20 FLOPs).
pub fn gradient3d() -> StencilProgram {
    let a = FieldId(0);
    let c = || StencilExpr::load(a, 1, &[0, 0, 0]);
    let sq = |o: [i64; 3]| {
        let d = StencilExpr::Sub(Box::new(c()), Box::new(StencilExpr::load(a, 1, &o)));
        StencilExpr::Mul(Box::new(d.clone()), Box::new(d))
    };
    let s = StencilExpr::sum(vec![
        sq([1, 0, 0]),
        sq([-1, 0, 0]),
        sq([0, 1, 0]),
        sq([0, -1, 0]),
        sq([0, 0, 1]),
        sq([0, 0, -1]),
    ]);
    single("gradient3d", 3, StencilExpr::Sqrt(Box::new(s)))
}

/// §3.3.2's contrived 1D example: `A[t][i] = f(A[t-2][i-2], A[t-1][i+2])`,
/// producing distance vectors `{(1, -2), (2, 2)}` and the asymmetric cone of
/// Fig. 3 (δ0 = 1, δ1 = 2).
pub fn contrived1d() -> StencilProgram {
    let a = FieldId(0);
    single(
        "contrived1d",
        1,
        StencilExpr::Add(
            Box::new(StencilExpr::load(a, 2, &[-2])),
            Box::new(StencilExpr::load(a, 1, &[2])),
        )
        .scale(0.5),
    )
}

/// All seven Table 3 benchmark stencils, in the paper's row order
/// (fdtd-2d counts once).
pub fn table3_stencils() -> Vec<StencilProgram> {
    vec![
        laplacian2d(),
        heat2d(),
        gradient2d(),
        fdtd2d(),
        laplacian3d(),
        heat3d(),
        gradient3d(),
    ]
}

/// A program from a load table — the generator the workspace's property
/// tests share. Statement `i` writes field `i` and sums its `(field, dt,
/// offsets)` loads (the first `n` offsets count, field indices wrap at the
/// statement count). A `dt` too small to be carried by the outer loop is
/// raised to 1, which always is.
pub fn from_loads(n: usize, loads: Vec<Vec<(usize, i64, Vec<i64>)>>) -> StencilProgram {
    let k = loads.len();
    let statements = loads
        .into_iter()
        .enumerate()
        .map(|(i, accesses)| {
            let terms = accesses
                .into_iter()
                .map(|(f, dt, offs)| {
                    let f = f % k;
                    let carried = k as i64 * dt + (i as i64 - f as i64) >= 1;
                    StencilExpr::load(FieldId(f), if carried { dt } else { 1 }, &offs[..n])
                })
                .collect();
            Statement {
                name: format!("S{i}"),
                writes: FieldId(i),
                expr: StencilExpr::sum(terms),
            }
        })
        .collect();
    let fields: Vec<String> = (0..k).map(|f| format!("F{f}")).collect();
    let names: Vec<&str> = fields.iter().map(String::as_str).collect();
    StencilProgram::new("generated", n, &names, statements).expect("carried by construction")
}

/// Paper data size and step count for a gallery stencil.
pub fn paper_workload(program: &StencilProgram) -> (Vec<usize>, usize) {
    match program.spatial_dims() {
        2 => (vec![SIZE_2D, SIZE_2D], STEPS_2D),
        3 => (vec![SIZE_3D, SIZE_3D, SIZE_3D], STEPS_3D),
        _ => (vec![4096], 256),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_gallery_programs_validate() {
        for p in table3_stencils() {
            assert!(!p.name().is_empty());
        }
        let _ = jacobi2d();
        let _ = contrived1d();
    }

    #[test]
    fn radii_match_paper_shapes() {
        assert_eq!(jacobi2d().radius(), vec![1, 1]);
        assert_eq!(heat3d().radius(), vec![1, 1, 1]);
        assert_eq!(contrived1d().radius(), vec![2]);
    }

    #[test]
    fn fdtd_statement_order_is_ey_ex_hz() {
        let p = fdtd2d();
        let names: Vec<_> = p.statements().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Sey", "Sex", "Shz"]);
    }

    #[test]
    fn workload_sizes_match_table3() {
        let (dims, steps) = paper_workload(&heat2d());
        assert_eq!(dims, vec![3072, 3072]);
        assert_eq!(steps, 512);
        let (dims, steps) = paper_workload(&heat3d());
        assert_eq!(dims, vec![384, 384, 384]);
        assert_eq!(steps, 128);
    }
}

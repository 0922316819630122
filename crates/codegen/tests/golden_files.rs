//! Golden-file snapshots of the CUDA, pseudo-PTX, WGSL and HIP emitters.
//!
//! Emitter refactors must not silently change generated kernels: for a
//! fixed (stencil, tile size, workload, options) tuple the rendered text
//! is compared line by line against checked-in snapshots under
//! `tests/golden/`. Comparison normalizes line endings and trailing
//! whitespace, so formatting-only churn in the test harness cannot mask a
//! real emitter change.
//!
//! To regenerate after an *intentional* emitter change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gpu_codegen --test golden_files
//! ```
//!
//! then review the diff like any other code change.

use gpu_codegen::backend::{Backend, BackendKind};
use gpu_codegen::ptx_emit::core_tile_ptx;
use gpu_codegen::{generate_hybrid, CodegenOptions, LaunchPlan};
use hybrid_tiling::TileParams;
use stencil::{gallery, StencilProgram};

/// One pinned configuration: gallery stencil, tile size, and workload.
struct Snapshot {
    tag: &'static str,
    program: StencilProgram,
    params: TileParams,
    dims: Vec<usize>,
    steps: usize,
}

fn snapshots() -> Vec<Snapshot> {
    vec![
        Snapshot {
            tag: "jacobi2d_h1_w1x8",
            program: gallery::jacobi2d(),
            params: TileParams::new(1, &[1, 8]),
            dims: vec![20, 20],
            steps: 4,
        },
        Snapshot {
            tag: "fdtd2d_h2_w1x8",
            program: gallery::fdtd2d(),
            params: TileParams::new(2, &[1, 8]),
            dims: vec![20, 20],
            steps: 6,
        },
        Snapshot {
            tag: "laplacian3d_h0_w1x2x8",
            program: gallery::laplacian3d(),
            params: TileParams::new(0, &[1, 2, 8]),
            dims: vec![10, 10, 12],
            steps: 4,
        },
    ]
}

fn plan_for(s: &Snapshot) -> LaunchPlan {
    plan_for_opts(s, CodegenOptions::best())
}

fn plan_for_opts(s: &Snapshot, opts: CodegenOptions) -> LaunchPlan {
    generate_hybrid(&s.program, &s.params, &s.dims, s.steps, opts)
        .expect("snapshot configuration is schedulable")
}

/// The plan a given backend would emit for a snapshot: its own default
/// options (WGSL clamps ladder step (f) to (e); the rest use best()).
fn plan_for_backend(s: &Snapshot, backend: &dyn Backend) -> LaunchPlan {
    plan_for_opts(s, backend.default_options())
}

fn render_ptx(plan: &LaunchPlan) -> String {
    let mut out = String::new();
    for kernel in &plan.kernels {
        let (text, stats) = core_tile_ptx(kernel, 4);
        out.push_str(&format!(
            "// kernel {}: {} loads, {} stores, {} arith\n{text}\n",
            kernel.name, stats.loads, stats.stores, stats.arith
        ));
    }
    out
}

/// Normalizes for comparison: CRLF -> LF, trailing whitespace stripped,
/// trailing blank lines dropped.
fn normalize(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text
        .replace("\r\n", "\n")
        .lines()
        .map(|l| l.trim_end().to_string())
        .collect();
    while lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    lines
}

/// First difference between two normalized texts, rendered with context.
fn first_diff(expected: &[String], actual: &[String]) -> Option<String> {
    let n = expected.len().max(actual.len());
    for i in 0..n {
        let e = expected.get(i).map(String::as_str);
        let a = actual.get(i).map(String::as_str);
        if e != a {
            return Some(format!(
                "first difference at line {}:\n  golden: {}\n  actual: {}",
                i + 1,
                e.unwrap_or("<end of file>"),
                a.unwrap_or("<end of file>"),
            ));
        }
    }
    None
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected = normalize(&expected);
    let actual = normalize(actual);
    if let Some(diff) = first_diff(&expected, &actual) {
        panic!(
            "{name} drifted from its golden snapshot ({} golden lines, {} actual).\n{diff}\n\
             If the emitter change is intentional, regenerate with\n\
             UPDATE_GOLDEN=1 cargo test -p gpu_codegen --test golden_files\n\
             and review the diff.",
            expected.len(),
            actual.len(),
        );
    }
}

#[test]
fn cuda_emission_matches_golden_files() {
    for s in snapshots() {
        let plan = plan_for(&s);
        let text = BackendKind::Cuda.backend().emit_plan(&plan);
        check_golden(&format!("{}.cu", s.tag), &text);
    }
}

#[test]
fn ptx_emission_matches_golden_files() {
    for s in snapshots() {
        let plan = plan_for(&s);
        check_golden(&format!("{}.ptx", s.tag), &render_ptx(&plan));
    }
}

#[test]
fn wgsl_emission_matches_golden_files() {
    let backend = BackendKind::Wgsl.backend();
    for s in snapshots() {
        let plan = plan_for_backend(&s, backend);
        check_golden(&format!("{}.wgsl", s.tag), &backend.emit_plan(&plan));
    }
}

#[test]
fn hip_emission_matches_golden_files() {
    let backend = BackendKind::Hip.backend();
    for s in snapshots() {
        let plan = plan_for_backend(&s, backend);
        check_golden(&format!("{}.hip.cpp", s.tag), &backend.emit_plan(&plan));
    }
}

#[test]
fn cpu_emission_matches_golden_files() {
    let backend = BackendKind::Cpu.backend();
    for s in snapshots() {
        let plan = plan_for_backend(&s, backend);
        check_golden(&format!("{}.cpu.c", s.tag), &backend.emit_plan(&plan));
    }
}

/// Emission is a pure function of (program, tile, workload, options,
/// backend): generating and rendering the same configuration twice
/// yields byte-identical source for every backend.
#[test]
fn emission_is_deterministic_for_every_backend() {
    for kind in BackendKind::ALL {
        let backend = kind.backend();
        for s in snapshots() {
            let a = backend.emit_plan(&plan_for_backend(&s, backend));
            let b = backend.emit_plan(&plan_for_backend(&s, backend));
            assert_eq!(a, b, "{kind} emission not deterministic for {}", s.tag);
            assert_eq!(
                backend.emit_aux(&plan_for_backend(&s, backend)),
                backend.emit_aux(&plan_for_backend(&s, backend)),
                "{kind} aux emission not deterministic for {}",
                s.tag
            );
        }
    }
}

#[test]
fn normalization_ignores_formatting_only_churn() {
    let a = normalize("x;\r\ny;  \n\n\n");
    let b = normalize("x;\ny;\n");
    assert_eq!(a, b);
    assert!(first_diff(&a, &b).is_none());
    let c = normalize("x;\nz;\n");
    let diff = first_diff(&a, &c).unwrap();
    assert!(diff.contains("line 2"), "{diff}");
}

//! The vectorized-CPU backend is *executable*, not just printable.
//!
//! Every stencil in the example gallery compiles under
//! `--backend cpu` with bit-exact verification on: the driver runs the
//! chosen plan on the simulator's compiled executor and compares every
//! output cell against the reference oracle. A plan that merely
//! pretty-prints but mis-executes fails here, for all six examples.
//!
//! The emitted `.cpu.c` artifact is additionally fed to the system C
//! compiler (when one is installed) as a syntax/type check — the
//! whole-block lane-loop lowering must be valid C99, not pseudo-code.

use std::path::{Path, PathBuf};

use gpu_codegen::BackendKind;
use hybrid_bench::driver::{compile_file, DriverConfig};

fn example_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .join("examples/stencils")
}

fn cpu_cfg(tag: &str) -> DriverConfig {
    let dir = std::env::temp_dir().join(format!("cpu_backend_{}_{}", std::process::id(), tag));
    let mut cfg = DriverConfig::new(dir);
    cfg.smoke = true;
    cfg.cache_dir = None;
    cfg.backend = BackendKind::Cpu;
    cfg.opts = BackendKind::Cpu.backend().default_options();
    cfg
}

/// `cc -c` over an emitted artifact, if a C compiler is installed.
/// Returns `None` when there is no compiler to try (the bit-exactness
/// assertion above it has already run either way).
fn c_compiles(path: &Path) -> Option<bool> {
    let obj = path.with_extension("o");
    let out = std::process::Command::new("cc")
        .args(["-std=c99", "-Wall", "-c"])
        .arg(path)
        .arg("-o")
        .arg(&obj)
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!(
            "cc rejected {}:\n{}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    Some(out.status.success())
}

/// All six gallery stencils execute bit-exact against the oracle under
/// the CPU backend, and their artifacts are well-formed C.
#[test]
fn cpu_backend_executes_the_whole_example_gallery_bit_exact() {
    let dir = example_dir();
    let names = [
        "blur2d",
        "fdtd2d",
        "gradient2d",
        "jacobi2d",
        "laplacian3d",
        "wave1d",
    ];
    for name in names {
        let cfg = cpu_cfg(name);
        let path = dir.join(format!("{name}.stencil"));
        let o = compile_file(&path, &cfg)
            .unwrap_or_else(|e| panic!("{name}: cpu backend compile failed: {e}"));
        assert!(
            o.verified,
            "{name}: cpu backend output must be bit-exact against the oracle"
        );
        assert_eq!(o.backend, BackendKind::Cpu, "{name}");
        let artifact = o.source_path.to_string_lossy().to_string();
        assert!(artifact.ends_with(".cpu.c"), "{name}: {artifact}");
        assert!(o.aux_path.is_none(), "{name}: cpu backend has no aux");
        let text = std::fs::read_to_string(&o.source_path).unwrap();
        assert!(
            text.contains("lane"),
            "{name}: artifact must carry the lane-loop lowering"
        );
        if let Some(ok) = c_compiles(&o.source_path) {
            assert!(ok, "{name}: emitted C must compile");
        }
    }
}

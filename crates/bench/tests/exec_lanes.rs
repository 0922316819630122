//! An executed compile runs as two lanes — the request thread simulates
//! while a scoped side thread emits the artifacts and runs the oracle —
//! and must fail exactly as the stages run in sequence failed: the same
//! typed error with the same text, in the same precedence, with the
//! memory cache's single-flight marker cleared, nothing contained as a
//! panic and no thread left behind.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_codegen::{generate_hybrid, CodegenOptions};
use gpusim::{DeviceConfig, GpuSim};
use hybrid_bench::driver::{
    compile_source_with, fingerprint_text, CompileOutcome, DriverConfig, DriverError, MemCache,
};
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::metrics::Id;
use hybrid_tiling::cancel::CancelToken;
use hybrid_tiling::TileParams;
use stencil::parse::parse_stencil;
use stencil::Grid;

const JACOBI: &str = "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    for (j = 1; j < N-1; j++)\n      A[t+1][i][j] = 0.2f * (A[t][i][j] + A[t][i+1][j] + A[t][i-1][j] + A[t][i][j+1] + A[t][i][j-1]);\n";

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A path under the temp directory nothing else uses (not created).
fn fresh_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "exec_lanes_{}_{}_{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A smoke-sweep config without a disk cache, writing under a fresh path.
fn cfg(tag: &str) -> DriverConfig {
    DriverConfig {
        smoke: true,
        cache_dir: None,
        ..DriverConfig::new(fresh_path(tag))
    }
}

fn compile(cfg: &DriverConfig, mem: Option<&MemCache>) -> Result<CompileOutcome, DriverError> {
    compile_source_with("jacobi", JACOBI, Path::new("<test>"), cfg, mem)
}

#[test]
fn an_emit_failure_is_the_typed_io_error_and_clears_the_flight() {
    // `out_dir` is a regular file: the side lane cannot create it.
    let cfg = cfg("out_is_a_file");
    fs::write(&cfg.out_dir, "in the way").unwrap();
    let os_error = fs::create_dir_all(&cfg.out_dir).unwrap_err();
    let want = format!("{}: {os_error}", cfg.out_dir.display());

    let mem = MemCache::new();
    let first = compile(&cfg, Some(&mem)).unwrap_err();
    assert!(
        matches!(&first, DriverError::Io(text) if *text == want),
        "{first}"
    );
    // The failed compile published nothing and left no in-flight marker: a
    // second request for the fingerprint compiles for itself (a marker left
    // behind would hold it until this deadline instead).
    let bounded = DriverConfig {
        cancel: CancelToken::with_timeout(Duration::from_secs(20)),
        ..cfg.clone()
    };
    let second = compile(&bounded, Some(&mem)).unwrap_err();
    assert!(
        matches!(&second, DriverError::Io(text) if *text == want),
        "{second}"
    );
    assert_eq!((mem.get(Id::MemMisses), mem.get(Id::MemHits)), (2, 0));

    // Through the service: a typed error response, not a contained panic.
    let router = FleetRouter::new(cfg, FleetOptions::default());
    let request = Json::obj(vec![
        ("op", Json::str("compile")),
        ("name", Json::str("jacobi")),
        ("program", Json::str(JACOBI)),
    ]);
    let response = router.handle_line(1, &request.render()).unwrap();
    assert_eq!(
        response.get("error_kind").and_then(Json::as_str),
        Some("io")
    );
    let text = response.get("error").and_then(Json::as_str).unwrap();
    assert!(text.ends_with(&want), "{text}");
    assert_eq!(router.members()[0].1.get(Id::ContainedPanics), Some(0));
}

#[test]
fn a_plan_the_simulator_rejects_is_a_verify_error_beside_emitted_artifacts() {
    // A device with 4 KB of shared memory and a disk-cache entry planted
    // for it that needs 8 KB: the entry generates, so no sweep replaces
    // it, the side lane emits it, and the simulator refuses to launch it.
    let device = DeviceConfig {
        shared_limit: 4096,
        ..DeviceConfig::gtx470()
    };
    let base = cfg("over_shared");
    let cfg = DriverConfig {
        device: device.clone(),
        cache_dir: Some(base.out_dir.join("cache")),
        ..base
    };
    let program = parse_stencil("jacobi", JACOBI).unwrap();
    let (text, params) = (program.to_c_like(), TileParams::new(3, &[5, 64]));
    let fp = fingerprint_text(&text, &cfg);
    let entry = Json::obj(vec![
        ("program", Json::str(text)),
        ("backend", Json::str("cuda")),
        ("h", Json::Int(params.h)),
        (
            "w",
            Json::Arr(params.w.iter().map(|&x| Json::Int(x)).collect()),
        ),
    ]);
    let cache_dir = cfg.cache_dir.as_ref().unwrap();
    fs::create_dir_all(cache_dir).unwrap();
    fs::write(cache_dir.join(format!("{fp}.json")), entry.render()).unwrap();

    // What the simulator says about that plan, asked directly.
    let plan = generate_hybrid(&program, &params, &[96, 96], 12, CodegenOptions::best()).unwrap();
    let mut sim = GpuSim::new(device, &[Grid::zeros(&[96, 96])], 2);
    let refusal = sim.try_run_plan_parallel_with(&plan, 1).unwrap_err();
    assert!(refusal.to_string().contains("8176 bytes"), "{refusal}");

    let err = compile(&cfg, None).unwrap_err();
    let want = format!("jacobi: {refusal}");
    assert!(
        matches!(&err, DriverError::Verify(text) if *text == want),
        "{err}"
    );
    // Emission used to run before the simulation and still leaves its files.
    let artifact = |ext: &str| cfg.out_dir.join(format!("jacobi-{}.{ext}", &fp[..8]));
    let source = fs::read_to_string(artifact("cu")).unwrap();
    assert!(source.starts_with("// jacobi — hybrid hexagonal/classical tiling, h = 3, w = [5, 64]"));
    assert!(source.contains("__global__ void"));
    assert!(artifact("ptx").is_file());
}

#[test]
fn a_fired_token_is_its_typed_error_never_a_verified_outcome() {
    // Fired before the request: answered before any lane starts.
    let flag = CancelToken::with_flag(Arc::new(AtomicBool::new(true)));
    let deadline = CancelToken::with_deadline(Instant::now());
    for (cancel, kind) in [(flag, "cancelled"), (deadline, "deadline_exceeded")] {
        let cfg = DriverConfig {
            cancel,
            ..cfg("fired_before")
        };
        let err = compile(&cfg, None).unwrap_err();
        assert_eq!(err.kind(), kind, "{err}");
        assert!(!cfg.out_dir.exists(), "a cancelled request emitted");
    }

    // Fired while the lanes run. The side lane's first act is emission, so
    // the artifact appearing means both lanes are under way; the workload
    // keeps the simulation going long after that. The oracle stops at its
    // next step, the simulation finishes, and the request answers the typed
    // error instead of comparing a half-run oracle.
    let flag = Arc::new(AtomicBool::new(false));
    let cfg = DriverConfig {
        cancel: CancelToken::with_flag(flag.clone()),
        workload: Some((vec![160, 160], 16)),
        ..cfg("fired_during")
    };
    let err = std::thread::scope(|scope| {
        scope.spawn(|| {
            let emitted = || fs::read_dir(&cfg.out_dir).is_ok_and(|dir| dir.count() > 0);
            while !emitted() {
                std::thread::yield_now();
            }
            flag.store(true, Ordering::SeqCst);
        });
        compile(&cfg, None).unwrap_err()
    });
    assert!(matches!(err, DriverError::Cancelled(_)), "{err}");
}

#[test]
fn without_verification_the_side_lane_only_emits() {
    let cfg = DriverConfig {
        verify: false,
        ..cfg("unverified")
    };
    let outcome = compile(&cfg, None).unwrap();
    assert!(!outcome.verified);
    assert!(outcome.source_path.is_file());
    assert!(outcome.aux_path.as_ref().is_some_and(|p| p.is_file()));
    let times = outcome.stages;
    assert!(times.simulate_ms > 0.0 && times.emit_ms > 0.0, "{times:?}");
    assert_eq!(times.oracle_ms, 0.0, "no oracle was run");
    // The same request verified: same plan, same statistics, and an oracle.
    let verified = compile(
        &DriverConfig {
            verify: true,
            ..cfg
        },
        None,
    )
    .unwrap();
    assert!(verified.verified && verified.stages.oracle_ms > 0.0);
    assert_eq!(verified.params, outcome.params);
    assert_eq!(verified.gstencils.to_bits(), outcome.gstencils.to_bits());
}

#[cfg(target_os = "linux")]
#[test]
fn no_thread_outlives_a_compile() {
    // Counted in a process of its own, where no other test's threads come
    // and go: this test re-runs itself, alone, as a child.
    if std::env::var_os("EXEC_LANES_ALONE").is_none() {
        let alone = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "no_thread_outlives_a_compile",
                "--test-threads=1",
            ])
            .env("EXEC_LANES_ALONE", "1")
            .output()
            .unwrap();
        assert!(alone.status.success(), "{alone:?}");
        return;
    }
    let threads = || fs::read_dir("/proc/self/task").unwrap().count();
    // Cold every time — no cache of any kind — on a workload of a few tiles.
    let cfg = DriverConfig {
        workload: Some((vec![24, 24], 4)),
        ..cfg("threads")
    };
    let before = threads();
    for _ in 0..50 {
        assert!(compile(&cfg, None).unwrap().verified);
    }
    assert_eq!(threads(), before);
}

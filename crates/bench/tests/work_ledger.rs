//! The work ledger: heap allocations per pipeline stage, pinned.
//!
//! Wall-clock pairs on a shared host need many runs to show a change;
//! allocation counts are deterministic, so a change in the work a stage
//! does shows up here in one run. For each example stencil this counts
//! the allocations of a whole cold `compile_source_with` (fresh cache
//! directory, one tuning worker), of a cold `tune: simulated` one at a
//! small override workload ([`simulated_workload`]) and, at the tiles
//! `tune: static` picks,
//! of each stage on
//! its own: parse, `HybridGeometry::new`, `build_plan`, simulate (loading
//! the simulator, compiling the kernels, running the plan), the oracle and
//! the emission of that one plan by each backend (CUDA, HIP, WGSL, CPU) —
//! plus the frees of dropping the plan. Every case runs
//! twice and must count the same both times, after one uncounted warm-up
//! request.
//!
//! On a mismatch the test prints the new table (and writes it next to the
//! test binary's scratch directory); a change that moves a count re-pins
//! `golden/work.json` and says why in its description.
//!
//! One `#[test]` in its own binary: the counter is process-wide, so it
//! also sees the driver's side-lane thread, and a second test running in
//! parallel would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use gpu_codegen::{BackendKind, CodegenOptions, HybridGeometry};
use gpusim::DeviceConfig;
use hybrid_bench::autotune::autotune_workload;
use hybrid_bench::driver::{compile_source_with, DriverConfig, TuneMode};
use hybrid_bench::{loaded_sim, random_init};
use hybrid_tiling::TileParams;
use stencil::parse::parse_stencil;
use stencil::ReferenceExecutor;

/// Counts every allocation (`alloc`, `alloc_zeroed`, `realloc`) and every
/// free, forwarding to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result, with the allocations and frees made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a, d) = (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst));
    let out = f();
    let (a2, d2) = (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst));
    (out, a2 - a, d2 - d)
}

/// The winners `driver::tests::static_winners_are_pinned` pins.
const WINNERS: [(&str, i64, &[i64]); 6] = [
    ("wave1d", 3, &[5]),
    ("jacobi2d", 3, &[5, 64]),
    ("fdtd2d", 3, &[5, 64]),
    ("blur2d", 3, &[5, 64]),
    ("gradient2d", 3, &[5, 64]),
    ("laplacian3d", 2, &[3, 8, 32]),
];

/// The override workload of the `compile_simulated` row, per spatial
/// arity: small, so the exhaustive simulated sweep stays cheap.
fn simulated_workload(arity: usize) -> (Vec<usize>, usize) {
    match arity {
        1 => (vec![64], 4),
        2 => (vec![32, 32], 4),
        _ => (vec![12, 12, 16], 3),
    }
}

/// The ledger rows, in print order.
const ROWS: [&str; 12] = [
    "compile",
    "compile_simulated",
    "parse",
    "geometry",
    "build_plan",
    "simulate",
    "oracle",
    "emit_cuda",
    "emit_hip",
    "emit_wgsl",
    "emit_cpu",
    "drop_plan_frees",
];

/// One example's row values, in [`ROWS`] order. `run` names the fresh
/// output directory of the whole compile: its path has the same length in
/// every run and every process, so path handling allocates alike.
fn ledger_of(name: &str, h: i64, w: &[i64], source: &str, run: &str) -> [u64; ROWS.len()] {
    let out = std::env::temp_dir().join(format!(
        "hybrid-work-ledger-{:010}/{name}/{run}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&out);
    // One tuning worker: the default splits the host's CPUs, and which
    // worker thread takes which candidate is up to the scheduler.
    let cfg = DriverConfig {
        tune_workers: 1,
        ..DriverConfig::new(&out)
    };
    let (outcome, compile, _) =
        counted(|| compile_source_with(name, source, Path::new(name), &cfg, None));
    let outcome = outcome.unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        (outcome.params.h, &outcome.params.w[..]),
        (h, w),
        "{name}: the static winner moved"
    );
    let _ = std::fs::remove_dir_all(&out);

    let out = out.with_file_name(format!("s{run}"));
    let _ = std::fs::remove_dir_all(&out);
    let cfg = DriverConfig {
        tune: TuneMode::Simulated,
        workload: Some(simulated_workload(w.len())),
        tune_workers: 1,
        ..DriverConfig::new(&out)
    };
    let (outcome, compile_simulated, _) =
        counted(|| compile_source_with(name, source, Path::new(name), &cfg, None));
    outcome.unwrap_or_else(|e| panic!("{name} (simulated): {e}"));
    let _ = std::fs::remove_dir_all(&out);

    let (program, parse, _) = counted(|| parse_stencil(name, source).unwrap());
    let (dims, steps) = autotune_workload(&program);
    let params = TileParams::new(h, w);
    let opts = CodegenOptions::best();
    let (geometry, geometry_allocs, _) =
        counted(|| HybridGeometry::new(&program, &params, &dims, steps, opts).unwrap());
    let (plan, build_plan, _) = counted(|| geometry.build_plan());
    let align = geometry.alignment_offset_words();
    let init = random_init(&program, &dims, 1234);
    let device = DeviceConfig::gtx470();
    let (sim, simulate, _) = counted(|| {
        let mut sim = loaded_sim(&program, &device, &init, align, steps);
        sim.try_run_plan_parallel_with(&plan, 1).unwrap();
        sim
    });
    let (oracle, oracle_allocs, _) = counted(|| {
        let mut oracle = ReferenceExecutor::new(&program, &init);
        while oracle.steps_done() < steps {
            oracle.step();
        }
        oracle
    });
    let [cuda, hip, wgsl, cpu] = [
        BackendKind::Cuda,
        BackendKind::Hip,
        BackendKind::Wgsl,
        BackendKind::Cpu,
    ]
    .map(|b| counted(|| b.backend().emit_plan(&plan)).1);
    drop((sim, oracle));
    let ((), _, drop_frees) = counted(|| drop(plan));
    [
        compile,
        compile_simulated,
        parse,
        geometry_allocs,
        build_plan,
        simulate,
        oracle_allocs,
        cuda,
        hip,
        wgsl,
        cpu,
        drop_frees,
    ]
}

/// The ledger as pinned JSON text: one object per example, one key per row.
fn render(table: &[(&str, [u64; ROWS.len()])]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, row)) in table.iter().enumerate() {
        let cells: Vec<String> = ROWS
            .iter()
            .zip(row)
            .map(|(key, n)| format!("\"{key}\": {n}"))
            .collect();
        let comma = if i + 1 < table.len() { "," } else { "" };
        out += &format!("  \"{name}\": {{{}}}{comma}\n", cells.join(", "));
    }
    out + "}\n"
}

#[test]
fn allocations_per_stage_match_the_pinned_ledger() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let examples = root.join("../../examples/stencils");
    let source_of = |name| std::fs::read_to_string(examples.join(format!("{name}.stencil")));
    // One uncounted pass first: what a process initializes once, on the
    // first request it serves, is not the work of a request.
    let (name, h, w) = WINNERS[0];
    ledger_of(name, h, w, &source_of(name).unwrap(), "w");
    let mut table = Vec::new();
    for (name, h, w) in WINNERS {
        let source = source_of(name).unwrap();
        let first = ledger_of(name, h, w, &source, "a");
        let second = ledger_of(name, h, w, &source, "b");
        assert_eq!(
            first, second,
            "{name}: two identical runs counted differently"
        );
        table.push((name, first));
    }
    let scratch = format!("hybrid-work-ledger-{:010}", std::process::id());
    let _ = std::fs::remove_dir_all(std::env::temp_dir().join(scratch));
    let got = render(&table);
    let golden = root.join("tests/golden/work.json");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got != want {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("work.json");
        std::fs::write(&fresh, &got).unwrap();
        panic!(
            "the work ledger moved; new table (also in {}):\n{got}\npinned:\n{want}",
            fresh.display()
        );
    }
}

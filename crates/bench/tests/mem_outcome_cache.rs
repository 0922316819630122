//! The in-memory cache stores **verified outcomes**, not just tile
//! parameters ([`hybrid_bench::driver::MemCache`]): a hit answers from the
//! entry's execution record and runs no code generation, no simulation
//! and no oracle.
//!
//! What that must preserve, checked here end to end through
//! `compile_source_with`:
//!
//! * a hit reports exactly what the publishing miss reported, provenance
//!   fields aside;
//! * a hit writes no file; a missing artifact is re-emitted (and nothing
//!   is re-executed);
//! * a `verify: true` request is never answered from an unverified
//!   record — it re-executes once and upgrades the entry;
//! * N concurrent requests for one cold program cost one compile;
//! * a hit is cheaper than the compile that published it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use gpusim::DeviceConfig;
use hybrid_bench::driver::{
    collect_stencil_files, compile_file_with, compile_source_with, fingerprint_text, outcome_json,
    CacheSource, CompileOutcome, DriverConfig, MemCache, TuneMode, PROVENANCE_FIELDS,
};
use hybrid_bench::json::Json;
use hybrid_bench::metrics::Id;

const JACOBI: &str = "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    for (j = 1; j < N-1; j++)\n      A[t+1][i][j] = 0.2f * (A[t][i][j] + A[t][i+1][j] + A[t][i-1][j] + A[t][i][j+1] + A[t][i][j-1]);\n";

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A smoke-sweep config writing under a fresh scratch directory, without
/// a disk cache: every plan comes from tuning or from memory.
fn cfg(tag: &str) -> DriverConfig {
    let dir = std::env::temp_dir().join(format!(
        "mem_outcome_cache_{}_{}_{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    DriverConfig {
        smoke: true,
        cache_dir: None,
        ..DriverConfig::new(dir)
    }
}

fn example_stencils() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
    collect_stencil_files(&dir).unwrap()
}

fn compile(name: &str, cfg: &DriverConfig, mem: &MemCache) -> CompileOutcome {
    compile_source_with(name, JACOBI, Path::new("<test>"), cfg, Some(mem)).unwrap()
}

/// The response body of `outcome` with the provenance fields removed.
fn normalized(outcome: &CompileOutcome) -> String {
    let Json::Obj(pairs) = outcome_json("<test>", &Ok(outcome.clone())) else {
        panic!("outcome_json renders an object");
    };
    let kept: Vec<(String, Json)> = pairs
        .into_iter()
        .filter(|(k, _)| !PROVENANCE_FIELDS.contains(&k.as_str()))
        .collect();
    assert!(kept.len() >= 15, "normalisation kept {} fields", kept.len());
    Json::Obj(kept).render_compact()
}

fn artifacts(outcome: &CompileOutcome) -> Vec<&Path> {
    let mut paths = vec![outcome.source_path.as_path()];
    paths.extend(outcome.aux_path.as_deref());
    paths
}

#[test]
fn a_hit_reports_what_the_publishing_miss_reported() {
    let files = example_stencils();
    assert_eq!(files.len(), 6, "{files:?}");
    for device in [DeviceConfig::gtx470(), DeviceConfig::nvs5200m()] {
        let cfg = DriverConfig {
            device,
            ..cfg("equal")
        };
        let mem = MemCache::new();
        for file in &files {
            let miss = compile_file_with(file, &cfg, Some(&mem)).unwrap();
            let hit = compile_file_with(file, &cfg, Some(&mem)).unwrap();
            let what = format!("{} on {}", file.display(), cfg.device.name);
            assert_eq!(miss.cache, CacheSource::Fresh, "{what}");
            assert_eq!(hit.cache, CacheSource::Memory, "{what}");
            assert!(miss.verified && hit.verified, "{what}");
            assert_eq!(normalized(&hit), normalized(&miss), "{what}");
            assert_eq!(hit.gstencils.to_bits(), miss.gstencils.to_bits(), "{what}");
            assert_eq!(hit.seconds.to_bits(), miss.seconds.to_bits(), "{what}");
            // A hit reports no tuning effort at all.
            assert_eq!(
                (
                    hit.examined,
                    hit.simulated,
                    hit.tune_wall_ms,
                    hit.tune_model_ms
                ),
                (0, 0, 0, 0.0),
                "{what}"
            );
            // ...and no stage time: the timers describe the request.
            let stages = |o: &CompileOutcome| {
                let t = o.stages;
                [t.plan_ms, t.simulate_ms, t.oracle_ms, t.emit_ms]
            };
            assert_eq!(stages(&hit), [0.0; 4], "{what}");
            assert!(stages(&miss).iter().all(|&ms| ms > 0.0), "{what}");
        }
        assert_eq!((mem.get(Id::MemMisses), mem.get(Id::MemHits)), (6, 6));
        assert_eq!(mem.get(Id::MemReexecuted), 0);
    }
}

#[test]
fn a_hit_writes_nothing_and_a_missing_artifact_is_only_re_emitted() {
    let cfg = cfg("artifacts");
    let mem = MemCache::new();
    let miss = compile("jac", &cfg, &mem);
    let paths = artifacts(&miss);
    assert_eq!(paths.len(), 2, "CUDA emits a source and a PTX artifact");
    let stamp = |p: &Path| fs::metadata(p).unwrap().modified().unwrap();
    let contents: Vec<String> = paths
        .iter()
        .map(|p| fs::read_to_string(p).unwrap())
        .collect();
    let written: Vec<_> = paths.iter().map(|p| stamp(p)).collect();
    let files_in_out_dir = || fs::read_dir(&cfg.out_dir).unwrap().count();
    assert_eq!(files_in_out_dir(), 2);

    // A pure hit touches neither artifact (files are written through a
    // temp file + rename, so any rewrite would change the mtime).
    let hit = compile("jac", &cfg, &mem);
    assert_eq!(hit.cache, CacheSource::Memory);
    assert_eq!(artifacts(&hit), paths);
    assert_eq!(paths.iter().map(|p| stamp(p)).collect::<Vec<_>>(), written);
    assert_eq!(files_in_out_dir(), 2);

    // Deleted artifacts come back byte-identical on the next hit — which
    // is still a memory hit and re-executes nothing.
    for p in &paths {
        fs::remove_file(p).unwrap();
    }
    let hit = compile("jac", &cfg, &mem);
    assert_eq!(hit.cache, CacheSource::Memory);
    for (p, want) in paths.iter().zip(&contents) {
        assert_eq!(&fs::read_to_string(p).unwrap(), want, "{}", p.display());
    }

    // The same program under a second request name shares the entry (the
    // fingerprint ignores the name) but gets its own artifact pair.
    let renamed = compile("other", &cfg, &mem);
    assert_eq!(renamed.cache, CacheSource::Memory);
    assert_eq!(renamed.fingerprint, miss.fingerprint);
    assert_ne!(renamed.source_path, miss.source_path);
    assert!(artifacts(&renamed).iter().all(|p| p.is_file()));
    assert_eq!(files_in_out_dir(), 4);
    assert_eq!(normalized(&renamed), {
        let mut expected = miss.clone();
        expected.name = renamed.name.clone();
        expected.source_path = renamed.source_path.clone();
        expected.aux_path = renamed.aux_path.clone();
        normalized(&expected)
    });

    assert_eq!((mem.get(Id::MemMisses), mem.get(Id::MemHits)), (1, 3));
    assert_eq!(
        mem.get(Id::MemReexecuted),
        0,
        "re-emission is not re-execution"
    );
}

#[test]
fn a_verifying_request_is_never_answered_from_an_unverified_record() {
    let verifying = cfg("verify");
    let trusting = DriverConfig {
        verify: false,
        ..verifying.clone()
    };

    // verify:false publishes; verify:true must execute again, once.
    let mem = MemCache::new();
    let first = compile("jac", &trusting, &mem);
    assert_eq!((first.cache, first.verified), (CacheSource::Fresh, false));
    let bytes = mem.bytes();
    let second = compile("jac", &verifying, &mem);
    assert_eq!((second.cache, second.verified), (CacheSource::Memory, true));
    assert_eq!(mem.get(Id::MemReexecuted), 1);
    assert_eq!(second.gstencils.to_bits(), first.gstencils.to_bits());
    // The entry was upgraded in place: same bytes, and the next verifying
    // request is a pure hit.
    assert_eq!((mem.len(), mem.bytes()), (1, bytes));
    let third = compile("jac", &verifying, &mem);
    assert_eq!((third.cache, third.verified), (CacheSource::Memory, true));
    assert_eq!(mem.get(Id::MemReexecuted), 1);
    assert_eq!((mem.get(Id::MemMisses), mem.get(Id::MemHits)), (1, 2));

    // The reverse order: a verified record answers a verify:false request
    // as a pure hit, which reports `verified == cfg.verify`.
    let mem = MemCache::new();
    let first = compile("jac", &verifying, &mem);
    assert_eq!((first.cache, first.verified), (CacheSource::Fresh, true));
    let second = compile("jac", &trusting, &mem);
    assert_eq!(
        (second.cache, second.verified),
        (CacheSource::Memory, false)
    );
    assert_eq!(mem.get(Id::MemReexecuted), 0);
}

#[test]
fn concurrent_cold_requests_cost_one_compile() {
    let cfg = cfg("coalesce");
    let mem = MemCache::new();
    let outcomes: Vec<CompileOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| compile("jac", &cfg, &mem)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(mem.get(Id::MemMisses), 1);
    assert_eq!(mem.get(Id::MemCoalesced) + mem.get(Id::MemHits), 7);
    assert_eq!(mem.get(Id::MemReexecuted), 0);
    let fresh = outcomes
        .iter()
        .filter(|o| o.cache == CacheSource::Fresh)
        .count();
    assert_eq!(fresh, 1, "exactly one request tuned and simulated");
    for o in &outcomes {
        assert!(o.verified);
        assert_eq!(normalized(o), normalized(&outcomes[0]));
    }
}

#[test]
fn two_hundred_hits_cost_less_than_the_compile_that_published_them() {
    let file = example_stencils()
        .into_iter()
        .find(|p| p.ends_with("laplacian3d.stencil"))
        .expect("examples/stencils/laplacian3d.stencil");
    let cfg = cfg("ratio");
    let mem = MemCache::new();
    let start = Instant::now();
    let miss = compile_file_with(&file, &cfg, Some(&mem)).unwrap();
    let cold = start.elapsed();
    assert_eq!(miss.cache, CacheSource::Fresh);

    let start = Instant::now();
    for _ in 0..200 {
        let hit = compile_file_with(&file, &cfg, Some(&mem)).unwrap();
        assert_eq!(hit.cache, CacheSource::Memory);
    }
    let hits = start.elapsed();
    assert!(
        hits < cold,
        "200 hits took {hits:?}, the cold compile {cold:?}"
    );
}

/// Plan fingerprints key the on-disk cache, so they must not move when
/// the code that builds them is refactored. Both values were computed at
/// PR 14 (6c83df0), where the identity string still had a slot for the
/// test-only scorer hook's address; a production build no longer has the
/// hook and must keep rendering that slot as the `None` it always held.
#[test]
fn plan_fingerprints_are_pinned_so_disk_caches_stay_valid() {
    let defaults = DriverConfig::new("/unused");
    assert_eq!(
        fingerprint_text("pinned program text", &defaults),
        "dac970246aef870d"
    );
    let tuned = DriverConfig {
        tune: TuneMode::Simulated,
        smoke: true,
        top_k: 3,
        proxy: 0.5,
        workload: Some((vec![64, 64], 8)),
        ..DriverConfig::new("/unused")
    };
    assert_eq!(
        fingerprint_text("pinned program text", &tuned),
        "a78739c408d93881"
    );
}

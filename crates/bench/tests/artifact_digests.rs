//! `hybridc` end to end on `examples/stencils`, and the bytes it writes,
//! pinned.
//!
//! For each backend (cuda, hip, wgsl, cpu) on each device preset (gtx470,
//! nvs5200m) the real `hybridc` binary compiles the example directory with
//! verification on. Every file it writes under `--out` — the sources, the
//! auxiliary artifacts and the plan-cache entries — must hash to the digest
//! pinned in `golden/artifact_digests.txt`: a change to the generator, the
//! emitters or the tuner that moves one byte shows up here. The report
//! (which carries wall times) is written outside `--out` and not hashed.
//!
//! Beside the digests, the run makes the driver's smoke assertions: a
//! `--require-cached` recompile serves every plan from the cache, every
//! report names its backend and has no failure, each backend writes one
//! artifact per stencil with its extension, every compile is verified, and
//! the system C compiler accepts every `.cpu.c` (gtx470) as C99.
//!
//! On a digest mismatch the test prints the new table (and writes it to
//! the test binary's scratch directory).

use std::path::{Path, PathBuf};
use std::process::Command;

use hybrid_bench::json::Json;

const BACKENDS: [(&str, &str); 4] = [
    ("cuda", ".cu"),
    ("hip", ".hip.cpp"),
    ("wgsl", ".wgsl"),
    ("cpu", ".cpu.c"),
];

const DEVICES: [&str; 2] = ["gtx470", "nvs5200m"];

/// Runs `hybridc` with `args`, asserting it exits 0; returns its report.
fn hybridc(args: &[&str], report: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_hybridc"))
        .args(args)
        .arg("--report")
        .arg(report)
        .output()
        .expect("hybridc runs");
    assert!(
        out.status.success(),
        "hybridc {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(&std::fs::read_to_string(report).unwrap()).expect("the report is JSON")
}

/// Every file under `dir`, relative to it, sorted.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    out.sort();
    out
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts the system C compiler accepts `source` as C99 with `-Wall`.
fn cc_accepts(source: &PathBuf) {
    let status = Command::new("cc")
        .args(["-std=c99", "-Wall", "-c", "-o", "/dev/null"])
        .arg(source)
        .stderr(std::process::Stdio::null())
        .status()
        .expect("a C compiler on PATH");
    assert!(status.success(), "cc rejects {}", source.display());
}

/// The report's `summary.<key>`.
fn summary(report: &Json, key: &str) -> u64 {
    report
        .get("summary")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap()
}

#[test]
fn every_artifact_hybridc_writes_matches_its_pinned_digest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let examples = root.join("../../examples/stencils");
    let examples = examples.to_str().unwrap();
    let n = std::fs::read_dir(examples)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "stencil")
        })
        .count() as u64;
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("artifact_digests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let mut table = String::new();
    let (mut c_sources, mut cc_lanes) = (Vec::new(), Vec::new());
    for device in DEVICES {
        for (backend, extension) in BACKENDS {
            let out = scratch.join(format!("{device}-{backend}"));
            let report = scratch.join(format!("{device}-{backend}.json"));
            let out_str = out.to_str().unwrap();
            let mut args = vec![examples, "--out", out_str, "--device", device];
            args.extend(["--backend", backend]);
            if (device, backend) == ("gtx470", "cuda") {
                // The documented auto-detect contract, end to end.
                args.extend(["--threads", "0"]);
            }
            let first = hybridc(&args, &report);
            let what = format!("{device}/{backend}");
            assert_eq!(summary(&first, "failed"), 0, "{what}");
            assert_eq!(summary(&first, "compiled"), n, "{what}");
            let meta = first.get("meta").unwrap();
            assert_eq!(meta.get("backend").and_then(Json::as_str), Some(backend));
            let stencils = first.get("stencils").and_then(Json::as_arr).unwrap();
            assert!(
                stencils
                    .iter()
                    .all(|s| s.get("verified").and_then(Json::as_bool) == Some(true)),
                "{what}: a compile went unverified"
            );
            let written = files(&out);
            let artifacts: Vec<&PathBuf> = written
                .iter()
                .filter(|p| p.to_str().unwrap().ends_with(extension))
                .collect();
            assert_eq!(
                artifacts.len() as u64,
                n,
                "{what}: one {extension} per stencil"
            );
            if backend == "cpu" && device == "gtx470" {
                c_sources.extend(artifacts.iter().map(|a| out.join(a)));
                // The C compiler takes most of this test's time: two at a
                // time, beside the remaining `hybridc` runs.
                let half = c_sources.len().div_ceil(2);
                for chunk in c_sources.chunks(half) {
                    let chunk = chunk.to_vec();
                    cc_lanes.push(std::thread::spawn(move || {
                        chunk.iter().for_each(cc_accepts)
                    }));
                }
            }
            // Recompiling serves every plan from the cache.
            let mut cached_args = vec![examples, "--out", out_str, "--device", device];
            cached_args.extend(["--backend", backend, "--require-cached"]);
            let cached_report = scratch.join(format!("{device}-{backend}-cached.json"));
            let cached = hybridc(&cached_args, &cached_report);
            assert_eq!(summary(&cached, "cache_hits"), n, "{what}");
            assert_eq!(summary(&cached, "failed"), 0, "{what}");
            for file in written {
                let bytes = std::fs::read(out.join(&file)).unwrap();
                table += &format!(
                    "{what}/{} {} {:016x}\n",
                    file.display(),
                    bytes.len(),
                    fnv1a(&bytes)
                );
            }
        }
    }
    for lane in cc_lanes {
        lane.join().expect("cc accepts every .cpu.c");
    }
    let golden = root.join("tests/golden/artifact_digests.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if table != want {
        let fresh = scratch.join("artifact_digests.txt");
        std::fs::write(&fresh, &table).unwrap();
        panic!(
            "artifact bytes moved; new table (also in {}):\n{table}",
            fresh.display()
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

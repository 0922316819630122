//! Abort-freedom and determinism of the compile pipeline and the
//! `hybridd` serve surface.
//!
//! Property 1: `compile_source_with` on *mutated* DSL sources always
//! returns a structured [`DriverError`] or a verified outcome — it never
//! panics, whatever the mutation produced.
//!
//! Property 2: `FleetRouter::handle_line` on *malformed or mutated JSON
//! request lines* always answers with a structured response object — the
//! service never dies mid-protocol.
//!
//! Property 3 (determinism): N concurrent clients issuing the same
//! requests against one service receive reports bit-identical to the
//! one-shot `hybridc` driver's `--report` entries for the same inputs.
//!
//! The `hybridc serve` binary, end to end: two rounds of the example
//! stencils and a garbage line, queued at once behind six workers — round
//! 2 comes from memory and repeats round 1, the garbage is one typed error.
//!
//! The proptest stand-in generates deterministic inputs, so a failure
//! here reproduces with plain `cargo test`.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use hybrid_bench::driver::{
    collect_stencil_files, compile_file, compile_source_with, outcome_json, DriverConfig,
    PROVENANCE_FIELDS,
};
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::metrics::Id;
use proptest::prelude::*;

/// Valid seed programs the mutators start from (1-D and 2-D, constants,
/// multi-statement).
fn seeds() -> Vec<&'static str> {
    vec![
        "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    for (j = 1; j < N-1; j++)\n      A[t+1][i][j] = 0.25f * (A[t][i+1][j] + A[t][i-1][j] + A[t][i][j+1] + A[t][i][j-1]);\n",
        "const float w = 0.5f;\nfor (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    A[t+1][i] = w * (A[t][i-1] + A[t][i+1]);\n",
        "for (t = 0; t < T; t++) {\n  for (i = 1; i < N-1; i++)\n    ey[t+1][i] = ey[t][i] - 0.5f * (hz[t][i] - hz[t][i-1]);\n  for (i = 1; i < N-1; i++)\n    hz[t+1][i] = hz[t][i] - 0.7f * (ey[t+1][i+1] - ey[t+1][i]);\n}\n",
    ]
}

const POOL: &[u8] = b"()[]{}=+-*/;<>,#._ \n\t0123456789abtizANw\"@$%&?";

/// A one-device fleet — the service `hybridc serve` runs — around `cfg`.
fn one_device(cfg: DriverConfig) -> FleetRouter {
    FleetRouter::new(cfg, FleetOptions::default())
}

/// A scratch config that keeps property cases cheap: smoke sweep, no
/// oracle run, no disk cache (mutations would pollute one directory).
fn cheap_cfg(tag: &str) -> DriverConfig {
    let dir = std::env::temp_dir().join(format!("serve_robustness_{}_{}", std::process::id(), tag));
    DriverConfig {
        smoke: true,
        verify: false,
        cache_dir: None,
        ..DriverConfig::new(dir)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutated DSL through the full compile pipeline: typed error or
    /// outcome, never a panic, never a process abort.
    #[test]
    fn compile_of_mutated_sources_never_panics(
        seed in 0usize..3,
        kind in 0u8..3,
        pos_pick in 0usize..10_000,
        chr_pick in 0usize..POOL.len(),
    ) {
        let mut chars: Vec<char> = seeds()[seed].chars().collect();
        let pos = pos_pick % chars.len();
        let c = POOL[chr_pick] as char;
        match kind {
            0 => chars[pos] = c,
            1 => chars.insert(pos, c),
            _ => { chars.remove(pos); }
        }
        let mutated: String = chars.into_iter().collect();
        let cfg = cheap_cfg("mutated_dsl");
        let label = PathBuf::from("<prop>");
        let out = catch_unwind(AssertUnwindSafe(|| {
            compile_source_with("mutated", &mutated, &label, &cfg, None)
        }));
        // The property: the pipeline returned *some* Result. Both Ok and
        // every DriverError variant are legal; unwinding is not.
        prop_assert!(out.is_ok(), "compile panicked on mutation of seed {}", seed);
    }

    /// Mutated request lines against a live service: every non-blank line
    /// gets a response object with a seq and a status, and the router
    /// keeps serving afterwards.
    #[test]
    fn mutated_request_lines_always_get_structured_responses(
        kind in 0u8..3,
        pos_pick in 0usize..10_000,
        chr_pick in 0usize..POOL.len(),
    ) {
        let base = "{\"op\": \"compile\", \"name\": \"p\", \"program\": \"for (t = 0; t < T; t++)\\n  for (i = 1; i < N-1; i++)\\n    A[t+1][i] = A[t][i];\\n\", \"size\": [64], \"steps\": 4}";
        let mut chars: Vec<char> = base.chars().collect();
        let pos = pos_pick % chars.len();
        let c = POOL[chr_pick] as char;
        match kind {
            0 => chars[pos] = c,
            1 => chars.insert(pos, c),
            _ => { chars.remove(pos); }
        }
        let mutated: String = chars.into_iter().collect();
        let router = one_device(cheap_cfg("mutated_req"));
        let resp = catch_unwind(AssertUnwindSafe(|| router.handle_line(1, &mutated)));
        prop_assert!(resp.is_ok(), "handle_line panicked on {mutated:?}");
        if let Ok(Some(resp)) = resp {
            prop_assert_eq!(resp.get("seq").and_then(Json::as_u64), Some(1));
            let status = resp.get("status").and_then(Json::as_str);
            prop_assert!(
                matches!(status, Some("ok" | "error" | "alive" | "stopping")),
                "unexpected status in {:?}", resp
            );
        }
        // The service survived: a well-formed status request still works.
        let status = router.handle_line(2, "{\"op\": \"status\"}").unwrap();
        prop_assert_eq!(status.get("status").and_then(Json::as_str), Some("alive"));
    }

    /// Extreme client deadlines — `u64::MAX` downwards — must saturate
    /// instead of overflowing `Instant + Duration` and panicking the
    /// worker behind the containment barrier.
    #[test]
    fn extreme_deadlines_saturate_instead_of_panicking(
        shift in 0u32..24,
        sub in 0u32..4,
    ) {
        let ms = (u64::MAX >> shift).saturating_sub(u64::from(sub));
        let req = format!(
            "{{\"op\": \"compile\", \"name\": \"p\", \"program\": \"for (t = 0; t < T; t++)\\n  for (i = 1; i < N-1; i++)\\n    A[t+1][i] = A[t][i];\\n\", \"size\": [64], \"steps\": 4, \"deadline_ms\": {ms}}}"
        );
        let router = one_device(cheap_cfg("extreme_deadline"));
        let resp = router.handle_line(1, &req).unwrap();
        prop_assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "deadline_ms {} should be treated as far-future: {:?}", ms, resp
        );
        prop_assert_eq!(router.members()[0].1.get(Id::ContainedPanics), Some(0), "deadline_ms {} tripped the panic barrier", ms);
    }
}

/// N concurrent clients get bit-exact identical reports to the one-shot
/// driver: same per-stencil object (modulo the serve envelope and the
/// source label), across every client and against `compile_file`.
#[test]
fn concurrent_clients_match_one_shot_reports_bit_exactly() {
    let dir = std::env::temp_dir().join(format!("serve_concurrency_{}", std::process::id()));
    let stencil_dir = dir.join("stencils");
    std::fs::create_dir_all(&stencil_dir).unwrap();
    let jacobi = stencil_dir.join("jacobi.stencil");
    let heat = stencil_dir.join("heat1d.stencil");
    std::fs::write(&jacobi, seeds()[0]).unwrap();
    std::fs::write(&heat, seeds()[1]).unwrap();

    // Verification ON here: the equality claim covers the full pipeline.
    let cfg = DriverConfig {
        smoke: true,
        cache_dir: None,
        ..DriverConfig::new(dir.join("out"))
    };

    // One-shot reference entries, compiled through the plain driver (its
    // own fresh config, no shared state).
    let reference: Vec<Json> = [&jacobi, &heat]
        .iter()
        .map(|p| {
            let r = compile_file(p, &cfg);
            assert!(r.is_ok(), "{:?}", r.err().map(|e| e.to_string()));
            outcome_json(&p.display().to_string(), &r)
        })
        .collect();

    // Three clients fire the same path requests at one shared service.
    let router = one_device(cfg);
    let request = |path: &Path| {
        Json::obj(vec![
            ("op", Json::str("compile")),
            ("path", Json::str(path.display().to_string())),
        ])
        .render_compact()
    };
    let responses: Vec<Vec<Json>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|client| {
                let router = &router;
                let jacobi = &jacobi;
                let heat = &heat;
                s.spawn(move || {
                    [jacobi.as_path(), heat.as_path()]
                        .iter()
                        .enumerate()
                        .map(|(i, p)| {
                            router
                                .handle_line((client * 2 + i + 1) as u64, &request(p))
                                .unwrap()
                        })
                        .collect::<Vec<Json>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Strip the serve envelope and cache provenance: `v`/`seq` frame the
    // wire, and which client won the single-flight race (and therefore
    // ran the sweep, `examined > 0`) is the only thing legitimately
    // differing between clients and the one-shot run.
    let strip = |v: &Json| -> Json {
        match v {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .filter(|(k, _)| {
                        !matches!(k.as_str(), "v" | "seq" | "id")
                            && !PROVENANCE_FIELDS.contains(&k.as_str())
                    })
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        }
    };

    for (c, client) in responses.iter().enumerate() {
        for (i, resp) in client.iter().enumerate() {
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "client {c} request {i}: {resp:?}"
            );
            assert_eq!(
                strip(resp).render(),
                strip(&reference[i]).render(),
                "client {c} request {i} diverged from the one-shot report"
            );
        }
    }
    // The shared cache did its job: 2 distinct stencils, 6 requests —
    // the 4 non-tuners were immediate hits or coalesced single-flight
    // waits, depending on scheduling.
    let member = router.members()[0].1.clone();
    let mem = member.mem();
    assert_eq!(mem.get(Id::MemMisses), 2);
    assert_eq!(mem.get(Id::MemHits) + mem.get(Id::MemCoalesced), 4);
    assert_eq!(mem.get(Id::MemLookups), 6);
}

/// A connection's descriptors are released when it closes: 300
/// connect → `status` → close rounds leave the process's open-descriptor
/// count where it was (the accept loop used to keep one "watch" clone per
/// connection ever served, until `accept` failed with `EMFILE` and took
/// the service down).
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    use hybrid_bench::serve::{serve_unix, SchedPolicy};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};

    let dir = std::env::temp_dir().join(format!("serve_fd_leak_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("hybridd.sock");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).unwrap();
    let router = one_device(cheap_cfg("fd_leak"));
    let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let round_trip = |request: &str| {
        let mut stream = UnixStream::connect(&socket).unwrap();
        writeln!(stream, "{request}").unwrap();
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).unwrap();
        Json::parse(&line).unwrap()
    };
    // Other tests of this binary open and close files concurrently, so
    // the count is compared with slack — far below one per connection.
    const ROUNDS: usize = 300;
    const SLACK: usize = 40;

    std::thread::scope(|s| {
        let server = s.spawn(|| serve_unix(&router, listener, 1, SchedPolicy::default()));
        // The first connection settles lazily created descriptors.
        round_trip("{\"op\":\"status\"}");
        let baseline = open_fds();
        for _ in 0..ROUNDS {
            let status = round_trip("{\"op\":\"status\"}");
            assert_eq!(status.get("status").and_then(Json::as_str), Some("alive"));
        }
        // A connection's thread drops its handles just after the client
        // sees EOF; give the last few a moment.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while open_fds() > baseline + SLACK && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let after = open_fds();
        round_trip("{\"op\":\"shutdown\"}");
        server.join().unwrap().unwrap();
        assert!(
            after <= baseline + SLACK,
            "{ROUNDS} closed connections left {after} open descriptors (baseline {baseline})"
        );
    });
}

/// The rejection boundary over the wire: a 3-D program whose neighbours in
/// both classical dimensions sit `MAX_OFFSET` away is refused with the
/// typed `no_feasible_tiling` error — every candidate schedulable, every
/// one far over shared memory, counted without an allocation the size of
/// the offsets — and the connection serves the next request.
#[cfg(unix)]
#[test]
fn far_apart_offsets_are_a_typed_refusal_and_the_connection_lives_on() {
    use hybrid_bench::serve::{serve_unix, SchedPolicy};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};

    let dir = std::env::temp_dir().join(format!("serve_far_offsets_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("hybridd.sock");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).unwrap();
    let router = one_device(cheap_cfg("far_offsets"));
    let far = "for (t = 0; t < T; t++)\\n for (i = 1; i < N-1; i++)\\n  for (j = 1; j < N-1; j++)\\n   \
               for (k = 1; k < N-1; k++)\\n    A[t+1][i][j][k] = 0.1f * (A[t][i][j][k] + A[t][i+1][j][k] \
               + A[t][i-1][j][k] + A[t][i][j+1000000][k] + A[t][i][j-1000000][k] \
               + A[t][i][j][k+1000000] + A[t][i][j][k-1000000]);\\n";
    let near = "for (t = 0; t < T; t++)\\n for (i = 1; i < N-1; i++)\\n  A[t+1][i] = 0.5f * (A[t][i-1] + A[t][i+1]);\\n";

    std::thread::scope(|s| {
        let server = s.spawn(|| serve_unix(&router, listener, 1, SchedPolicy::default()));
        let mut stream = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut round_trip = |request: String| {
            writeln!(stream, "{request}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(&line).unwrap()
        };

        // The full 48-point 3-D space, not the smoke one.
        let refused = round_trip(format!(
            "{{\"op\":\"compile\",\"id\":\"far\",\"name\":\"far3d\",\"smoke\":false,\"program\":\"{far}\"}}"
        ));
        assert_eq!(refused.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            refused.get("error_kind").and_then(Json::as_str),
            Some("no_feasible_tiling"),
            "{refused:?}"
        );
        let message = refused.get("error").and_then(Json::as_str).unwrap();
        assert!(
            message.contains("48 candidates examined (0 unschedulable, 48 over shared memory"),
            "{message}"
        );

        let served = round_trip(format!(
            "{{\"op\":\"compile\",\"id\":\"near\",\"name\":\"near1d\",\"size\":[64],\"steps\":4,\"program\":\"{near}\"}}"
        ));
        assert_eq!(
            served.get("status").and_then(Json::as_str),
            Some("ok"),
            "{served:?}"
        );
        let status = round_trip("{\"op\":\"status\"}".to_string());
        assert_eq!(
            status.get("contained_panics").and_then(Json::as_u64),
            Some(0)
        );
        round_trip("{\"op\":\"shutdown\"}".to_string());
        server.join().unwrap().unwrap();
    });
    assert_eq!(router.members()[0].1.get(Id::ContainedPanics), Some(0));
}

/// One `hybridc serve --workers 6 --smoke --no-cache` process gets, all at
/// once on stdin, a compile per example stencil (`r1-<i>`), a line that is
/// not JSON, the same compiles again (`r2-<i>`) and a `status`. Round 1
/// tunes every program; round 2 is answered entirely from the memory cache
/// — single-flight guarantees it although every request is queued at once
/// — and repeats round 1's responses once the envelope and
/// `PROVENANCE_FIELDS` are set aside. The garbage line is one typed
/// `bad_request` error (its full text is pinned in
/// `tests/golden/protocol.ndjson`), and the service keeps answering: every
/// later response is there and the process exits 0. That a hit writes and
/// executes nothing is `mem_outcome_cache.rs`'s to show; here `status`
/// only confirms that no hit re-executed.
#[test]
fn hybridd_serves_round_two_from_memory_and_contains_a_garbage_line() {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
    let examples = collect_stencil_files(&examples).unwrap();
    let n = examples.len();
    let round = |r: usize| -> String {
        let line = |(i, path): (usize, &PathBuf)| {
            let id = format!("r{r}-{}", i + 1);
            let path = path.display().to_string();
            let request = [("op", Json::str("compile")), ("id", Json::str(id))];
            Json::obj([&request[..], &[("path", Json::str(path))]].concat()).render_compact() + "\n"
        };
        examples.iter().enumerate().map(line).collect()
    };
    let stream = format!(
        "{}this is not json\n{}{{\"op\":\"status\",\"id\":\"st\"}}\n",
        round(1),
        round(2)
    );
    let out = std::env::temp_dir().join(format!("hybridd_smoke_{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_hybridc"))
        .args(["serve", "--workers", "6", "--smoke", "--no-cache", "--out"])
        .arg(&out)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(stream.as_bytes()).unwrap();
    drop(stdin);
    let done = child.wait_with_output().unwrap();
    let _ = std::fs::remove_dir_all(&out);
    let text = String::from_utf8(done.stdout).unwrap();
    let log = String::from_utf8_lossy(&done.stderr);
    assert!(
        done.status.success(),
        "hybridc serve failed:\n{log}\n{text}"
    );
    let responses: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(responses.len(), 2 * n + 2, "{text}");
    let str_of = |r: &Json, key| r.get(key).and_then(Json::as_str).map(str::to_string);
    let count = |key, value: &str| {
        let matching = |r: &&Json| str_of(r, key).as_deref() == Some(value);
        responses.iter().filter(matching).count()
    };
    assert_eq!(count("cache", "miss"), n, "round 1 tunes: {text}");
    assert_eq!(count("cache", "mem"), n, "round 2 is memory hits: {text}");
    assert_eq!(count("status", "error"), 1, "{text}");
    assert_eq!(count("error_kind", "bad_request"), 1, "{text}");
    assert_eq!(count("status", "ok"), 2 * n, "{text}");
    let verified = |r: &&Json| r.get("verified") == Some(&Json::Bool(true));
    assert_eq!(responses.iter().filter(verified).count(), 2 * n, "{text}");
    let status = responses
        .iter()
        .find(|r| str_of(r, "id").as_deref() == Some("st"));
    let status = status.expect("a status response");
    assert_eq!(str_of(status, "status").as_deref(), Some("alive"));
    assert_eq!(status.get("mem_reexecuted").and_then(Json::as_u64), Some(0));

    // Round `r`'s compile responses by example number, without the
    // envelope and the provenance fields.
    let normalized = |r: usize| -> BTreeMap<String, String> {
        let prefix = format!("r{r}-");
        let mut by_example = BTreeMap::new();
        for response in &responses {
            let Json::Obj(pairs) = response else {
                panic!("a response is an object: {response:?}");
            };
            let Some(example) =
                str_of(response, "id").and_then(|id| id.strip_prefix(&prefix).map(str::to_string))
            else {
                continue;
            };
            let kept = pairs.iter().filter(|(k, _)| {
                !matches!(k.as_str(), "seq" | "id") && !PROVENANCE_FIELDS.contains(&k.as_str())
            });
            by_example.insert(example, Json::Obj(kept.cloned().collect()).render_compact());
        }
        by_example
    };
    let first = normalized(1);
    assert_eq!(first.len(), n);
    assert_eq!(first, normalized(2));
}

//! Golden snapshots of the `status` op — a one-device and a two-member
//! fleet — after a scripted session through the real TCP transport
//! (secret-gated, so the auth counters move too).
//!
//! `tests/golden/status_{single,fleet}.json` pin every key, the key
//! order and every value of the response. The client is lockstep (one
//! request, wait for its response), so every counter — including queue
//! depth and the deadline miss — is deterministic. The only fields a
//! wall clock can move (`uptime_ms`, `tune_wall_ms`, `hit_age_p50_ms`)
//! are zeroed before comparing; `null` stays `null`.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p hybrid_bench --test
//! status_golden` — and expect to justify the diff: `status` is API.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use hybrid_bench::driver::DriverConfig;
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::serve::{serve_tcp_with, SchedPolicy};

const JACOBI_1D: &str =
    "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    A[t+1][i] = 0.33f * (A[t][i-1] + A[t][i] + A[t][i+1]);\n";

const SECRET: &str = "s3cret";

fn cheap_cfg(tag: &str) -> DriverConfig {
    let dir = std::env::temp_dir().join(format!("status_golden_{}_{}", std::process::id(), tag));
    DriverConfig {
        smoke: true,
        verify: false,
        cache_dir: None,
        ..DriverConfig::new(dir)
    }
}

fn compile(id: &str, extra: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![
        ("op", Json::str("compile")),
        ("id", Json::str(id)),
        ("program", Json::str(JACOBI_1D)),
    ];
    pairs.extend(extra);
    Json::obj(pairs).render_compact()
}

/// Serves `router` on a loopback port, plays `script` lockstep over one
/// connection, and returns the response to a final `status` request with
/// the wall-clock fields zeroed.
fn status_after(router: &FleetRouter, script: &[String]) -> Json {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| serve_tcp_with(router, listener, 1, SchedPolicy::Edf, Some(SECRET)));
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut ask = |line: &str| -> Json {
            writeln!(writer, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            Json::parse(response.trim()).unwrap()
        };
        // One rejected op, one wrong secret, one accepted handshake.
        ask(r#"{"op":"status"}"#);
        ask(r#"{"op":"hello","secret":"wrong"}"#);
        ask(&format!(r#"{{"op":"hello","secret":"{SECRET}"}}"#));
        for line in script {
            ask(line);
        }
        let status = ask(r#"{"op":"status","id":"golden"}"#);
        ask(r#"{"op":"shutdown"}"#);
        server.join().unwrap().unwrap();
        zero_clocks(status)
    })
}

fn zero_clocks(v: Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    let clock =
                        matches!(k.as_str(), "uptime_ms" | "tune_wall_ms" | "hit_age_p50_ms");
                    let v = match v {
                        Json::UInt(_) if clock => Json::UInt(0),
                        other => zero_clocks(other),
                    };
                    (k, v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(zero_clocks).collect()),
        other => other,
    }
}

fn check_golden(name: &str, status: &Json) {
    let rendered = format!("{}\n", status.render());
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        rendered, golden,
        "status drifted from tests/golden/{name} (keys, order or values)"
    );
}

#[test]
fn single_device_status_matches_the_golden() {
    let router = FleetRouter::new(
        cheap_cfg("single"),
        FleetOptions {
            mem_cap_bytes: Some(1 << 20),
            default_deadline_ms: Some(60_000),
            ..FleetOptions::default()
        },
    );
    let script = [
        compile("miss", vec![]),
        compile("hit", vec![]),
        compile("wgsl", vec![("backend", Json::str("wgsl"))]),
        "not json".to_string(),
        r#"{"op":"nope"}"#.to_string(),
        // Expired on arrival: a typed error and a deadline miss.
        compile("late", vec![("deadline_ms", Json::UInt(0))]),
        // A shortlist + ladder sweep: tune and proxy simulations.
        compile(
            "tuned",
            vec![
                ("tune", Json::str("simulated")),
                ("top_k", Json::UInt(3)),
                ("proxy", Json::Num(0.5)),
            ],
        ),
        r#"{"op":"cancel","target":"nobody"}"#.to_string(),
    ];
    check_golden("status_single.json", &status_after(&router, &script));
}

#[test]
fn two_member_fleet_status_matches_the_golden() {
    let router = FleetRouter::new(
        cheap_cfg("fleet"),
        FleetOptions {
            mem_cap_bytes: Some(1 << 20),
            max_devices: 2,
            default_deadline_ms: None,
        },
    );
    let script = [
        compile("g1", vec![]),
        // A second member, warm-started from the first one's plan.
        compile("n1", vec![("device", Json::str("nvs5200m"))]),
        compile("g2", vec![]),
        compile(
            "n2",
            vec![
                ("device", Json::str("nvs5200m")),
                ("backend", Json::str("cpu")),
            ],
        ),
        // Router-level answers: a third device is refused, a bad
        // version is rejected, a status is served.
        compile(
            "full",
            vec![(
                "device",
                Json::obj(vec![("base", Json::str("gtx470")), ("sms", Json::UInt(7))]),
            )],
        ),
        r#"{"v":9,"op":"status"}"#.to_string(),
        r#"{"op":"status"}"#.to_string(),
        // Answered by the default member.
        "not json".to_string(),
        compile("late", vec![("deadline_ms", Json::UInt(0))]),
    ];
    check_golden("status_fleet.json", &status_after(&router, &script));
}

#[test]
fn sched_fifo_is_reported_once_at_the_top_level() {
    // `hybridc serve --sched fifo` on stdin: the router's loop runs the
    // FIFO queue, so the fleet's top level says so, and no per-device
    // entry carries a service row of its own.
    let out = std::env::temp_dir().join(format!("status_fifo_{}", std::process::id()));
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hybridc"))
        .args(["serve", "--sched", "fifo", "--no-cache", "--out"])
        .arg(&out)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        "{}",
        compile("c1", vec![("verify", Json::Bool(false))])
    )
    .unwrap();
    writeln!(stdin, r#"{{"op":"status"}}"#).unwrap();
    drop(stdin);
    let done = child.wait_with_output().unwrap();
    let _ = std::fs::remove_dir_all(&out);
    assert!(done.status.success());
    let text = String::from_utf8(done.stdout).unwrap();
    let status = Json::parse(text.lines().nth(1).expect("two responses")).unwrap();
    assert_eq!(
        status.get("sched_policy").and_then(Json::as_str),
        Some("fifo"),
        "{text}"
    );
    let devices = status.get("devices").and_then(Json::as_arr).unwrap();
    assert!(!devices.is_empty(), "{text}");
    for device in devices {
        for key in [
            "sched_policy",
            "queue_depth_peak",
            "deadline_misses",
            "auth_ok",
        ] {
            assert!(device.get(key).is_none(), "devices[] carries {key}: {text}");
        }
    }
}

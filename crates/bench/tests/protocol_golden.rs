//! Golden transcript of the wire protocol's rejection paths: every typed
//! error a request line can earn before (or instead of) a compile, played
//! through the real transports against a [`FleetRouter`] the way
//! `hybridc serve` builds it.
//!
//! Three sessions, each lockstep (one request, wait for its response) on
//! one worker, so every response and counter is deterministic:
//!
//! * TCP with a secret: ops before `hello`, a wrong secret, a `hello` of
//!   another version, the accepted `hello`, then the error script;
//! * a unix socket (no handshake): the error script, and a `hello`,
//!   which only TCP answers;
//! * TCP without a secret, where `hello` is accepted unconditionally.
//!
//! Each session ends with a `status`, so the golden also pins which
//! counter every error lands in (the router's own or the default
//! member's). `tests/golden/protocol.ndjson` holds one
//! `{"session", "request", "response"}` object per exchange, wall-clock
//! fields zeroed.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p hybrid_bench --test
//! protocol_golden` — and expect to justify the diff: the protocol is
//! API.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use hybrid_bench::driver::DriverConfig;
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::serve::{serve_tcp_with, SchedPolicy};

const SECRET: &str = "s3cret";

const HEAT_1D: &str = "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    A[t+1][i] = 0.5f * (A[t][i-1] + A[t][i+1]);\n";

/// A one-member fleet whose cap is already reached: a compile naming any
/// other device is validated and then refused as `fleet_full`.
fn router(tag: &str) -> FleetRouter {
    let dir = std::env::temp_dir().join(format!("protocol_golden_{}_{}", std::process::id(), tag));
    let cfg = DriverConfig {
        smoke: true,
        verify: false,
        cache_dir: None,
        ..DriverConfig::new(dir)
    };
    FleetRouter::new(
        cfg,
        FleetOptions {
            max_devices: 1,
            ..FleetOptions::default()
        },
    )
}

/// A compile with `extra` fields. Its program is never parsed: every
/// such line is rejected or refused first.
fn compile(id: &str, extra: &[(&str, &str)]) -> String {
    let mut line = format!(
        r#"{{"op":"compile","id":{},"program":"x""#,
        Json::str(id).render_compact()
    );
    for (key, value) in extra {
        line.push_str(&format!(r#","{key}":{value}"#));
    }
    line.push('}');
    line
}

/// Every rejection a line can earn once a connection may speak: envelope
/// and op errors, each request field's error, each device field's error,
/// and the compile-source errors.
fn error_script() -> Vec<String> {
    let mut script: Vec<String> = [
        "not json",
        r#"{"id":"no-op"}"#,
        r#"{"op":5,"id":"op-not-a-string"}"#,
        r#"{"op":"frobnicate","id":"unknown-op"}"#,
        r#"{"v":9,"op":"compile","id":"v9-compile","program":"x"}"#,
        r#"{"v":9,"op":"status","id":"v9-status"}"#,
        r#"{"v":9,"op":"metrics","id":"v9-metrics"}"#,
        r#"{"v":9,"op":"cancel","id":"v9-cancel","target":"x"}"#,
        r#"{"v":9,"op":"shutdown","id":"v9-shutdown"}"#,
        r#"{"v":9,"op":"frobnicate","id":"v9-unknown"}"#,
        r#"{"v":9,"id":"v9-no-op"}"#,
        r#"{"v":"1","op":"status","id":"v-string"}"#,
        r#"{"v":1,"op":"cancel","id":"cancel-no-target"}"#,
        r#"{"op":"cancel","id":"cancel-nobody","target":"nobody"}"#,
        r#"{"op":"compile","id":"no-source"}"#,
        r#"{"op":"compile","id":"both-sources","program":"x","path":"y"}"#,
        r#"{"op":"compile","id":"program-not-a-string","program":5}"#,
        r#"{"op":"compile","id":"path-not-a-string","path":5}"#,
        r#"{"op":"compile","id":"name-not-a-string","program":"x","name":5}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Field errors, first against the default device (a member exists,
    // so it answers) and then against a device no member serves yet (the
    // router validates before it would spend a device slot).
    let fields: &[(&str, &str)] = &[
        ("backend", "5"),
        ("backend", r#""metal""#),
        ("smem", "5"),
        ("smem", r#""reuse_dynamite""#),
        ("tune", "5"),
        ("tune", r#""psychic""#),
        ("smoke", r#""yes""#),
        ("verify", "1"),
        ("size", "64"),
        ("size", "[64,0]"),
        ("size", "[64]"),
        ("steps", "4"),
        ("steps", "0"),
        ("top_k", "-1"),
        ("tune_workers", "1.5"),
        ("proxy", r#""half""#),
        ("proxy", "0"),
        ("proxy", "1.5"),
        ("deadline_ms", r#""soon""#),
        ("deadline_ms", "-1"),
    ];
    for (device_tag, device) in [("default", None), ("fresh", Some(r#"{"sms":7}"#))] {
        for (key, value) in fields {
            let mut extra = vec![(*key, *value)];
            extra.extend(device.map(|d| ("device", d)));
            script.push(compile(&format!("{device_tag}-{key}-{value}"), &extra));
        }
    }
    for device in [
        "5",
        r#""tpu""#,
        r#"{"base":5}"#,
        r#"{"base":"tpu"}"#,
        r#"{"name":5}"#,
        r#"{"vendor":5}"#,
        r#"{"sms":0}"#,
        r#"{"cores_per_sm":-1}"#,
        r#"{"clock_ghz":0}"#,
        r#"{"dram_gbps":"fast"}"#,
        r#"{"l2_gbps":-1}"#,
        r#"{"l2_bytes":0}"#,
        r#"{"shared_limit":1.5}"#,
        r#"{"launch_overhead_s":-1}"#,
        r#"{"shred_limit":1}"#,
    ] {
        script.push(compile(&format!("device-{device}"), &[("device", device)]));
    }
    // A valid compile for a second device: the fleet is full.
    script.push(compile("full", &[("device", r#""nvs5200m""#)]));
    // Expired on arrival: the member's typed error and a deadline miss.
    script.push(format!(
        r#"{{"op":"compile","id":"late","program":{},"deadline_ms":0}}"#,
        Json::str(HEAT_1D).render_compact()
    ));
    script
}

/// Plays `script` lockstep over one connection (its two halves) and
/// records each exchange.
fn play(
    session: &str,
    mut writer: impl Write,
    reader: impl std::io::Read,
    script: &[String],
) -> Vec<Json> {
    let mut reader = BufReader::new(reader);
    script
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            Json::obj(vec![
                ("session", Json::str(session)),
                ("request", Json::str(line.as_str())),
                (
                    "response",
                    zero_clocks(Json::parse(response.trim()).unwrap()),
                ),
            ])
        })
        .collect()
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

/// A TCP session against a fresh router, with or without a secret.
fn tcp_session(session: &str, secret: Option<&str>, script: &[String]) -> Vec<Json> {
    let router = router(session);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp_with(&router, listener, 1, SchedPolicy::Edf, secret));
        let stream = TcpStream::connect(addr).unwrap();
        let read_half = stream.try_clone().unwrap();
        let exchanges = play(session, stream, read_half, script);
        router.request_stop();
        server.join().unwrap().unwrap();
        exchanges
    })
}

#[cfg(unix)]
fn unix_session(session: &str, script: &[String]) -> Vec<Json> {
    use hybrid_bench::serve::serve_unix;
    use std::os::unix::net::{UnixListener, UnixStream};
    let router = router(session);
    let dir = std::env::temp_dir().join(format!("protocol_golden_{}_sock", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("hybridd.sock");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_unix(&router, listener, 1, SchedPolicy::Edf));
        let stream = UnixStream::connect(&socket).unwrap();
        let read_half = stream.try_clone().unwrap();
        let exchanges = play(session, stream, read_half, script);
        router.request_stop();
        server.join().unwrap().unwrap();
        exchanges
    })
}

const STATUS: &str = r#"{"op":"status","id":"final"}"#;

#[cfg(unix)]
#[test]
fn protocol_transcript_matches_the_golden() {
    let mut tcp_script: Vec<String> = vec![
        r#"{"op":"status","id":"before-hello"}"#.to_string(),
        "not json".to_string(),
        r#"{"op":"compile","id":"compile-before-hello","program":"x","deadline_ms":0}"#.to_string(),
        r#"{"op":"hello","id":"wrong","secret":"wrong"}"#.to_string(),
        r#"{"op":"hello","id":"no-secret"}"#.to_string(),
        format!(r#"{{"v":9,"op":"hello","id":"v9-hello","secret":"{SECRET}"}}"#),
        format!(r#"{{"op":"hello","id":"hello","secret":"{SECRET}"}}"#),
    ];
    tcp_script.extend(error_script());
    tcp_script.push(STATUS.to_string());

    let mut unix_script = error_script();
    unix_script.push(format!(
        r#"{{"op":"hello","id":"hello","secret":"{SECRET}"}}"#
    ));
    unix_script.push(STATUS.to_string());

    let open_script: Vec<String> = [
        r#"{"op":"status","id":"before-hello"}"#,
        r#"{"v":9,"op":"hello","id":"v9-hello"}"#,
        r#"{"op":"hello","id":"hello","secret":"anything"}"#,
        STATUS,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let exchanges = [
        tcp_session("tcp-secret", Some(SECRET), &tcp_script),
        unix_session("unix", &unix_script),
        tcp_session("tcp-open", None, &open_script),
    ]
    .concat();
    let rendered: String = exchanges
        .iter()
        .map(|e| format!("{}\n", e.render_compact()))
        .collect();
    let path = format!(
        "{}/tests/golden/protocol.ndjson",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "exchange {} drifted from the golden", i + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "exchange count drifted from the golden"
    );
}

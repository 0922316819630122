//! `hybridload` — load generator for the resident compile service.
//!
//! Replays a synthetic mixed-deadline workload (a checked-in scenario
//! JSON) against a running `hybridc serve` process over TCP or a unix
//! socket, measures client-side latency per request, pulls the server's
//! own scheduling counters, and appends one run record to
//! `BENCH_load.json`. CI runs it twice — `--sched fifo` vs `--sched
//! edf` on the server side — and asserts the EDF run misses no more
//! deadlines than the FIFO run.
//!
//! ```text
//! hybridload --connect ADDR | --connect-unix PATH [options]
//! hybridload --check-metrics FILE
//!
//!   --connect ADDR        TCP address of the serving process
//!   --connect-unix PATH   unix socket of the serving process
//!   --secret S            shared secret for the TCP hello handshake
//!                         (default $HYBRID_SECRET)
//!   --scenario FILE       workload description (default
//!                         examples/load/scenario.json)
//!   --label NAME          run label recorded in the output (e.g. "edf")
//!   --out FILE            output JSON (default BENCH_load.json)
//!   --append              append to --out's runs instead of truncating
//!   --shutdown            send a shutdown op after the run
//!   --check-metrics FILE  standalone: validate FILE as Prometheus text
//!                         exposition format whose families and types
//!                         are the registry's (`bench::metrics`), and exit
//! ```
//!
//! ## Scenario format
//!
//! ```json
//! {"repeat": 8,
//!  "requests": [
//!    {"name": "heavy{i}", "program": "...", "tune": "simulated"},
//!    {"name": "light", "path": "examples/stencils/jacobi2d.stencil",
//!     "smoke": true, "deadline_ms": 2000}]}
//! ```
//!
//! Each round expands every template in order; `{i}` in `name`/`program`
//! is replaced with the round number, so heavies become distinct
//! programs (cache-busting) while lights stay identical (cache-friendly).
//! All fields besides `name`/`program`/`path` are passed through to the
//! `compile` request verbatim. All requests are pipelined up front: the
//! server's queue is deep when the lights arrive, which is exactly the
//! regime where EDF and FIFO differ.
//!
//! A request counts as a **deadline miss** when it carried `deadline_ms`
//! and either came back `deadline_exceeded` or its client-observed
//! latency exceeded the deadline. The run record carries both this
//! client-side count and the server's own `deadline_misses` counter.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

use hybrid_bench::json::Json;
use hybrid_bench::metrics::check_scrape;

struct Args {
    connect: Option<String>,
    connect_unix: Option<PathBuf>,
    secret: Option<String>,
    scenario: PathBuf,
    label: String,
    out: PathBuf,
    append: bool,
    shutdown: bool,
    check_metrics: Option<PathBuf>,
}

fn fail(msg: &str) -> ! {
    eprintln!("hybridload: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!(
        "usage: hybridload (--connect ADDR | --connect-unix PATH) [--secret S] \
         [--scenario FILE] [--label NAME] [--out FILE] [--append] [--shutdown]\n\
         \n\
         hybridload --check-metrics FILE   (validate a Prometheus scrape and exit)"
    );
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut args = Args {
        connect: None,
        connect_unix: None,
        secret: None,
        scenario: PathBuf::from("examples/load/scenario.json"),
        label: "run".to_string(),
        out: PathBuf::from("BENCH_load.json"),
        append: false,
        shutdown: false,
        check_metrics: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--connect" => args.connect = Some(value("--connect")),
            "--connect-unix" => args.connect_unix = Some(PathBuf::from(value("--connect-unix"))),
            "--secret" => args.secret = Some(value("--secret")),
            "--scenario" => args.scenario = PathBuf::from(value("--scenario")),
            "--label" => args.label = value("--label"),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--append" => args.append = true,
            "--shutdown" => args.shutdown = true,
            "--check-metrics" => args.check_metrics = Some(PathBuf::from(value("--check-metrics"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    if args.secret.is_none() {
        args.secret = std::env::var("HYBRID_SECRET")
            .ok()
            .filter(|s| !s.is_empty());
    }
    if args.check_metrics.is_none() && args.connect.is_none() && args.connect_unix.is_none() {
        usage();
    }
    args
}

/// One expanded request: the wire line (sans trailing newline), its id,
/// and the deadline it promised (for client-side miss accounting).
struct Spec {
    id: String,
    line: String,
    deadline_ms: Option<u64>,
}

/// Expands the scenario into the pipelined request list.
fn expand_scenario(doc: &Json) -> Result<Vec<Spec>, String> {
    let repeat = match doc.get("repeat") {
        None => 1,
        Some(r) => r
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or("\"repeat\" must be a positive integer")?,
    };
    let templates = doc
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or("scenario needs a \"requests\" array")?;
    let mut specs = Vec::new();
    for i in 0..repeat {
        for (t_idx, t) in templates.iter().enumerate() {
            let Json::Obj(pairs) = t else {
                return Err(format!("requests[{t_idx}] is not an object"));
            };
            let id = format!("r{}", specs.len());
            let mut out = vec![
                ("op".to_string(), Json::str("compile")),
                ("id".to_string(), Json::str(&id)),
            ];
            let mut deadline_ms = None;
            for (k, v) in pairs {
                if k == "deadline_ms" {
                    deadline_ms = v.as_u64();
                }
                // `{i}` in string fields becomes the round number, so
                // `heavy{i}` programs are distinct per round.
                let v = match v {
                    Json::Str(s) if s.contains("{i}") => {
                        Json::Str(s.replace("{i}", &i.to_string()))
                    }
                    other => other.clone(),
                };
                out.push((k.clone(), v));
            }
            specs.push(Spec {
                id,
                line: Json::Obj(out).render_compact(),
                deadline_ms,
            });
        }
    }
    Ok(specs)
}

/// Index `round(q * (len-1))` of a sorted slice.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted_ms.len() - 1) as f64;
    sorted_ms[pos.round() as usize]
}

/// Sends `line` + newline and flushes.
fn send(w: &mut dyn Write, line: &str) {
    let mut buf = line.to_string();
    buf.push('\n');
    if let Err(e) = w.write_all(buf.as_bytes()).and_then(|_| w.flush()) {
        fail(&format!("send failed: {e}"));
    }
}

/// Reads response lines until one matches `want_id`; non-matching lines
/// are handed to `other`.
fn read_until_id(r: &mut dyn BufRead, want_id: &str, mut other: impl FnMut(&Json)) -> Json {
    loop {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => fail(&format!("connection closed while waiting for {want_id:?}")),
            Ok(_) => {}
            Err(e) => fail(&format!("read failed: {e}")),
        }
        if line.trim().is_empty() {
            continue;
        }
        let resp = Json::parse(line.trim())
            .unwrap_or_else(|e| fail(&format!("malformed response line: {e}")));
        if resp.get("id").and_then(Json::as_str) == Some(want_id) {
            return resp;
        }
        other(&resp);
    }
}

fn check_metrics(path: &PathBuf) -> ! {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    match check_scrape(&text) {
        Ok(samples) if samples.is_empty() => fail("metrics snapshot parses but has no samples"),
        Ok(samples) => {
            println!(
                "hybridload: {} parses as text exposition format and matches the registry ({} samples)",
                path.display(),
                samples.len()
            );
            std::process::exit(0);
        }
        Err(e) => fail(&format!(
            "{} is not a valid scrape of this service: {e}",
            path.display()
        )),
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check_metrics {
        check_metrics(path);
    }

    let scenario_text = std::fs::read_to_string(&args.scenario)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", args.scenario.display())));
    let scenario = Json::parse(&scenario_text)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", args.scenario.display())));
    let specs = expand_scenario(&scenario).unwrap_or_else(|e| fail(&e));
    if specs.is_empty() {
        fail("scenario expands to zero requests");
    }

    // Connect. Write and read halves of one stream; TCP additionally
    // performs the hello handshake *and waits for its response* before
    // any workload is pipelined (responses are unordered, so a racing
    // hello could lose to a compile).
    let (mut w, mut r): (Box<dyn Write>, BufReader<Box<dyn Read>>) =
        match (&args.connect, &args.connect_unix) {
            (Some(addr), None) => {
                let stream = TcpStream::connect(addr)
                    .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
                let read_half = stream
                    .try_clone()
                    .unwrap_or_else(|e| fail(&format!("cannot clone stream: {e}")));
                (Box::new(stream), BufReader::new(Box::new(read_half)))
            }
            (None, Some(path)) => {
                let stream = std::os::unix::net::UnixStream::connect(path).unwrap_or_else(|e| {
                    fail(&format!("cannot connect to {}: {e}", path.display()))
                });
                let read_half = stream
                    .try_clone()
                    .unwrap_or_else(|e| fail(&format!("cannot clone stream: {e}")));
                (Box::new(stream), BufReader::new(Box::new(read_half)))
            }
            _ => fail("give exactly one of --connect or --connect-unix"),
        };
    if args.connect.is_some() {
        let hello = match &args.secret {
            Some(s) => Json::obj(vec![
                ("op", Json::str("hello")),
                ("id", Json::str("__hello")),
                ("secret", Json::str(s)),
            ]),
            None => Json::obj(vec![
                ("op", Json::str("hello")),
                ("id", Json::str("__hello")),
            ]),
        };
        send(&mut w, &hello.render_compact());
        let resp = read_until_id(&mut r, "__hello", |_| {});
        if resp.get("authenticated") != Some(&Json::Bool(true)) {
            fail(&format!(
                "hello handshake failed: {}",
                resp.render_compact()
            ));
        }
    }

    // Pipeline the whole workload, timestamping each send.
    let started = Instant::now();
    let mut sent_at: HashMap<String, Instant> = HashMap::new();
    for spec in &specs {
        sent_at.insert(spec.id.clone(), Instant::now());
        send(&mut w, &spec.line);
    }

    // Collect every response (unordered; match by id).
    struct Outcome {
        latency_ms: f64,
        ok: bool,
        error_kind: Option<String>,
    }
    let mut outcomes: HashMap<String, Outcome> = HashMap::new();
    while outcomes.len() < specs.len() {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => fail(&format!(
                "connection closed after {}/{} responses",
                outcomes.len(),
                specs.len()
            )),
            Ok(_) => {}
            Err(e) => fail(&format!("read failed: {e}")),
        }
        if line.trim().is_empty() {
            continue;
        }
        let resp = Json::parse(line.trim())
            .unwrap_or_else(|e| fail(&format!("malformed response line: {e}")));
        let Some(id) = resp.get("id").and_then(Json::as_str) else {
            continue;
        };
        let Some(&t0) = sent_at.get(id) else {
            continue;
        };
        outcomes.insert(
            id.to_string(),
            Outcome {
                latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                ok: resp.get("status").and_then(Json::as_str) != Some("error"),
                error_kind: resp
                    .get("error_kind")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            },
        );
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Server-side counters after the workload drained.
    send(&mut w, "{\"op\":\"status\",\"id\":\"__status\"}");
    let status = read_until_id(&mut r, "__status", |_| {});
    if args.shutdown {
        send(&mut w, "{\"op\":\"shutdown\",\"id\":\"__bye\"}");
        let _ = read_until_id(&mut r, "__bye", |_| {});
    }

    // Aggregate.
    let mut latencies: Vec<f64> = outcomes.values().map(|o| o.latency_ms).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let ok = outcomes.values().filter(|o| o.ok).count() as u64;
    let errors = specs.len() as u64 - ok;
    let deadline_requests = specs.iter().filter(|s| s.deadline_ms.is_some()).count() as u64;
    let client_misses = specs
        .iter()
        .filter(|s| {
            let Some(dl) = s.deadline_ms else {
                return false;
            };
            let Some(o) = outcomes.get(&s.id) else {
                return false;
            };
            o.error_kind.as_deref() == Some("deadline_exceeded") || o.latency_ms > dl as f64
        })
        .count() as u64;
    let server_u64 = |key: &str| status.get(key).and_then(Json::as_u64).unwrap_or(0);
    let run = Json::obj(vec![
        ("label", Json::str(&args.label)),
        (
            "sched_policy",
            status.get("sched_policy").cloned().unwrap_or(Json::Null),
        ),
        ("scenario", Json::str(args.scenario.display().to_string())),
        ("requests", Json::UInt(specs.len() as u64)),
        ("ok", Json::UInt(ok)),
        ("errors", Json::UInt(errors)),
        ("wall_ms", Json::Num(wall_ms)),
        (
            "throughput_rps",
            Json::Num(specs.len() as f64 / (wall_ms / 1e3).max(1e-9)),
        ),
        (
            "latency_ms",
            Json::obj(vec![
                ("p50", Json::Num(percentile(&latencies, 0.50))),
                ("p95", Json::Num(percentile(&latencies, 0.95))),
                ("p99", Json::Num(percentile(&latencies, 0.99))),
            ]),
        ),
        ("deadline_requests", Json::UInt(deadline_requests)),
        ("client_deadline_misses", Json::UInt(client_misses)),
        (
            "server_deadline_misses",
            Json::UInt(server_u64("deadline_misses")),
        ),
        ("edf_promotions", Json::UInt(server_u64("edf_promotions"))),
        (
            "queue_depth_peak",
            Json::UInt(server_u64("queue_depth_peak")),
        ),
    ]);

    // Merge into --out: {"runs": [...]}.
    let mut runs: Vec<Json> = Vec::new();
    if args.append {
        if let Ok(text) = std::fs::read_to_string(&args.out) {
            match Json::parse(&text) {
                Ok(doc) => {
                    runs = doc
                        .get("runs")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::to_vec)
                        .unwrap_or_default()
                }
                Err(e) => fail(&format!(
                    "--append: {} exists but is not JSON: {e}",
                    args.out.display()
                )),
            }
        }
    }
    runs.push(run.clone());
    let doc = Json::obj(vec![("runs", Json::Arr(runs))]);
    if let Err(e) = std::fs::write(&args.out, doc.render()) {
        fail(&format!("cannot write {}: {e}", args.out.display()));
    }
    eprintln!(
        "hybridload[{}]: {} request(s) in {:.0} ms, {} ok / {} error(s), \
         {}/{} client deadline miss(es), server misses = {}, promotions = {}; wrote {}",
        args.label,
        specs.len(),
        wall_ms,
        ok,
        errors,
        client_misses,
        deadline_requests,
        server_u64("deadline_misses"),
        server_u64("edf_promotions"),
        args.out.display()
    );
}

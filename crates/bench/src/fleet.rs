//! `hybridfleet` — the device-sharded router, and the only handler of
//! the `hybridd` wire protocol.
//!
//! One [`ServeState`] member serves one device configuration; the paper's
//! §6 sweep (and the tuning literature it cites) picks tile sizes *per
//! device*, so the service routes each request to a per-device tuned plan
//! rather than stretch one base config. Every transport of
//! [`crate::serve`] drives a [`FleetRouter`], which handles the typed
//! request its reader parsed:
//!
//! * every `compile` is routed by its `device` field — a preset name or
//!   an inline device object
//!   ([`resolve_device`](crate::serve::resolve_device)), resolved once at
//!   parse time — to the member keyed by the **canonical device
//!   fingerprint** ([`device_fingerprint`]), so logically identical device
//!   descriptions share one member (and one plan cache) no matter how
//!   their JSON was spelled;
//! * the default device's member exists from the start (a fleet of one is
//!   the single-device server) and answers the lines that name no device:
//!   malformed JSON, a missing or unknown op;
//! * unknown devices spin a member up lazily, up to `--max-devices`;
//!   past the cap requests get a typed `fleet_full` error instead of an
//!   unbounded state explosion, and a compile naming a new device must
//!   validate before it may take a slot;
//! * `status` aggregates liveness and cache counters across every
//!   member (per-device request counts included), `metrics` renders them;
//! * `shutdown` stops every serving loop of the router;
//! * `cancel` fans out to the members holding the in-flight request.
//!
//! Each member owns a size-capped, exact-LRU plan cache
//! (`--mem-cap-bytes`, per device) and applies the fleet's default
//! request deadline (`--default-deadline-ms`); per-request `deadline_ms`
//! and explicit `cancel` map onto the same cooperative
//! [`CancelToken`](hybrid_tiling::cancel::CancelToken) threaded through
//! the tuning sweep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use gpusim::DeviceConfig;

use crate::driver::{device_distance, device_fingerprint, DriverConfig};
use crate::json::Json;
use crate::metrics::{
    opt_uint, series, status_fields, Counters, Id, MetricsSnapshot, Scope, Values,
};
use crate::serve::{
    echoes, error_response, metrics_response, with_envelope, Compile, Op, Request, ServeState,
};

/// Fleet-level knobs (`hybridc serve` flags).
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Byte cap for each member's in-memory plan cache
    /// (`--mem-cap-bytes`); `None` = unbounded.
    pub mem_cap_bytes: Option<u64>,
    /// Maximum number of per-device members spun up lazily
    /// (`--max-devices`).
    pub max_devices: usize,
    /// Deadline applied to requests without their own `deadline_ms`
    /// (`--default-deadline-ms`); `None` = no default.
    pub default_deadline_ms: Option<u64>,
}

/// Most warm hints a cold member inherits from its donor: enough to
/// cover a realistic working set of programs, small enough that a huge
/// donor cache never turns a cold member's first tune into a sweep of
/// its own.
const WARM_HINT_CAP: usize = 32;

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            mem_cap_bytes: None,
            max_devices: 8,
            default_deadline_ms: None,
        }
    }
}

/// The device-sharded front-end: owns N per-device [`ServeState`]s
/// keyed by canonical device fingerprint and answers the line protocol
/// for every transport.
pub struct FleetRouter {
    base: DriverConfig,
    opts: FleetOptions,
    /// Members in spin-up order (stable `status` output), keyed by
    /// canonical device fingerprint; the first serves `base.device`.
    members: Mutex<Vec<(String, Arc<ServeState>)>>,
    started: Instant,
    /// The router's own stored series: `Requests` counts every line
    /// handled here (including ones rejected before reaching a member),
    /// `Ok`/`Errors` the responses the router produced itself
    /// (version/routing errors, status, cancel, shutdown), the rest are
    /// the scheduling/auth counters of the loops driving this fleet.
    stats: Counters,
    stop: AtomicBool,
}

impl FleetRouter {
    /// A fleet around `base` (the per-request defaults; `base.device` is
    /// the device of requests that don't name one). The default device's
    /// member is spun up eagerly, so a fleet of one is the single-device
    /// service.
    pub fn new(base: DriverConfig, opts: FleetOptions) -> FleetRouter {
        let router = FleetRouter {
            base: base.clone(),
            opts,
            members: Mutex::new(Vec::new()),
            started: Instant::now(),
            stats: Counters::default(),
            stop: AtomicBool::new(false),
        };
        let _ = router.member_for(&base.device);
        router
    }

    fn lock_members(&self) -> MutexGuard<'_, Vec<(String, Arc<ServeState>)>> {
        self.members.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The members spun up so far, in spin-up order.
    pub fn members(&self) -> Vec<(String, Arc<ServeState>)> {
        self.lock_members().clone()
    }

    /// Stops the fleet as a served `shutdown` would: every serving loop
    /// (stdin, TCP, unix, metrics) of this router returns.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// True once a `shutdown` was served or [`FleetRouter::request_stop`]
    /// called.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The member of the default device, spun up by [`FleetRouter::new`].
    fn default_member(&self) -> Arc<ServeState> {
        self.lock_members()[0].1.clone()
    }

    /// The member serving `device`, spun up lazily. `Err` carries the
    /// typed `fleet_full` message once `max_devices` members exist.
    fn member_for(&self, device: &DeviceConfig) -> Result<Arc<ServeState>, String> {
        let fp = device_fingerprint(device);
        let mut members = self.lock_members();
        if let Some((_, state)) = members.iter().find(|(k, _)| *k == fp) {
            return Ok(state.clone());
        }
        if members.len() >= self.opts.max_devices.max(1) {
            return Err(format!(
                "fleet already serves {} device(s) (--max-devices); not spinning up {:?}",
                members.len(),
                device.name
            ));
        }
        let mut cfg = DriverConfig {
            device: device.clone(),
            ..self.base.clone()
        };
        // Cross-device warm start: seed the cold member with the
        // *nearest* existing member's cached plans ([`device_distance`]
        // over the fingerprint parameters). The hints are re-verified on
        // the new device during its first tunes — never copied blindly —
        // so a near-identical replica pays ~top_k + 1 scorings instead
        // of a full sweep, and a far device simply re-ranks them away.
        if let Some((donor_fp, donor)) = members.iter().min_by(|(_, a), (_, b)| {
            device_distance(device, &a.cfg().device)
                .total_cmp(&device_distance(device, &b.cfg().device))
        }) {
            cfg.warm_hints = donor.mem().device_plans(donor_fp, WARM_HINT_CAP);
        }
        let state = Arc::new(ServeState::new(cfg, &self.opts));
        members.push((fp, state.clone()));
        Ok(state)
    }

    /// Handles one wire line as the serving loops do: parsed once, then
    /// answered. `None` for blank lines, a response object for everything
    /// else, never a panic escape (member compiles run under the member's
    /// own `catch_unwind` boundary).
    pub fn handle_line(&self, seq: u64, line: &str) -> Option<Json> {
        Some(self.handle(seq, self.parse(line)?))
    }

    /// Parses one wire line against this fleet's default device; `None`
    /// for a blank line.
    pub(crate) fn parse(&self, line: &str) -> Option<Request> {
        Request::parse(line, &self.base.device)
    }

    /// Answers one parsed request: compiles go to their device's member,
    /// the fleet-wide ops (`status`, `metrics`, `cancel`, `shutdown`)
    /// are answered here, and the lines that name no op go to the default
    /// member.
    pub(crate) fn handle(&self, seq: u64, req: Request) -> Json {
        self.stats.add(Id::Requests, 1);
        let id = req.id.as_ref();
        // The default member produces the canonical rejections, so their
        // error shape and counters live where single-device clients
        // expect them.
        let rejected = |msg: &str| {
            self.default_member()
                .answer(seq, || error_response(seq, id, "bad_request", msg))
        };
        let unknown = |op: &str| {
            rejected(&format!(
                "unknown op {op:?} (compile | status | metrics | cancel | shutdown)"
            ))
        };
        // The version gate covers every op, the router's own included: a
        // v:9 shutdown must be rejected, not executed.
        if let Some(msg) = &req.bad_version {
            return self.track(error_response(seq, id, "unsupported_version", msg));
        }
        match req.op {
            Op::Malformed(e) => rejected(&format!("malformed JSON: {e}")),
            Op::Missing => rejected("missing \"op\" (compile | status | cancel | shutdown)"),
            Op::Unknown(op) => unknown(&op),
            // The handshake is answered by a TCP connection's reader;
            // on any other transport it is no op.
            Op::Hello { .. } => unknown("hello"),
            Op::Status => self.track(with_envelope(seq, id, self.status_payload())),
            Op::Metrics => self.track(metrics_response(seq, id, self.metrics_text())),
            Op::Cancel { target } => self.track(self.cancel(seq, id, target)),
            Op::Shutdown => {
                self.request_stop();
                self.track(with_envelope(
                    seq,
                    id,
                    Json::obj(vec![("status", Json::str("stopping"))]),
                ))
            }
            Op::Compile(compile) => self.compile(seq, id, *compile),
        }
    }

    /// Counts a response the router produced itself (member-produced
    /// responses are counted by their member) and passes it through.
    fn track(&self, resp: Json) -> Json {
        let errored = resp.get("status").and_then(Json::as_str) == Some("error");
        self.stats.add(if errored { Id::Errors } else { Id::Ok }, 1);
        resp
    }

    /// Routes a compile to its device's member.
    fn compile(&self, seq: u64, id: Option<&Json>, compile: Compile) -> Json {
        let device = match compile.device {
            Ok(device) => device,
            Err(msg) => return self.track(error_response(seq, id, "bad_request", &msg)),
        };
        // A device slot is a bounded resource: before spinning a *new*
        // member up, the whole request must validate — a stream of
        // garbage compiles naming fresh devices must not exhaust
        // --max-devices.
        if let Err(e) = &compile.job {
            let fp = device_fingerprint(&device);
            if !self.lock_members().iter().any(|(k, _)| *k == fp) {
                return self.track(error_response(seq, id, e.kind(), e.message()));
            }
        }
        match self.member_for(&device) {
            Ok(member) => member.compile(seq, id, compile.job),
            Err(msg) => self.track(error_response(seq, id, "fleet_full", &msg)),
        }
    }

    /// The `cancel` op: raises the flags of every in-flight compile whose
    /// id is `target`, on every member (no short-circuit: the same id may
    /// be in flight on several devices at once).
    fn cancel(&self, seq: u64, id: Option<&Json>, target: Option<Json>) -> Json {
        let Some(target) = target else {
            return error_response(
                seq,
                id,
                "bad_request",
                "cancel needs \"target\" (the id of the compile to cancel)",
            );
        };
        let key = target.render_compact();
        let found = self
            .members()
            .iter()
            .fold(false, |found, (_, member)| member.cancel(&key) | found);
        with_envelope(
            seq,
            id,
            Json::obj(vec![
                ("status", Json::str("ok")),
                ("op", Json::str("cancel")),
                ("target", target),
                ("found", Json::Bool(found)),
            ]),
        )
    }

    /// The fleet-level value of series `id` over `members`: the router's
    /// own cell, plus every member's value for the rows the registry
    /// marks `fleet_sum`; the fleet's bounds and clock for the computed
    /// ones.
    fn total(&self, members: &[(String, Arc<ServeState>)], id: Id) -> Option<u64> {
        match id {
            Id::UptimeMs => Some(self.started.elapsed().as_millis() as u64),
            Id::Devices => Some(members.len() as u64),
            Id::MaxDevices => Some(self.opts.max_devices as u64),
            Id::MemCapBytes => self.opts.mem_cap_bytes,
            _ if series(id).fleet_sum => {
                let summed: u64 = members.iter().filter_map(|(_, m)| m.get(id)).sum();
                Some(self.stats.get(id) + summed)
            }
            _ => Some(self.stats.get(id)),
        }
    }

    /// The aggregated fleet status: fleet-level totals
    /// (`FleetRouter::total`) plus one per-device entry (each member's
    /// full [`status_payload`](ServeState::status_payload), so
    /// per-device request counts and cache metrics are first-class).
    pub fn status_payload(&self) -> Json {
        let members = self.members();
        let rows = |from, to| status_fields(from, to, |id| self.total(&members, id));
        let one = |id| rows(id, id);
        let devices = members.iter().map(|(_, m)| m.status_payload()).collect();
        Json::Obj(
            [
                echoes(vec![("status", Json::str("alive"))]),
                rows(Id::UptimeMs, Id::ContainedPanics),
                rows(Id::WarmStarts, Id::TuneWallMs),
                one(Id::MemReexecuted),
                rows(Id::BackendCuda, Id::BackendCpu),
                rows(Id::Devices, Id::MaxDevices),
                one(Id::MemCapBytes),
                echoes(vec![(
                    "default_deadline_ms",
                    opt_uint(self.opts.default_deadline_ms),
                )]),
                rows(Id::SchedPolicy, Id::AuthRejected),
                echoes(vec![("devices", Json::Arr(devices))]),
            ]
            .into_iter()
            .flatten()
            .collect(),
        )
    }

    /// The router's own stored series (see the `stats` field).
    pub fn stats(&self) -> &Counters {
        &self.stats
    }

    /// The fleet's full metric set: the fleet-level service series plus
    /// every member's device series, labeled by its canonical device
    /// fingerprint.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let members = self.members();
        MetricsSnapshot {
            service: Values::collect(Scope::Service, |id| self.total(&members, id)),
            devices: members
                .iter()
                .map(|(fp, m)| (fp.clone(), Values::collect(Scope::Device, m.reader())))
                .collect(),
        }
    }

    /// [`FleetRouter::metrics_snapshot`] in Prometheus text exposition
    /// format: the `metrics` op and the `--metrics` HTTP listener serve
    /// this verbatim.
    pub fn metrics_text(&self) -> String {
        crate::metrics::render(&self.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve_tcp_with, serve_with_policy, SchedPolicy};
    use std::io::{BufRead, BufReader, Cursor, Write};
    use std::net::{TcpListener, TcpStream};

    const JACOBI: &str = "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    for (j = 1; j < N-1; j++)\n      A[t+1][i][j] = 0.25f * (A[t][i+1][j] + A[t][i-1][j] + A[t][i][j+1] + A[t][i][j-1]);\n";

    fn test_router(tag: &str, opts: FleetOptions) -> FleetRouter {
        let dir = std::env::temp_dir().join(format!("fleet_test_{}_{}", std::process::id(), tag));
        let cfg = DriverConfig {
            smoke: true,
            cache_dir: None,
            ..DriverConfig::new(dir)
        };
        FleetRouter::new(cfg, opts)
    }

    fn compile_req(id: &str, device: Option<&str>) -> String {
        let mut pairs = vec![
            ("op", Json::str("compile")),
            ("id", Json::str(id)),
            ("name", Json::str("jac")),
            ("program", Json::str(JACOBI)),
        ];
        if let Some(d) = device {
            pairs.push(("device", Json::str(d)));
        }
        Json::obj(pairs).render_compact()
    }

    #[test]
    fn routes_by_device_with_per_device_cache_isolation() {
        let router = test_router("route", FleetOptions::default());
        // Same program on two devices: two members, two tuning sweeps.
        let a1 = router.handle_line(1, &compile_req("a1", None)).unwrap();
        let b1 = router
            .handle_line(2, &compile_req("b1", Some("nvs5200m")))
            .unwrap();
        assert_eq!(a1.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(b1.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(a1.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(
            b1.get("cache").and_then(Json::as_str),
            Some("miss"),
            "a second device must tune for itself, not reuse the first's plan"
        );
        assert_ne!(
            a1.get("fingerprint"),
            b1.get("fingerprint"),
            "per-device plans key apart"
        );
        // Repeats hit each device's own memory cache.
        let a2 = router.handle_line(3, &compile_req("a2", None)).unwrap();
        let b2 = router
            .handle_line(4, &compile_req("b2", Some("nvs5200m")))
            .unwrap();
        assert_eq!(a2.get("cache").and_then(Json::as_str), Some("mem"));
        assert_eq!(b2.get("cache").and_then(Json::as_str), Some("mem"));
        // Two members, each with exactly one cached plan for its own
        // device fingerprint.
        let members = router.members();
        assert_eq!(members.len(), 2);
        for (fp, member) in &members {
            assert_eq!(member.mem().len(), 1);
            assert_eq!(member.mem().len_for_device(fp), 1);
            assert_eq!(member.get(Id::Requests), Some(2));
        }
    }

    #[test]
    fn a_routed_compile_line_is_parsed_once() {
        use crate::json::parse_probe::parses_of;
        let router = test_router("parse_once", FleetOptions::default());
        // A miss, a hit, and a lazily spun-up second member: the router's
        // parse is the only one (the members take the parsed value).
        for (seq, device) in [(1, None), (2, None), (3, Some("nvs5200m"))] {
            let line = compile_req("parse-once-direct", device);
            let before = parses_of("parse-once-direct");
            let resp = router.handle_line(seq, &line).unwrap();
            assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
            assert_eq!(parses_of("parse-once-direct") - before, 1, "seq {seq}");
        }
        let members = router.members();
        assert_eq!(members.len(), 2);
        assert_eq!(
            members[0].1.get(Id::Requests),
            Some(2),
            "member accounting unchanged"
        );
        assert_eq!(members[0].1.get(Id::Ok), Some(2));

        // Through the serving loop, over TCP with a secret: the reader's
        // parse is the only one — the EDF key, the shutdown check, the
        // handshake and dispatch all read it. Each marker rides in a
        // field no response echoes, so the client's parses never count.
        let served = test_router("parse_once_loop", FleetOptions::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lines = [
            (
                "parse-once-hello",
                r#"{"op":"hello","secret":"s3cret","probe":"parse-once-hello"}"#.to_string(),
            ),
            (
                "parse-once-compile",
                format!(
                    r#"{{"op":"compile","id":"c","program":{},"deadline_ms":60000,"probe":"parse-once-compile"}}"#,
                    Json::str(JACOBI).render_compact()
                ),
            ),
            (
                "parse-once-shutdown",
                r#"{"op":"shutdown","probe":"parse-once-shutdown"}"#.to_string(),
            ),
        ];
        std::thread::scope(|s| {
            let server =
                s.spawn(|| serve_tcp_with(&served, listener, 1, SchedPolicy::Edf, Some("s3cret")));
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for (marker, line) in &lines {
                let before = parses_of(marker);
                writeln!(writer, "{line}").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                assert!(!response.contains(r#""status":"error""#), "{response}");
                assert_eq!(parses_of(marker) - before, 1, "{marker}");
            }
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn cold_members_warm_start_from_the_nearest_device() {
        let router = test_router("warm", FleetOptions::default());
        let sim_req = |id: &str, device: Json| {
            Json::obj(vec![
                ("op", Json::str("compile")),
                ("id", Json::str(id)),
                ("name", Json::str("jac")),
                ("program", Json::str(JACOBI)),
                ("device", device),
                ("tune", Json::str("simulated")),
                ("top_k", Json::UInt(2)),
            ])
            .render_compact()
        };
        // Seed the donor: the default GTX 470 member tunes and caches.
        let donor = router
            .handle_line(1, &sim_req("d", Json::str("gtx470")))
            .unwrap();
        assert_eq!(donor.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(donor.get("warm_start"), Some(&Json::Bool(false)));
        // A near device (same GTX 470, faster clock) spins up cold and
        // inherits the donor's plan as a re-verified hint.
        let near = Json::obj(vec![
            ("base", Json::str("gtx470")),
            ("clock_ghz", Json::Num(1.4)),
        ]);
        let warm = router.handle_line(2, &sim_req("w", near)).unwrap();
        assert_eq!(
            warm.get("status").and_then(Json::as_str),
            Some("ok"),
            "{warm:?}"
        );
        assert_eq!(warm.get("warm_start"), Some(&Json::Bool(true)));
        // ≈ top_k + 1 scorings, never the full sweep.
        let simulated = warm.get("simulated").and_then(Json::as_u64).unwrap();
        assert!(simulated <= 3, "cold member must pay ~k sims: {warm:?}");
        // Counters surface on the warm member and in the fleet totals.
        let members = router.members();
        assert_eq!(members.len(), 2);
        let warm_member = members
            .iter()
            .map(|(_, m)| m)
            .find(|m| m.get(Id::WarmStarts) > Some(0))
            .expect("one member must have warm-started");
        assert!(warm_member.get(Id::TuneSimulations) <= Some(3));
        let status = router.handle_line(3, "{\"op\":\"status\"}").unwrap();
        assert_eq!(status.get("warm_starts").and_then(Json::as_u64), Some(1));
        assert!(
            status
                .get("tune_simulations")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn max_devices_caps_lazy_spin_up_with_a_typed_error() {
        let router = test_router(
            "cap",
            FleetOptions {
                max_devices: 1,
                ..FleetOptions::default()
            },
        );
        let ok = router.handle_line(1, &compile_req("a", None)).unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        let full = router
            .handle_line(2, &compile_req("b", Some("nvs5200m")))
            .unwrap();
        assert_eq!(full.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            full.get("error_kind").and_then(Json::as_str),
            Some("fleet_full")
        );
        assert_eq!(full.get("id").and_then(Json::as_str), Some("b"));
        assert_eq!(router.members().len(), 1);
        // The known device keeps serving.
        let again = router
            .handle_line(3, &compile_req("c", Some("gtx470")))
            .unwrap();
        assert_eq!(again.get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn aggregated_status_reports_totals_and_per_device_counters() {
        let router = test_router("status", FleetOptions::default());
        let _ = router.handle_line(1, &compile_req("a", None)).unwrap();
        let _ = router
            .handle_line(2, &compile_req("b", Some("nvs5200m")))
            .unwrap();
        let _ = router.handle_line(3, "not json").unwrap();
        let status = router
            .handle_line(4, "{\"op\":\"status\",\"id\":\"st\"}")
            .unwrap();
        assert_eq!(status.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(status.get("status").and_then(Json::as_str), Some("alive"));
        assert_eq!(status.get("requests").and_then(Json::as_u64), Some(4));
        // The two compiles; the status request itself is counted only
        // once its response is written (same semantics as ServeState).
        assert_eq!(status.get("ok").and_then(Json::as_u64), Some(2));
        assert_eq!(status.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(status.get("device_count").and_then(Json::as_u64), Some(2));
        let devices = status.get("devices").and_then(Json::as_arr).unwrap();
        assert_eq!(devices.len(), 2);
        // Per-device request counts: the garbage line went to the
        // default member alongside its compile.
        let by_name = |name: &str| {
            devices
                .iter()
                .find(|d| d.get("device").and_then(Json::as_str) == Some(name))
                .unwrap()
        };
        assert_eq!(
            by_name("GTX 470").get("requests").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            by_name("NVS 5200M").get("requests").and_then(Json::as_u64),
            Some(1)
        );
        for d in devices {
            assert!(d.get("device_fingerprint").is_some());
            assert!(d.get("mem_evictions").is_some());
        }
    }

    #[test]
    fn fleet_serves_through_the_generic_loop_and_shuts_down() {
        let router = test_router("loop", FleetOptions::default());
        let input = format!(
            "{}\n{}\n{}\n{}\n",
            compile_req("a", None),
            compile_req("b", Some("nvs5200m")),
            "{\"op\":\"status\"}",
            "{\"op\":\"shutdown\"}",
        );
        let mut out = Vec::new();
        let summary =
            serve_with_policy(&router, Cursor::new(input), &mut out, 2, SchedPolicy::Edf).unwrap();
        assert_eq!(summary.responses, 4);
        assert_eq!(summary.errors, 0);
        assert!(router.stopped());
        // The stop is fleet-wide: another loop over the same router
        // answers the line it read and returns instead of reading on.
        let twice = "{\"op\":\"status\"}\n{\"op\":\"status\"}\n";
        let mut more = Vec::new();
        let summary =
            serve_with_policy(&router, Cursor::new(twice), &mut more, 1, SchedPolicy::Edf).unwrap();
        assert_eq!(summary.responses, 1, "shutdown must stop every loop");
    }

    #[test]
    fn deadline_and_cancel_flow_through_the_router() {
        let router = test_router("deadline", FleetOptions::default());
        let req = Json::obj(vec![
            ("op", Json::str("compile")),
            ("id", Json::str("dl")),
            ("program", Json::str(JACOBI)),
            ("device", Json::str("nvs5200m")),
            ("deadline_ms", Json::UInt(0)),
        ])
        .render_compact();
        let resp = router.handle_line(1, &req).unwrap();
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        // cancel of an unknown id sweeps every member and reports not
        // found.
        let cancel = router
            .handle_line(2, "{\"op\":\"cancel\",\"target\":\"nope\"}")
            .unwrap();
        assert_eq!(cancel.get("found"), Some(&Json::Bool(false)));
        // A default deadline set fleet-wide reaches lazily spun members.
        let strict = test_router(
            "deadline_default",
            FleetOptions {
                default_deadline_ms: Some(0),
                ..FleetOptions::default()
            },
        );
        let resp = strict
            .handle_line(1, &compile_req("x", Some("nvs5200m")))
            .unwrap();
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
    }

    #[test]
    fn unsupported_version_is_rejected_at_the_default_member() {
        let router = test_router("version", FleetOptions::default());
        let resp = router
            .handle_line(1, "{\"v\":9,\"op\":\"compile\",\"program\":\"x\"}")
            .unwrap();
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("unsupported_version")
        );
    }

    #[test]
    fn unsupported_version_cannot_drive_router_ops() {
        // Regression: the version gate must cover the ops the router
        // answers itself — a v:9 shutdown must be rejected, not stop the
        // fleet.
        let router = test_router("version_ops", FleetOptions::default());
        for line in [
            "{\"v\":9,\"op\":\"shutdown\"}",
            "{\"v\":9,\"op\":\"status\"}",
            "{\"v\":9,\"op\":\"cancel\",\"target\":\"x\"}",
        ] {
            let resp = router.handle_line(1, line).unwrap();
            assert_eq!(
                resp.get("error_kind").and_then(Json::as_str),
                Some("unsupported_version"),
                "{line}"
            );
        }
        assert!(!router.stopped(), "v:9 shutdown must not stop the fleet");
        let status = router.handle_line(2, "{\"op\":\"status\"}").unwrap();
        assert_eq!(status.get("status").and_then(Json::as_str), Some("alive"));
    }

    #[test]
    fn invalid_compiles_cannot_exhaust_device_slots() {
        // Regression: a garbage compile naming a fresh device must be
        // rejected *before* a member is created, so --max-devices cannot
        // be exhausted by invalid requests.
        let router = test_router(
            "slot_guard",
            FleetOptions {
                max_devices: 2,
                ..FleetOptions::default()
            },
        );
        for (i, bad) in [
            // Missing program/path.
            "{\"op\":\"compile\",\"device\":\"nvs5200m\"}".to_string(),
            // Bad tune mode.
            format!(
                "{{\"op\":\"compile\",\"program\":{},\"device\":\"nvs5200m\",\"tune\":\"psychic\"}}",
                Json::str(JACOBI).render_compact()
            ),
            // Bad deadline type.
            format!(
                "{{\"op\":\"compile\",\"program\":{},\"device\":\"nvs5200m\",\"deadline_ms\":\"soon\"}}",
                Json::str(JACOBI).render_compact()
            ),
        ]
        .iter()
        .enumerate()
        {
            let resp = router.handle_line(i as u64 + 1, bad).unwrap();
            assert_eq!(
                resp.get("error_kind").and_then(Json::as_str),
                Some("bad_request"),
                "{bad}"
            );
        }
        assert_eq!(
            router.members().len(),
            1,
            "invalid compiles must not spin up members"
        );
        // The slot is still free for a valid request.
        let ok = router
            .handle_line(9, &compile_req("ok", Some("nvs5200m")))
            .unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(router.members().len(), 2);
    }
}

//! `hybridd` — the resident compile service behind `hybridc serve`.
//!
//! The one-shot driver ([`crate::driver`]) compiles a file set and exits;
//! this module keeps the pipeline resident so clients pay tuning,
//! simulation and verification once per plan and every later identical
//! request is a memory-cache hit — a lookup of the verified outcome. The wire
//! protocol is newline-delimited JSON over stdin/stdout, a unix socket or
//! TCP: one request per line, one compact-JSON response per line
//! (responses may arrive out of request order; match them by `seq`/`id`).
//!
//! ## Requests
//!
//! ```json
//! {"op": "compile", "id": "r1", "path": "examples/stencils/jacobi2d.stencil"}
//! {"op": "compile", "id": "r2", "program": "for (t = 0; ...", "name": "mine",
//!  "device": "nvs5200m", "tune": "simulated", "smoke": true,
//!  "verify": false, "size": [64, 64], "steps": 8, "deadline_ms": 2000}
//! {"op": "compile", "id": "r3", "program": "...",
//!  "device": {"base": "gtx470", "shared_limit": 32768}}
//! {"op": "cancel", "target": "r2"}
//! {"op": "status"}
//! {"op": "shutdown"}
//! ```
//!
//! The envelope is **versioned**: every response starts with `"v": 1`;
//! a request may carry `"v"` and is rejected with a typed
//! `unsupported_version` error when it names any other version.
//!
//! `compile` takes the program inline (`program`, optionally `name`) or
//! by path (`path`), plus per-request overrides of the same options the
//! CLI exposes. `device` is a preset name or an inline device object
//! ([`resolve_device`]) — objects canonicalize by *resolved parameters*,
//! so key order never splits the cache. `deadline_ms` bounds the request
//! (0 = already expired): the pipeline checks the deadline between
//! tuning candidates and pipeline stages and answers a typed
//! `deadline_exceeded` error instead of occupying a worker
//! indefinitely. The response is exactly the per-stencil object of
//! `hybridc --report` ([`crate::driver::outcome_json`]) with `v`, `seq`
//! (the server's input line number) and the echoed `id` prepended —
//! compile results are bit-identical to a one-shot run with the same
//! options.
//!
//! `cancel` raises the cooperative cancel flag of the in-flight compile
//! whose `id` equals `target` (response: `found` true/false). `status`
//! reports liveness and cache counters (every field documented in the
//! README protocol table); `shutdown` stops the serving loop after
//! draining in-flight work.
//!
//! ## One parse, one handler
//!
//! Each non-blank line is parsed once, on its connection's reader, into a
//! typed `Request`: the envelope (`id`, `v`, the scheduling
//! `deadline_ms`) and one variant per op with its typed fields. A line
//! that is not a request becomes a typed rejection with its error kind
//! and text. The queued job carries that value, so the EDF key, the
//! shutdown check, the TCP handshake (decided on the reader, in line
//! order) and dispatch all read the one parse.
//! [`FleetRouter`] is the only handler: every
//! transport drives it, and a [`ServeState`] is one per-device member of
//! it — the compile path, the in-flight registry for `cancel`, the
//! member's plan cache and counters.
//!
//! ## Isolation and caching
//!
//! Requests fan out across a worker pool. Every request is handled under
//! a [`catch_unwind`] boundary *on top of* the driver's typed
//! [`DriverError`](crate::driver::DriverError)s, so no input — malformed
//! JSON, unparseable DSL,
//! budget-infeasible tile requests, conflict-inducing schedules, or an
//! outright pipeline bug — can take the service down: each failure is
//! that request's error response. Outcomes are shared through the
//! single-flight in-memory [`MemCache`] layered above the on-disk cache,
//! so N concurrent clients compiling the same stencil cost one tuning
//! sweep and one simulation.

use std::cell::OnceCell;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, BufRead, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gpu_codegen::{BackendKind, SmemStrategy};
use gpusim::DeviceConfig;
use hybrid_tiling::cancel::{saturating_deadline, CancelToken};

use crate::driver::{
    compile_file_with, compile_source_with, device_fingerprint, outcome_json, panic_message,
    sanitize_program_name, DriverConfig, MemCache, TuneMode,
};
use crate::fleet::{FleetOptions, FleetRouter};
use crate::json::Json;
use crate::metrics::{opt_uint, status_fields, Counters, Id};

/// The protocol version this service speaks. Responses always carry
/// `"v": 1`; requests may omit `v` (treated as version 1) or must match.
pub const PROTOCOL_VERSION: u64 = 1;

/// How a serving loop orders queued requests across its worker pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict arrival order (the pre-EDF behavior).
    Fifo,
    /// Earliest-deadline-first: requests carrying a `deadline_ms` run
    /// before requests without one; among deadlines, the earliest
    /// arrival-anchored deadline wins; requests without deadlines keep
    /// FIFO order among themselves.
    #[default]
    Edf,
}

impl SchedPolicy {
    /// Parses a `--sched` value.
    pub fn parse(name: &str) -> Result<SchedPolicy, String> {
        match name {
            "fifo" => Ok(SchedPolicy::Fifo),
            "edf" => Ok(SchedPolicy::Edf),
            other => Err(format!("unknown scheduling policy {other:?} (fifo | edf)")),
        }
    }

    /// The wire name (`"fifo"` | `"edf"`).
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Edf => "edf",
        }
    }

    /// The value the [`Id::SchedPolicy`] gauge stores for this policy;
    /// 0, a fresh block, is the default policy.
    fn code(self) -> u64 {
        match self {
            SchedPolicy::Edf => 0,
            SchedPolicy::Fifo => 1,
        }
    }

    /// Inverse of [`SchedPolicy::code`].
    pub(crate) fn from_code(code: u64) -> SchedPolicy {
        match code {
            0 => SchedPolicy::Edf,
            _ => SchedPolicy::Fifo,
        }
    }
}

/// One per-device member of the fleet: its driver configuration (the
/// device and the per-request defaults), its in-memory plan cache, the
/// in-flight registry `cancel` reaches, and its counters.
pub struct ServeState {
    cfg: DriverConfig,
    /// Deadline applied to compiles without their own `deadline_ms`.
    default_deadline_ms: Option<u64>,
    mem: MemCache,
    started: Instant,
    /// This member's stored series: its request and tuning counters.
    stats: Counters,
    /// Compiles currently executing, keyed by the request's rendered
    /// `id`: the `cancel` op raises the flags and the workers stop at
    /// their next cooperative check. A multiset (ids are client-chosen,
    /// so concurrent duplicates are legal): every compile under one id
    /// registers its own flag, `cancel` raises them all, and each
    /// guard's drop removes exactly its own flag.
    inflight: Mutex<HashMap<String, Vec<Arc<AtomicBool>>>>,
}

/// Removes an in-flight registry entry when the compile finishes — on
/// the success path *and* when a panic unwinds through the handler (the
/// catch_unwind boundary sits above this guard). Removal is by flag
/// identity, so a concurrent compile sharing the id keeps its own
/// registration.
struct InflightGuard<'a> {
    state: &'a ServeState,
    key: Option<(String, Arc<AtomicBool>)>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some((key, flag)) = &self.key {
            if let Ok(mut map) = self.state.inflight.lock() {
                if let Some(flags) = map.get_mut(key) {
                    flags.retain(|f| !Arc::ptr_eq(f, flag));
                    if flags.is_empty() {
                        map.remove(key);
                    }
                }
            }
        }
    }
}

impl ServeState {
    /// A member compiling under `cfg`, with the fleet's cache cap and
    /// default deadline.
    pub(crate) fn new(cfg: DriverConfig, opts: &FleetOptions) -> ServeState {
        ServeState {
            cfg,
            default_deadline_ms: opts.default_deadline_ms,
            mem: MemCache::with_cap(opts.mem_cap_bytes),
            started: Instant::now(),
            stats: Counters::default(),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// The current value of series `id` as this member reports it —
    /// stored cells of its own block and of its cache's, computed gauges
    /// from the cache and the clock. `None` = absent (no cap, no hit
    /// yet, no fleet bound).
    pub fn get(&self, id: Id) -> Option<u64> {
        self.reader()(id)
    }

    /// [`ServeState::get`] for one render — a `status` payload, a metrics
    /// snapshot: the hit-age quantiles (copy the recent samples under the
    /// cache lock, sort) are taken when the first of their three rows is
    /// read and shared by the other two.
    pub fn reader(&self) -> impl Fn(Id) -> Option<u64> + '_ {
        let hit_age = OnceCell::new();
        move |id| {
            let hit_age = || *hit_age.get_or_init(|| self.mem.hit_age_quantiles_ms());
            match id {
                Id::UptimeMs => Some(self.started.elapsed().as_millis() as u64),
                Id::MemEntries => Some(self.mem.len() as u64),
                Id::MemBytes => Some(self.mem.bytes()),
                Id::MemCapBytes => self.mem.cap_bytes(),
                Id::HitAgeP50 => hit_age().map(|q| q.0),
                Id::HitAgeP90 => hit_age().map(|q| q.1),
                Id::HitAgeP99 => hit_age().map(|q| q.2),
                Id::Devices => Some(1),
                Id::MaxDevices => None,
                _ if (Id::MemLookups..=Id::MemReexecuted).contains(&id) => Some(self.mem.get(id)),
                _ => Some(self.stats.get(id)),
            }
        }
    }

    /// This member's in-memory plan cache.
    pub fn mem(&self) -> &MemCache {
        &self.mem
    }

    /// This member's driver configuration (its device and the
    /// per-request defaults).
    pub fn cfg(&self) -> &DriverConfig {
        &self.cfg
    }

    /// Raises the cancel flags of every in-flight compile registered
    /// under `id` (the rendered request id — duplicates are all
    /// cancelled). Returns whether any was found — `false` means none
    /// exists or all already finished.
    pub fn cancel(&self, id: &str) -> bool {
        match self.inflight.lock() {
            Ok(map) => match map.get(id) {
                Some(flags) => {
                    for flag in flags {
                        flag.store(true, Ordering::SeqCst);
                    }
                    !flags.is_empty()
                }
                None => false,
            },
            Err(_) => false,
        }
    }

    /// Runs `respond` as one request of this member: counted in
    /// `requests`, a panic contained into an `internal` error response,
    /// and the response counted as `ok` or `errors`. This is the
    /// per-request abort barrier: it never panics.
    pub(crate) fn answer(&self, seq: u64, respond: impl FnOnce() -> Json) -> Json {
        self.stats.add(Id::Requests, 1);
        let outcome = catch_unwind(AssertUnwindSafe(respond));
        let response = outcome.unwrap_or_else(|payload| {
            self.stats.add(Id::ContainedPanics, 1);
            let msg = panic_message(payload);
            error_response(seq, None, "internal", &format!("request panicked: {msg}"))
        });
        let errored = response.get("status").and_then(Json::as_str) == Some("error");
        self.stats.add(if errored { Id::Errors } else { Id::Ok }, 1);
        response
    }

    /// Answers a compile routed to this member: the request's first
    /// field error, or the compile's outcome.
    pub(crate) fn compile(
        &self,
        seq: u64,
        id: Option<&Json>,
        job: Result<CompileJob, RequestError>,
    ) -> Json {
        self.answer(seq, || match job {
            Ok(job) => self.run(seq, id, job),
            Err(e) => error_response(seq, id, e.kind(), e.message()),
        })
    }

    fn run(&self, seq: u64, id: Option<&Json>, job: CompileJob) -> Json {
        let mut cfg = self.cfg.clone();
        job.overrides.apply(&mut cfg);
        // Deadline: the request's own deadline_ms, else the service
        // default. The clock starts when the worker picks the request up.
        let deadline_ms = job.deadline_ms.or(self.default_deadline_ms);
        // Cancellation: requests with an id register a shared flag so a
        // later `cancel` op can stop them cooperatively.
        let flag = Arc::new(AtomicBool::new(false));
        let mut token = CancelToken::with_flag(flag.clone());
        if let Some(ms) = deadline_ms {
            // Saturating: a client-supplied u64::MAX must clamp to a
            // far-future deadline, not panic `Instant + Duration`.
            token = token.and_deadline_after(Duration::from_millis(ms));
        }
        let _inflight = InflightGuard {
            state: self,
            key: id.map(|id| {
                let key = id.render_compact();
                if let Ok(mut map) = self.inflight.lock() {
                    map.entry(key.clone()).or_default().push(flag.clone());
                }
                (key, flag.clone())
            }),
        };
        cfg.cancel = token;
        let (source_label, result) = match job.source {
            CompileSource::Inline { name, text } => {
                let label = PathBuf::from(format!("<request:{name}>"));
                let result = compile_source_with(&name, &text, &label, &cfg, Some(&self.mem));
                (label.display().to_string(), result)
            }
            CompileSource::File(p) => {
                let result = compile_file_with(Path::new(&p), &cfg, Some(&self.mem));
                (p, result)
            }
        };
        if let Ok(o) = &result {
            self.stats.add(Id::backend(o.backend), 1);
            self.stats.add(Id::WarmStarts, o.warm_start as u64);
            self.stats.add(Id::WarmStartHits, o.warm_start_hit as u64);
            self.stats.add(Id::TuneSimulations, o.simulated as u64);
            self.stats
                .add(Id::ProxySimulations, o.proxy_simulated as u64);
            self.stats.add(Id::TuneWallMs, o.tune_wall_ms);
        }
        with_envelope(seq, id, outcome_json(&source_label, &result))
    }

    /// This member's status object: liveness, every series of the
    /// registry that has a `status` key (in table order) up to the service
    /// rows, and the configuration echoes spliced between them — one
    /// per-device entry of the fleet's `status`. The service rows
    /// (`sched_policy` … `auth_rejected`) are counted by the serving loops
    /// on the router, so only the fleet's top level reports them. Every
    /// field is documented in the README protocol table.
    pub fn status_payload(&self) -> Json {
        let get = self.reader();
        let rows = |from, to| status_fields(from, to, &get);
        let cfg = &self.cfg;
        let disk_cache = match &cfg.cache_dir {
            Some(d) => Json::str(d.display().to_string()),
            None => Json::Null,
        };
        Json::Obj(
            [
                echoes(vec![("status", Json::str("alive"))]),
                rows(Id::UptimeMs, Id::HitAgeP99),
                echoes(vec![
                    ("disk_cache", disk_cache),
                    ("device", Json::str(cfg.device.name.clone())),
                    (
                        "device_fingerprint",
                        Json::str(device_fingerprint(&cfg.device)),
                    ),
                    ("tune", Json::str(cfg.tune.name())),
                    ("backend", Json::str(cfg.backend.name())),
                ]),
                rows(Id::BackendCuda, Id::BackendCpu),
                echoes(vec![
                    ("top_k", Json::UInt(cfg.top_k as u64)),
                    ("tune_workers", Json::UInt(cfg.tune_workers as u64)),
                    ("proxy", Json::Num(cfg.proxy)),
                ]),
                rows(Id::WarmStarts, Id::TuneWallMs),
                echoes(vec![(
                    "default_deadline_ms",
                    opt_uint(self.default_deadline_ms),
                )]),
            ]
            .into_iter()
            .flatten()
            .collect(),
        )
    }
}

/// Hand-written `status` entries (configuration echoes), in the shape
/// [`status_fields`] returns so the two splice.
pub(crate) fn echoes(pairs: Vec<(&str, Json)>) -> Vec<(String, Json)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// One wire line, parsed once: the envelope and the op with its typed
/// fields. Everything after the reader — scheduling, the handshake,
/// dispatch — reads this value, never the line.
pub(crate) struct Request {
    /// The echoed `id` (`None` when absent or when the line is not JSON).
    pub(crate) id: Option<Json>,
    /// The request's `deadline_ms` when it is a non-negative integer,
    /// whatever the op: the arrival-anchored scheduling deadline. A
    /// compile reports a malformed one as its own error.
    pub(crate) deadline_ms: Option<u64>,
    /// The `unsupported_version` message when `v` names another version
    /// (requests without `v` are version 1).
    pub(crate) bad_version: Option<String>,
    pub(crate) op: Op,
}

/// The ops of the protocol, and the ways a line can fail to name one.
pub(crate) enum Op {
    /// Not JSON: the parser's message.
    Malformed(String),
    /// No string `"op"`.
    Missing,
    /// An op this protocol does not know.
    Unknown(String),
    /// The TCP handshake (answered on the reader; no op elsewhere).
    Hello {
        secret: Option<String>,
    },
    Status,
    Metrics,
    /// `target` is the id of the compile to cancel.
    Cancel {
        target: Option<Json>,
    },
    Shutdown,
    Compile(Box<Compile>),
}

/// A `compile` request, validated field by field.
pub(crate) struct Compile {
    /// The target device — the `device` field resolved against the
    /// service's default device, or that field's error.
    pub(crate) device: Result<DeviceConfig, String>,
    /// Everything else, or its first error in wire order.
    pub(crate) job: Result<CompileJob, RequestError>,
}

/// What a member needs to run a compile.
pub(crate) struct CompileJob {
    overrides: Overrides,
    /// The request's own `deadline_ms`.
    deadline_ms: Option<u64>,
    source: CompileSource,
}

impl Request {
    /// Parses one wire line; `None` for a blank one. `default_device` is
    /// the service's device, the base of device objects without `"base"`.
    pub(crate) fn parse(line: &str, default_device: &DeviceConfig) -> Option<Request> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let req = match Json::parse(line) {
            Ok(req) => req,
            Err(e) => {
                return Some(Request {
                    id: None,
                    deadline_ms: None,
                    bad_version: None,
                    op: Op::Malformed(e),
                })
            }
        };
        let op = match req.get("op").and_then(Json::as_str) {
            None => Op::Missing,
            Some("compile") => Op::Compile(Box::new(Compile {
                device: match req.get("device") {
                    Some(d) => resolve_device(d, default_device),
                    None => Ok(default_device.clone()),
                },
                job: CompileJob::parse(&req),
            })),
            Some("status") => Op::Status,
            Some("metrics") => Op::Metrics,
            Some("cancel") => Op::Cancel {
                target: req.get("target").cloned(),
            },
            Some("shutdown") => Op::Shutdown,
            Some("hello") => Op::Hello {
                secret: req.get("secret").and_then(Json::as_str).map(str::to_string),
            },
            Some(other) => Op::Unknown(other.to_string()),
        };
        let bad_version = req
            .get("v")
            .filter(|v| v.as_u64() != Some(PROTOCOL_VERSION))
            .map(|v| {
                format!(
                    "protocol version {} is not supported (this service speaks v{PROTOCOL_VERSION})",
                    v.render_compact()
                )
            });
        Some(Request {
            id: req.get("id").cloned(),
            deadline_ms: req.get("deadline_ms").and_then(Json::as_u64),
            bad_version,
            op,
        })
    }

    /// A `shutdown` the router will honor (one of another version is
    /// answered with a typed error, and the reader keeps reading).
    fn is_shutdown(&self) -> bool {
        matches!(self.op, Op::Shutdown) && self.bad_version.is_none()
    }
}

/// A typed request-validation failure: the serve protocol distinguishes
/// a malformed request (`bad_request`) from a well-formed one naming an
/// emission backend this service does not know
/// (`unsupported_backend`) — clients probing for backend support need
/// the distinction to fall back rather than fix their request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum RequestError {
    /// Malformed or invalid request field.
    Bad(String),
    /// Unknown `"backend"` value.
    UnsupportedBackend(String),
}

impl RequestError {
    /// The protocol `error_kind` discriminant.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            RequestError::Bad(_) => "bad_request",
            RequestError::UnsupportedBackend(_) => "unsupported_backend",
        }
    }

    /// Human-readable description for the `error` field.
    pub(crate) fn message(&self) -> &str {
        match self {
            RequestError::Bad(m) | RequestError::UnsupportedBackend(m) => m,
        }
    }
}

impl From<String> for RequestError {
    fn from(m: String) -> RequestError {
        RequestError::Bad(m)
    }
}

impl From<&str> for RequestError {
    fn from(m: &str) -> RequestError {
        RequestError::Bad(m.to_string())
    }
}

/// Field `key` of `req` read by `read`, or `err` when it is present but
/// `read` refuses it.
fn field<'a, T>(
    req: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
    err: &str,
) -> Result<Option<T>, RequestError> {
    req.get(key)
        .map(|v| read(v).ok_or_else(|| RequestError::from(err)))
        .transpose()
}

/// A non-negative integer that fits a `usize`.
fn as_usize(v: &Json) -> Option<usize> {
    v.as_u64().and_then(|v| usize::try_from(v).ok())
}

/// A compile's overrides of its member's configuration.
struct Overrides {
    backend: Option<BackendKind>,
    smem: Option<SmemStrategy>,
    tune: Option<TuneMode>,
    smoke: Option<bool>,
    verify: Option<bool>,
    workload: Option<(Vec<usize>, usize)>,
    top_k: Option<usize>,
    tune_workers: Option<usize>,
    proxy: Option<f64>,
}

impl Overrides {
    fn parse(req: &Json) -> Result<Overrides, RequestError> {
        let backend = field(req, "backend", Json::as_str, "\"backend\" must be a string")?
            .map(|name| {
                BackendKind::parse(name).ok_or_else(|| {
                    RequestError::UnsupportedBackend(format!(
                        "unknown backend {name:?} (cuda | wgsl | hip | cpu)"
                    ))
                })
            })
            .transpose()?;
        let smem = field(req, "smem", Json::as_str, "\"smem\" must be a string")?
            .map(|name| {
                SmemStrategy::parse(name).ok_or_else(|| {
                    format!(
                        "unknown smem strategy {name:?} (global_only | copy_in_out | \
                         interleaved_copy_out | reuse_static | reuse_dynamic)"
                    )
                })
            })
            .transpose()?;
        let tune = field(req, "tune", Json::as_str, "\"tune\" must be a string")?
            .map(|name| match name {
                "static" => Ok(TuneMode::Static),
                "simulated" => Ok(TuneMode::Simulated),
                other => Err(format!("unknown tune mode {other:?} (static | simulated)")),
            })
            .transpose()?;
        let smoke = field(req, "smoke", Json::as_bool, "\"smoke\" must be a boolean")?;
        let verify = field(req, "verify", Json::as_bool, "\"verify\" must be a boolean")?;
        let size = field(
            req,
            "size",
            Json::as_arr,
            "\"size\" must be an array of integers",
        )?
        .map(|dims| {
            dims.iter()
                .map(|d| as_usize(d).filter(|&d| d > 0))
                .collect::<Option<Vec<usize>>>()
                .ok_or("\"size\" entries must be positive integers")
        })
        .transpose()?;
        let steps = field(
            req,
            "steps",
            |s| as_usize(s).filter(|&s| s > 0),
            "\"steps\" must be a positive integer",
        )?;
        let workload = match (size, steps) {
            (Some(dims), Some(steps)) => Some((dims, steps)),
            (None, None) => None,
            _ => return Err("\"size\" and \"steps\" must be given together".into()),
        };
        let top_k = field(
            req,
            "top_k",
            as_usize,
            "\"top_k\" must be a non-negative integer",
        )?;
        let tune_workers = field(
            req,
            "tune_workers",
            as_usize,
            "\"tune_workers\" must be a non-negative integer (0 = auto)",
        )?;
        let proxy = field(req, "proxy", Json::as_f64, "\"proxy\" must be a number")?;
        if let Some(frac) = proxy.filter(|&f| !(f > 0.0 && f <= 1.0)) {
            return Err(
                format!("\"proxy\" must be in (0, 1] (1 disables the ladder), got {frac}").into(),
            );
        }
        Ok(Overrides {
            backend,
            smem,
            tune,
            smoke,
            verify,
            workload,
            top_k,
            tune_workers,
            proxy,
        })
    }

    /// Overlays these overrides on `cfg`.
    fn apply(self, cfg: &mut DriverConfig) {
        if let Some(kind) = self.backend {
            cfg.backend = kind;
            // Each backend defaults to the best ladder step it can lower
            // (WGSL clamps (f) to (e)); an explicit "smem" field can
            // still override it.
            cfg.opts = kind.backend().default_options();
        }
        if let Some(smem) = self.smem {
            cfg.opts.smem = smem;
        }
        cfg.tune = self.tune.unwrap_or(cfg.tune);
        cfg.smoke = self.smoke.unwrap_or(cfg.smoke);
        cfg.verify = self.verify.unwrap_or(cfg.verify);
        if self.workload.is_some() {
            cfg.workload = self.workload;
        }
        cfg.top_k = self.top_k.unwrap_or(cfg.top_k);
        cfg.tune_workers = self.tune_workers.unwrap_or(cfg.tune_workers);
        cfg.proxy = self.proxy.unwrap_or(cfg.proxy);
    }
}

impl CompileJob {
    /// The compile's fields other than `device`, checked in wire order:
    /// the overrides, then `deadline_ms`, then the source.
    fn parse(req: &Json) -> Result<CompileJob, RequestError> {
        Ok(CompileJob {
            overrides: Overrides::parse(req)?,
            deadline_ms: field(
                req,
                "deadline_ms",
                Json::as_u64,
                "\"deadline_ms\" must be a non-negative integer",
            )?,
            source: compile_source(req)?,
        })
    }
}

/// How a compile request names its program.
enum CompileSource {
    /// Inline DSL text under a (sanitized) name.
    Inline { name: String, text: String },
    /// A `.stencil` file path.
    File(String),
}

/// Resolves a compile request's `program`/`path`/`name` fields, or a
/// typed error description.
fn compile_source(req: &Json) -> Result<CompileSource, String> {
    let program = req.get("program").map(|p| p.as_str());
    let path = req.get("path").map(|p| p.as_str());
    match (program, path) {
        (Some(Some(text)), None) => {
            let name = match req.get("name") {
                None => "stencil".to_string(),
                Some(n) => sanitize_program_name(n.as_str().ok_or("\"name\" must be a string")?),
            };
            Ok(CompileSource::Inline {
                name,
                text: text.to_string(),
            })
        }
        (None, Some(Some(p))) => Ok(CompileSource::File(p.to_string())),
        (Some(None), _) => Err("\"program\" must be a string".to_string()),
        (_, Some(None)) => Err("\"path\" must be a string".to_string()),
        (Some(_), Some(_)) => {
            Err("give exactly one of \"program\" or \"path\", not both".to_string())
        }
        (None, None) => {
            Err("compile needs \"program\" (inline DSL) or \"path\" (a .stencil file)".to_string())
        }
    }
}

/// Resolves a request's `device` field: a preset name (`"gtx470"` |
/// `"nvs5200m"`), or a device object — `{"base": "gtx470", "sms": 8,
/// ...}` — overriding any architectural parameter of the base preset.
/// An object without `"base"` starts from `default` (the service's
/// configured device), consistent with requests that omit `device`
/// entirely. Because the object is resolved into a [`DeviceConfig`]
/// before fingerprinting, logically identical objects with their keys
/// in any order canonicalize to the same device (and therefore the same
/// cache entries and fleet member).
pub fn resolve_device(v: &Json, default: &DeviceConfig) -> Result<DeviceConfig, String> {
    fn preset(name: &str) -> Result<DeviceConfig, String> {
        match name {
            "gtx470" => Ok(DeviceConfig::gtx470()),
            "nvs5200m" => Ok(DeviceConfig::nvs5200m()),
            other => Err(format!("unknown device {other:?} (gtx470 | nvs5200m)")),
        }
    }
    match v {
        Json::Str(name) => preset(name),
        Json::Obj(pairs) => {
            let mut device = match v.get("base") {
                Some(b) => preset(b.as_str().ok_or("\"base\" must be a device name")?)?,
                None => default.clone(),
            };
            for (key, value) in pairs {
                let bad = |what: &str| format!("device field {key:?} must be {what}");
                match key.as_str() {
                    "base" => {}
                    "name" => {
                        device.name = value.as_str().ok_or_else(|| bad("a string"))?.to_string()
                    }
                    "vendor" => {
                        device.vendor = value.as_str().ok_or_else(|| bad("a string"))?.to_string()
                    }
                    "sms" => {
                        device.sms = value
                            .as_u64()
                            .and_then(|x| u32::try_from(x).ok())
                            .filter(|&x| x > 0)
                            .ok_or_else(|| bad("a positive integer"))?
                    }
                    "cores_per_sm" => {
                        device.cores_per_sm = value
                            .as_u64()
                            .and_then(|x| u32::try_from(x).ok())
                            .filter(|&x| x > 0)
                            .ok_or_else(|| bad("a positive integer"))?
                    }
                    "clock_ghz" => {
                        device.clock_ghz = value
                            .as_f64()
                            .filter(|&x| x > 0.0)
                            .ok_or_else(|| bad("a positive number"))?
                    }
                    "dram_gbps" => {
                        device.dram_gbps = value
                            .as_f64()
                            .filter(|&x| x > 0.0)
                            .ok_or_else(|| bad("a positive number"))?
                    }
                    "l2_gbps" => {
                        device.l2_gbps = value
                            .as_f64()
                            .filter(|&x| x > 0.0)
                            .ok_or_else(|| bad("a positive number"))?
                    }
                    "l2_bytes" => {
                        device.l2_bytes = value
                            .as_u64()
                            .and_then(|x| usize::try_from(x).ok())
                            .filter(|&x| x > 0)
                            .ok_or_else(|| bad("a positive integer"))?
                    }
                    "shared_limit" => {
                        device.shared_limit = value
                            .as_u64()
                            .and_then(|x| usize::try_from(x).ok())
                            .filter(|&x| x > 0)
                            .ok_or_else(|| bad("a positive integer"))?
                    }
                    "launch_overhead_s" => {
                        device.launch_overhead_s = value
                            .as_f64()
                            .filter(|&x| x >= 0.0)
                            .ok_or_else(|| bad("a non-negative number"))?
                    }
                    other => {
                        return Err(format!(
                            "unknown device field {other:?} (base | name | vendor | sms | \
                             cores_per_sm | clock_ghz | dram_gbps | l2_gbps | l2_bytes | \
                             shared_limit | launch_overhead_s)"
                        ))
                    }
                }
            }
            Ok(device)
        }
        _ => Err("\"device\" must be a preset name or a device object".to_string()),
    }
}

/// Prepends the response envelope (`v`, `seq`, echoed `id`) to a
/// payload object.
pub(crate) fn with_envelope(seq: u64, id: Option<&Json>, payload: Json) -> Json {
    let mut pairs = vec![
        ("v".to_string(), Json::UInt(PROTOCOL_VERSION)),
        ("seq".to_string(), Json::UInt(seq)),
    ];
    if let Some(id) = id {
        pairs.push(("id".to_string(), id.clone()));
    }
    if let Json::Obj(rest) = payload {
        pairs.extend(rest);
    } else {
        pairs.push(("result".to_string(), payload));
    }
    Json::Obj(pairs)
}

/// The `metrics` op's response: the Prometheus exposition text as one
/// JSON string field (scrapers that cannot speak the protocol use the
/// `--metrics` HTTP listener instead).
pub(crate) fn metrics_response(seq: u64, id: Option<&Json>, text: String) -> Json {
    with_envelope(
        seq,
        id,
        Json::obj(vec![
            ("status", Json::str("ok")),
            ("op", Json::str("metrics")),
            (
                "content_type",
                Json::str("text/plain; version=0.0.4; charset=utf-8"),
            ),
            ("text", Json::Str(text)),
        ]),
    )
}

pub(crate) fn error_response(seq: u64, id: Option<&Json>, kind: &str, message: &str) -> Json {
    with_envelope(
        seq,
        id,
        Json::obj(vec![
            ("status", Json::str("error")),
            ("error_kind", Json::str(kind)),
            ("error", Json::str(message)),
        ]),
    )
}

/// Counters of one serving loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Responses written.
    pub responses: u64,
    /// Responses with `"status": "error"`.
    pub errors: u64,
}

/// One queued request: the parsed line, the answer the reader already
/// gave it (the TCP handshake's), and its scheduling key. The
/// `deadline` is **arrival-anchored** (enqueue time + the request's own
/// `deadline_ms`) and is used for queue ordering and miss accounting;
/// the compile itself still anchors its execution deadline at pickup,
/// so queue wait never eats a request's compute budget.
struct Job {
    seq: u64,
    req: Request,
    /// The response when the reader answered the line itself; `None`
    /// sends the request to the router.
    answer: Option<Json>,
    /// Arrival-anchored deadline (miss accounting, both policies).
    deadline: Option<Instant>,
    /// The EDF ordering key: `deadline` under [`SchedPolicy::Edf`],
    /// `None` under FIFO (so ordering degenerates to `seq`).
    edf_key: Option<Instant>,
}

impl Job {
    fn new(seq: u64, req: Request, answer: Option<Json>, policy: SchedPolicy) -> Job {
        // Saturating: an absurd deadline_ms schedules like "far future"
        // instead of panicking the queueing thread.
        let deadline = req
            .deadline_ms
            .map(|ms| saturating_deadline(Instant::now(), Duration::from_millis(ms)));
        let edf_key = match policy {
            SchedPolicy::Edf => deadline,
            SchedPolicy::Fifo => None,
        };
        Job {
            seq,
            req,
            answer,
            deadline,
            edf_key,
        }
    }

    /// Min-ordering key: deadline-bearing jobs first (earliest deadline
    /// wins), then arrival order.
    fn rank(&self) -> (bool, Option<Instant>, u64) {
        (self.edf_key.is_none(), self.edf_key, self.seq)
    }
}

impl Ord for Job {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for Job {}

/// The worker pool's priority queue: a min-heap over [`Job::rank`]
/// under a mutex + condvar (closed flag included). Replaces the PR-4
/// mpsc channel so the pool can pick the most urgent request instead of
/// the oldest.
#[derive(Default)]
struct JobQueue {
    heap: Mutex<(BinaryHeap<std::cmp::Reverse<Job>>, bool)>,
    cv: Condvar,
}

impl JobQueue {
    /// Enqueues `job`; returns false when the queue mutex is poisoned
    /// (a worker panicked while holding it — unreachable through the
    /// catch_unwind barrier, but never a reason to panic the reader).
    fn push(&self, job: Job, stats: &Counters) -> bool {
        let Ok(mut q) = self.heap.lock() else {
            return false;
        };
        q.0.push(std::cmp::Reverse(job));
        // Every connection has its own queue over the one shared block:
        // the gauge is the process-wide sum, so it moves by one.
        stats.raise(Id::QueueDepthPeak, stats.add(Id::QueueDepth, 1));
        drop(q);
        self.cv.notify_one();
        true
    }

    /// Closes the queue: pops drain what is left, then return `None`.
    fn close(&self) {
        if let Ok(mut q) = self.heap.lock() {
            q.1 = true;
        }
        self.cv.notify_all();
    }

    /// Blocks for the most urgent job, recording queue depth and EDF
    /// promotions (a deadline job overtaking an earlier arrival still
    /// queued). `None` once the queue is closed and drained.
    fn pop(&self, stats: &Counters) -> Option<Job> {
        let mut q = self.heap.lock().ok()?;
        loop {
            if let Some(std::cmp::Reverse(job)) = q.0.pop() {
                stats.sub(Id::QueueDepth, 1);
                let overtook =
                    job.edf_key.is_some() && q.0.iter().any(|std::cmp::Reverse(j)| j.seq < job.seq);
                stats.add(Id::EdfPromotions, overtook as u64);
                return Some(job);
            }
            if q.1 {
                return None;
            }
            q = self.cv.wait(q).ok()?;
        }
    }
}

/// A TCP connection's handshake, kept by its reader so it is decided in
/// line order: with a secret, every op but `hello` is answered
/// `auth_required` until a `hello` presented the secret; without one the
/// connection starts authenticated. `hello` is answered here, so a
/// secret-less listener still accepts it idempotently — clients can send
/// the handshake unconditionally. Stdin and unix-socket loops trust their
/// transport and have no gate.
struct Gate<'a> {
    secret: Option<&'a str>,
    authed: bool,
}

impl Gate<'_> {
    fn new(secret: Option<&str>) -> Gate<'_> {
        Gate {
            secret,
            authed: secret.is_none(),
        }
    }

    /// The reader's own answer to `req`, or `None` when the router
    /// handles it. The auth counters go to `stats`.
    fn screen(&mut self, seq: u64, req: &Request, stats: &Counters) -> Option<Json> {
        let id = req.id.as_ref();
        let Op::Hello { secret } = &req.op else {
            if self.authed {
                return None;
            }
            // Unauthenticated and not a hello: typed rejection, and the
            // request never reaches the router (malformed JSON included —
            // an anonymous peer learns nothing about the parser).
            stats.add(Id::AuthRejected, 1);
            return Some(error_response(
                seq,
                id,
                "auth_required",
                "this transport requires {\"op\":\"hello\",\"secret\":...} before any other op",
            ));
        };
        if let Some(msg) = &req.bad_version {
            return Some(error_response(seq, id, "unsupported_version", msg));
        }
        if self
            .secret
            .is_some_and(|want| secret.as_deref() != Some(want))
        {
            stats.add(Id::AuthFailures, 1);
            return Some(error_response(
                seq,
                id,
                "auth_failed",
                "hello: wrong or missing \"secret\"",
            ));
        }
        self.authed = true;
        stats.add(Id::AuthOk, 1);
        Some(with_envelope(
            seq,
            id,
            Json::obj(vec![
                ("status", Json::str("ok")),
                ("op", Json::str("hello")),
                ("authenticated", Json::Bool(true)),
            ]),
        ))
    }
}

/// Serves newline-delimited requests from `reader`, writing one
/// compact-JSON response line per request to `writer`, fanning requests
/// out across `workers` pool threads in `policy` order. Returns at end of
/// input or after a `shutdown` request; queued requests are drained
/// either way. This is the stdin transport; the socket transports run it
/// per connection.
///
/// Responses are written as workers finish, so they may be out of request
/// order — clients match on `seq` (input line number, starting at 1) or
/// their own `id` echo.
///
/// # Errors
///
/// Only reader I/O errors are returned; write errors to `writer` are
/// counted but do not stop the loop (a disconnected client must not kill
/// the service for the others).
pub fn serve_with_policy<R: BufRead, W: Write + Send>(
    router: &FleetRouter,
    reader: R,
    writer: W,
    workers: usize,
    policy: SchedPolicy,
) -> io::Result<ServeSummary> {
    serve_conn(router, reader, writer, workers, policy, None)
}

/// [`serve_with_policy`], with the TCP handshake when `gate` is given.
fn serve_conn<R: BufRead, W: Write + Send>(
    router: &FleetRouter,
    reader: R,
    writer: W,
    workers: usize,
    policy: SchedPolicy,
    mut gate: Option<Gate>,
) -> io::Result<ServeSummary> {
    let workers = workers.max(1);
    let stats = router.stats();
    stats.set(Id::SchedPolicy, policy.code());
    let queue = JobQueue::default();
    let writer = Mutex::new(writer);
    let responses = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let mut read_err = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    while let Some(job) = queue.pop(stats) {
                        let response = match job.answer {
                            Some(answer) => answer,
                            None => router.handle(job.seq, job.req),
                        };
                        // A response produced after the arrival-anchored
                        // deadline is a miss under either policy — this
                        // is the number the EDF-vs-FIFO load comparison
                        // measures.
                        if job.deadline.is_some_and(|d| Instant::now() > d) {
                            stats.add(Id::DeadlineMisses, 1);
                        }
                        if response.get("status").and_then(Json::as_str) == Some("error") {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        responses.fetch_add(1, Ordering::Relaxed);
                        let mut line = response.render_compact();
                        line.push('\n');
                        if let Ok(mut w) = writer.lock() {
                            let _ = w.write_all(line.as_bytes());
                            let _ = w.flush();
                        }
                    }
                })
            })
            .collect();

        let mut seq = 0u64;
        for line in reader.lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            };
            seq += 1;
            if let Some(req) = router.parse(&line) {
                // A `shutdown` line stops this reader *now* — the
                // blocking read must not have to wait for another client
                // line (or EOF) to notice the stop flag. The worker still
                // answers the queued request.
                let stop_after = req.is_shutdown();
                let answer = gate.as_mut().and_then(|g| g.screen(seq, &req, stats));
                if !queue.push(Job::new(seq, req, answer, policy), stats) || stop_after {
                    break;
                }
            }
            if router.stopped() {
                break;
            }
        }
        queue.close();
        for h in handles {
            let _ = h.join();
        }
    });

    match read_err {
        Some(e) => Err(e),
        None => Ok(ServeSummary {
            responses: responses.load(Ordering::Relaxed),
            errors: errors.load(Ordering::Relaxed),
        }),
    }
}

/// What the accept loop needs of a connected stream, TCP or unix.
trait Conn: io::Read + Write + Send + Sized {
    fn try_clone(&self) -> io::Result<Self>;
    fn set_blocking(&self) -> io::Result<()>;
    fn shutdown(&self);
}

macro_rules! impl_conn {
    ($stream:ty) => {
        impl Conn for $stream {
            fn try_clone(&self) -> io::Result<Self> {
                <$stream>::try_clone(self)
            }
            fn set_blocking(&self) -> io::Result<()> {
                self.set_nonblocking(false)
            }
            fn shutdown(&self) {
                let _ = <$stream>::shutdown(self, std::net::Shutdown::Both);
            }
        }
    };
}
impl_conn!(std::net::TcpStream);
#[cfg(unix)]
impl_conn!(std::os::unix::net::UnixStream);

/// The "watch" handles of an accept loop's live connections, by
/// connection number: a clone of each accepted stream, kept so a stop can
/// shut a blocked reader down.
type Watches<S> = Mutex<HashMap<u64, S>>;

/// Un-registers one connection's watch handle — closing its descriptor —
/// when the connection's thread finishes, however it finishes.
struct WatchGuard<'a, S> {
    conns: &'a Watches<S>,
    conn: u64,
}

impl<S> Drop for WatchGuard<'_, S> {
    fn drop(&mut self) {
        if let Ok(mut conns) = self.conns.lock() {
            conns.remove(&self.conn);
        }
    }
}

/// Registers `watch` (a `try_clone` of connection number `conn`) for the
/// lifetime of the returned guard, which the connection's thread owns.
fn watch_conn<S>(conns: &Watches<S>, conn: u64, watch: io::Result<S>) -> WatchGuard<'_, S> {
    if let (Ok(watch), Ok(mut conns)) = (watch, conns.lock()) {
        conns.insert(conn, watch);
    }
    WatchGuard { conns, conn }
}

/// The one accept loop behind [`serve_tcp_with`] and [`serve_unix`]:
/// polls `accept` (a non-blocking listener) and runs `serve_conn(read
/// half, write half)` on a thread per connection until `router` stops —
/// then actively disconnects every live connection (socket shutdown) so
/// a blocked read on one client cannot keep the daemon alive, and joins
/// them. Connection-level I/O errors are per-client; they never stop the
/// listener.
fn accept_loop<S: Conn>(
    router: &FleetRouter,
    mut accept: impl FnMut() -> io::Result<S>,
    serve_conn: impl Fn(io::BufReader<S>, S) + Sync,
) -> io::Result<()> {
    let conns: Watches<S> = Mutex::new(HashMap::new());
    let (conns, serve_conn) = (&conns, &serve_conn);
    let mut accepted = 0u64;
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if router.stopped() {
                // Wake every connection's reader; their serving loops
                // return on the resulting EOF and the scope joins them.
                if let Ok(conns) = conns.lock() {
                    conns.values().for_each(Conn::shutdown);
                }
                return Ok(());
            }
            match accept() {
                Ok(stream) => {
                    let _ = stream.set_blocking();
                    accepted += 1;
                    let watch = watch_conn(conns, accepted, stream.try_clone());
                    scope.spawn(move || {
                        let _watch = watch;
                        if let Ok(read_half) = stream.try_clone() {
                            serve_conn(io::BufReader::new(read_half), stream);
                        }
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
    })
}

/// Serves TCP connections on `listener`, one serving loop per connection,
/// all sharing `router` (and therefore its members' plan caches), in
/// `policy` order and with an optional shared secret. With a secret,
/// every connection must open with `{"op":"hello","secret":"..."}` before
/// any other op (the handshake is decided on the connection's reader, in
/// line order, so a pipelined `hello` authenticates the lines after it);
/// note an unauthenticated `shutdown` line is *rejected* but still ends
/// that one connection's reader — the daemon itself keeps serving.
/// Returns after a `shutdown` request has been served and every live
/// connection drained (see `accept_loop`).
pub fn serve_tcp_with(
    router: &FleetRouter,
    listener: TcpListener,
    workers: usize,
    policy: SchedPolicy,
    secret: Option<&str>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(
        router,
        || listener.accept().map(|(stream, _peer)| stream),
        |reader, writer| {
            let gate = Gate::new(secret);
            let _ = serve_conn(router, reader, writer, workers, policy, Some(gate));
        },
    )
}

/// Serves unix-socket connections on `listener` — same protocol and
/// shutdown semantics as [`serve_tcp_with`], but **without** the hello
/// handshake: filesystem permissions on the socket path are the trust
/// boundary for local clients.
#[cfg(unix)]
pub fn serve_unix(
    router: &FleetRouter,
    listener: std::os::unix::net::UnixListener,
    workers: usize,
    policy: SchedPolicy,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(
        router,
        || listener.accept().map(|(stream, _peer)| stream),
        |reader, writer| {
            let _ = serve_with_policy(router, reader, writer, workers, policy);
        },
    )
}

/// A minimal Prometheus scrape endpoint: answers **every** HTTP request
/// on `listener` with a `200 text/plain` body of
/// [`FleetRouter::metrics_text`] and closes the connection. Returns
/// once the service stops. Request bytes are drained best-effort — the
/// path and method are ignored, which is exactly what a scraper needs
/// and nothing more.
pub fn serve_metrics_http(router: &FleetRouter, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if router.stopped() {
            return Ok(());
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut head = [0u8; 2048];
                let _ = io::Read::read(&mut stream, &mut head);
                let body = router.metrics_text();
                let header = format!(
                    "HTTP/1.1 200 OK\r\n\
                     content-type: text/plain; version=0.0.4; charset=utf-8\r\n\
                     content-length: {}\r\n\
                     connection: close\r\n\r\n",
                    body.len()
                );
                let _ = stream.write_all(header.as_bytes());
                let _ = stream.write_all(body.as_bytes());
                let _ = stream.flush();
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};
    use std::net::TcpStream;

    const JACOBI: &str = "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    for (j = 1; j < N-1; j++)\n      A[t+1][i][j] = 0.25f * (A[t][i+1][j] + A[t][i-1][j] + A[t][i][j+1] + A[t][i][j-1]);\n";

    /// A one-device fleet around a smoke-sweep config without a disk
    /// cache: the service every `hybridc serve` client talks to.
    fn test_router(tag: &str) -> FleetRouter {
        router_with(tag, |cfg| cfg, FleetOptions::default())
    }

    /// [`test_router`] with `cfg` adjusted and explicit fleet options.
    fn router_with(
        tag: &str,
        adjust: impl FnOnce(DriverConfig) -> DriverConfig,
        opts: FleetOptions,
    ) -> FleetRouter {
        let dir = std::env::temp_dir().join(format!("hybridd_test_{}_{}", std::process::id(), tag));
        let cfg = DriverConfig {
            smoke: true,
            cache_dir: None,
            ..DriverConfig::new(dir)
        };
        FleetRouter::new(adjust(cfg), opts)
    }

    /// One line as the reader parses it.
    fn request(line: &str) -> Request {
        Request::parse(line, &DeviceConfig::gtx470()).unwrap()
    }

    fn compile_req(id: &str, program: &str) -> String {
        Json::obj(vec![
            ("op", Json::str("compile")),
            ("id", Json::str(id)),
            ("name", Json::str(id)),
            ("program", Json::str(program)),
        ])
        .render_compact()
    }

    #[test]
    fn malformed_json_and_bad_ops_get_typed_errors() {
        let router = test_router("bad_ops");
        for (line, want) in [
            ("this is not json", "malformed JSON"),
            ("{\"no\": \"op\"}", "missing \"op\""),
            ("{\"op\": \"frobnicate\"}", "unknown op"),
            ("{\"op\": \"compile\"}", "compile needs"),
            (
                "{\"op\": \"compile\", \"program\": \"x\", \"path\": \"y\"}",
                "exactly one",
            ),
            (
                "{\"op\": \"compile\", \"program\": \"x\", \"size\": [4]}",
                "given together",
            ),
            (
                "{\"op\": \"compile\", \"program\": \"x\", \"device\": \"tpu\"}",
                "unknown device",
            ),
        ] {
            let resp = router.handle_line(1, line).unwrap();
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("error"),
                "{line}"
            );
            let msg = resp.get("error").and_then(Json::as_str).unwrap();
            assert!(msg.contains(want), "{line}: {msg}");
        }
        // Blank lines are ignored, and the service is still serving.
        assert!(router.handle_line(9, "   ").is_none());
        let status = router.handle_line(10, "{\"op\": \"status\"}").unwrap();
        assert_eq!(status.get("status").and_then(Json::as_str), Some("alive"));
        assert_eq!(status.get("errors").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn inline_compile_then_memory_hit() {
        let router = test_router("inline");
        let first = router.handle_line(1, &compile_req("jac", JACOBI)).unwrap();
        assert_eq!(first.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(first.get("id").and_then(Json::as_str), Some("jac"));
        assert_eq!(first.get("seq").and_then(Json::as_u64), Some(1));

        let second = router.handle_line(2, &compile_req("jac", JACOBI)).unwrap();
        assert_eq!(second.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(second.get("cache").and_then(Json::as_str), Some("mem"));
        // Identical plan and metrics, memory-cache provenance aside.
        for key in ["h", "w", "gstencils_per_s", "verified", "fingerprint"] {
            assert_eq!(first.get(key), second.get(key), "{key}");
        }
    }

    #[test]
    fn broken_dsl_and_infeasible_requests_are_per_request_errors() {
        let router = test_router("broken");
        let resp = router
            .handle_line(1, &compile_req("bad", "for (t = 0; t < T; t++) oops"))
            .unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(resp.get("error_kind").and_then(Json::as_str), Some("parse"));

        // Wrong-arity workload for a 2-D program: typed, not fatal.
        let req = Json::obj(vec![
            ("op", Json::str("compile")),
            ("program", Json::str(JACOBI)),
            ("size", Json::Arr(vec![Json::UInt(64)])),
            ("steps", Json::UInt(4)),
        ])
        .render_compact();
        let resp = router.handle_line(2, &req).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("unsupported")
        );

        // The service is still alive and compiles fine afterwards.
        let ok = router.handle_line(3, &compile_req("jac", JACOBI)).unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn rejected_version_shutdown_does_not_stop_the_session() {
        // Regression: the reader's shutdown fast-path must apply the
        // same version gate as dispatch — a v:9 shutdown is answered
        // with unsupported_version and the session keeps serving.
        let router = test_router("v9_shutdown");
        let input = "{\"v\":9,\"op\":\"shutdown\"}\n{\"op\":\"status\"}\n";
        let mut out = Vec::new();
        let summary = serve_with_policy(
            &router,
            Cursor::new(input.to_string()),
            &mut out,
            2,
            SchedPolicy::Edf,
        )
        .unwrap();
        assert_eq!(
            summary.responses, 2,
            "the status after the rejected shutdown must be answered"
        );
        assert_eq!(summary.errors, 1);
        assert!(!router.stopped(), "v:9 shutdown must not stop the service");
        assert!(!request("{\"v\":9,\"op\":\"shutdown\"}").is_shutdown());
        assert!(request("{\"v\":1,\"op\":\"shutdown\"}").is_shutdown());
        assert!(request("{\"op\":\"shutdown\"}").is_shutdown());
    }

    #[test]
    fn device_object_without_base_inherits_the_service_default() {
        // Regression: an object override without "base" must start from
        // the service's configured device (here NVS 5200M), exactly like
        // a request that omits "device" — not silently from gtx470.
        let router = router_with(
            "objbase",
            |cfg| DriverConfig {
                device: DeviceConfig::nvs5200m(),
                ..cfg
            },
            FleetOptions::default(),
        );
        let plain = router.handle_line(1, &compile_req("jac", JACOBI)).unwrap();
        assert_eq!(plain.get("status").and_then(Json::as_str), Some("ok"));
        let req = format!(
            "{{\"op\":\"compile\",\"name\":\"jac\",\"program\":{},\"device\":{{}}}}",
            Json::str(JACOBI).render_compact()
        );
        let via_empty_obj = router.handle_line(2, &req).unwrap();
        assert_eq!(
            via_empty_obj.get("fingerprint"),
            plain.get("fingerprint"),
            "an empty device object must resolve to the service's device"
        );
        assert_eq!(
            via_empty_obj.get("cache").and_then(Json::as_str),
            Some("mem")
        );
    }

    #[test]
    fn responses_are_versioned_and_unknown_versions_are_rejected() {
        let router = test_router("version");
        // Every response carries v:1.
        let status = router.handle_line(1, "{\"op\": \"status\"}").unwrap();
        assert_eq!(status.get("v").and_then(Json::as_u64), Some(1));
        // An explicit v:1 request is accepted.
        let ok = router
            .handle_line(2, "{\"v\": 1, \"op\": \"status\"}")
            .unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("alive"));
        // Unknown versions get the typed error, with the envelope.
        for bad in [
            "{\"v\": 2, \"op\": \"status\"}",
            "{\"v\": \"x\", \"op\": \"status\"}",
        ] {
            let resp = router.handle_line(3, bad).unwrap();
            assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
            assert_eq!(
                resp.get("error_kind").and_then(Json::as_str),
                Some("unsupported_version"),
                "{bad}"
            );
            assert_eq!(resp.get("v").and_then(Json::as_u64), Some(1));
        }
    }

    #[test]
    fn deadline_zero_is_a_typed_deadline_exceeded_error() {
        let router = test_router("deadline");
        let req = Json::obj(vec![
            ("op", Json::str("compile")),
            ("id", Json::str("dl")),
            ("program", Json::str(JACOBI)),
            ("deadline_ms", Json::UInt(0)),
        ])
        .render_compact();
        let resp = router.handle_line(1, &req).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        // The worker survived; the same program compiles without a
        // deadline, and the cancelled attempt left no in-flight marker.
        let ok = router.handle_line(2, &compile_req("jac", JACOBI)).unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        // Non-integer deadlines are a bad request.
        let resp = router
            .handle_line(
                3,
                "{\"op\":\"compile\",\"program\":\"x\",\"deadline_ms\":\"soon\"}",
            )
            .unwrap();
        assert_eq!(
            resp.get("error").and_then(Json::as_str).unwrap(),
            "\"deadline_ms\" must be a non-negative integer"
        );
    }

    #[test]
    fn default_deadline_applies_to_requests_without_their_own() {
        let router = router_with(
            "dd",
            |cfg| cfg,
            FleetOptions {
                default_deadline_ms: Some(0),
                ..FleetOptions::default()
            },
        );
        let resp = router.handle_line(1, &compile_req("jac", JACOBI)).unwrap();
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        // A request can out-vote the default with its own larger budget.
        let req = Json::obj(vec![
            ("op", Json::str("compile")),
            ("program", Json::str(JACOBI)),
            ("deadline_ms", Json::UInt(600_000)),
        ])
        .render_compact();
        let ok = router.handle_line(2, &req).unwrap();
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn cancel_op_stops_an_inflight_compile() {
        use std::sync::atomic::AtomicBool;
        // The scorer blocks until the test has issued the cancel, so the
        // sweep's next between-candidate check deterministically sees
        // the raised flag.
        static CANCEL_SENT: AtomicBool = AtomicBool::new(false);
        fn blocking_scorer(_: &hybrid_tiling::TileSizeModel) -> Option<f64> {
            while !CANCEL_SENT.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Some(1.0)
        }
        CANCEL_SENT.store(false, Ordering::SeqCst);
        let router = router_with(
            "cancel",
            |cfg| DriverConfig {
                scorer: Some(blocking_scorer),
                ..cfg
            },
            FleetOptions::default(),
        );
        let resp = std::thread::scope(|s| {
            let worker = s.spawn(|| {
                router
                    .handle_line(1, &compile_req("victim", JACOBI))
                    .unwrap()
            });
            // Wait until the compile registered itself, then cancel it.
            let found = loop {
                let resp = router
                    .handle_line(2, "{\"op\":\"cancel\",\"id\":\"c\",\"target\":\"victim\"}")
                    .unwrap();
                assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
                if resp.get("found") == Some(&Json::Bool(true)) {
                    break true;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            assert!(found);
            CANCEL_SENT.store(true, Ordering::SeqCst);
            worker.join().unwrap()
        });
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("cancelled")
        );
        // The registry entry is gone: cancelling again finds nothing.
        let again = router
            .handle_line(3, "{\"op\":\"cancel\",\"target\":\"victim\"}")
            .unwrap();
        assert_eq!(again.get("found"), Some(&Json::Bool(false)));
        // Cancel without a target is a bad request.
        let bad = router.handle_line(4, "{\"op\":\"cancel\"}").unwrap();
        assert_eq!(
            bad.get("error_kind").and_then(Json::as_str),
            Some("bad_request")
        );
    }

    #[test]
    fn cancel_reaches_every_concurrent_compile_sharing_an_id() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        // Regression: ids are client-chosen, so two concurrent compiles
        // may share one. A cancel must stop both, and neither guard's
        // cleanup may deregister the other.
        static ENTERED: AtomicU64 = AtomicU64::new(0);
        static RELEASE: AtomicBool = AtomicBool::new(false);
        fn gate_scorer(_: &hybrid_tiling::TileSizeModel) -> Option<f64> {
            ENTERED.fetch_add(1, Ordering::SeqCst);
            while !RELEASE.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Some(1.0)
        }
        ENTERED.store(0, Ordering::SeqCst);
        RELEASE.store(false, Ordering::SeqCst);
        let router = router_with(
            "dup",
            |cfg| DriverConfig {
                scorer: Some(gate_scorer),
                ..cfg
            },
            FleetOptions::default(),
        );
        // Two *different* programs (distinct fingerprints — no
        // single-flight interaction), one shared id.
        let heat1d = "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    A[t+1][i] = 0.25f * (A[t][i-1] + A[t][i+1]);\n";
        let req = |program: &str| {
            Json::obj(vec![
                ("op", Json::str("compile")),
                ("id", Json::str("dup")),
                ("program", Json::str(program)),
            ])
            .render_compact()
        };
        let (a, b) = std::thread::scope(|s| {
            let wa = s.spawn(|| router.handle_line(1, &req(JACOBI)).unwrap());
            let wb = s.spawn(|| router.handle_line(2, &req(heat1d)).unwrap());
            // Both compiles are inside the scorer, so both flags are
            // registered under "dup".
            while ENTERED.load(Ordering::SeqCst) < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let cancel = router
                .handle_line(3, "{\"op\":\"cancel\",\"target\":\"dup\"}")
                .unwrap();
            assert_eq!(cancel.get("found"), Some(&Json::Bool(true)));
            RELEASE.store(true, Ordering::SeqCst);
            (wa.join().unwrap(), wb.join().unwrap())
        });
        for (tag, resp) in [("a", &a), ("b", &b)] {
            assert_eq!(
                resp.get("error_kind").and_then(Json::as_str),
                Some("cancelled"),
                "compile {tag} must be cancelled: {resp:?}"
            );
        }
        // Both guards cleaned up their own registrations.
        let gone = router
            .handle_line(4, "{\"op\":\"cancel\",\"target\":\"dup\"}")
            .unwrap();
        assert_eq!(gone.get("found"), Some(&Json::Bool(false)));
    }

    #[test]
    fn device_objects_canonicalize_regardless_of_key_order() {
        // Satellite regression: logically identical device JSON objects
        // with reordered keys must resolve to the same canonical device
        // fingerprint — same cache entry, same plan, a memory hit on the
        // second request.
        let router = test_router("device_obj");
        let req = |device_json: &str| {
            format!(
                "{{\"op\":\"compile\",\"name\":\"jac\",\"program\":{},\"device\":{}}}",
                Json::str(JACOBI).render_compact(),
                device_json
            )
        };
        let first = router
            .handle_line(1, &req("{\"base\":\"nvs5200m\",\"shared_limit\":32768}"))
            .unwrap();
        assert_eq!(first.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
        let second = router
            .handle_line(2, &req("{\"shared_limit\":32768,\"base\":\"nvs5200m\"}"))
            .unwrap();
        assert_eq!(second.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            second.get("cache").and_then(Json::as_str),
            Some("mem"),
            "reordered device keys must hit the same cache entry"
        );
        assert_eq!(first.get("fingerprint"), second.get("fingerprint"));
        // A *different* shared limit is a different device.
        let third = router
            .handle_line(3, &req("{\"base\":\"nvs5200m\",\"shared_limit\":16384}"))
            .unwrap();
        assert_eq!(third.get("cache").and_then(Json::as_str), Some("miss"));
        // So is a different vendor: cross-vendor devices never share
        // plans even when every numeric parameter matches.
        let amd = router
            .handle_line(
                5,
                &req("{\"base\":\"nvs5200m\",\"shared_limit\":32768,\"vendor\":\"amd\"}"),
            )
            .unwrap();
        assert_eq!(amd.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(amd.get("cache").and_then(Json::as_str), Some("miss"));
        assert_ne!(first.get("fingerprint"), amd.get("fingerprint"));
        // Unknown device fields are typed errors, not silent typos.
        let bad = router.handle_line(4, &req("{\"shred_limit\":1}")).unwrap();
        assert_eq!(
            bad.get("error_kind").and_then(Json::as_str),
            Some("bad_request")
        );
        let msg = bad.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("unknown device field"), "{msg}");
    }

    #[test]
    fn status_reports_the_full_cache_metric_set() {
        let router = test_router("status_fields");
        let _ = router.handle_line(1, &compile_req("jac", JACOBI)).unwrap();
        let _ = router.handle_line(2, &compile_req("jac", JACOBI)).unwrap();
        let fleet = router.handle_line(3, "{\"op\":\"status\"}").unwrap();
        // The per-device entry: the full single-device field set but the
        // service rows.
        let status = &fleet.get("devices").and_then(Json::as_arr).unwrap()[0];
        for key in [
            "uptime_ms",
            "requests",
            "ok",
            "errors",
            "contained_panics",
            "mem_entries",
            "mem_bytes",
            "mem_cap_bytes",
            "mem_lookups",
            "mem_hits",
            "mem_misses",
            "mem_coalesced",
            "mem_bypasses",
            "mem_evictions",
            "mem_cancelled_waits",
            "mem_reexecuted",
            "hit_age_p50_ms",
            "disk_cache",
            "device",
            "device_fingerprint",
            "tune",
            "backend",
            "backend_compiles",
            "top_k",
            "tune_workers",
            "proxy",
            "warm_starts",
            "warm_start_hits",
            "tune_simulations",
            "proxy_simulations",
            "tune_wall_ms",
            "default_deadline_ms",
        ] {
            assert!(status.get(key).is_some(), "status must report {key}");
        }
        // The service rows: counted by the serving loop on the router, so
        // reported once, at the top level.
        for key in [
            "sched_policy",
            "queue_depth",
            "queue_depth_peak",
            "deadline_misses",
            "edf_promotions",
            "auth_ok",
            "auth_failures",
            "auth_rejected",
        ] {
            assert!(fleet.get(key).is_some(), "status must report {key}");
            assert!(status.get(key).is_none(), "devices[] must not report {key}");
        }
        assert_eq!(status.get("mem_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(status.get("mem_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(status.get("mem_reexecuted").and_then(Json::as_u64), Some(0));
        assert!(status.get("mem_bytes").and_then(Json::as_u64).unwrap() > 0);
        assert!(status
            .get("hit_age_p50_ms")
            .and_then(Json::as_u64)
            .is_some());
    }

    /// A request's `"backend"` field selects the emission backend: the
    /// artifact carries the backend's extension, and the per-backend
    /// compile counters in `status` move accordingly.
    #[test]
    fn backend_request_field_selects_the_emitter() {
        let router = test_router("backend_field");
        let req = |id: &str, backend: &str| {
            Json::obj(vec![
                ("op", Json::str("compile")),
                ("id", Json::str(id)),
                ("name", Json::str(id)),
                ("program", Json::str(JACOBI)),
                ("backend", Json::str(backend)),
            ])
            .render_compact()
        };
        let resp = router.handle_line(1, &req("w", "wgsl")).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(resp.get("backend").and_then(Json::as_str), Some("wgsl"));
        let artifact = resp.get("artifact").and_then(Json::as_str).unwrap();
        assert!(artifact.ends_with(".wgsl"), "{artifact}");
        let resp = router.handle_line(2, &req("c", "cuda")).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let status = router.handle_line(3, "{\"op\":\"status\"}").unwrap();
        let compiles = status.get("backend_compiles").unwrap();
        assert_eq!(compiles.get("cuda").and_then(Json::as_u64), Some(1));
        assert_eq!(compiles.get("wgsl").and_then(Json::as_u64), Some(1));
        assert_eq!(compiles.get("hip").and_then(Json::as_u64), Some(0));
        assert_eq!(compiles.get("cpu").and_then(Json::as_u64), Some(0));
    }

    /// An unknown backend name is its own error kind
    /// (`unsupported_backend`), distinct from plain `bad_request`, so
    /// clients probing for backend support can tell "this service does
    /// not speak WGSL" from "my request was malformed".
    #[test]
    fn unknown_backend_is_a_typed_unsupported_backend_error() {
        let router = test_router("backend_unknown");
        let resp = router
            .handle_line(
                1,
                "{\"op\":\"compile\",\"program\":\"x\",\"backend\":\"metal\"}",
            )
            .unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("unsupported_backend")
        );
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("metal"), "{msg}");
        assert!(msg.contains("cuda | wgsl | hip | cpu"), "{msg}");
    }

    /// `"smem"` overrides the backend's default strategy. Forcing one
    /// the backend cannot express surfaces the driver's typed
    /// capability rejection; forcing a supported one compiles.
    #[test]
    fn smem_override_hits_the_backend_capability_gate() {
        let router = test_router("backend_smem");
        let req = |id: &str, smem: &str| {
            Json::obj(vec![
                ("op", Json::str("compile")),
                ("id", Json::str(id)),
                ("name", Json::str(id)),
                ("program", Json::str(JACOBI)),
                ("backend", Json::str("wgsl")),
                ("smem", Json::str(smem)),
            ])
            .render_compact()
        };
        // WGSL has no dynamically-addressed workgroup arrays.
        let resp = router.handle_line(1, &req("bad", "reuse_dynamic")).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("does not support"), "{msg}");
        let resp = router.handle_line(2, &req("ok", "reuse_static")).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        // And a typo'd strategy name is a plain bad_request.
        let resp = router
            .handle_line(3, &req("typo", "reuse_dynamite"))
            .unwrap();
        assert_eq!(
            resp.get("error_kind").and_then(Json::as_str),
            Some("bad_request")
        );
    }

    #[test]
    fn shutdown_stops_the_reader_without_another_line() {
        // The reader must break on the shutdown line itself — a blocked
        // `lines()` call waiting for the next client line would hang the
        // daemon. A reader that never yields another line after shutdown
        // models a client that keeps the connection open: the loop must
        // still return (and answer everything up to the shutdown).
        struct AfterShutdownBlocks {
            fed: Vec<u8>,
            pos: usize,
        }
        impl io::Read for AfterShutdownBlocks {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos >= self.fed.len() {
                    panic!("reader blocked past shutdown: serve() kept reading");
                }
                let n = buf.len().min(self.fed.len() - self.pos);
                buf[..n].copy_from_slice(&self.fed[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let router = test_router("early_shutdown");
        let fed = format!(
            "{}\n{}\n",
            Json::obj(vec![("op", Json::str("status"))]).render_compact(),
            Json::obj(vec![("op", Json::str("shutdown"))]).render_compact(),
        );
        let reader = io::BufReader::new(AfterShutdownBlocks {
            fed: fed.into_bytes(),
            pos: 0,
        });
        let mut out = Vec::new();
        let summary = serve_with_policy(&router, reader, &mut out, 2, SchedPolicy::Edf).unwrap();
        assert_eq!(summary.responses, 2);
        assert!(router.stopped());
        // A compile request whose *program text* mentions shutdown is not
        // a shutdown.
        assert!(!request("{\"op\":\"compile\",\"program\":\"// shutdown valve\"}").is_shutdown());
        assert!(request("  {\"op\": \"shutdown\"} ").is_shutdown());
    }

    #[test]
    fn edf_queue_orders_by_deadline_then_arrival() {
        let stats = Counters::default();
        let q = JobQueue::default();
        let now = Instant::now();
        let mk = |seq: u64, dl_ms: Option<u64>| {
            let deadline = dl_ms.map(|ms| now + Duration::from_millis(ms));
            Job {
                seq,
                req: request("{\"op\":\"status\"}"),
                answer: None,
                deadline,
                edf_key: deadline,
            }
        };
        // Arrival order: no-deadline, far deadline, near deadline.
        assert!(q.push(mk(1, None), &stats));
        assert!(q.push(mk(2, Some(5000)), &stats));
        assert!(q.push(mk(3, Some(100)), &stats));
        q.close();
        // Pop order: nearest deadline, then farther, then deadline-less.
        assert_eq!(q.pop(&stats).unwrap().seq, 3);
        assert_eq!(q.pop(&stats).unwrap().seq, 2);
        assert_eq!(q.pop(&stats).unwrap().seq, 1);
        assert!(q.pop(&stats).is_none(), "closed and drained");
        // seq 3 and seq 2 each overtook the still-queued seq 1.
        assert_eq!(stats.get(Id::EdfPromotions), 2);
        assert_eq!(stats.get(Id::QueueDepthPeak), 3);
        assert_eq!(stats.get(Id::QueueDepth), 0);
    }

    #[test]
    fn fifo_jobs_ignore_deadlines_and_keep_arrival_order() {
        let stats = Counters::default();
        let q = JobQueue::default();
        let line_with_deadline = "{\"op\":\"compile\",\"program\":\"x\",\"deadline_ms\":1}";
        assert!(q.push(
            Job::new(1, request("{\"op\":\"status\"}"), None, SchedPolicy::Fifo),
            &stats
        ));
        assert!(q.push(
            Job::new(2, request(line_with_deadline), None, SchedPolicy::Fifo),
            &stats
        ));
        q.close();
        let first = q.pop(&stats).unwrap();
        assert_eq!(first.seq, 1);
        let second = q.pop(&stats).unwrap();
        assert_eq!(second.seq, 2);
        // FIFO still *records* the deadline (miss accounting applies to
        // both policies) — it just never orders by it.
        assert!(second.deadline.is_some());
        assert!(second.edf_key.is_none());
        assert_eq!(stats.get(Id::EdfPromotions), 0);
        // Under EDF the same line gets a scheduling key.
        let edf = Job::new(3, request(line_with_deadline), None, SchedPolicy::Edf);
        assert!(edf.edf_key.is_some());
    }

    #[test]
    fn queue_depth_is_the_sum_over_every_connections_queue() {
        // Two connections, one stats block: the gauge must not be
        // whichever queue wrote last (3 / 3 / 2 before the fix).
        let stats = Counters::default();
        let (a, b) = (JobQueue::default(), JobQueue::default());
        let job = |seq| Job::new(seq, request("{\"op\":\"status\"}"), None, SchedPolicy::Edf);
        for seq in 1..=2 {
            assert!(a.push(job(seq), &stats));
        }
        for seq in 3..=5 {
            assert!(b.push(job(seq), &stats));
        }
        assert_eq!(stats.get(Id::QueueDepth), 5);
        assert_eq!(stats.get(Id::QueueDepthPeak), 5);
        assert_eq!(a.pop(&stats).unwrap().seq, 1);
        assert_eq!(stats.get(Id::QueueDepth), 4);
        assert_eq!(stats.get(Id::QueueDepthPeak), 5);
    }

    #[test]
    fn deadline_misses_and_policy_are_tracked_by_the_loop() {
        let router = test_router("edf_stats");
        let input = format!(
            "{}\n{}\n",
            // deadline_ms 0: already expired on arrival — a guaranteed
            // miss whichever worker picks it up.
            "{\"op\":\"compile\",\"program\":\"x\",\"deadline_ms\":0}",
            "{\"op\":\"shutdown\"}",
        );
        let mut out = Vec::new();
        let summary =
            serve_with_policy(&router, Cursor::new(input), &mut out, 2, SchedPolicy::Edf).unwrap();
        assert_eq!(summary.responses, 2);
        assert_eq!(router.stats().get(Id::DeadlineMisses), 1);
        assert_eq!(router.stats().get(Id::SchedPolicy), SchedPolicy::Edf.code());
        let status = router.status_payload();
        assert_eq!(
            status.get("sched_policy").and_then(Json::as_str),
            Some("edf")
        );
        assert_eq!(
            status.get("deadline_misses").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn auth_gate_rejects_everything_until_hello() {
        let router = test_router("auth");
        // The reader's decision, then the router for what it lets through.
        let ask = |gate: &mut Gate, seq: u64, line: &str| {
            let req = router.parse(line).unwrap();
            gate.screen(seq, &req, router.stats())
                .unwrap_or_else(|| router.handle(seq, req))
        };
        let mut gate = Gate::new(Some("s3cret"));
        // Any op (and even malformed JSON) before hello: auth_required.
        for line in [
            "{\"op\":\"status\",\"id\":\"x\"}",
            "{\"op\":\"compile\",\"program\":\"x\"}",
            "not json at all",
        ] {
            let resp = ask(&mut gate, 1, line);
            assert_eq!(
                resp.get("error_kind").and_then(Json::as_str),
                Some("auth_required"),
                "{line}"
            );
        }
        // Wrong secret: typed auth_failed, still locked.
        let bad = ask(&mut gate, 2, "{\"op\":\"hello\",\"secret\":\"wrong\"}");
        assert_eq!(
            bad.get("error_kind").and_then(Json::as_str),
            Some("auth_failed")
        );
        // Version gate applies to hello like any other op.
        let v9 = ask(
            &mut gate,
            3,
            "{\"v\":9,\"op\":\"hello\",\"secret\":\"s3cret\"}",
        );
        assert_eq!(
            v9.get("error_kind").and_then(Json::as_str),
            Some("unsupported_version")
        );
        // Right secret: authenticated, and ops flow to the real handler.
        let ok = ask(
            &mut gate,
            4,
            "{\"op\":\"hello\",\"id\":\"h\",\"secret\":\"s3cret\"}",
        );
        assert_eq!(ok.get("authenticated"), Some(&Json::Bool(true)));
        let status = ask(&mut gate, 5, "{\"op\":\"status\"}");
        assert_eq!(status.get("status").and_then(Json::as_str), Some("alive"));
        assert_eq!(router.stats().get(Id::AuthRejected), 3);
        assert_eq!(router.stats().get(Id::AuthFailures), 1);
        assert_eq!(router.stats().get(Id::AuthOk), 1);
        // A gate without a secret answers hello idempotently and
        // forwards everything else straight away.
        let mut open = Gate::new(None);
        let hello = ask(&mut open, 1, "{\"op\":\"hello\"}");
        assert_eq!(hello.get("authenticated"), Some(&Json::Bool(true)));
        let status = ask(&mut open, 2, "{\"op\":\"status\"}");
        assert_eq!(status.get("status").and_then(Json::as_str), Some("alive"));
    }

    /// Auth is decided on the reader, in line order: a `hello` pipelined
    /// in one write with the lines around it authenticates exactly the
    /// lines after it, even when EDF runs a later deadline-bearing line
    /// before the `hello`'s own turn on the one worker.
    #[test]
    fn a_pipelined_hello_authenticates_the_lines_after_it() {
        let router = test_router("pipelined_hello");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server =
                s.spawn(|| serve_tcp_with(&router, listener, 1, SchedPolicy::Edf, Some("s3cret")));
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            stream
                .write_all(
                    concat!(
                        "{\"op\":\"status\",\"id\":\"early\"}\n",
                        "{\"op\":\"hello\",\"id\":\"hello\",\"secret\":\"s3cret\"}\n",
                        "{\"op\":\"status\",\"id\":\"after\",\"deadline_ms\":60000}\n",
                    )
                    .as_bytes(),
                )
                .unwrap();
            let mut by_id = HashMap::new();
            for _ in 0..3 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let resp = Json::parse(line.trim()).unwrap();
                let id = resp.get("id").and_then(Json::as_str).unwrap().to_string();
                by_id.insert(id, resp);
            }
            let field = |id: &str, key: &str| by_id[id].get(key).cloned();
            assert_eq!(
                field("early", "error_kind"),
                Some(Json::str("auth_required"))
            );
            assert_eq!(field("hello", "authenticated"), Some(Json::Bool(true)));
            assert_eq!(field("after", "status"), Some(Json::str("alive")));
            writeln!(stream, "{{\"op\":\"shutdown\"}}").unwrap();
            server.join().unwrap().unwrap();
        });
        assert_eq!(router.stats().get(Id::AuthRejected), 1);
        assert_eq!(router.stats().get(Id::AuthOk), 1);
    }

    #[test]
    fn metrics_op_returns_parseable_exposition_text() {
        let router = test_router("metrics_op");
        let _ = router.handle_line(1, &compile_req("jac", JACOBI)).unwrap();
        let resp = router
            .handle_line(2, "{\"op\":\"metrics\",\"id\":\"m\"}")
            .unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let text = resp.get("text").and_then(Json::as_str).unwrap();
        let samples = crate::metrics::parse_exposition(text).unwrap();
        assert!(!samples.is_empty());
        assert!(
            samples
                .iter()
                .any(|(s, v)| s.starts_with("hybrid_requests_total") && *v >= 1.0),
            "metrics must include the request counter"
        );
    }

    #[test]
    fn serve_loop_drains_input_and_honors_shutdown() {
        let router = test_router("loop");
        let input = format!(
            "{}\nnot json\n{}\n{}\n",
            compile_req("a", JACOBI),
            Json::obj(vec![("op", Json::str("status"))]).render_compact(),
            Json::obj(vec![("op", Json::str("shutdown"))]).render_compact(),
        );
        let mut out = Vec::new();
        let summary =
            serve_with_policy(&router, Cursor::new(input), &mut out, 2, SchedPolicy::Edf).unwrap();
        assert_eq!(summary.responses, 4);
        assert_eq!(summary.errors, 1);
        assert!(router.stopped());
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        // Every line is valid compact JSON with a seq.
        for line in &lines {
            let v = Json::parse(line).unwrap();
            assert!(v.get("seq").and_then(Json::as_u64).is_some(), "{line}");
        }
    }
}

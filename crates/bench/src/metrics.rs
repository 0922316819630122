//! The counter registry: every series the serving layer counts, declared
//! once, and everything that is derived from the declaration.
//!
//! [`REGISTRY`] is one table with one row per series — its [`Id`], its
//! `status` JSON key, its Prometheus family, label and help, its
//! [`Kind`], its [`Scope`] and whether the fleet's top-level `status`
//! sums it over the members. Nothing else in the crate spells a counter's
//! name:
//!
//! * **storage** is one [`Counters`] block (an `[AtomicU64; N]` indexed
//!   by `Id`) per owner — a [`MemCache`](crate::driver::MemCache), a
//!   fleet member ([`ServeState`](crate::serve::ServeState)), the
//!   [`FleetRouter`](crate::fleet::FleetRouter) — and
//!   the increment site is `counters.add(Id::X, n)`: one indexed relaxed
//!   atomic add, no lock, no allocation, no table scan;
//! * **computed gauges** (cache size, hit-age quantiles, uptime, member
//!   count) are rows like any other; their value is an arm of the
//!   owner's `get(id)` instead of a stored cell;
//! * **`status`** (`status_fields`), the **fleet roll-up**
//!   (`FleetRouter::total` adds the members' values for `fleet_sum` rows),
//!   the **Prometheus text** ([`render`] over a [`MetricsSnapshot`] of
//!   [`Values`]) and the scrape check ([`check_scrape`], behind
//!   `hybridload --check-metrics`) all iterate the table; a unit test
//!   holds the README's two reference tables to it.
//!
//! The table is in `status` order (the handlers splice their
//! hand-written config echoes between `Id` ranges of it); `pos` gives
//! each family its place in the exposition, which predates the table and
//! is pinned byte for byte by `tests/golden/metrics.prom`. The text is
//! served as the `metrics` protocol op and verbatim by the `--metrics`
//! HTTP listener ([`serve_metrics_http`](crate::serve::serve_metrics_http)).
//!
//! Names are stable API: counter families end in `_total`, gauges don't,
//! and every per-device series carries a `device` label so fleet
//! aggregation is a plain `sum by ()`.

use std::sync::atomic::{AtomicU64, Ordering};

use gpu_codegen::BackendKind;

use crate::json::Json;
use crate::serve::SchedPolicy;

/// Prometheus metric type of a series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic; the family name ends in `_total`.
    Counter,
    /// May go down (or is a configuration value).
    Gauge,
}

impl Kind {
    /// The `# TYPE` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// Who a series describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// One per device (fleet member): carries a `device` label and
    /// appears in each `devices[]` entry of the fleet status.
    Device,
    /// One per service: the serving loops' scheduling and transport
    /// counters, owned by the fleet router the loops drive.
    Service,
}

/// One row of the [`REGISTRY`].
#[derive(Clone, Copy, Debug)]
pub struct Series {
    pub id: Id,
    pub kind: Kind,
    pub scope: Scope,
    /// The fleet's top-level `status` adds every member's value to the
    /// router's own (otherwise it reports the router's own alone).
    pub fleet_sum: bool,
    /// The `status` JSON key; `outer.inner` nests under one `outer`
    /// object. `None` = not in `status`.
    pub key: Option<&'static str>,
    /// Place of the family in the exposition (rows of one family share
    /// it; 0 without a family). New families take the next number.
    pub pos: u8,
    /// The Prometheus family; `None` = not exported.
    pub family: Option<&'static str>,
    /// The label that tells this row from the others of its family.
    pub label: Option<(&'static str, &'static str)>,
    pub help: &'static str,
}

macro_rules! opt {
    (-) => {
        None
    };
    ($some:expr) => {
        Some($some)
    };
}

macro_rules! fleet_sum {
    (-) => {
        false
    };
    (sum) => {
        true
    };
}

/// Declares [`Id`] and [`REGISTRY`] from one list, so an id *is* its
/// row's index.
macro_rules! registry {
    ($($id:ident $kind:ident $scope:ident $fleet:tt $key:tt $pos:literal $family:tt $label:tt $help:literal;)*) => {
        /// Names one series: the index of its row in [`REGISTRY`] and of
        /// its cell in every [`Counters`] and [`Values`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Id { $($id),* }

        /// Every series of the serving layer; see the module docs.
        pub const REGISTRY: &[Series] = &[$(Series {
            id: Id::$id,
            kind: Kind::$kind,
            scope: Scope::$scope,
            fleet_sum: fleet_sum!($fleet),
            key: opt!($key),
            pos: $pos,
            family: opt!($family),
            label: opt!($label),
            help: $help,
        }),*];
    };
}

registry! {
//  id                kind    scope   fleet status key              pos family                                 label
//      help (the first row of a family carries it)
    UptimeMs          Gauge   Service -     "uptime_ms"             1   "hybrid_uptime_milliseconds"           -
        "Milliseconds since the service started.";
    Requests          Counter Device  -     "requests"              2   "hybrid_requests_total"                -
        "Requests handled, including failed ones.";
    Ok                Counter Device  sum   "ok"                    3   "hybrid_ok_total"                      -
        "Requests answered with a non-error status.";
    Errors            Counter Device  sum   "errors"                4   "hybrid_errors_total"                  -
        "Requests answered with status \"error\".";
    ContainedPanics   Counter Device  sum   "contained_panics"      5   "hybrid_contained_panics_total"        -
        "Panics contained at the request boundary.";
    MemEntries        Gauge   Device  -     "mem_entries"           13  "hybrid_mem_cache_entries"             -
        "Ready entries in the in-memory plan cache.";
    MemBytes          Gauge   Device  -     "mem_bytes"             14  "hybrid_mem_cache_bytes"               -
        "Bytes held by ready in-memory plan cache entries.";
    MemCapBytes       Gauge   Device  -     "mem_cap_bytes"         15  "hybrid_mem_cache_cap_bytes"           -
        "Configured in-memory plan cache byte cap.";
    MemLookups        Counter Device  -     "mem_lookups"           0   -                                      - "";
    MemHits           Counter Device  -     "mem_hits"              12  "hybrid_mem_cache_lookups_total"       ("outcome", "hit")
        "In-memory plan cache lookups by outcome.";
    MemMisses         Counter Device  -     "mem_misses"            12  "hybrid_mem_cache_lookups_total"       ("outcome", "miss") "";
    MemCoalesced      Counter Device  -     "mem_coalesced"         12  "hybrid_mem_cache_lookups_total"       ("outcome", "coalesced") "";
    MemBypasses       Counter Device  -     "mem_bypasses"          12  "hybrid_mem_cache_lookups_total"       ("outcome", "bypass") "";
    MemEvictions      Counter Device  -     "mem_evictions"         16  "hybrid_mem_cache_evictions_total"     -
        "LRU evictions from the in-memory plan cache.";
    MemCancelledWaits Counter Device  -     "mem_cancelled_waits"   12  "hybrid_mem_cache_lookups_total"       ("outcome", "cancelled_wait") "";
    MemReexecuted     Counter Device  sum   "mem_reexecuted"        18  "hybrid_mem_cache_reexecuted_total"    -
        "Memory-cache hits that re-ran the pipeline (unverified record, verifying request).";
    HitAgeP50         Gauge   Device  -     "hit_age_p50_ms"        19  "hybrid_hit_age_ms"                    ("quantile", "0.5")
        "Age of entries at memory-cache hit time, in milliseconds.";
    HitAgeP90         Gauge   Device  -     -                       19  "hybrid_hit_age_ms"                    ("quantile", "0.9") "";
    HitAgeP99         Gauge   Device  -     -                       19  "hybrid_hit_age_ms"                    ("quantile", "0.99") "";
    BackendCuda       Counter Device  sum   "backend_compiles.cuda" 11  "hybrid_backend_compiles_total"        ("backend", "cuda")
        "Successful compiles by code-generation backend.";
    BackendWgsl       Counter Device  sum   "backend_compiles.wgsl" 11  "hybrid_backend_compiles_total"        ("backend", "wgsl") "";
    BackendHip        Counter Device  sum   "backend_compiles.hip"  11  "hybrid_backend_compiles_total"        ("backend", "hip") "";
    BackendCpu        Counter Device  sum   "backend_compiles.cpu"  11  "hybrid_backend_compiles_total"        ("backend", "cpu") "";
    WarmStarts        Counter Device  sum   "warm_starts"           6   "hybrid_warm_starts_total"             -
        "Compiles that re-verified cross-device warm-start hints.";
    WarmStartHits     Counter Device  sum   "warm_start_hits"       7   "hybrid_warm_start_hits_total"         -
        "Compiles whose winning plan equals a warm-start hint, whether or not the sweep found it too.";
    TuneSimulations   Counter Device  sum   "tune_simulations"      8   "hybrid_tune_simulations_total"        -
        "Tuning scorer invocations, warm-hint re-verifications included.";
    ProxySimulations  Counter Device  sum   "proxy_simulations"     9   "hybrid_proxy_simulations_total"       -
        "Proxy-fidelity scorer invocations (reduced-workload ladder rounds).";
    TuneWallMs        Counter Device  sum   "tune_wall_ms"          10  "hybrid_tune_wall_milliseconds_total"  -
        "Wall-clock milliseconds spent in fresh tuning sweeps.";
    Devices           Gauge   Service -     "device_count"          20  "hybrid_devices"                       -
        "Fleet members (1 for a single-device service).";
    MaxDevices        Gauge   Service -     "max_devices"           21  "hybrid_max_devices"                   -
        "Configured fleet member bound (--max-devices).";
    SchedPolicy       Gauge   Service -     "sched_policy"          26  "hybrid_sched_policy"                  ("policy", "")
        "Active scheduling policy (the labeled policy is 1).";
    QueueDepth        Gauge   Service -     "queue_depth"           22  "hybrid_queue_depth"                   -
        "Requests queued, not yet picked up by a worker.";
    QueueDepthPeak    Gauge   Service -     "queue_depth_peak"      23  "hybrid_queue_depth_peak"              -
        "High-water mark of hybrid_queue_depth.";
    DeadlineMisses    Counter Service -     "deadline_misses"       24  "hybrid_deadline_misses_total"         -
        "Responses produced after the request's arrival-anchored deadline.";
    EdfPromotions     Counter Service -     "edf_promotions"        25  "hybrid_edf_promotions_total"          -
        "Deadline requests scheduled ahead of earlier arrivals.";
    AuthOk            Counter Service -     "auth_ok"               27  "hybrid_auth_ok_total"                 -
        "Successful hello handshakes.";
    AuthFailures      Counter Service -     "auth_failures"         28  "hybrid_auth_failures_total"           -
        "Hello handshakes with a wrong secret.";
    AuthRejected      Counter Service -     "auth_rejected"         29  "hybrid_auth_rejected_total"           -
        "Ops rejected with auth_required on unauthenticated connections.";
}

/// Series in the table, and cells in every [`Counters`] and [`Values`].
const N: usize = REGISTRY.len();

/// The row of `id`.
pub fn series(id: Id) -> &'static Series {
    &REGISTRY[id as usize]
}

impl Id {
    /// The successful-compiles counter of `backend` (the four rows are
    /// in [`BackendKind::index`] order).
    pub(crate) fn backend(backend: BackendKind) -> Id {
        REGISTRY[Id::BackendCuda as usize + backend.index()].id
    }
}

/// One owner's stored cells. Owners touch only the ids they count; the
/// rest stay zero.
pub struct Counters([AtomicU64; N]);

impl Default for Counters {
    fn default() -> Counters {
        Counters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Counters {
    pub fn get(&self, id: Id) -> u64 {
        self.0[id as usize].load(Ordering::Relaxed)
    }

    /// Adds `n` and returns the new value.
    pub fn add(&self, id: Id, n: u64) -> u64 {
        self.0[id as usize]
            .fetch_add(n, Ordering::Relaxed)
            .wrapping_add(n)
    }

    /// Gauges only: lowers by `n`.
    pub(crate) fn sub(&self, id: Id, n: u64) {
        self.0[id as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// Gauges only: overwrites.
    pub(crate) fn set(&self, id: Id, value: u64) {
        self.0[id as usize].store(value, Ordering::Relaxed);
    }

    /// Gauges only: raises to at least `value` (a high-water mark).
    pub(crate) fn raise(&self, id: Id, value: u64) {
        self.0[id as usize].fetch_max(value, Ordering::Relaxed);
    }
}

/// A point-in-time reading of every series of one scope; `None` = the
/// series is absent (an unbounded cache has no cap, no hit has an age).
#[derive(Clone, Debug, PartialEq)]
pub struct Values([Option<u64>; N]);

impl Default for Values {
    fn default() -> Values {
        Values([None; N])
    }
}

impl Values {
    pub fn get(&self, id: Id) -> Option<u64> {
        self.0[id as usize]
    }

    pub fn set(&mut self, id: Id, value: u64) {
        self.0[id as usize] = Some(value);
    }

    /// Reads every series of `scope` through `get`.
    pub fn collect(scope: Scope, get: impl Fn(Id) -> Option<u64>) -> Values {
        let mut values = Values::default();
        for s in REGISTRY.iter().filter(|s| s.scope == scope) {
            values.0[s.id as usize] = get(s.id);
        }
        values
    }
}

/// Everything one render needs, captured at a point in time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The [`Scope::Service`] series.
    pub service: Values,
    /// The [`Scope::Device`] series per `device` label value (each
    /// member's canonical device fingerprint).
    pub devices: Vec<(String, Values)>,
}

/// `Some(n)` as a number, `None` as `null`.
pub(crate) fn opt_uint(value: Option<u64>) -> Json {
    value.map_or(Json::Null, Json::UInt)
}

/// The `status` entries of rows `from..=to`, in table order, valued by
/// `get`. The handlers splice these between their config echoes.
pub(crate) fn status_fields(
    from: Id,
    to: Id,
    get: impl Fn(Id) -> Option<u64>,
) -> Vec<(String, Json)> {
    let mut out: Vec<(String, Json)> = Vec::new();
    for s in &REGISTRY[from as usize..=to as usize] {
        let Some(key) = s.key else { continue };
        let value = match get(s.id) {
            Some(code) if s.id == Id::SchedPolicy => Json::str(SchedPolicy::from_code(code).name()),
            value => opt_uint(value),
        };
        match (key.split_once('.'), out.last_mut()) {
            (None, _) => out.push((key.to_string(), value)),
            (Some((outer, inner)), Some((last, Json::Obj(fields)))) if last == outer => {
                fields.push((inner.to_string(), value))
            }
            (Some((outer, inner)), _) => out.push((
                outer.to_string(),
                Json::Obj(vec![(inner.to_string(), value)]),
            )),
        }
    }
    out
}

/// Renders a snapshot in the text exposition format: families in `pos`
/// order, a family's samples device by device, absent values (and
/// families left with no sample) skipped. Deterministic for a fixed
/// snapshot — no timestamps — so a golden file pins the full output.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut rows: Vec<&Series> = REGISTRY.iter().filter(|s| s.family.is_some()).collect();
    rows.sort_by_key(|s| s.pos);
    let mut out = String::with_capacity(4096);
    for family in rows.chunk_by(|a, b| a.pos == b.pos) {
        let mut samples = String::new();
        match family[0].scope {
            Scope::Service => family
                .iter()
                .for_each(|s| sample(&mut samples, s, None, &snap.service)),
            Scope::Device => snap.devices.iter().for_each(|(device, values)| {
                family
                    .iter()
                    .for_each(|s| sample(&mut samples, s, Some(device), values))
            }),
        }
        if let Some(name) = family[0].family.filter(|_| !samples.is_empty()) {
            let (help, kind) = (family[0].help, family[0].kind.name());
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{samples}"
            ));
        }
    }
    out
}

/// Appends `s`'s sample line, if `values` holds one.
fn sample(out: &mut String, s: &Series, device: Option<&String>, values: &Values) {
    let (Some(name), Some(value)) = (s.family, values.get(s.id)) else {
        return;
    };
    // The policy gauge says *which* in its label: the stored code picks
    // the label value and the sample itself is 1.
    let (label, value) = match s.label {
        Some((k, _)) if s.id == Id::SchedPolicy => {
            (Some((k, SchedPolicy::from_code(value).name())), 1)
        }
        label => (label, value),
    };
    let labels: Vec<String> = device
        .map(|d| ("device", d.as_str()))
        .into_iter()
        .chain(label)
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    match labels.is_empty() {
        true => out.push_str(&format!("{name} {value}\n")),
        false => out.push_str(&format!("{name}{{{}}} {value}\n", labels.join(","))),
    }
}

/// [`parse_exposition`] for one of *our* scrapes: additionally every
/// sample and `# TYPE` line must name a family of the [`REGISTRY`], with
/// the registered type.
pub fn check_scrape(text: &str) -> Result<Vec<(String, f64)>, String> {
    let samples = parse_exposition(text)?;
    let kind_of = |name: &str| {
        REGISTRY
            .iter()
            .find(|s| s.family == Some(name))
            .map(|s| s.kind.name())
            .ok_or(format!("family {name:?} is not in the registry"))
    };
    for line in text.lines() {
        let comment = line.trim().strip_prefix('#').map(str::trim_start);
        if let Some(rest) = comment.and_then(|c| c.strip_prefix("TYPE ")) {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            let registered = kind_of(name)?;
            if registered != kind {
                return Err(format!(
                    "{name} is typed {kind}, the registry says {registered}"
                ));
            }
        }
    }
    for (series, _) in &samples {
        kind_of(series.split('{').next().unwrap_or(series))?;
    }
    Ok(samples)
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Validating parser for the subset of the text exposition format the
/// renderer emits (and any well-formed scrape): `# HELP`/`# TYPE`
/// comments plus `name{labels} value` samples. Returns the samples as
/// `(series, value)` pairs — `series` is the sample text before the
/// value, e.g. `hybrid_requests_total{device="gtx470"}` — or a
/// description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: TYPE names invalid metric {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown TYPE {kind:?}"));
                }
            } else if !comment.starts_with("HELP ") {
                return Err(format!("line {n}: comment is neither HELP nor TYPE"));
            }
            continue;
        }
        let (series, value) = split_sample(line).ok_or(format!("line {n}: malformed sample"))?;
        let (name, labels) = match series.find('{') {
            Some(open) => {
                if !series.ends_with('}') {
                    return Err(format!("line {n}: unterminated label set"));
                }
                (&series[..open], Some(&series[open + 1..series.len() - 1]))
            }
            None => (series, None),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid metric name {name:?}"));
        }
        if let Some(labels) = labels {
            validate_labels(labels).map_err(|e| format!("line {n}: {e}"))?;
        }
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {n}: non-numeric value {value:?}"))?;
        samples.push((series.to_string(), value));
    }
    Ok(samples)
}

/// Splits a sample line into (series, value) at the last space outside
/// quotes. (Label values may contain spaces.)
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let mut in_quotes = false;
    let mut escaped = false;
    let mut split_at = None;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ' ' if !in_quotes => split_at = Some(i),
            _ => {}
        }
    }
    let i = split_at?;
    let (series, value) = (line[..i].trim_end(), line[i + 1..].trim());
    if series.is_empty() || value.is_empty() {
        return None;
    }
    Some((series, value))
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates a `name="value",...` label body: names are identifiers,
/// values are quoted with only the three defined escapes.
fn validate_labels(body: &str) -> Result<(), String> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let name = &rest[..eq];
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("invalid label name {name:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label {name:?} value is not quoted"));
        }
        let mut escaped = false;
        let mut close = None;
        for (i, c) in after.char_indices().skip(1) {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("label {name:?} has invalid escape \\{c}"));
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    close = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let close = close.ok_or_else(|| format!("label {name:?} value is unterminated"))?;
        rest = &after[close + 1..];
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None if rest.is_empty() => {}
            None => return Err(format!("junk after label {name:?}: {rest:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;

    #[test]
    fn registry_rows_are_dense_unique_and_well_named() {
        let mut keys = HashSet::new();
        let mut series_labels = HashSet::new();
        // family -> (pos, kind, scope) of its first row.
        let mut families: HashMap<&str, (u8, Kind, Scope)> = HashMap::new();
        for (i, s) in REGISTRY.iter().enumerate() {
            assert_eq!(s.id as usize, i, "{:?}: an id is its row's index", s.id);
            assert!(
                s.key.is_some() || s.family.is_some(),
                "{:?} is reported nowhere",
                s.id
            );
            if let Some(key) = s.key {
                assert!(keys.insert(key), "status key {key:?} is declared twice");
            }
            let Some(family) = s.family else {
                assert_eq!((s.pos, s.help, s.label), (0, "", None), "{:?}", s.id);
                continue;
            };
            assert!(
                series_labels.insert((family, s.label)),
                "{family} {:?} is declared twice",
                s.label
            );
            assert_eq!(
                family.ends_with("_total"),
                s.kind == Kind::Counter,
                "{family}: counters, and only counters, end in _total"
            );
            // Rows of a family agree on everything the family owns, and
            // the first one carries the help.
            let first = !families.contains_key(family);
            let head = *families.entry(family).or_insert((s.pos, s.kind, s.scope));
            assert_eq!(head, (s.pos, s.kind, s.scope), "{family} rows disagree");
            assert_eq!(first, !s.help.is_empty(), "{family}: help on the first row");
            assert!(s.pos > 0, "{family} has no exposition position");
        }
        let positions: HashSet<u8> = families.values().map(|f| f.0).collect();
        assert_eq!(positions.len(), families.len(), "two families share a pos");
        // `Id::backend` indexes the four backend rows by `BackendKind`.
        for kind in BackendKind::ALL {
            assert_eq!(
                series(Id::backend(kind)).label,
                Some(("backend", kind.name()))
            );
        }
    }

    /// The backticked names in the first cell of every table row of the
    /// README (label sets stripped), each with the row's second cell.
    fn readme_rows() -> HashMap<String, String> {
        let readme = include_str!("../../../README.md");
        let mut rows = HashMap::new();
        for line in readme.lines().filter(|l| l.starts_with("| `")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            for name in cells[1].split('`').skip(1).step_by(2) {
                let name = name.split('{').next().unwrap_or(name);
                rows.insert(name.to_string(), cells[2].to_string());
            }
        }
        rows
    }

    #[test]
    fn readme_tables_list_every_series_with_its_registered_type() {
        let rows = readme_rows();
        for s in REGISTRY {
            if let Some(key) = s.key {
                // Nested keys are documented by their top-level object.
                let top = key.split('.').next().unwrap_or(key);
                assert!(rows.contains_key(top), "no README status row for {top:?}");
            }
            if let Some(family) = s.family {
                assert_eq!(
                    rows.get(family).map(String::as_str),
                    Some(s.kind.name()),
                    "README metrics table: {family} must be listed as a {}",
                    s.kind.name()
                );
            }
        }
        for (name, cell) in &rows {
            if cell == "counter" || cell == "gauge" {
                assert!(
                    REGISTRY.iter().any(|s| s.family == Some(name)),
                    "README lists {name}, which the registry does not export"
                );
            }
        }
    }

    #[test]
    fn scrape_check_holds_names_and_types_to_the_registry() {
        let mut snap = MetricsSnapshot::default();
        snap.service.set(Id::UptimeMs, 5);
        snap.service.set(Id::AuthOk, 1);
        let text = render(&snap);
        assert_eq!(check_scrape(&text).map(|s| s.len()), Ok(2));
        let renamed = text.replace("hybrid_auth_ok_total", "hybrid_auth_okay_total");
        assert!(check_scrape(&renamed).unwrap_err().contains("registry"));
        let retyped = text.replace(
            "# TYPE hybrid_auth_ok_total counter",
            "# TYPE hybrid_auth_ok_total gauge",
        );
        assert!(check_scrape(&retyped).unwrap_err().contains("counter"));
        // A sample without its TYPE line is still held to the names.
        assert!(check_scrape("hybrid_nope 1\n").is_err());
        assert!(parse_exposition("hybrid_nope 1\n").is_ok());
    }
}

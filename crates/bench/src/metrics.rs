//! Prometheus text-exposition rendering of the serving layer's
//! counters.
//!
//! Everything [`ServeState`] and
//! [`FleetRouter`](crate::fleet::FleetRouter) already track — request
//! counters, the per-device cache metric set, hit-age quantiles, queue
//! depth, deadline misses, auth counters — rendered in the Prometheus
//! text exposition format (version 0.0.4). The same text is served two
//! ways: as the `metrics` protocol op (a JSON string field) and
//! verbatim over the `--metrics <addr>` HTTP listener
//! ([`serve_metrics_http`](crate::serve::serve_metrics_http)).
//!
//! Rendering is a pure function over a [`MetricsSnapshot`], so tests
//! can pin a golden render without a live service, and the fleet and
//! single-device paths cannot drift apart. [`parse_exposition`] is the
//! matching validator: `hybridload --check-metrics` and CI use it to
//! prove a scrape actually parses instead of grepping for substrings.
//!
//! Metric names are stable API (the README carries the reference
//! table): counters end in `_total`, gauges don't, and every per-device
//! series carries a `device` label so fleet aggregation is a plain
//! `sum by ()`.

use crate::serve::{ServeState, ServeStats};

/// The per-device slice of a [`MetricsSnapshot`]: one member's request
/// counters and its full cache metric set. For a single-device service
/// there is exactly one of these.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceMetrics {
    /// The `device` label value (the configured device name for a
    /// single service, the member key in a fleet).
    pub device: String,
    pub requests: u64,
    pub ok: u64,
    pub errors: u64,
    pub contained_panics: u64,
    /// Compiles that re-verified cross-device warm hints.
    pub warm_starts: u64,
    /// Compiles whose winning plan came from a warm hint.
    pub warm_start_hits: u64,
    /// Tuning scorer invocations (simulator runs in simulated mode),
    /// warm-hint re-verifications included.
    pub tune_simulations: u64,
    /// The proxy-fidelity subset of `tune_simulations` (reduced
    /// grid/steps rounds of the successive-halving ladder).
    pub proxy_simulations: u64,
    /// Wall-clock milliseconds spent inside fresh tuning sweeps.
    pub tune_wall_ms: u64,
    /// Successful compiles per code-generation backend, indexed by
    /// [`BackendKind::index`](gpu_codegen::BackendKind::index).
    pub backend_compiles: [u64; 4],
    pub mem_entries: u64,
    pub mem_bytes: u64,
    /// `None` renders no `hybrid_mem_cache_cap_bytes` series (an
    /// unbounded cache has no cap to report).
    pub mem_cap_bytes: Option<u64>,
    pub mem_hits: u64,
    pub mem_misses: u64,
    pub mem_coalesced: u64,
    pub mem_bypasses: u64,
    pub mem_cancelled_waits: u64,
    pub mem_evictions: u64,
    pub mem_rebalances: u64,
    /// Hits that had to run the pipeline again (see
    /// [`MemCache::reexecuted`](crate::driver::MemCache::reexecuted)).
    pub mem_reexecuted: u64,
    /// Hit-age (p50, p90, p99) in milliseconds; `None` before the first
    /// hit.
    pub hit_age_ms: Option<(u64, u64, u64)>,
}

/// Everything one render needs, captured at a point in time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub uptime_ms: u64,
    /// `"fifo"` | `"edf"`.
    pub sched_policy: String,
    pub queue_depth: u64,
    pub queue_depth_peak: u64,
    pub deadline_misses: u64,
    pub edf_promotions: u64,
    pub auth_ok: u64,
    pub auth_failures: u64,
    pub auth_rejected: u64,
    /// Fleet-only: the `--max-devices` bound.
    pub max_devices: Option<u64>,
    pub devices: Vec<DeviceMetrics>,
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

/// Captures the metric set of one single-device service.
pub fn snapshot_state(state: &ServeState) -> MetricsSnapshot {
    let mut snap = snapshot_stats(state.stats(), state.uptime().as_millis() as u64);
    snap.devices = vec![device_metrics(&state.cfg().device.name, state)];
    snap
}

/// The service-level (non-device) half of a snapshot; the fleet router
/// fills `devices`/`max_devices` itself.
pub fn snapshot_stats(stats: &ServeStats, uptime_ms: u64) -> MetricsSnapshot {
    MetricsSnapshot {
        uptime_ms,
        sched_policy: stats.policy().name().to_string(),
        queue_depth: stats.queue_depth(),
        queue_depth_peak: stats.queue_depth_peak(),
        deadline_misses: stats.deadline_misses(),
        edf_promotions: stats.edf_promotions(),
        auth_ok: stats.auth_ok(),
        auth_failures: stats.auth_failures(),
        auth_rejected: stats.auth_rejected(),
        max_devices: None,
        devices: Vec::new(),
    }
}

/// The per-device slice for `state`, labeled `device`.
pub fn device_metrics(device: &str, state: &ServeState) -> DeviceMetrics {
    let mem = state.mem();
    DeviceMetrics {
        device: device.to_string(),
        requests: state.requests(),
        ok: state.ok_count(),
        errors: state.error_count(),
        contained_panics: state.panic_count(),
        warm_starts: state.warm_starts(),
        warm_start_hits: state.warm_start_hits(),
        tune_simulations: state.tune_simulations(),
        proxy_simulations: state.proxy_simulations(),
        tune_wall_ms: state.tune_wall_ms(),
        backend_compiles: state.backend_compiles(),
        mem_entries: mem.len() as u64,
        mem_bytes: mem.bytes(),
        mem_cap_bytes: mem.cap_bytes(),
        mem_hits: mem.hits(),
        mem_misses: mem.misses(),
        mem_coalesced: mem.coalesced(),
        mem_bypasses: mem.bypasses(),
        mem_cancelled_waits: mem.cancelled_waits(),
        mem_evictions: mem.evictions(),
        mem_rebalances: mem.rebalances(),
        mem_reexecuted: mem.reexecuted(),
        hit_age_ms: mem.hit_age_quantiles_ms(),
    }
}

/// [`render`] over a live single-device service.
pub fn render_state(state: &ServeState) -> String {
    render(&snapshot_state(state))
}

/// Renders a snapshot in the text exposition format. Deterministic for
/// a fixed snapshot (fixed series order, no timestamps), so golden-file
/// tests can pin the full output.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let mut family = |name: &str, kind: &str, help: &str, samples: &[(String, u64)]| {
        if samples.is_empty() {
            return;
        }
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, value) in samples {
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
    };
    let dev = |d: &DeviceMetrics| format!("{{device=\"{}\"}}", escape_label(&d.device));
    let per_device = |f: fn(&DeviceMetrics) -> u64| -> Vec<(String, u64)> {
        snap.devices.iter().map(|d| (dev(d), f(d))).collect()
    };

    family(
        "hybrid_uptime_milliseconds",
        "gauge",
        "Milliseconds since the service started.",
        &[(String::new(), snap.uptime_ms)],
    );
    family(
        "hybrid_requests_total",
        "counter",
        "Requests handled, including failed ones.",
        &per_device(|d| d.requests),
    );
    family(
        "hybrid_ok_total",
        "counter",
        "Requests answered with a non-error status.",
        &per_device(|d| d.ok),
    );
    family(
        "hybrid_errors_total",
        "counter",
        "Requests answered with status \"error\".",
        &per_device(|d| d.errors),
    );
    family(
        "hybrid_contained_panics_total",
        "counter",
        "Panics contained at the request boundary.",
        &per_device(|d| d.contained_panics),
    );
    family(
        "hybrid_warm_starts_total",
        "counter",
        "Compiles that re-verified cross-device warm-start hints.",
        &per_device(|d| d.warm_starts),
    );
    family(
        "hybrid_warm_start_hits_total",
        "counter",
        "Compiles whose winning plan came from a warm-start hint.",
        &per_device(|d| d.warm_start_hits),
    );
    family(
        "hybrid_tune_simulations_total",
        "counter",
        "Tuning scorer invocations, warm-hint re-verifications included.",
        &per_device(|d| d.tune_simulations),
    );
    family(
        "hybrid_proxy_simulations_total",
        "counter",
        "Proxy-fidelity scorer invocations (reduced-workload ladder rounds).",
        &per_device(|d| d.proxy_simulations),
    );
    family(
        "hybrid_tune_wall_milliseconds_total",
        "counter",
        "Wall-clock milliseconds spent in fresh tuning sweeps.",
        &per_device(|d| d.tune_wall_ms),
    );
    let compiles: Vec<(String, u64)> = snap
        .devices
        .iter()
        .flat_map(|d| {
            gpu_codegen::BackendKind::ALL.map(|kind| {
                (
                    format!(
                        "{{device=\"{}\",backend=\"{}\"}}",
                        escape_label(&d.device),
                        kind.name()
                    ),
                    d.backend_compiles[kind.index()],
                )
            })
        })
        .collect();
    family(
        "hybrid_backend_compiles_total",
        "counter",
        "Successful compiles by code-generation backend.",
        &compiles,
    );
    let lookups: Vec<(String, u64)> = snap
        .devices
        .iter()
        .flat_map(|d| {
            let l = |outcome: &str, v: u64| {
                (
                    format!(
                        "{{device=\"{}\",outcome=\"{outcome}\"}}",
                        escape_label(&d.device)
                    ),
                    v,
                )
            };
            [
                l("hit", d.mem_hits),
                l("miss", d.mem_misses),
                l("coalesced", d.mem_coalesced),
                l("bypass", d.mem_bypasses),
                l("cancelled_wait", d.mem_cancelled_waits),
            ]
        })
        .collect();
    family(
        "hybrid_mem_cache_lookups_total",
        "counter",
        "In-memory plan cache lookups by outcome.",
        &lookups,
    );
    family(
        "hybrid_mem_cache_entries",
        "gauge",
        "Ready entries in the in-memory plan cache.",
        &per_device(|d| d.mem_entries),
    );
    family(
        "hybrid_mem_cache_bytes",
        "gauge",
        "Bytes held by ready in-memory plan cache entries.",
        &per_device(|d| d.mem_bytes),
    );
    let caps: Vec<(String, u64)> = snap
        .devices
        .iter()
        .filter_map(|d| d.mem_cap_bytes.map(|cap| (dev(d), cap)))
        .collect();
    family(
        "hybrid_mem_cache_cap_bytes",
        "gauge",
        "Configured in-memory plan cache byte cap.",
        &caps,
    );
    family(
        "hybrid_mem_cache_evictions_total",
        "counter",
        "LRU evictions from the in-memory plan cache.",
        &per_device(|d| d.mem_evictions),
    );
    family(
        "hybrid_mem_cache_rebalances_total",
        "counter",
        "Demand-weighted shard budget rebalances.",
        &per_device(|d| d.mem_rebalances),
    );
    family(
        "hybrid_mem_cache_reexecuted_total",
        "counter",
        "Memory-cache hits that re-ran the pipeline (unverified record, verifying request).",
        &per_device(|d| d.mem_reexecuted),
    );
    let ages: Vec<(String, u64)> = snap
        .devices
        .iter()
        .filter_map(|d| d.hit_age_ms.map(|q| (d, q)))
        .flat_map(|(d, (p50, p90, p99))| {
            let l = |q: &str, v: u64| {
                (
                    format!(
                        "{{device=\"{}\",quantile=\"{q}\"}}",
                        escape_label(&d.device)
                    ),
                    v,
                )
            };
            [l("0.5", p50), l("0.9", p90), l("0.99", p99)]
        })
        .collect();
    family(
        "hybrid_hit_age_ms",
        "gauge",
        "Age of entries at memory-cache hit time, in milliseconds.",
        &ages,
    );
    family(
        "hybrid_devices",
        "gauge",
        "Fleet members (1 for a single-device service).",
        &[(String::new(), snap.devices.len() as u64)],
    );
    let max_devices: Vec<(String, u64)> = snap
        .max_devices
        .map(|m| vec![(String::new(), m)])
        .unwrap_or_default();
    family(
        "hybrid_max_devices",
        "gauge",
        "Configured fleet member bound (--max-devices).",
        &max_devices,
    );
    family(
        "hybrid_queue_depth",
        "gauge",
        "Requests queued, not yet picked up by a worker.",
        &[(String::new(), snap.queue_depth)],
    );
    family(
        "hybrid_queue_depth_peak",
        "gauge",
        "High-water mark of hybrid_queue_depth.",
        &[(String::new(), snap.queue_depth_peak)],
    );
    family(
        "hybrid_deadline_misses_total",
        "counter",
        "Responses produced after the request's arrival-anchored deadline.",
        &[(String::new(), snap.deadline_misses)],
    );
    family(
        "hybrid_edf_promotions_total",
        "counter",
        "Deadline requests scheduled ahead of earlier arrivals.",
        &[(String::new(), snap.edf_promotions)],
    );
    family(
        "hybrid_sched_policy",
        "gauge",
        "Active scheduling policy (the labeled policy is 1).",
        &[(
            format!("{{policy=\"{}\"}}", escape_label(&snap.sched_policy)),
            1,
        )],
    );
    family(
        "hybrid_auth_ok_total",
        "counter",
        "Successful hello handshakes.",
        &[(String::new(), snap.auth_ok)],
    );
    family(
        "hybrid_auth_failures_total",
        "counter",
        "Hello handshakes with a wrong secret.",
        &[(String::new(), snap.auth_failures)],
    );
    family(
        "hybrid_auth_rejected_total",
        "counter",
        "Ops rejected with auth_required on unauthenticated connections.",
        &[(String::new(), snap.auth_rejected)],
    );
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

//! Contract tests for `bench::metrics` — the Prometheus text-exposition
//! surface scraped by CI and ops dashboards.
//!
//! Four properties, per the serving-layer contract:
//!
//! 1. Label values are escaped per the exposition format (backslash,
//!    quote, newline) and the escaped output round-trips through the
//!    scrape-side parser.
//! 2. Counters never decrease across successive renders of a live
//!    service — a scraper computing rates must never see a reset
//!    mid-process.
//! 3. The fleet-level exposition is exactly the sum of its members:
//!    per-device series summed over the fleet equal the sums over each
//!    member's own status payload.
//! 4. A golden-file snapshot pins the full render of a fixed snapshot,
//!    so accidental format drift (renames, reordering, spacing) fails
//!    loudly instead of silently breaking dashboards.

use std::collections::HashMap;

use hybrid_bench::driver::DriverConfig;
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::metrics::{
    escape_label, parse_exposition, render, render_state, DeviceMetrics, MetricsSnapshot,
};
use hybrid_bench::serve::ServeState;

const JACOBI_1D: &str =
    "for (t = 0; t < T; t++)\n  for (i = 1; i < N-1; i++)\n    A[t+1][i] = 0.33f * (A[t][i-1] + A[t][i] + A[t][i+1]);\n";

fn cheap_cfg(tag: &str) -> DriverConfig {
    let dir = std::env::temp_dir().join(format!("metrics_export_{}_{}", std::process::id(), tag));
    DriverConfig {
        smoke: true,
        verify: false,
        cache_dir: None,
        ..DriverConfig::new(dir)
    }
}

fn compile_req(id: &str, device: Option<&str>) -> String {
    let mut pairs = vec![
        ("op".to_string(), Json::Str("compile".to_string())),
        ("id".to_string(), Json::Str(id.to_string())),
        ("program".to_string(), Json::Str(JACOBI_1D.to_string())),
        ("tune".to_string(), Json::Str("static".to_string())),
    ];
    if let Some(d) = device {
        pairs.push(("device".to_string(), Json::Str(d.to_string())));
    }
    Json::Obj(pairs).render_compact()
}

/// Parsed samples keyed by full series name (metric + label set).
fn samples_by_series(text: &str) -> HashMap<String, f64> {
    parse_exposition(text)
        .expect("render output must parse as text exposition format")
        .into_iter()
        .collect()
}

#[test]
fn label_values_are_escaped_and_round_trip() {
    assert_eq!(escape_label("plain"), "plain");
    assert_eq!(escape_label("back\\slash"), "back\\\\slash");
    assert_eq!(escape_label("quo\"te"), "quo\\\"te");
    assert_eq!(escape_label("new\nline"), "new\\nline");
    assert_eq!(
        escape_label("all\\three\"at\nonce"),
        "all\\\\three\\\"at\\nonce"
    );

    // End to end: a hostile device label renders into output the
    // scrape-side parser still accepts, on one line per sample.
    let snap = MetricsSnapshot {
        devices: vec![DeviceMetrics {
            device: "gtx\"480\\rev\nb".to_string(),
            requests: 3,
            ..DeviceMetrics::default()
        }],
        ..MetricsSnapshot::default()
    };
    let text = render(&snap);
    let samples = samples_by_series(&text);
    let series = "hybrid_requests_total{device=\"gtx\\\"480\\\\rev\\nb\"}";
    assert_eq!(samples.get(series), Some(&3.0), "in:\n{text}");
}

#[test]
fn counters_never_decrease_across_successive_renders() {
    let state = ServeState::new(cheap_cfg("monotonic"));
    let _ = state.handle_line(1, &compile_req("a", None)).unwrap();
    let _ = state.handle_line(2, "{\"op\":\"status\"}").unwrap();
    let first = samples_by_series(&render_state(&state));

    // More traffic of every flavor: a cache hit, an error, a status.
    let _ = state.handle_line(3, &compile_req("b", None)).unwrap();
    let _ = state.handle_line(4, "{\"op\":\"nope\"}").unwrap();
    let _ = state.handle_line(5, "{\"op\":\"status\"}").unwrap();
    let second = samples_by_series(&render_state(&state));

    let mut compared = 0;
    for (series, before) in &first {
        if !series.starts_with("hybrid_") || !series.contains("_total") {
            continue;
        }
        let after = second
            .get(series)
            .unwrap_or_else(|| panic!("counter series {series} vanished between renders"));
        assert!(after >= before, "{series} decreased: {before} -> {after}");
        compared += 1;
    }
    assert!(
        compared >= 5,
        "expected several counter families, saw {compared}"
    );
    // And the traffic demonstrably moved at least one of them.
    let requests = first
        .keys()
        .find(|s| s.starts_with("hybrid_requests_total{"))
        .unwrap();
    assert!(second[requests] > first[requests]);
}

#[test]
fn fleet_aggregate_equals_sum_over_member_payloads() {
    let dir = std::env::temp_dir().join(format!("metrics_export_{}_fleet", std::process::id()));
    let cfg = DriverConfig {
        smoke: true,
        verify: false,
        cache_dir: None,
        ..DriverConfig::new(dir)
    };
    let router = FleetRouter::new(cfg, FleetOptions::default());
    let _ = router.handle_line(1, &compile_req("a", None)).unwrap();
    let _ = router
        .handle_line(2, &compile_req("b", Some("nvs5200m")))
        .unwrap();
    let _ = router.handle_line(3, &compile_req("c", None)).unwrap();

    let text = render(&router.metrics_snapshot());
    let samples = parse_exposition(&text).unwrap();
    let fleet_sum = |metric: &str| -> u64 {
        samples
            .iter()
            .filter(|(s, _)| s.starts_with(&format!("{metric}{{")))
            .map(|(_, v)| *v as u64)
            .sum()
    };
    let member_sum = |key: &str| -> u64 {
        router
            .members()
            .iter()
            .map(|(_, m)| {
                m.status_payload()
                    .get(key)
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("member payload missing {key}"))
            })
            .sum()
    };

    assert_eq!(router.members().len(), 2, "two devices, two members");
    for (metric, key) in [
        ("hybrid_requests_total", "requests"),
        ("hybrid_ok_total", "ok"),
        ("hybrid_errors_total", "errors"),
        ("hybrid_contained_panics_total", "contained_panics"),
        ("hybrid_mem_cache_evictions_total", "mem_evictions"),
        ("hybrid_mem_cache_rebalances_total", "mem_rebalances"),
        ("hybrid_mem_cache_reexecuted_total", "mem_reexecuted"),
    ] {
        assert_eq!(
            fleet_sum(metric),
            member_sum(key),
            "fleet {metric} must equal the sum of member {key}"
        );
    }
    // Lookup outcomes are labeled {device, outcome}; hits + misses +
    // coalesced + bypasses must also reconcile against the members.
    let lookups = fleet_sum("hybrid_mem_cache_lookups_total");
    let member_lookups = member_sum("mem_hits")
        + member_sum("mem_misses")
        + member_sum("mem_coalesced")
        + member_sum("mem_bypasses");
    assert_eq!(lookups, member_lookups);
    // The fleet saw three requests in total across its members.
    assert_eq!(fleet_sum("hybrid_requests_total"), 3);
}

/// A fully-populated fixed snapshot: every family present, every
/// optional field set, one label needing escaping.
fn golden_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        uptime_ms: 123_456,
        sched_policy: "edf".to_string(),
        queue_depth: 2,
        queue_depth_peak: 17,
        deadline_misses: 4,
        edf_promotions: 9,
        auth_ok: 3,
        auth_failures: 1,
        auth_rejected: 2,
        max_devices: Some(8),
        devices: vec![
            DeviceMetrics {
                device: "gtx480".to_string(),
                requests: 100,
                ok: 90,
                errors: 10,
                contained_panics: 1,
                warm_starts: 6,
                warm_start_hits: 4,
                tune_simulations: 38,
                proxy_simulations: 21,
                tune_wall_ms: 950,
                backend_compiles: [80, 5, 3, 2],
                mem_entries: 12,
                mem_bytes: 4096,
                mem_cap_bytes: Some(65536),
                mem_hits: 70,
                mem_misses: 30,
                mem_coalesced: 5,
                mem_bypasses: 2,
                mem_cancelled_waits: 1,
                mem_evictions: 3,
                mem_rebalances: 2,
                mem_reexecuted: 1,
                hit_age_ms: Some((10, 50, 200)),
            },
            DeviceMetrics {
                device: "nvs\"5200m\\b".to_string(),
                requests: 7,
                ok: 7,
                errors: 0,
                contained_panics: 0,
                warm_starts: 0,
                warm_start_hits: 0,
                tune_simulations: 8,
                proxy_simulations: 0,
                tune_wall_ms: 12,
                backend_compiles: [7, 0, 0, 0],
                mem_entries: 3,
                mem_bytes: 512,
                mem_cap_bytes: Some(65536),
                mem_hits: 4,
                mem_misses: 3,
                mem_coalesced: 0,
                mem_bypasses: 0,
                mem_cancelled_waits: 0,
                mem_evictions: 0,
                mem_rebalances: 0,
                mem_reexecuted: 0,
                hit_age_ms: None,
            },
        ],
    }
}

#[test]
fn golden_file_pins_the_full_render() {
    let rendered = render(&golden_snapshot());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).unwrap();
    }
    let golden = include_str!("golden/metrics.prom");
    assert_eq!(
        rendered, golden,
        "exposition format drifted from tests/golden/metrics.prom; \
         if the change is intentional, regenerate the golden file"
    );
    // The golden output itself must stay parseable.
    assert!(parse_exposition(golden).unwrap().len() >= 30);
}

#[test]
fn parser_rejects_malformed_exposition() {
    for bad in [
        "hybrid_requests_total{device=\"a\" 1\n", // unterminated label set
        "hybrid requests 1\n",                    // space in metric name
        "hybrid_requests_total notanumber\n",     // non-numeric value
        "hybrid_requests_total{device=a} 1\n",    // unquoted label value
    ] {
        assert!(parse_exposition(bad).is_err(), "accepted: {bad:?}");
    }
    // Comments and blank lines are fine.
    assert_eq!(
        parse_exposition("# HELP x y\n# TYPE x counter\n\nx 1\n").unwrap(),
        vec![("x".to_string(), 1.0)]
    );
}

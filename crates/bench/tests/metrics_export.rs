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
    escape_label, parse_exposition, render, Id, Kind, MetricsSnapshot, Scope, Values, REGISTRY,
};

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

/// A [`Values`] holding exactly `cells`.
fn values(cells: &[(Id, u64)]) -> Values {
    let mut values = Values::default();
    for &(id, v) in cells {
        values.set(id, v);
    }
    values
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
        devices: vec![("gtx\"480\\rev\nb".to_string(), values(&[(Id::Requests, 3)]))],
        ..MetricsSnapshot::default()
    };
    let text = render(&snap);
    let samples = samples_by_series(&text);
    let series = "hybrid_requests_total{device=\"gtx\\\"480\\\\rev\\nb\"}";
    assert_eq!(samples.get(series), Some(&3.0), "in:\n{text}");
}

#[test]
fn counters_never_decrease_across_successive_renders() {
    let router = FleetRouter::new(cheap_cfg("monotonic"), FleetOptions::default());
    let _ = router.handle_line(1, &compile_req("a", None)).unwrap();
    let _ = router.handle_line(2, "{\"op\":\"status\"}").unwrap();
    let first = samples_by_series(&router.metrics_text());

    // More traffic of every flavor: a cache hit, an error, a status.
    let _ = router.handle_line(3, &compile_req("b", None)).unwrap();
    let _ = router.handle_line(4, "{\"op\":\"nope\"}").unwrap();
    let _ = router.handle_line(5, "{\"op\":\"status\"}").unwrap();
    let second = samples_by_series(&router.metrics_text());

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
    let members = router.members();
    assert_eq!(members.len(), 2, "two devices, two members");
    // Every per-device counter of the registry, not a hand-picked few:
    // the samples of its series summed over the fleet's exposition equal
    // the sum of the members' own status payloads.
    let mut compared = 0;
    for s in REGISTRY {
        let (Some(family), Some(key)) = (s.family, s.key) else {
            continue;
        };
        if s.scope != Scope::Device || s.kind != Kind::Counter {
            continue;
        }
        let fleet_sum: u64 = samples
            .iter()
            .filter(|(series, _)| {
                let labeled = s
                    .label
                    .is_none_or(|(k, v)| series.contains(&format!("{k}=\"{v}\"")));
                series.starts_with(&format!("{family}{{")) && labeled
            })
            .map(|(_, v)| *v as u64)
            .sum();
        let member_sum: u64 = members
            .iter()
            .map(|(_, m)| {
                let payload = m.status_payload();
                key.split('.')
                    .try_fold(&payload, |obj, part| obj.get(part))
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("member payload missing {key}"))
            })
            .sum();
        assert_eq!(
            fleet_sum, member_sum,
            "fleet {family} {:?} must equal the sum of member {key}",
            s.label
        );
        compared += 1;
    }
    assert!(
        compared >= 20,
        "only {compared} per-device counters compared"
    );
    // The fleet saw three requests in total across its members.
    let requests: f64 = samples
        .iter()
        .filter(|(series, _)| series.starts_with("hybrid_requests_total{"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(requests, 3.0);
}

/// A fully-populated fixed snapshot: every family present, every
/// optional field set, one label needing escaping.
fn golden_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        service: values(&[
            (Id::UptimeMs, 123_456),
            // The stored code of the default policy, "edf".
            (Id::SchedPolicy, 0),
            (Id::QueueDepth, 2),
            (Id::QueueDepthPeak, 17),
            (Id::DeadlineMisses, 4),
            (Id::EdfPromotions, 9),
            (Id::AuthOk, 3),
            (Id::AuthFailures, 1),
            (Id::AuthRejected, 2),
            (Id::Devices, 2),
            (Id::MaxDevices, 8),
        ]),
        devices: vec![
            (
                "gtx480".to_string(),
                values(&[
                    (Id::Requests, 100),
                    (Id::Ok, 90),
                    (Id::Errors, 10),
                    (Id::ContainedPanics, 1),
                    (Id::WarmStarts, 6),
                    (Id::WarmStartHits, 4),
                    (Id::TuneSimulations, 38),
                    (Id::ProxySimulations, 21),
                    (Id::TuneWallMs, 950),
                    (Id::BackendCuda, 80),
                    (Id::BackendWgsl, 5),
                    (Id::BackendHip, 3),
                    (Id::BackendCpu, 2),
                    (Id::MemEntries, 12),
                    (Id::MemBytes, 4096),
                    (Id::MemCapBytes, 65536),
                    (Id::MemHits, 70),
                    (Id::MemMisses, 30),
                    (Id::MemCoalesced, 5),
                    (Id::MemBypasses, 2),
                    (Id::MemCancelledWaits, 1),
                    (Id::MemEvictions, 3),
                    (Id::MemReexecuted, 1),
                    (Id::HitAgeP50, 10),
                    (Id::HitAgeP90, 50),
                    (Id::HitAgeP99, 200),
                ]),
            ),
            (
                // No hit yet: the hit-age series are absent.
                "nvs\"5200m\\b".to_string(),
                values(&[
                    (Id::Requests, 7),
                    (Id::Ok, 7),
                    (Id::Errors, 0),
                    (Id::ContainedPanics, 0),
                    (Id::WarmStarts, 0),
                    (Id::WarmStartHits, 0),
                    (Id::TuneSimulations, 8),
                    (Id::ProxySimulations, 0),
                    (Id::TuneWallMs, 12),
                    (Id::BackendCuda, 7),
                    (Id::BackendWgsl, 0),
                    (Id::BackendHip, 0),
                    (Id::BackendCpu, 0),
                    (Id::MemEntries, 3),
                    (Id::MemBytes, 512),
                    (Id::MemCapBytes, 65536),
                    (Id::MemHits, 4),
                    (Id::MemMisses, 3),
                    (Id::MemCoalesced, 0),
                    (Id::MemBypasses, 0),
                    (Id::MemCancelledWaits, 0),
                    (Id::MemEvictions, 0),
                    (Id::MemReexecuted, 0),
                ]),
            ),
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

//! What a run prints and writes: the one-line JSON result the driver
//! reads, the `meta` block, the per-workload report file and the
//! human-readable tables.

use std::path::Path;

use hybrid_bench::json::Json;

use crate::layers::LayerReport;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Measured, RunConfig, SETUP_ROUNDS, WARM_UP_OPS};
use crate::stats::{median, Better};

/// The end-to-end metric values of one run, in [`END_TO_END`] order.
pub fn end_to_end_values(measured: &Measured) -> Vec<(&'static str, f64)> {
    let e = &measured.end_to_end;
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "ops_per_s" => e.ops_per_s,
                "op_p50_ms" => e.op_p50_ms,
                "op_p75_ms" => e.op_p75_ms,
                "sim_gstencils_geomean" => e.sim_gstencils_geomean,
                "setup_s" => median(&measured.setup_rounds_s).expect("SETUP_ROUNDS > 0"),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (m.name, value)
        })
        .collect()
}

/// Unit and direction of a metric of either table (names are unique
/// across both).
fn describe(name: &str) -> Option<(&'static str, Better)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|m| m.0 == name)
        .map(|m| (m.1, m.2))
}

fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    let unit_of = |name: &str| describe(name).map_or("", |d| d.0);
    Json::Obj(
        values
            .iter()
            .map(|&(name, value)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of a workload process's standard output: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: usize, failed: usize, values: &[(&'static str, f64)]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::UInt(attempted as u64)),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", metrics_json(values)),
    ])
    .render_compact()
}

/// Per-layer values in [`PER_LAYER`] order.
pub fn layer_values(layers: &LayerReport) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name, layers.values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
}

/// The commit the benchmark was built from, when the checkout is a git
/// repository (the driver's is not).
fn commit(bench_dir: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(bench_dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The `meta` block printed with every report: the host, the seed and the
/// settings the harness pins.
pub fn meta_json(cfg: &RunConfig) -> Json {
    Json::obj(vec![
        ("nproc", Json::UInt(cfg.nproc as u64)),
        (
            "cpu_model",
            Json::str(
                first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("commit", Json::str(commit(&cfg.bench_dir))),
        ("seed", Json::UInt(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("workers", Json::UInt(cfg.pinned.workers as u64)),
        ("sim_threads", Json::UInt(cfg.pinned.sim_threads as u64)),
        ("tune_workers", Json::UInt(cfg.pinned.tune_workers as u64)),
        ("sched_policy", Json::str("edf")),
        (
            "connections",
            Json::UInt(cfg.workload.connections(cfg.nproc) as u64),
        ),
        ("window", Json::UInt(cfg.workload.window() as u64)),
        ("setup_rounds", Json::UInt(SETUP_ROUNDS as u64)),
        ("warm_up_ops", Json::UInt(WARM_UP_OPS as u64)),
    ])
}

/// Everything one workload process measured, as written to
/// `out/report-<workload>-<traced|untraced>.json` and embedded in the
/// parent's `BENCH_e2e.json`.
pub fn workload_report(
    cfg: &RunConfig,
    measured: &Measured,
    e2e: &[(&'static str, f64)],
    layers: Option<&LayerReport>,
) -> Json {
    let e = &measured.end_to_end;
    let mut pairs = vec![
        ("workload", Json::str(cfg.workload.name())),
        ("traced", Json::Bool(cfg.trace)),
        ("meta", meta_json(cfg)),
        ("attempted", Json::UInt(e.attempted as u64)),
        ("failed", Json::UInt(e.failed as u64)),
        (
            "failed_share",
            Json::Num(e.failed as f64 / e.attempted as f64),
        ),
        ("latency_samples", Json::UInt(e.samples as u64)),
        ("op_p90_ms", e.op_p90_ms.map_or(Json::Null, Json::Num)),
        ("timed_wall_s", Json::Num(e.timed_wall_s)),
        ("host_slowdown", Json::Num(e.host_slowdown)),
        ("setup_slowdown", Json::Num(measured.setup_slowdown)),
        ("peak_rss_mb", Json::Num(measured.peak_rss_mb)),
        (
            "setup_rounds_s",
            Json::Arr(
                measured
                    .setup_rounds_s
                    .iter()
                    .map(|&s| Json::Num(s))
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(measured.failures().map(Json::str).collect()),
        ),
        (
            "ops",
            Json::Arr(
                measured
                    .samples
                    .iter()
                    .enumerate()
                    .flat_map(|(conn, samples)| {
                        samples.iter().map(move |s| {
                            Json::obj(vec![
                                ("conn", Json::UInt(conn as u64)),
                                ("class", Json::str(s.class.clone())),
                                (
                                    "start_ms",
                                    Json::Num((s.sent - measured.started).as_secs_f64() * 1e3),
                                ),
                                ("latency_ms", Json::Num(s.latency_ms())),
                                ("ok", Json::Bool(s.failure.is_none())),
                            ])
                        })
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metrics_json(e2e)),
    ];
    if let Some(layers) = layers {
        pairs.push(("per_layer", metrics_json(&layer_values(layers))));
        pairs.push((
            "self_time_ranking_ms",
            Json::Arr(
                layers
                    .self_ranking
                    .iter()
                    .map(|&(name, ms)| {
                        Json::obj(vec![("span", Json::str(name)), ("ms", Json::Num(ms))])
                    })
                    .collect(),
            ),
        ));
        pairs.push((
            "replay_failures",
            Json::Arr(layers.failures.iter().map(Json::str).collect()),
        ));
    }
    Json::obj(pairs)
}

/// The human-readable table of one workload: every metric by name, with
/// its unit.
pub fn print_table(report: &Json, section: &str) {
    let name = report.get("workload").and_then(Json::as_str).unwrap_or("?");
    let u = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "\n== {name}: {} ops attempted, {} failed (failed_share {}), {} latency samples, {}",
        u("attempted"),
        u("failed"),
        report
            .get("failed_share")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        u("latency_samples"),
        match report.get("op_p90_ms").and_then(Json::as_f64) {
            Some(p90) => format!("op_p90_ms {p90:.3}"),
            None => "fewer than ten samples beyond p90".to_string(),
        },
    );
    if let Some(Json::Obj(metrics)) = report.get(section) {
        for (metric, v) in metrics {
            println!(
                "  {metric:<34} {:>16.6} {:<12} {}",
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or(""),
                match describe(metric) {
                    Some((_, Better::Lower)) => "lower is better",
                    Some((_, Better::Higher)) => "higher is better",
                    None => "",
                },
            );
        }
    }
    if let Some(ranking) = report.get("self_time_ranking_ms").and_then(Json::as_arr) {
        let top: Vec<String> = ranking
            .iter()
            .take(5)
            .map(|r| {
                format!(
                    "{} {:.2}",
                    r.get("span").and_then(Json::as_str).unwrap_or("?"),
                    r.get("ms").and_then(Json::as_f64).unwrap_or(0.0)
                )
            })
            .collect();
        println!("  largest self times (ms/op): {}", top.join(", "));
    }
    for key in ["failures", "replay_failures"] {
        for failure in report.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            println!("  FAILED {}", failure.as_str().unwrap_or("?"));
        }
    }
}

/// Reads one metric back out of a workload report.
pub fn metric_of(report: &Json, section: &str, name: &str) -> Option<f64> {
    report.get(section)?.get(name)?.get("value")?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &[("ops_per_s", 4.25), ("setup_s", 1.5)]);
        let v = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &v else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("ops_per_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("1/s")
        );
        assert!(!line.contains('\n'));
        let bad = Json::parse(&result_line(10, 2, &[])).unwrap();
        assert_eq!(bad.get("correct").and_then(Json::as_bool), Some(false));
    }
}

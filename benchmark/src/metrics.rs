//! The benchmark's metrics, declared once: `BENCHMARK.json`, the final
//! JSON line, the human report and `agree` are all derived from (and
//! unit-tested against) these two tables.

use crate::stats::Better;

/// An end-to-end metric: what a user of the system sees. Measured only in
/// the untraced run.
///
/// Rates and times are at reference-host speed: the clock's reading
/// multiplied or divided by the slowdown the host monitor saw while the
/// phase ran ([`crate::host`]). The sandbox's host drifts by ±20 % in speed
/// over minutes; divided out, ten runs of 30 s spread (first to third
/// quartile) over 2–7 % of their median where the clock's readings spread
/// over 10–27 %. The simulated throughput is deterministic up to
/// block-count parity (0.7 % at most).
///
/// Peak memory is not here but in [`PER_LAYER`]: glibc's per-thread arenas
/// make `VmHWM` jump by up to ±20 % between identical runs (and capping the
/// arenas halves `mixed_load`'s throughput), which no bound of at most
/// 25 % survives.
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change is a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEndMetric; 5] = [
    EndToEndMetric {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEndMetric {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "op_p75_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "sim_gstencils_geomean",
        unit: "GStencils/s",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: measured only in the traced run, from outside the
/// program. Layer names are the crates/modules; times are medians per
/// sampled op. A workload that never enters a layer reports 0 for it.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn ms(name: &'static str) -> LayerMetric {
    lower(name, "ms")
}

const fn count(name: &'static str) -> LayerMetric {
    lower(name, "count")
}

const fn rate(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [LayerMetric; 45] = [
    lower("bench.process.peak_rss_mb", "MB"),
    lower("bench.host.slowdown", "ratio"),
    ms("bench.serve.rtt_ms"),
    ms("bench.serve.transport_ms"),
    count("bench.serve.queue_depth_peak"),
    rate("bench.serve.edf_promotions", "count"),
    count("bench.serve.deadline_misses"),
    count("bench.serve.contained_panics"),
    ms("bench.fleet.dispatch_ms"),
    ms("bench.json.parse_ms"),
    ms("bench.metrics.render_ms"),
    ms("bench.driver.compile_ms"),
    ms("bench.driver.self_ms"),
    rate("bench.driver.mem_hit_share", "ratio"),
    rate("bench.driver.disk_hit_share", "ratio"),
    rate("bench.driver.coalesced", "count"),
    count("bench.driver.evictions"),
    ms("bench.driver.disk_hit_ms"),
    ms("stencil.parse_ms"),
    ms("stencil.oracle_ms"),
    rate("stencil.oracle_points_per_s", "1/s"),
    ms("core.tune_ms"),
    count("core.tune_examined"),
    count("core.tune_shortlisted"),
    count("core.tune_full_sims"),
    count("core.tune_proxy_sims"),
    ms("core.evaluate_tile_ms"),
    ms("core.schedule_ms"),
    ms("core.verify_schedule_ms"),
    ms("polylib.kernel_ms"),
    ms("codegen.generate_ms"),
    count("codegen.kernels_per_plan"),
    ms("codegen.emit_ms"),
    count("codegen.emit_bytes"),
    ms("gpusim.run_ms"),
    count("gpusim.launches"),
    rate("gpusim.points_per_s_interp", "1/s"),
    rate("gpusim.points_per_s_compiled", "1/s"),
    rate("gpusim.points_per_s_parallel", "1/s"),
    rate("gpusim.sampled_points_per_s", "1/s"),
    ms("gpusim.timing_ms"),
    ms("baselines.generate_ms"),
    rate("bench.trace.accounted_share", "ratio"),
    rate("bench.trace.ops_per_s", "1/s"),
    rate("bench.trace.sampled_ops", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use hybrid_bench::json::Json;

    fn better_name(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` is hand-written (the driver reads it before
    /// anything is built), so this test is what keeps it and the tables
    /// above from drifting apart.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let declared: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better_name(m.better).to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, expected);

        let declared: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better_name(m.better).to_string(),
                )
            })
            .collect();
        assert_eq!(declared, expected);

        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let expected: Vec<&str> = Workload::DRIVEN.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}

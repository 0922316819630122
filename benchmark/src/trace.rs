//! Spans recorded from outside the program. The harness cannot put spans
//! inside `hybridd`, so a span is the wall time of one call the harness
//! itself makes into a layer (socket round trip, `handle_line`,
//! `compile_source_with`, `generate_hybrid`, ...). Spans stay in memory and
//! are written to `out/trace-<workload>.json` when the run ends.

use std::collections::BTreeSet;
use std::time::Instant;

use hybrid_bench::json::Json;

use crate::stats::median;

pub type SpanId = usize;

/// One timed call: name, start, end, the span that caused it, and the id
/// of the op (request or table cell) it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: String,
    pub parent: Option<SpanId>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The in-memory span store of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span from two timestamps taken elsewhere (the client's
    /// send/receive instants).
    pub fn record(
        &mut self,
        name: &'static str,
        op: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op: op.to_string(),
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let result = f();
        let id = self.record(name, op, parent, start, Instant::now());
        (result, id)
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// A span's self time: its duration minus its children's. The replayed
    /// stage spans run after their parent returned (the parent is a call
    /// into the program, the children re-run its stages through public
    /// functions), so child *durations* are subtracted rather than the
    /// part of the parent's interval they cover; clamped at zero.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ms)
            .sum();
        (self.spans[id].duration_ms() - children).max(0.0)
    }

    /// Median duration of the spans called `name`, in ms.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect();
        median(&durations)
    }

    /// Duration of the first span called `name` that belongs to op `op`.
    pub fn duration_of(&self, name: &str, op: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name && s.op == op)
            .map(Span::duration_ms)
    }

    /// Median self time of the spans called `name`, in ms. Where some
    /// spans of that name have children and some do not (only a sample of
    /// the round trips is taken apart), the childless ones say nothing
    /// about self time and are left out.
    pub fn median_self_ms(&self, name: &str) -> Option<f64> {
        let ids: Vec<SpanId> = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .collect();
        let is_parent = |id: &SpanId| self.spans.iter().any(|s| s.parent == Some(*id));
        let parents: Vec<SpanId> = ids.iter().copied().filter(is_parent).collect();
        let selfs: Vec<f64> = if parents.is_empty() { ids } else { parents }
            .into_iter()
            .map(|id| self.self_ms(id))
            .collect();
        median(&selfs)
    }

    /// Median self time per span name, largest first: where one op's time
    /// goes. Only names inside an op's span tree count; a side measurement
    /// (no parent, no children — a restarted service's disk hit, the other
    /// two executors, the tile-model probes) is time the op never spent.
    pub fn self_time_ranking(&self) -> Vec<(&'static str, f64)> {
        let in_a_tree = |name: &str| {
            self.spans.iter().enumerate().any(|(id, s)| {
                s.name == name
                    && (s.parent.is_some() || self.spans.iter().any(|c| c.parent == Some(id)))
            })
        };
        let names: BTreeSet<&'static str> = self.spans.iter().map(|s| s.name).collect();
        let mut ranking: Vec<(&'static str, f64)> = names
            .into_iter()
            .filter(|name| in_a_tree(name))
            .filter_map(|name| Some((name, self.median_self_ms(name)?)))
            .collect();
        ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranking
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::UInt(id as u64)),
                        ("name", Json::str(s.name)),
                        ("op", Json::str(s.op.clone())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        ("self_ms", Json::Num(self.self_ms(id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children_clamped_at_zero() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tracer = Tracer::new(t0);
        let root = tracer.record("rtt", "op-1", None, at(0), at(100));
        let compile = tracer.record("compile", "op-1", Some(root), at(5), at(95));
        // Replayed stages start after the parent ended.
        tracer.record("generate", "op-1", Some(compile), at(200), at(230));
        tracer.record("simulate", "op-1", Some(compile), at(230), at(280));
        assert!((tracer.self_ms(root) - 10.0).abs() < 1e-9);
        assert!((tracer.self_ms(compile) - 10.0).abs() < 1e-9);
        let leaf = tracer.record("oracle", "op-1", Some(compile), at(280), at(400));
        assert_eq!(tracer.self_ms(compile), 0.0);
        assert!((tracer.self_ms(leaf) - 120.0).abs() < 1e-9);
        assert_eq!(tracer.span(leaf).parent, Some(compile));
        assert_eq!(tracer.self_time_ranking()[0].0, "oracle");
        assert_eq!(tracer.median_ms("generate"), Some(30.0));
        assert_eq!(tracer.median_ms("absent"), None);
        assert_eq!(tracer.duration_of("simulate", "op-1"), Some(50.0));
        assert_eq!(tracer.duration_of("simulate", "op-2"), None);
        // A round trip nobody took apart does not count as 300 ms of
        // transport self time.
        tracer.record("rtt", "op-2", None, at(0), at(300));
        assert!((tracer.median_self_ms("rtt").unwrap() - 10.0).abs() < 1e-9);
        // A side probe is measured but is not part of where the op's time went.
        tracer.record("probe", "op-1", None, at(0), at(900));
        assert_eq!(tracer.median_ms("probe"), Some(900.0));
        assert!(tracer.self_time_ranking().iter().all(|r| r.0 != "probe"));
    }
}

//! One workload, one process: set-up (several rounds, the last one kept),
//! the timed phase, the output checks and the end-to-end arithmetic.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hybrid_bench::json::Json;

use crate::golden::{golden_path, Golden};
use crate::host::{slowdown, HostMonitor, ProbeSample};
use crate::programs::{Lane, Shape};
use crate::service::{Client, Pinned, Reply, Service};
use crate::stats::{geomean, median, percentile_of, tail_supported};
use crate::table::{Cell, Table};
use crate::workload::{hot_set, Slot, Stream, Workload, HOT_DEADLINE_MS};

/// Set-up is repeated this many times per run and `setup_s` is the median:
/// one slow service start must not read as a set-up regression.
pub const SETUP_ROUNDS: usize = 3;

/// Ops of the untimed warm-up pass that ends every set-up round.
pub const WARM_UP_OPS: usize = 8;

/// Everything one workload process needs to know.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bench_dir: PathBuf,
    pub out_dir: PathBuf,
    pub nproc: usize,
    pub pinned: Pinned,
}

/// Ends a block stream at the block boundary nearest to `seconds`: a new
/// block starts only while `elapsed + half a mean block <= seconds`, and
/// the first block always runs. Every measured op therefore belongs to a
/// whole block, and whole blocks have one composition on every seed.
pub struct BlockGate<I> {
    inner: I,
    block_len: usize,
    started: Instant,
    seconds: f64,
    issued: usize,
}

impl<I: Iterator> BlockGate<I> {
    pub fn new(inner: I, block_len: usize, started: Instant, seconds: f64) -> BlockGate<I> {
        BlockGate {
            inner,
            block_len,
            started,
            seconds,
            issued: 0,
        }
    }
}

/// The gate's rule, apart from the clock.
pub fn starts_another_block(elapsed_s: f64, blocks_done: usize, seconds: f64) -> bool {
    blocks_done == 0 || elapsed_s + 0.5 * elapsed_s / blocks_done as f64 <= seconds
}

impl<I: Iterator> Iterator for BlockGate<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        if self.issued.is_multiple_of(self.block_len)
            && !starts_another_block(
                self.started.elapsed().as_secs_f64(),
                self.issued / self.block_len,
                self.seconds,
            )
        {
            return None;
        }
        self.issued += 1;
        self.inner.next()
    }
}

/// One timed op after its output check.
#[derive(Clone, Debug)]
pub struct Sample {
    pub id: String,
    /// Class or cell key.
    pub class: String,
    pub sent: Instant,
    pub received: Instant,
    /// `Some(reason)` when the op errored, was refused, missed its
    /// deadline or failed an output check.
    pub failure: Option<String>,
    /// The simulated throughput that enters `sim_gstencils_geomean`.
    pub gstencils: Option<f64>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.received - self.sent).as_secs_f64() * 1e3
    }
}

/// The end-to-end figures of one run. Rates and times are at
/// reference-host speed: what the clock read, multiplied (rates) or divided
/// (times) by [`EndToEnd::host_slowdown`].
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub attempted: usize,
    pub failed: usize,
    /// The slowdown the host monitor saw over the timed phase (see
    /// [`crate::host`]); 1.0 is the quiet reference host.
    pub host_slowdown: f64,
    pub ops_per_s: f64,
    pub op_p50_ms: f64,
    /// The tail percentile every workload supports: a 30 s run times 80 ops
    /// or more, which leaves twenty samples beyond the 75th percentile and,
    /// at 80, fewer than ten beyond the 90th.
    pub op_p75_ms: f64,
    /// The 90th percentile, for the report only and only where ten
    /// samples lie beyond it (100 timed ops or more).
    pub op_p90_ms: Option<f64>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub sim_gstencils_geomean: f64,
    /// As the clock read it.
    pub timed_wall_s: f64,
}

/// Throughput is summed over connections, each over its own wall time, so
/// a connection that ends half a block early is not diluted by the other.
/// `probes` are the host monitor's samples.
pub fn end_to_end(
    started: Instant,
    connections: &[Vec<Sample>],
    probes: &[ProbeSample],
) -> Result<EndToEnd, String> {
    let all: Vec<&Sample> = connections.iter().flatten().collect();
    let ok: Vec<&Sample> = all
        .iter()
        .copied()
        .filter(|s| s.failure.is_none())
        .collect();
    let mut ops_per_s = 0.0;
    let mut timed_wall_s: f64 = 0.0;
    for conn in connections {
        let Some(last) = conn.iter().map(|s| s.received).max() else {
            continue;
        };
        let wall = (last - started).as_secs_f64();
        timed_wall_s = timed_wall_s.max(wall);
        ops_per_s += conn.iter().filter(|s| s.failure.is_none()).count() as f64 / wall;
    }
    let host_slowdown = slowdown(
        probes,
        started,
        started + Duration::from_secs_f64(timed_wall_s),
    )
    .ok_or("the host monitor took no sample in the timed phase")?;
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_ms() / host_slowdown).collect();
    let gstencils: Vec<f64> = ok.iter().filter_map(|s| s.gstencils).collect();
    let no_ok = || "no op succeeded, so there is nothing to measure".to_string();
    Ok(EndToEnd {
        attempted: all.len(),
        failed: all.len() - ok.len(),
        host_slowdown,
        ops_per_s: ops_per_s * host_slowdown,
        op_p50_ms: median(&latencies).ok_or_else(no_ok)?,
        op_p75_ms: percentile_of(&latencies, 0.75).ok_or_else(no_ok)?,
        op_p90_ms: percentile_of(&latencies, 0.9).filter(|_| tail_supported(latencies.len(), 0.9)),
        samples: latencies.len(),
        sim_gstencils_geomean: geomean(&gstencils).ok_or_else(no_ok)?,
        timed_wall_s,
    })
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The state a service workload leaves behind for the traced replay.
pub struct ServiceRun {
    pub service: Service,
    pub clients: Vec<Client>,
    pub golden: Golden,
    /// Per connection, in completion order (as `Measured::samples`).
    pub replies: Vec<Vec<Reply>>,
}

/// What every workload reports.
pub struct Measured {
    /// Per set-up round, at reference-host speed.
    pub setup_rounds_s: Vec<f64>,
    /// The slowdown the host monitor saw over the set-up rounds.
    pub setup_slowdown: f64,
    pub end_to_end: EndToEnd,
    /// `VmHWM` of the process (service, clients and harness together) when
    /// the timed phase ended, in MB.
    pub peak_rss_mb: f64,
    /// When the timed phase began.
    pub started: Instant,
    /// Every timed op, per connection, in completion order.
    pub samples: Vec<Vec<Sample>>,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The warm-up pass: the block's distinct `(shape, tune)` classes in
/// template order, cycled to [`WARM_UP_OPS`]. Cold 3-D programs are left
/// out — their static sweep is the same code as the 2-D one and would
/// double the set-up time.
fn warm_up_slots(workload: Workload) -> Vec<Slot> {
    let mut distinct: Vec<Slot> = Vec::new();
    for slot in workload.block() {
        if slot.cold && slot.class.shape == Shape::Laplacian3d {
            continue;
        }
        if !distinct
            .iter()
            .any(|s| (s.class.shape, s.class.tune) == (slot.class.shape, slot.class.tune))
        {
            distinct.push(Slot {
                deadline_ms: None,
                ..slot
            });
        }
    }
    let n = distinct.len();
    (0..WARM_UP_OPS).map(|i| distinct[i % n]).collect()
}

/// One set-up round of a service workload: golden load, service start,
/// connections, cache warming and the warm-up pass.
fn set_up_service(
    cfg: &RunConfig,
    round: usize,
    warm_stream: &mut Stream,
) -> Result<(Service, Vec<Client>, Golden), String> {
    let golden = Golden::load(&golden_path(&cfg.bench_dir))?;
    let tag = format!("{}-{round}", cfg.workload.name());
    let service =
        Service::start(&cfg.out_dir, &tag, cfg.pinned).map_err(io_err("service start"))?;
    let mut clients = (0..cfg.workload.connections(cfg.nproc))
        .map(|_| service.connect())
        .collect::<Result<Vec<_>, _>>()
        .map_err(io_err("connect"))?;

    let check_all = |replies: &[Reply], cold: bool| -> Result<(), String> {
        for reply in replies {
            let slot = Slot {
                cold,
                ..reply.op.slot
            };
            golden
                .check_response(&slot, &reply.response)
                .map_err(|e| format!("set-up op {}: {e}", reply.op.id))?;
        }
        Ok(())
    };

    if cfg.workload.prewarms() {
        // The hot set is compiled once, one request in flight per worker of
        // the connection, the two 3-D plans (by far the dearest) first.
        let mut hot = hot_set()
            .into_iter()
            .rev()
            .enumerate()
            .map(|(i, class)| {
                warm_stream.op_for(
                    Slot {
                        class,
                        cold: false,
                        deadline_ms: None,
                    },
                    i,
                    0,
                )
            })
            .collect::<Vec<_>>()
            .into_iter();
        let replies = clients[0]
            .run_closed_loop(&mut hot, cfg.pinned.workers)
            .map_err(io_err("cache warming"))?;
        // First sight of a hot program is a miss, whatever it is later.
        check_all(&replies, true)?;
    }

    let mut pass = warm_up_slots(cfg.workload)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| warm_stream.op_for(slot, round * 1000 + 100 + i, 0))
        .collect::<Vec<_>>()
        .into_iter();
    let replies = clients[0]
        .run_closed_loop(&mut pass, 1)
        .map_err(io_err("warm-up pass"))?;
    for reply in &replies {
        check_all(std::slice::from_ref(reply), reply.op.slot.cold)?;
    }
    Ok((service, clients, golden))
}

/// Checks one timed reply: the golden comparison plus the deadline of
/// `mixed_load`'s hot requests.
fn check_reply(golden: &Golden, reply: &Reply) -> Sample {
    let mut failure = golden.check_response(&reply.op.slot, &reply.response).err();
    if failure.is_none() {
        if let Some(ms) = reply.op.slot.deadline_ms {
            if reply.latency() > Duration::from_millis(ms) {
                failure = Some(format!(
                    "answered after its {HOT_DEADLINE_MS} ms deadline ({:.0} ms)",
                    reply.latency().as_secs_f64() * 1e3
                ));
            }
        }
    }
    Sample {
        id: reply.op.id.clone(),
        class: reply.op.slot.class.key(),
        sent: reply.sent,
        received: reply.received,
        gstencils: reply
            .response
            .get("gstencils_per_s")
            .and_then(Json::as_f64)
            .filter(|_| failure.is_none()),
        failure,
    }
}

/// Runs a service workload: set-up rounds, then the closed loop.
pub fn run_service(cfg: &RunConfig) -> Result<(Measured, ServiceRun), String> {
    let monitor = HostMonitor::start().map_err(io_err("host monitor"))?;
    let mut warm_stream = Stream::new(cfg.workload, cfg.seed, Lane::WarmUp);
    let mut setup_rounds = Vec::new();
    let mut kept = None;
    for round in 0..SETUP_ROUNDS {
        // Only the last round's service is kept; earlier ones are stopped
        // and their directories removed outside the timed set-up.
        if let Some((service, clients, _)) = kept.take() {
            drop::<Vec<Client>>(clients);
            Service::stop(service).map_err(io_err("service stop"))?;
        }
        let t = Instant::now();
        kept = Some(set_up_service(cfg, round, &mut warm_stream)?);
        setup_rounds.push((t, Instant::now()));
    }
    let (service, mut clients, golden) = kept.expect("SETUP_ROUNDS > 0");

    let window = cfg.workload.window();
    let started = Instant::now();
    let replies: Vec<Vec<Reply>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let stream = Stream::new(cfg.workload, cfg.seed, Lane::Conn(c));
                let block_len = stream.block_len();
                let mut gate = BlockGate::new(stream, block_len, started, cfg.seconds);
                scope.spawn(move || client.run_closed_loop(&mut gate, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })
    .map_err(io_err("timed phase"))?;

    let samples: Vec<Vec<Sample>> = replies
        .iter()
        .map(|conn| conn.iter().map(|r| check_reply(&golden, r)).collect())
        .collect();
    let measured = Measured::new(&setup_rounds, started, samples, &monitor.stop())?;
    Ok((
        measured,
        ServiceRun {
            service,
            clients,
            golden,
            replies,
        },
    ))
}

impl Measured {
    /// `setup_rounds` are the rounds' intervals, `probes` the host
    /// monitor's samples over set-up and timed phase.
    fn new(
        setup_rounds: &[(Instant, Instant)],
        started: Instant,
        samples: Vec<Vec<Sample>>,
        probes: &[ProbeSample],
    ) -> Result<Measured, String> {
        // One slowdown for all rounds: a round may become too short to be
        // sampled on its own.
        let (first, last) = (setup_rounds[0].0, setup_rounds[setup_rounds.len() - 1].1);
        let setup_slowdown =
            slowdown(probes, first, last).ok_or("the host monitor took no sample during set-up")?;
        Ok(Measured {
            setup_rounds_s: setup_rounds
                .iter()
                .map(|&(from, to)| (to - from).as_secs_f64() / setup_slowdown)
                .collect(),
            setup_slowdown,
            end_to_end: end_to_end(started, &samples, probes)?,
            peak_rss_mb: peak_rss_mb()?,
            started,
            samples,
        })
    }

    /// The first few failure reasons, for the reports.
    pub fn failures(&self) -> impl Iterator<Item = String> + '_ {
        self.samples
            .iter()
            .flatten()
            .filter_map(|s| Some(format!("{}: {}", s.id, s.failure.as_ref()?)))
            .take(5)
    }
}

/// The state `table_repro` leaves behind for the traced replay.
pub struct TableRun {
    pub table: Table,
    pub golden: Golden,
    /// The timed cells, in the order of `Measured::samples[0]`.
    pub cells: Vec<Cell>,
}

/// Runs `table_repro`: no service; an op is one table cell.
pub fn run_table(cfg: &RunConfig) -> Result<(Measured, TableRun), String> {
    let device = gpusim::DeviceConfig::gtx470();
    let monitor = HostMonitor::start().map_err(io_err("host monitor"))?;
    let mut setup_rounds = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let golden = Golden::load(&golden_path(&cfg.bench_dir))?;
        let table = Table::new();
        for cell in table.warm_up_cells() {
            let m = table.measure(&cell, &device);
            golden
                .check_cell(&table.key(&cell), m.gstencils)
                .map_err(|e| format!("set-up: {e}"))?;
        }
        setup_rounds.push((t, Instant::now()));
        kept = Some((golden, table));
    }
    let (golden, table) = kept.expect("SETUP_ROUNDS > 0");

    let started = Instant::now();
    let order = table.order(cfg.seed);
    let mut cells = Vec::new();
    let mut samples = Vec::new();
    for (index, cell) in BlockGate::new(order, table.cells().len(), started, cfg.seconds) {
        let sent = Instant::now();
        let m = table.measure(&cell, &device);
        let received = Instant::now();
        let key = table.key(&cell);
        let failure = golden.check_cell(&key, m.gstencils).err();
        samples.push(Sample {
            id: format!("table_repro-{index}"),
            class: key,
            sent,
            received,
            // Hybrid cells only: the run time of *this compiler's* code.
            gstencils: (cell.compiler == hybrid_bench::Compiler::Hybrid && failure.is_none())
                .then_some(m.gstencils),
            failure,
        });
        cells.push(cell);
    }
    let measured = Measured::new(&setup_rounds, started, vec![samples], &monitor.stop())?;
    Ok((
        measured,
        TableRun {
            table,
            golden,
            cells,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_stops_at_the_block_boundary_nearest_the_target() {
        assert!(starts_another_block(0.0, 0, 1.0));
        assert!(
            starts_another_block(60.0, 0, 1.0),
            "the first block always runs"
        );
        // 6.2 s blocks against a 15 s target: 12.4 s is nearer than 18.6 s.
        assert!(starts_another_block(6.2, 1, 15.0));
        assert!(!starts_another_block(12.4, 2, 15.0));
        // 2.4 s blocks: six blocks (14.4 s) are nearer than seven.
        assert!(starts_another_block(12.0, 5, 15.0));
        assert!(!starts_another_block(14.4, 6, 15.0));
    }

    #[test]
    fn gate_passes_whole_blocks_only() {
        let gate = BlockGate::new(0..1000, 4, Instant::now(), 0.0);
        assert_eq!(gate.collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn end_to_end_counts_failures_and_sums_connections() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let sample = |start, end, failure: Option<&str>, g: f64| Sample {
            id: "x".into(),
            class: "c".into(),
            sent: at(start),
            received: at(end),
            failure: failure.map(str::to_string),
            gstencils: failure.is_none().then_some(g),
        };
        let conns = vec![
            vec![sample(0, 100, None, 1.0), sample(100, 1000, None, 4.0)],
            vec![
                sample(0, 500, Some("boom"), 9.0),
                sample(500, 2000, None, 16.0),
            ],
        ];
        // The host ran at half the reference speed; the sample after the
        // phase does not count.
        let probe = |ms, slowdown| ProbeSample {
            at: at(ms),
            slowdown,
        };
        let probes = [probe(0, 2.0), probe(1000, 2.0), probe(2500, 9.0)];
        let e = end_to_end(t0, &conns, &probes).unwrap();
        assert_eq!((e.attempted, e.failed, e.samples), (4, 1, 3));
        assert_eq!(e.host_slowdown, 2.0);
        assert!((e.ops_per_s - 2.0 * (2.0 / 1.0 + 1.0 / 2.0)).abs() < 1e-9);
        assert!((e.sim_gstencils_geomean - 4.0).abs() < 1e-9);
        assert_eq!(e.op_p50_ms, 450.0);
        assert_eq!(e.op_p90_ms, None);
        assert_eq!(e.op_p75_ms, 600.0);
        assert!((e.timed_wall_s - 2.0).abs() < 1e-9);
        let failed_only = [vec![sample(0, 1, Some("x"), 1.0)]];
        assert!(end_to_end(t0, &failed_only, &probes).is_err());
        assert!(end_to_end(t0, &conns, &probes[2..]).is_err());
    }

    #[test]
    fn warm_up_pass_has_eight_cheap_ops() {
        for w in Workload::ALL {
            if w == Workload::TableRepro {
                continue;
            }
            let slots = warm_up_slots(w);
            assert_eq!(slots.len(), WARM_UP_OPS, "{}", w.name());
            assert!(slots
                .iter()
                .all(|s| !(s.cold && s.class.shape == Shape::Laplacian3d)));
        }
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}

//! The five workloads as seeded op streams.
//!
//! A stream is an endless concatenation of **blocks**. Every block of a
//! workload holds the same multiset of op classes in a seeded order (odd
//! blocks swap the two devices), so any whole number of blocks has the same
//! composition on every seed, and the timed phase issues whole blocks only.
//! The service sees nothing but the request lines generated here.

use hybrid_bench::json::Json;

use crate::programs::{ColdId, Lane, Shape};
use crate::rng::SplitMix64;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    Gtx470,
    Nvs5200m,
}

impl Device {
    pub const ALL: [Device; 2] = [Device::Gtx470, Device::Nvs5200m];

    pub fn name(self) -> &'static str {
        match self {
            Device::Gtx470 => "gtx470",
            Device::Nvs5200m => "nvs5200m",
        }
    }

    pub fn config(self) -> gpusim::DeviceConfig {
        match self {
            Device::Gtx470 => gpusim::DeviceConfig::gtx470(),
            Device::Nvs5200m => gpusim::DeviceConfig::nvs5200m(),
        }
    }

    fn other(self) -> Device {
        match self {
            Device::Gtx470 => Device::Nvs5200m,
            Device::Nvs5200m => Device::Gtx470,
        }
    }
}

/// How a request asks for its tile sizes to be chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tune {
    /// `tune: static` on the service's default workload.
    Static,
    /// `tune: simulated`, every candidate simulated (`top_k: 0, proxy: 1`).
    SimExhaustive,
    /// `tune: simulated`, model shortlist plus fidelity ladder
    /// (`top_k: 4, proxy: 0.5`).
    SimLadder,
}

impl Tune {
    pub fn name(self) -> &'static str {
        match self {
            Tune::Static => "static",
            Tune::SimExhaustive => "sim-exhaustive",
            Tune::SimLadder => "sim-ladder",
        }
    }

    /// `(top_k, proxy)` of the request, for the simulated modes.
    pub fn sweep(self) -> Option<(u64, f64)> {
        match self {
            Tune::Static => None,
            Tune::SimExhaustive => Some((0, 1.0)),
            Tune::SimLadder => Some((4, 0.5)),
        }
    }

    /// The `size`/`steps` override simulated requests carry.
    pub fn workload_override(self, shape: Shape) -> Option<(Vec<usize>, usize)> {
        self.sweep().map(|_| match shape.spatial_dims() {
            1 => (vec![256], 8),
            _ => (vec![64, 64], 8),
        })
    }
}

/// What distinguishes one op's expected output from another's: the key of
/// `golden/expected.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Class {
    pub shape: Shape,
    pub device: Device,
    pub tune: Tune,
}

impl Class {
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}",
            self.shape.name(),
            self.device.name(),
            self.tune.name()
        )
    }
}

/// One slot of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    pub class: Class,
    /// A never-seen program (must come back `cache: "miss"`) or a member of
    /// the pre-warmed hot set (must come back `cache: "mem"`).
    pub cold: bool,
    pub deadline_ms: Option<u64>,
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Position in its connection's stream.
    pub index: usize,
    pub block: usize,
    pub slot: Slot,
    pub id: String,
    pub program: String,
    /// The request line, without the trailing newline.
    pub line: String,
}

/// The service workloads. (`table_repro` has no request stream; see
/// [`crate::table`].)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdGallery,
    WarmMem,
    TuneSimulated,
    MixedLoad,
    TableRepro,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdGallery,
        Workload::WarmMem,
        Workload::TuneSimulated,
        Workload::MixedLoad,
        Workload::TableRepro,
    ];

    /// The workloads `BENCHMARK.json` names, which the driver runs: its
    /// time limit holds three workloads at runs long enough to be steady
    /// (see README.md). `run` without `--workload` runs all five.
    pub const DRIVEN: [Workload; 3] = [
        Workload::ColdGallery,
        Workload::WarmMem,
        Workload::TuneSimulated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdGallery => "cold_gallery",
            Workload::WarmMem => "warm_mem",
            Workload::TuneSimulated => "tune_simulated",
            Workload::MixedLoad => "mixed_load",
            Workload::TableRepro => "table_repro",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections of the closed loop.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::MixedLoad => nproc.clamp(1, 2),
            Workload::TableRepro => 0,
            _ => 1,
        }
    }

    /// Requests each connection keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::MixedLoad => 4,
            _ => 1,
        }
    }

    /// True when set-up compiles the hot set before timing.
    pub fn prewarms(self) -> bool {
        matches!(self, Workload::WarmMem | Workload::MixedLoad)
    }

    /// The block every connection of this workload repeats; the devices
    /// listed here are those of even blocks, odd blocks swap them so each
    /// slot meets both presets.
    pub fn block(self) -> Vec<Slot> {
        use Device::{Gtx470, Nvs5200m};
        let cold = |shape, device, tune| Slot {
            class: Class {
                shape,
                device,
                tune,
            },
            cold: true,
            deadline_ms: None,
        };
        let alternate = |i: usize| {
            if i.is_multiple_of(2) {
                Gtx470
            } else {
                Nvs5200m
            }
        };
        // One hot request per example stencil and a second one for fdtd2d;
        // with the device swap of odd blocks, two blocks visit all twelve
        // pre-warmed plans. Six equal shares would put the median latency
        // on the border between two classes (blur2d and fdtd2d, 20 % apart),
        // where it jumps from run to run; with seven slots it lies inside
        // fdtd2d and the 75th percentile inside laplacian3d.
        let hot = |deadline_ms| {
            Shape::ALL
                .into_iter()
                .chain([Shape::Fdtd2d])
                .enumerate()
                .map(move |(i, shape)| Slot {
                    class: Class {
                        shape,
                        device: alternate(i),
                        tune: Tune::Static,
                    },
                    cold: false,
                    deadline_ms,
                })
        };
        match self {
            // 30 % 1-D, 50 % single-statement 2-D, 15 % fdtd2d, 5 % 3-D, and
            // the one 3-D static sweep per block shows in throughput. Sorted
            // by latency the block reads wave1d ×6, jacobi2d ×3, fdtd2d ×3,
            // blur2d ×4, gradient2d ×3, laplacian3d: the median lies inside
            // fdtd2d and the 75th percentile inside blur2d, not on a border
            // between two classes, where a percentile jumps from run to run.
            Workload::ColdGallery => [
                (Shape::Wave1d, 6),
                (Shape::Jacobi2d, 3),
                (Shape::Blur2d, 4),
                (Shape::Gradient2d, 3),
                (Shape::Fdtd2d, 3),
                (Shape::Laplacian3d, 1),
            ]
            .into_iter()
            .flat_map(|(shape, n)| std::iter::repeat_n(shape, n))
            .enumerate()
            .map(|(i, shape)| cold(shape, alternate(i), Tune::Static))
            .collect(),
            Workload::WarmMem => hot(None).collect(),
            // The same tuner layer two ways: each 1-D/2-D shape once under
            // the exhaustive sweep and once under the shortlist + ladder.
            Workload::TuneSimulated => Shape::ALL
                .into_iter()
                .filter(|s| s.spatial_dims() < 3)
                .flat_map(|s| [(s, Tune::SimExhaustive), (s, Tune::SimLadder)])
                .enumerate()
                .map(|(i, (shape, tune))| cold(shape, alternate(i / 2 + i % 2), tune))
                .collect(),
            // Seven hot hits under a deadline beside three cold 2-D fills.
            // EDF serves the hits first, so latency has a fast (hit) and a
            // slow (fill) mode; at 30 % fills the median lies inside the
            // first and the 75th percentile inside the second — at one
            // quarter fills it would sit on the gap between them.
            Workload::MixedLoad => hot(Some(HOT_DEADLINE_MS))
                .chain(
                    [Shape::Jacobi2d, Shape::Gradient2d, Shape::Fdtd2d]
                        .into_iter()
                        .enumerate()
                        .map(|(i, shape)| cold(shape, alternate(i), Tune::Static)),
                )
                .collect(),
            Workload::TableRepro => Vec::new(),
        }
    }
}

/// Deadline of `mixed_load`'s hot requests; a response after it (or a
/// `deadline_exceeded` error) is a failed op.
pub const HOT_DEADLINE_MS: u64 = 5000;

/// The twelve plans `warm_mem` and `mixed_load` pre-warm: the six example
/// stencils on both device presets.
pub fn hot_set() -> Vec<Class> {
    Shape::ALL
        .into_iter()
        .flat_map(|shape| {
            Device::ALL.into_iter().map(move |device| Class {
                shape,
                device,
                tune: Tune::Static,
            })
        })
        .collect()
}

/// Renders one compile request. The fields are exactly those a client of
/// `hybridc serve` would send.
pub fn request_line(id: &str, slot: &Slot, program: &str) -> String {
    let class = slot.class;
    let mut pairs = vec![
        ("op", Json::str("compile")),
        ("id", Json::str(id)),
        ("name", Json::str(class.shape.name())),
        ("program", Json::str(program)),
        ("device", Json::str(class.device.name())),
        ("verify", Json::Bool(true)),
    ];
    match class.tune.sweep() {
        None => pairs.push(("tune", Json::str("static"))),
        Some((top_k, proxy)) => {
            let (dims, steps) = class
                .tune
                .workload_override(class.shape)
                .expect("simulated modes carry a workload");
            pairs.extend([
                ("tune", Json::str("simulated")),
                (
                    "size",
                    Json::Arr(dims.iter().map(|&d| Json::UInt(d as u64)).collect()),
                ),
                ("steps", Json::UInt(steps as u64)),
                ("top_k", Json::UInt(top_k)),
                ("proxy", Json::Num(proxy)),
            ]);
        }
    }
    if let Some(ms) = slot.deadline_ms {
        pairs.push(("deadline_ms", Json::UInt(ms)));
    }
    Json::obj(pairs).render_compact()
}

/// The seeded request stream of one connection.
pub struct Stream {
    workload: Workload,
    seed: u64,
    lane: Lane,
    rng: SplitMix64,
    template: Vec<Slot>,
    current: Vec<Slot>,
    next_index: usize,
    cold_issued: u32,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, lane: Lane) -> Stream {
        let lane_salt = match lane {
            Lane::Conn(c) => c as u64,
            Lane::WarmUp => 2,
            Lane::TraceSibling => 3,
        };
        // Workload and lane are mixed into the generator so two connections
        // of one run, and two workloads of one seed, shuffle independently.
        let salt = workload.name().bytes().fold(lane_salt, |h, b| {
            h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64)
        });
        Stream {
            workload,
            seed,
            lane,
            rng: SplitMix64::new(seed ^ salt.rotate_left(17)),
            template: workload.block(),
            current: Vec::new(),
            next_index: 0,
            cold_issued: 0,
        }
    }

    pub fn block_len(&self) -> usize {
        self.template.len()
    }

    /// The request for `slot`: a never-seen program from this stream's id
    /// lane when the slot is cold, the example file verbatim otherwise.
    pub fn op_for(&mut self, slot: Slot, index: usize, block: usize) -> Op {
        let program = if slot.cold {
            let cold_id = ColdId::new(self.seed, self.lane, self.cold_issued);
            self.cold_issued += 1;
            slot.class.shape.cold_source(cold_id)
        } else {
            slot.class.shape.source().to_string()
        };
        let lane = match self.lane {
            Lane::Conn(c) => format!("c{c}"),
            Lane::WarmUp => "warm".to_string(),
            Lane::TraceSibling => "sib".to_string(),
        };
        let id = format!("{}-{lane}-{index}", self.workload.name());
        let line = request_line(&id, &slot, &program);
        Op {
            index,
            block,
            slot,
            id,
            program,
            line,
        }
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let len = self.template.len();
        if len == 0 {
            return None;
        }
        let index = self.next_index;
        let block = index / len;
        if index.is_multiple_of(len) {
            self.current = self.template.clone();
            if block % 2 == 1 {
                for slot in &mut self.current {
                    slot.class.device = slot.class.device.other();
                }
            }
            self.rng.shuffle(&mut self.current);
        }
        self.next_index += 1;
        Some(self.op_for(self.current[index % len], index, block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    fn lines(workload: Workload, seed: u64, lane: Lane, n: usize) -> Vec<String> {
        Stream::new(workload, seed, lane)
            .take(n)
            .map(|op| op.line)
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for w in Workload::ALL {
            let n = 3 * w.block().len();
            assert_eq!(
                lines(w, 11, Lane::Conn(0), n),
                lines(w, 11, Lane::Conn(0), n),
                "{}",
                w.name()
            );
        }
        assert_ne!(
            lines(Workload::WarmMem, 11, Lane::Conn(0), 24),
            lines(Workload::WarmMem, 12, Lane::Conn(0), 24)
        );
        assert_ne!(
            lines(Workload::MixedLoad, 11, Lane::Conn(0), 32),
            lines(Workload::MixedLoad, 11, Lane::Conn(1), 32)
        );
    }

    #[test]
    fn different_seeds_give_disjoint_cold_programs() {
        let cold = |seed| -> HashSet<String> {
            Stream::new(Workload::ColdGallery, seed, Lane::Conn(0))
                .take(60)
                .map(|op| op.program)
                .collect()
        };
        let (a, b) = (cold(1), cold(2));
        assert_eq!(a.len(), 60, "cold programs of one run are all distinct");
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn every_block_has_the_same_composition_and_both_devices() {
        for w in Workload::ALL {
            let len = w.block().len();
            if len == 0 {
                continue;
            }
            let ops: Vec<Op> = Stream::new(w, 5, Lane::Conn(0)).take(4 * len).collect();
            let shapes = |block: usize| -> BTreeMap<(Shape, Tune, bool), usize> {
                let mut m = BTreeMap::new();
                for op in ops.iter().filter(|op| op.block == block) {
                    let c = op.slot.class;
                    *m.entry((c.shape, c.tune, op.slot.cold)).or_default() += 1;
                }
                m
            };
            let classes = |block: usize| -> BTreeMap<Class, usize> {
                let mut m = BTreeMap::new();
                for op in ops.iter().filter(|op| op.block == block) {
                    *m.entry(op.slot.class).or_default() += 1;
                }
                m
            };
            assert_eq!(shapes(0), shapes(1), "{}", w.name());
            assert_eq!(classes(0), classes(2), "{}", w.name());
            assert_eq!(classes(1), classes(3), "{}", w.name());
            for device in Device::ALL {
                assert!(ops.iter().any(|op| op.slot.class.device == device));
            }
        }
    }

    #[test]
    fn workload_shares_match_their_description() {
        let cold = Workload::ColdGallery.block();
        assert_eq!(cold.len(), 20);
        let count = |dims| {
            cold.iter()
                .filter(|s| s.class.shape.spatial_dims() == dims)
                .count()
        };
        assert_eq!((count(1), count(2), count(3)), (6, 13, 1));
        assert_eq!(Workload::WarmMem.block().len(), 7);
        let two_blocks: std::collections::BTreeSet<Class> =
            Stream::new(Workload::WarmMem, 9, Lane::Conn(0))
                .take(14)
                .map(|op| op.slot.class)
                .collect();
        assert_eq!(two_blocks, hot_set().into_iter().collect());
        assert_eq!(Workload::TuneSimulated.block().len(), 10);
        let mixed = Workload::MixedLoad.block();
        assert_eq!(
            (mixed.iter().filter(|s| s.cold).count(), mixed.len()),
            (3, 10)
        );
        assert!(mixed.iter().all(|s| s.cold != s.deadline_ms.is_some()));
    }

    #[test]
    fn request_lines_are_what_a_client_would_send() {
        let op = Stream::new(Workload::TuneSimulated, 1, Lane::Conn(0))
            .find(|op| op.slot.class.tune == Tune::SimLadder)
            .unwrap();
        let v = Json::parse(&op.line).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("compile"));
        assert_eq!(v.get("tune").and_then(Json::as_str), Some("simulated"));
        assert_eq!(v.get("top_k").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("proxy").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("steps").and_then(Json::as_u64), Some(8));
        assert_eq!(v.get("verify").and_then(Json::as_bool), Some(true));
        assert!(!op.line.contains('\n'));
    }
}

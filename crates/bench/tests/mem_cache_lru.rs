//! Property suite for the size-capped, exact LRU behind the `hybridd`
//! in-memory plan cache ([`hybrid_bench::driver::MemCache`]).
//!
//! Random sequences of inserts (random-sized entries) and hits under a
//! small byte cap must preserve three invariants:
//!
//! 1. **cap** — total ready bytes ≤ cap after *every* operation;
//! 2. **recency** — the surviving entries are exactly the
//!    most-recently-used ones (checked against a reference LRU model);
//! 3. **accounting** — the lookup counters stay disjoint and complete:
//!    `hits + misses + coalesced (+ bypasses + cancelled) == lookups`.
//!
//! A cap that holds the whole working set keeps all of it, both on the
//! cache alone and through a capped fleet serving the example stencils.
//!
//! The proptest stand-in generates deterministic inputs, so a failure
//! here reproduces with plain `cargo test`.

use std::path::Path;

use gpusim::DeviceConfig;
use hybrid_bench::driver::{
    device_fingerprint, fingerprint, mem_entry_bytes, DriverConfig, ExecRecord, MemCache, MemLookup,
};
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::metrics::Id;
use hybrid_tiling::cancel::CancelToken;
use hybrid_tiling::TileParams;
use proptest::prelude::*;

const DEVICE: &str = "dev|sms=14|test";

/// The execution record entries are published with: what a
/// `verify: false` compile would store.
const UNVERIFIED: ExecRecord = ExecRecord {
    verified: false,
    gstencils: 1.5,
    seconds: 0.25,
    launches: 7,
    kernels: 2,
    smem_bytes: 4096,
};

/// Inserts (or re-inserts after eviction) `key` with a program text of
/// `text_len` bytes. Returns the entry's byte cost.
fn insert(cache: &MemCache, key: &str, text_len: usize) -> u64 {
    let program = "p".repeat(text_len);
    let params = TileParams::new(1, &[3]);
    match cache.lookup_or_begin(key, DEVICE, &program, &CancelToken::never()) {
        MemLookup::Miss(guard) => guard.fulfill(&program, &params, UNVERIFIED),
        MemLookup::Hit(..) => {}
        _ => panic!("unexpected lookup outcome for {key}"),
    }
    mem_entry_bytes(key, DEVICE, &program, &params)
}

/// Touches `key` (LRU recency bump) if present; returns whether it hit.
fn touch(cache: &MemCache, key: &str, text_len: usize) -> bool {
    let program = "p".repeat(text_len);
    match cache.lookup_or_begin(key, DEVICE, &program, &CancelToken::never()) {
        MemLookup::Hit(..) => true,
        MemLookup::Miss(guard) => {
            // The entry was evicted earlier: re-publishing keeps the
            // model and the cache in step.
            guard.fulfill(&program, &TileParams::new(1, &[3]), UNVERIFIED);
            false
        }
        _ => panic!("unexpected lookup outcome for {key}"),
    }
}

/// Reference model of the cache: `(key, bytes)` in LRU→MRU order.
struct ModelLru {
    cap: u64,
    entries: Vec<(String, u64)>,
}

impl ModelLru {
    fn bytes(&self) -> u64 {
        self.entries.iter().map(|(_, b)| b).sum()
    }

    /// Mirrors `MemCacheGuard::fulfill` + eviction: append as MRU, then
    /// evict from the LRU end until the cache fits.
    fn insert(&mut self, key: &str, bytes: u64) {
        self.entries.retain(|(k, _)| k != key);
        self.entries.push((key.to_string(), bytes));
        while self.bytes() > self.cap {
            self.entries.remove(0);
        }
    }

    /// Mirrors a hit: move to the MRU end (if present).
    fn touch(&mut self, key: &str) -> bool {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                let e = self.entries.remove(i);
                self.entries.push(e);
                true
            }
            None => false,
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants 1 + 3: the cap holds after every insert and the
    /// counters always balance.
    #[test]
    fn cap_and_counter_invariants_hold_under_random_workloads(
        cap_kb in 1usize..4,
        ops in proptest::collection::vec((0usize..24, 0usize..2), 1..60),
    ) {
        let cap = cap_kb as u64 * 1024;
        let cache = MemCache::with_cap(Some(cap));
        for (key_pick, op_kind) in ops {
            let key = format!("fp{key_pick:02}");
            // Entry sizes vary per key but are stable across re-inserts
            // of the same key (a changed program under one fingerprint
            // would be a collision bypass, a different code path).
            let text_len = 20 + key_pick * 17;
            if op_kind == 0 {
                insert(&cache, &key, text_len);
            } else {
                touch(&cache, &key, text_len);
            }
            // (1) the byte cap is a hard invariant after every op.
            prop_assert!(
                cache.bytes() <= cap,
                "cache holds {} bytes over the {} cap",
                cache.bytes(),
                cap
            );
            // (3) disjoint, complete accounting.
            prop_assert_eq!(
                cache.get(Id::MemLookups),
                cache.get(Id::MemHits)
                    + cache.get(Id::MemMisses)
                    + cache.get(Id::MemCoalesced)
                    + cache.get(Id::MemBypasses)
                    + cache.get(Id::MemCancelledWaits)
            );
        }
        // No eviction may lose byte accounting: an empty cache reports
        // zero bytes after evicting everything.
        prop_assert_eq!(cache.len() as u64 > 0, cache.bytes() > 0);
    }

    /// Invariant 2: after any op sequence the cache holds exactly the
    /// reference LRU's survivors — the most recently used entries — and
    /// nothing else.
    #[test]
    fn surviving_entries_match_a_reference_lru_exactly(
        cap in 600usize..2000,
        ops in proptest::collection::vec((0usize..12, 0usize..3), 1..50),
    ) {
        let cap = cap as u64;
        let cache = MemCache::with_cap(Some(cap));
        let mut model = ModelLru { cap, entries: Vec::new() };
        for (key_pick, op_kind) in ops {
            let is_touch = op_kind == 1;
            let key = format!("fp{key_pick:02}");
            let text_len = 20 + key_pick * 29;
            if op_kind == 2 {
                // An in-place upgrade (present or not) is invisible to
                // the model: no recency bump, no byte change, no entry.
                let record = ExecRecord { verified: true, ..UNVERIFIED };
                cache.upgrade(&key, DEVICE, &"p".repeat(text_len), record);
            } else if is_touch && model.contains(&key) {
                let hit = touch(&cache, &key, text_len);
                prop_assert!(hit, "model has {key} but the cache evicted it");
                model.touch(&key);
            } else {
                let bytes = insert(&cache, &key, text_len);
                model.insert(&key, bytes);
            }
            // The cache and the reference LRU agree on every key.
            for i in 0..12 {
                let k = format!("fp{i:02}");
                prop_assert_eq!(
                    cache.contains(DEVICE, &k),
                    model.contains(&k),
                    "presence of {} diverged from the reference LRU",
                    k
                );
            }
            prop_assert_eq!(cache.bytes(), model.bytes());
            prop_assert_eq!(cache.len(), model.entries.len());
        }
    }
}

/// The counter identity from the issue, verbatim, on a workload with no
/// collisions and no cancellation: `hits + misses + coalesced ==
/// lookups`.
#[test]
fn issue_counter_identity_holds_without_collisions() {
    let cache = MemCache::with_cap(Some(4096));
    for i in 0..20 {
        insert(&cache, &format!("fp{:02}", i % 7), 64 + i % 7);
    }
    for i in 0..20 {
        touch(&cache, &format!("fp{:02}", i % 7), 64 + i % 7);
    }
    assert_eq!(cache.get(Id::MemBypasses), 0);
    assert_eq!(cache.get(Id::MemCancelledWaits), 0);
    assert_eq!(
        cache.get(Id::MemHits) + cache.get(Id::MemMisses) + cache.get(Id::MemCoalesced),
        cache.get(Id::MemLookups)
    );
}

/// An in-place upgrade swaps the record of a ready entry — the next hit
/// sees the verified one — without charging the entry's bytes a second
/// time; it never creates an entry and never downgrades one.
#[test]
fn in_place_upgrade_never_double_counts_ready_bytes() {
    let cache = MemCache::with_cap(Some(4096));
    let program = "p".repeat(64);
    let bytes = insert(&cache, "fp00", 64);
    assert_eq!(cache.bytes(), bytes, "record bytes are part of the model");
    let record_of = |cache: &MemCache| match cache.lookup_or_begin(
        "fp00",
        DEVICE,
        &program,
        &CancelToken::never(),
    ) {
        MemLookup::Hit(_, record) => record,
        _ => panic!("expected a hit"),
    };
    assert_eq!(record_of(&cache), UNVERIFIED);

    let verified = ExecRecord {
        verified: true,
        ..UNVERIFIED
    };
    cache.upgrade("fp00", DEVICE, &program, verified);
    assert_eq!(record_of(&cache), verified);
    assert_eq!((cache.len(), cache.bytes()), (1, bytes));

    // Never a downgrade, never a colliding program, never a new entry.
    cache.upgrade("fp00", DEVICE, &program, UNVERIFIED);
    cache.upgrade("fp00", DEVICE, "another program", UNVERIFIED);
    cache.upgrade("fp01", DEVICE, &program, verified);
    assert_eq!(record_of(&cache), verified);
    assert_eq!((cache.len(), cache.bytes()), (1, bytes));
    assert_eq!(cache.get(Id::MemReexecuted), 0, "upgrades are not lookups");
}

/// A cap exactly the size of the working set keeps all of it: k entries
/// whose byte costs sum to the cap are all retained, nothing is evicted,
/// and a second pass is k hits.
#[test]
fn a_cap_that_holds_the_working_set_holds_it() {
    let sizes: Vec<usize> = (0..12).map(|i| 40 + i * 37).collect();
    let key = |i: usize| format!("fp{i:02}");
    let params = TileParams::new(1, &[3]);
    let cap: u64 = sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| mem_entry_bytes(&key(i), DEVICE, &"p".repeat(len), &params))
        .sum();
    let cache = MemCache::with_cap(Some(cap));
    for (i, &len) in sizes.iter().enumerate() {
        insert(&cache, &key(i), len);
    }
    assert_eq!((cache.len(), cache.bytes()), (sizes.len(), cap));
    assert_eq!(cache.get(Id::MemEvictions), 0);
    for (i, &len) in sizes.iter().enumerate() {
        assert!(touch(&cache, &key(i), len), "{} was evicted", key(i));
    }
    assert_eq!(cache.get(Id::MemHits), sizes.len() as u64);
    assert_eq!(cache.get(Id::MemEvictions), 0);
}

/// The same through a capped two-device fleet serving the six example
/// stencils twice: with each member's cap at least the six plans' summed
/// byte cost, the second round is six memory hits per device.
#[test]
fn a_fleet_cap_that_holds_the_examples_serves_round_two_from_memory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/stencils");
    let mut examples: Vec<(String, String)> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "stencil"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect();
    examples.sort();
    assert_eq!(examples.len(), 6);
    let out = std::env::temp_dir().join(format!("mem_cache_lru_fleet_{}", std::process::id()));
    let base = DriverConfig {
        smoke: true,
        verify: false,
        cache_dir: None,
        ..DriverConfig::new(&out)
    };
    let devices = [
        ("gtx470", DeviceConfig::gtx470()),
        ("nvs5200m", DeviceConfig::nvs5200m()),
    ];
    // Each device's working set, costed as the cache costs it; the tile
    // parameters' size depends only on the program's arity.
    let working_set = |device: &DeviceConfig| -> u64 {
        let cfg = DriverConfig {
            device: device.clone(),
            ..base.clone()
        };
        examples
            .iter()
            .map(|(name, src)| {
                let program = stencil::parse::parse_stencil(name, src).unwrap();
                let params = TileParams::new(1, &vec![1; program.spatial_dims()]);
                let text = program.to_c_like();
                let fp = fingerprint(&program, &cfg);
                mem_entry_bytes(&fp, &device_fingerprint(device), &text, &params)
            })
            .sum()
    };
    let cap = devices.iter().map(|(_, d)| working_set(d)).max().unwrap();
    let router = FleetRouter::new(
        base.clone(),
        FleetOptions {
            mem_cap_bytes: Some(cap),
            ..FleetOptions::default()
        },
    );
    let mut seq = 0;
    let mut round = |want: &str| {
        for (device, _) in &devices {
            for (name, src) in &examples {
                seq += 1;
                let request = Json::obj(vec![
                    ("op", Json::str("compile")),
                    ("id", Json::str(format!("{device}-{name}"))),
                    ("name", Json::str(name.clone())),
                    ("program", Json::str(src.clone())),
                    ("device", Json::str(*device)),
                ]);
                let response = router.handle_line(seq, &request.render_compact()).unwrap();
                assert_eq!(
                    response.get("cache").and_then(Json::as_str),
                    Some(want),
                    "{device} {name}: {}",
                    response.render_compact()
                );
            }
        }
    };
    round("miss");
    round("mem");
    let members = router.members();
    assert_eq!(members.len(), 2);
    for (_, member) in &members {
        let mem = member.mem();
        let device = &member.cfg().device;
        assert_eq!(
            (mem.len(), mem.bytes(), mem.get(Id::MemEvictions)),
            (6, working_set(device), 0),
            "{}",
            device.name
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

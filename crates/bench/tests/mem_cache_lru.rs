//! Property suite for the size-capped, device-sharded LRU behind the
//! `hybridd` in-memory plan cache ([`hybrid_bench::driver::MemCache`]).
//!
//! Random sequences of inserts (random-sized entries) and hits under a
//! small byte cap must preserve three invariants:
//!
//! 1. **cap** — total ready bytes ≤ cap after *every* operation;
//! 2. **recency** — the surviving entries are exactly the
//!    most-recently-used ones (checked against a reference LRU model on
//!    a single-shard cache, where the eviction order is total);
//! 3. **accounting** — the lookup counters stay disjoint and complete:
//!    `hits + misses + coalesced (+ bypasses + cancelled) == lookups`.
//!
//! The proptest stand-in generates deterministic inputs, so a failure
//! here reproduces with plain `cargo test`.

use hybrid_bench::driver::{mem_entry_bytes, ExecRecord, MemCache, MemLookup};
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

/// Reference model of one shard: `(key, bytes)` in LRU→MRU order.
struct ModelLru {
    cap: u64,
    entries: Vec<(String, u64)>,
}

impl ModelLru {
    fn bytes(&self) -> u64 {
        self.entries.iter().map(|(_, b)| b).sum()
    }

    /// Mirrors `MemCacheGuard::fulfill` + eviction: append as MRU, then
    /// evict from the LRU end until the shard fits.
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

    /// Invariants 1 + 3 on the production shape (16 shards): the cap
    /// holds after every insert — including across adaptive budget
    /// rebalances forced mid-workload — and the counters always balance.
    #[test]
    fn cap_and_counter_invariants_hold_under_random_workloads(
        cap_kb in 1usize..4,
        ops in proptest::collection::vec((0usize..24, 0usize..3), 1..60),
    ) {
        let cap = cap_kb as u64 * 1024;
        let cache = MemCache::with_config(16, Some(cap));
        for (key_pick, op_kind) in ops {
            let key = format!("fp{key_pick:02}");
            // Entry sizes vary per key but are stable across re-inserts
            // of the same key (a changed program under one fingerprint
            // would be a collision bypass, a different code path).
            let text_len = 20 + key_pick * 17;
            match op_kind {
                0 => {
                    insert(&cache, &key, text_len);
                }
                1 => {
                    touch(&cache, &key, text_len);
                }
                // Forced rebalance: the demand-weighted budgets reshape
                // mid-workload, exactly like the production cadence.
                _ => cache.rebalance(),
            }
            // (1) the byte cap is a hard invariant after every op.
            prop_assert!(
                cache.bytes() <= cap,
                "cache holds {} bytes over the {} cap",
                cache.bytes(),
                cap
            );
            // Adaptive budgets always partition the cap exactly.
            prop_assert_eq!(cache.shard_caps().iter().sum::<u64>(), cap);
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

    /// Invariant 2 on a single shard (total eviction order): after any
    /// op sequence the cache holds exactly the reference LRU's survivors
    /// — the most recently used entries — and nothing else.
    #[test]
    fn surviving_entries_match_a_reference_lru_exactly(
        cap in 600usize..2000,
        ops in proptest::collection::vec((0usize..12, 0usize..3), 1..50),
    ) {
        let cap = cap as u64;
        let cache = MemCache::with_config(1, Some(cap));
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

/// Demand-weighted rebalancing: a shard that serves nearly all of the
/// hit traffic must end up with more than its even-split share of the
/// byte budget, while every shard keeps at least the floor and the caps
/// still partition the total exactly.
#[test]
fn hot_shard_earns_budget_after_rebalance() {
    let shards = 4usize;
    let cap = 4096u64;
    let cache = MemCache::with_config(shards, Some(cap));
    let even = cap / shards as u64;
    assert_eq!(cache.shard_caps(), vec![even; shards], "initial even split");

    // Seed a handful of keys, then hammer one of them: its shard
    // accumulates nearly all the demand mass.
    for i in 0..6 {
        insert(&cache, &format!("fp{i:02}"), 40 + i * 13);
    }
    // A miss re-publishes the entry, and both hits and fulfills count
    // as demand, so the loop accrues demand either way.
    for _ in 0..100 {
        touch(&cache, "fp00", 40);
    }

    let before = cache.get(Id::MemRebalances);
    cache.rebalance();
    cache.rebalance();
    assert!(cache.get(Id::MemRebalances) >= before + 2);

    let caps = cache.shard_caps();
    assert_eq!(caps.iter().sum::<u64>(), cap, "caps partition the total");
    let floor = MemCache::shard_floor(cap, shards);
    assert!(
        caps.iter().all(|&c| c >= floor),
        "every shard keeps the floor: {caps:?} (floor {floor})"
    );
    assert!(
        caps.iter().copied().max().unwrap() > even,
        "the hot shard outgrew the even split: {caps:?}"
    );
    assert!(cache.bytes() <= cap);
}

/// The counter identity from the issue, verbatim, on a workload with no
/// collisions and no cancellation: `hits + misses + coalesced ==
/// lookups`.
#[test]
fn issue_counter_identity_holds_without_collisions() {
    let cache = MemCache::with_config(16, Some(4096));
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
    let cache = MemCache::with_config(1, Some(4096));
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

//! Shared memory: per-block buffers with 32-bank conflict modeling.

use crate::counters::Counters;
use gpu_codegen::SharedBuf;

/// Shared-memory state of one thread block.
#[derive(Clone, Debug)]
pub struct SharedMem {
    bufs: Vec<Vec<f32>>,
    dims: Vec<Vec<usize>>,
    /// Word offset of each buffer within the shared address space.
    bases: Vec<usize>,
}

impl SharedMem {
    /// Allocates the buffers declared by a kernel.
    pub fn new(decls: &[SharedBuf]) -> SharedMem {
        let mut bases = Vec::new();
        let mut next = 0usize;
        for d in decls {
            bases.push(next);
            next += d.len();
        }
        SharedMem {
            bufs: decls.iter().map(|d| vec![0.0; d.len()]).collect(),
            dims: decls.iter().map(|d| d.dims.clone()).collect(),
            bases,
        }
    }

    /// Row-major word offset within buffer `buf`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices (a code-generation bug).
    pub fn offset(&self, buf: usize, idx: &[i64]) -> usize {
        let dims = &self.dims[buf];
        assert_eq!(idx.len(), dims.len(), "shared index arity");
        let mut off = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            assert!(
                i >= 0 && (i as usize) < dims[d],
                "shared index {i} out of bounds for dim {d} (extent {})",
                dims[d]
            );
            off = off * dims[d] + i as usize;
        }
        off
    }

    /// Absolute word address (across all buffers) for bank analysis.
    pub fn word_address(&self, buf: usize, idx: &[i64]) -> usize {
        self.bases[buf] + self.offset(buf, idx)
    }

    /// Reads a value.
    pub fn read(&self, buf: usize, idx: &[i64]) -> f32 {
        self.bufs[buf][self.offset(buf, idx)]
    }

    /// Writes a value.
    pub fn write(&mut self, buf: usize, idx: &[i64], v: f32) {
        let off = self.offset(buf, idx);
        self.bufs[buf][off] = v;
    }
}

/// Computes the number of transactions (replays) a warp's shared access
/// needs: the maximum, over the 32 banks, of the number of *distinct words*
/// addressed in that bank. Identical words broadcast for free.
pub fn bank_transactions(word_addrs: &[usize]) -> u64 {
    let lanes = word_addrs.len();
    // A warp's worth of consecutive words: every lane has its own bank.
    if lanes <= 32 && word_addrs.windows(2).all(|w| w[1] == w[0] + 1) {
        return 1;
    }
    // Otherwise sort a copy (on the stack for a warp), so equal words are
    // adjacent and each distinct word is counted once.
    let (mut warp, mut heap) = ([0usize; 32], Vec::new());
    let sorted = if lanes <= 32 {
        warp[..lanes].copy_from_slice(word_addrs);
        &mut warp[..lanes]
    } else {
        heap.extend_from_slice(word_addrs);
        &mut heap[..]
    };
    sorted.sort_unstable();
    let mut distinct_per_bank = [0u64; 32];
    let mut last = None;
    for &w in sorted.iter() {
        // A repeated word broadcasts for free.
        if last != Some(w) {
            distinct_per_bank[w % 32] += 1;
            last = Some(w);
        }
    }
    distinct_per_bank.iter().copied().max().unwrap_or(0).max(1)
}

/// Charges a warp shared-memory load.
pub fn charge_shared_load(counters: &mut Counters, word_addrs: &[usize]) {
    if word_addrs.is_empty() {
        return;
    }
    counters.shared_load_requests += 1;
    counters.shared_load_transactions += bank_transactions(word_addrs);
}

/// Charges a warp shared-memory store.
pub fn charge_shared_store(counters: &mut Counters, word_addrs: &[usize]) {
    if word_addrs.is_empty() {
        return;
    }
    counters.shared_store_requests += 1;
    counters.shared_store_transactions += bank_transactions(word_addrs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, as a quadratic first-occurrence scan: per bank, the
    /// number of distinct words addressed in it; the maximum over banks.
    fn bank_transactions_by_definition(word_addrs: &[usize]) -> u64 {
        let mut distinct_per_bank = [0u64; 32];
        for (i, &w) in word_addrs.iter().enumerate() {
            if !word_addrs[..i].contains(&w) {
                distinct_per_bank[w % 32] += 1;
            }
        }
        distinct_per_bank.iter().copied().max().unwrap_or(0).max(1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The interpreter and the compiled executor share
        /// `bank_transactions`, so comparing them cannot catch an error in
        /// it; this can. Warps of 1–32 lanes (and beyond), strided from a
        /// random base, with some lanes redirected to other lanes' words
        /// (duplicates) or to arbitrary words, then shuffled.
        #[test]
        fn bank_transactions_equals_the_definition(
            lanes in 0usize..=40,
            base in 0usize..4096,
            stride in 0usize..6,
            edits in prop::collection::vec((0usize..40, 0usize..40, 0usize..3, 0usize..8192), 0..12),
            swaps in prop::collection::vec((0usize..40, 0usize..40), 0..24),
        ) {
            let stride = [0, 1, 2, 17, 32, 33][stride];
            let mut addrs: Vec<usize> = (0..lanes).map(|l| base + l * stride).collect();
            if lanes > 0 {
                for (i, j, kind, word) in edits {
                    addrs[i % lanes] = if kind == 0 { word } else { addrs[j % lanes] };
                }
                for (i, j) in swaps {
                    addrs.swap(i % lanes, j % lanes);
                }
            }
            prop_assert_eq!(
                bank_transactions(&addrs),
                bank_transactions_by_definition(&addrs)
            );
        }
    }

    #[test]
    fn conflict_free_unit_stride() {
        let addrs: Vec<usize> = (0..32).collect();
        assert_eq!(bank_transactions(&addrs), 1);
    }

    #[test]
    fn broadcast_is_free() {
        let addrs = vec![7usize; 32];
        assert_eq!(bank_transactions(&addrs), 1);
    }

    #[test]
    fn stride_two_is_two_way_conflict() {
        let addrs: Vec<usize> = (0..32).map(|i| i * 2).collect();
        assert_eq!(bank_transactions(&addrs), 2);
    }

    #[test]
    fn stride_32_is_fully_serialized() {
        let addrs: Vec<usize> = (0..32).map(|i| i * 32).collect();
        assert_eq!(bank_transactions(&addrs), 32);
    }

    #[test]
    fn buffer_addressing_row_major() {
        let m = SharedMem::new(&[SharedBuf {
            name: "s".into(),
            dims: vec![4, 10],
        }]);
        assert_eq!(m.offset(0, &[0, 3]), 3);
        assert_eq!(m.offset(0, &[2, 0]), 20);
    }

    #[test]
    fn distinct_buffers_do_not_alias() {
        let mut m = SharedMem::new(&[
            SharedBuf {
                name: "a".into(),
                dims: vec![8],
            },
            SharedBuf {
                name: "b".into(),
                dims: vec![8],
            },
        ]);
        m.write(0, &[3], 1.0);
        m.write(1, &[3], 2.0);
        assert_eq!(m.read(0, &[3]), 1.0);
        assert_eq!(m.read(1, &[3]), 2.0);
        assert_ne!(m.word_address(0, &[3]), m.word_address(1, &[3]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_shared_access_panics() {
        let m = SharedMem::new(&[SharedBuf {
            name: "s".into(),
            dims: vec![4],
        }]);
        let _ = m.offset(0, &[4]);
    }
}

//! The dense exact counter behind [`super::TileEvaluator`].
//!
//! A value is identified by its producing instance `(τ_w, position)` (the
//! field is implied: `τ_w mod k` names the writing statement). Every value
//! an ideal tile reads, writes, or finds left behind by its §4.2.2
//! predecessor is one bit of a grid with a slab per producer time `τ_w`;
//! inside a slab each spatial dimension is indexed through an [`Axis`] —
//! the sorted table of coordinates anything touches at that time. For the
//! contiguous neighbourhoods of real stencils an axis is one interval and
//! the index is a subtraction; for far-apart offsets it is a few intervals,
//! so the grid is bounded by the tile's own extent times the number of
//! distinct offsets per dimension, never by the offsets' magnitude.
//!
//! A tile row ([`TileRow`]) is a box, so is each access applied to it, and
//! a box is marked as one bit *range* per innermost line. The load counts
//! then fall out of word-wise `and-not` + popcount, and the shared-memory
//! footprint out of the boxes' corners without touching the grid at all.

use crate::params::TileError;
use crate::schedule::TileRow;

/// Largest grid the counter allocates, in bits per bitset (8 MiB). The
/// whole sweep space of the gallery stays under 1 % of it; only programs
/// with dozens of mutually distant offsets in several dimensions can
/// exceed it, and those are refused ([`TileError::ModelTooLarge`]) rather
/// than allocated for.
pub(super) const MAX_GRID_BITS: u64 = 1 << 26;

/// One value a statement instance touches, relative to the instance.
#[derive(Clone, Debug)]
pub(super) struct Touch {
    /// Field the value lives in.
    pub field: usize,
    /// Scheduled time back to the producer: `τ - τ_w` (`0` for the
    /// statement's own result).
    pub shift: i64,
    /// Spatial offsets of the value from the instance.
    pub offsets: Vec<i64>,
}

/// What the counter reports for one tile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) struct Counts {
    pub iterations: u64,
    pub cold_loads: u64,
    pub steady_loads: u64,
    pub smem_bytes: u64,
    /// Bits per bitset the count needed (diagnostic; bounds the memory).
    pub grid_bits: u64,
}

/// The coordinates one dimension of one slab can take: sorted disjoint
/// intervals, each with the dense index of its first coordinate.
struct Axis {
    runs: Vec<(i64, i64, usize)>,
    len: usize,
}

impl Axis {
    fn new(mut spans: Vec<(i64, i64)>) -> Axis {
        spans.sort_unstable();
        let mut runs: Vec<(i64, i64, usize)> = Vec::new();
        let mut len = 0usize;
        for (lo, hi) in spans {
            match runs.last_mut() {
                // Overlapping or adjacent: extend, keeping indices dense.
                Some(last) if lo <= last.1 + 1 => {
                    if hi > last.1 {
                        len += (hi - last.1) as usize;
                        last.1 = hi;
                    }
                }
                _ => {
                    runs.push((lo, hi, len));
                    len += (hi - lo + 1) as usize;
                }
            }
        }
        Axis { runs, len }
    }

    /// Dense index of `x`, which must be covered. An interval handed to
    /// [`Axis::new`] lies inside one run, so its coordinates map to
    /// consecutive indices starting at the index of its lower end.
    fn index(&self, x: i64) -> usize {
        let r = self.runs.partition_point(|&(_, hi, _)| hi < x);
        let (lo, _, base) = self.runs[r];
        debug_assert!(lo <= x, "coordinate {x} not on the axis");
        base + (x - lo) as usize
    }
}

/// One producer-time slab of the grid.
struct Slab {
    axes: Vec<Axis>,
    /// Bit offset of the slab in the grid.
    base: usize,
}

fn set_range(words: &mut [u64], start: usize, len: usize) {
    let end = start + len;
    let (first, last) = (start / 64, (end - 1) / 64);
    let head = !0u64 << (start % 64);
    let tail = !0u64 >> (63 - (end - 1) % 64);
    if first == last {
        words[first] |= head & tail;
    } else {
        words[first] |= head;
        for w in &mut words[first + 1..last] {
            *w = !0;
        }
        words[last] |= tail;
    }
}

/// Marks the box `lo..=hi` of `slab`: one bit range per innermost line.
fn mark_box(words: &mut [u64], slab: &Slab, lo: &[i64], hi: &[i64]) {
    let inner = lo.len() - 1;
    let first: Vec<usize> = (0..=inner).map(|d| slab.axes[d].index(lo[d])).collect();
    let extent = |d: usize| (hi[d] - lo[d] + 1) as usize;
    let mut at = vec![0usize; inner];
    loop {
        let line = (0..inner).fold(0, |acc, d| (acc + first[d] + at[d]) * slab.axes[d + 1].len);
        set_range(words, slab.base + line + first[inner], extent(inner));
        let Some(d) = (0..inner).rev().find(|&d| at[d] + 1 < extent(d)) else {
            return;
        };
        at[d] += 1;
        at[d + 1..].fill(0);
    }
}

/// Counts one ideal tile given as `rows` (ascending `τ`): `touches[i]`
/// lists what an instance of statement `i` touches, its own result first;
/// `max_shift` is the largest [`Touch::shift`]; `planes` the live time
/// planes per field; `reuse_shift` the innermost classical width when the
/// tile has a §4.2.2 predecessor (two or more spatial dimensions).
pub(super) fn count(
    rows: &[TileRow],
    touches: &[Vec<Touch>],
    num_fields: usize,
    planes: u64,
    max_shift: i64,
    reuse_shift: Option<i64>,
) -> Result<Counts, TileError> {
    let k = touches.len() as i64;
    let n = rows[0].lo.len();
    let inner = n - 1;
    let touched = |row: &TileRow| &touches[row.tau.rem_euclid(k) as usize];

    let iterations: u64 = rows
        .iter()
        .map(|r| {
            (0..n)
                .map(|d| (r.hi[d] - r.lo[d] + 1) as u64)
                .product::<u64>()
        })
        .sum();

    // One pass over (row, touch) boxes: the per-field bounding boxes and,
    // per slab and dimension, the intervals the axes must cover.
    let first_tau = rows[0].tau - max_shift;
    let slabs = (rows[rows.len() - 1].tau - first_tau + 1) as usize;
    let mut spans: Vec<Vec<Vec<(i64, i64)>>> = vec![vec![Vec::new(); n]; slabs];
    let mut boxes: Vec<Option<(Vec<i64>, Vec<i64>)>> = vec![None; num_fields];
    for row in rows {
        for t in touched(row) {
            let slab = (row.tau - t.shift - first_tau) as usize;
            let (lo, hi) =
                boxes[t.field].get_or_insert_with(|| (vec![i64::MAX; n], vec![i64::MIN; n]));
            for d in 0..n {
                let (l, h) = (row.lo[d] + t.offsets[d], row.hi[d] + t.offsets[d]);
                lo[d] = lo[d].min(l);
                hi[d] = hi[d].max(h);
                spans[slab][d].push((l, h));
                // The predecessor's copy of the box, one width earlier.
                if let Some(w) = reuse_shift.filter(|_| d == inner) {
                    spans[slab][d].push((l - w, h - w));
                }
            }
        }
    }
    let smem_bytes = boxes
        .iter()
        .flatten()
        .map(|(lo, hi)| {
            (0..n)
                .map(|d| (hi[d] - lo[d] + 1) as u64)
                .fold(planes * 4, u64::saturating_mul)
        })
        .fold(0u64, u64::saturating_add);

    let mut grid_bits = 0u64;
    let mut grid: Vec<Slab> = Vec::with_capacity(slabs);
    for per_dim in spans {
        let axes: Vec<Axis> = per_dim.into_iter().map(Axis::new).collect();
        let bits = axes
            .iter()
            .fold(1u64, |acc, a| acc.saturating_mul(a.len as u64));
        grid.push(Slab {
            axes,
            base: grid_bits as usize,
        });
        grid_bits = grid_bits.saturating_add(bits);
        if grid_bits > MAX_GRID_BITS {
            return Err(TileError::ModelTooLarge { bits: grid_bits });
        }
    }

    let words = (grid_bits as usize).div_ceil(64);
    let mut reads = vec![0u64; words];
    let mut writes = vec![0u64; words];
    // Values the predecessor along the innermost classical dimension read
    // or produced: already in shared memory (§4.2.2 dynamic reuse).
    let mut available = vec![0u64; if reuse_shift.is_some() { words } else { 0 }];
    let (mut lo, mut hi) = (vec![0i64; n], vec![0i64; n]);
    for row in rows {
        for (i, t) in touched(row).iter().enumerate() {
            let slab = &grid[(row.tau - t.shift - first_tau) as usize];
            for d in 0..n {
                lo[d] = row.lo[d] + t.offsets[d];
                hi[d] = row.hi[d] + t.offsets[d];
            }
            mark_box(
                if i == 0 { &mut writes } else { &mut reads },
                slab,
                &lo,
                &hi,
            );
            if let Some(w) = reuse_shift {
                lo[inner] -= w;
                hi[inner] -= w;
                mark_box(&mut available, slab, &lo, &hi);
            }
        }
    }

    let cold = |i: usize| reads[i] & !writes[i];
    let cold_loads: u64 = (0..words).map(|i| cold(i).count_ones() as u64).sum();
    let steady_loads = match reuse_shift {
        Some(_) => (0..words)
            .map(|i| (cold(i) & !available[i]).count_ones() as u64)
            .sum(),
        None => cold_loads,
    };
    Ok(Counts {
        iterations,
        cold_loads,
        steady_loads,
        smem_bytes,
        grid_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_merges_touching_intervals_and_skips_gaps() {
        let axis = Axis::new(vec![(10, 12), (-1_000_000, -999_998), (13, 14), (11, 12)]);
        assert_eq!(axis.len, 3 + 5);
        assert_eq!(axis.runs.len(), 2);
        assert_eq!(axis.index(-1_000_000), 0);
        assert_eq!(axis.index(-999_998), 2);
        assert_eq!(axis.index(10), 3);
        assert_eq!(axis.index(14), 7);
    }

    #[test]
    fn set_range_handles_word_boundaries() {
        for (start, len) in [(0, 1), (3, 61), (60, 8), (63, 1), (64, 64), (5, 200)] {
            let mut words = vec![0u64; 5];
            set_range(&mut words, start, len);
            for bit in 0..320 {
                let set = words[bit / 64] >> (bit % 64) & 1 == 1;
                assert_eq!(
                    set,
                    (start..start + len).contains(&bit),
                    "{start}+{len} bit {bit}"
                );
            }
        }
    }
}

//! Test-only oracle for the tile-size model: the enumerate-and-hash
//! algorithm the dense counter replaced, kept point by point — one `Vec`
//! per instance, one hash insert per value — with values keyed by the full
//! `(field, τ_w, position)` tuple, so no two distinct values can alias.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::HashSet;

use hybrid_tiling::tilesize::{SearchSpace, TileSizeModel};
use hybrid_tiling::{HybridSchedule, Phase, TileCoord, TileError, TileParams};
use stencil::StencilProgram;

type Value = (usize, i64, Vec<i64>);

fn tile_values(program: &StencilProgram, points: &[Vec<i64>]) -> (HashSet<Value>, HashSet<Value>) {
    let k = program.num_statements() as i64;
    let mut reads = HashSet::new();
    let mut writes = HashSet::new();
    for p in points {
        let tau = p[0];
        let i = tau.rem_euclid(k) as usize;
        let st = &program.statements()[i];
        writes.insert((st.writes.0, tau, p[1..].to_vec()));
        for a in st.expr.loads() {
            let j = program.writer_of(a.field) as i64;
            let tau_w = tau - (k * a.dt + (i as i64 - j));
            let pos = p[1..]
                .iter()
                .zip(&a.offsets)
                .map(|(&s, &o)| s + o)
                .collect();
            reads.insert((a.field.0, tau_w, pos));
        }
    }
    (reads, writes)
}

/// The reference model of one parameter choice.
pub fn reference_model(
    program: &StencilProgram,
    params: &TileParams,
) -> Result<TileSizeModel, TileError> {
    let schedule = HybridSchedule::compute(program, params)?;
    let n = program.spatial_dims();
    let k = program.num_statements() as i64;
    let tile = TileCoord {
        t_tile: 8,
        phase: Phase::One,
        s_tiles: vec![0; n],
    };
    let points = schedule.ideal_tile_points(&tile);
    let (reads, writes) = tile_values(program, &points);
    let cold: HashSet<&Value> = reads.difference(&writes).collect();

    let steady_loads = if n >= 2 {
        let mut prev_tile = tile.clone();
        prev_tile.s_tiles[n - 1] -= 1;
        let (prev_reads, prev_writes) =
            tile_values(program, &schedule.ideal_tile_points(&prev_tile));
        cold.iter()
            .filter(|v| !prev_reads.contains(**v) && !prev_writes.contains(**v))
            .count() as u64
    } else {
        cold.len() as u64
    };

    let planes = program.max_dt() as u64 + 1;
    let mut smem_bytes = 0u64;
    for f in 0..program.num_fields() {
        let mut lo = vec![i64::MAX; n];
        let mut hi = vec![i64::MIN; n];
        let mut touched = false;
        let mut note = |pos: &[i64]| {
            for d in 0..n {
                lo[d] = lo[d].min(pos[d]);
                hi[d] = hi[d].max(pos[d]);
            }
            touched = true;
        };
        for p in &points {
            let st = &program.statements()[p[0].rem_euclid(k) as usize];
            if st.writes.0 == f {
                note(&p[1..]);
            }
            for a in st.expr.loads().into_iter().filter(|a| a.field.0 == f) {
                let pos: Vec<i64> = p[1..]
                    .iter()
                    .zip(&a.offsets)
                    .map(|(&s, &o)| s + o)
                    .collect();
                note(&pos);
            }
        }
        if touched {
            let cells: u64 = lo
                .iter()
                .zip(&hi)
                .map(|(&l, &h)| (h - l + 1) as u64)
                .product();
            smem_bytes += cells * planes * 4;
        }
    }

    Ok(TileSizeModel {
        params: params.clone(),
        iterations: points.len() as u64,
        cold_loads: cold.len() as u64,
        steady_loads,
        smem_bytes,
    })
}

/// The driver's full (non-smoke) §6 sweep space (`hybrid_bench::autotune::
/// sweep_space`, which this crate cannot depend on).
pub fn sweep_space(n: usize) -> SearchSpace {
    SearchSpace::for_dims(n, vec![0, 1, 2, 3], vec![1, 3, 5], &[4, 8], &[32, 64])
}

/// Every parameter choice of `space`, in sweep order.
pub fn candidates(space: &SearchSpace) -> Vec<TileParams> {
    let mut tails: Vec<Vec<i64>> = vec![vec![]];
    for cands in &space.wi {
        tails = tails
            .iter()
            .flat_map(|t| cands.iter().map(move |&w| [t.as_slice(), &[w]].concat()))
            .collect();
    }
    let mut out = Vec::new();
    for &h in &space.h {
        for &w0 in &space.w0 {
            for tail in &tails {
                out.push(TileParams::new(h, &[&[w0], tail.as_slice()].concat()));
            }
        }
    }
    out
}

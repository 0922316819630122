//! Property: the racing autotune sweep is bit-identical to the
//! sequential one.
//!
//! Across random gallery stencils, random sub-spaces of the §6 tile
//! space, random shortlist widths, and a scorer that rejects a random
//! slice of candidates, [`autotune_parallel_cancellable`] at 1, 2, and 8
//! workers must reproduce the sequential [`autotune`] report exactly —
//! the same ranking (parameters AND bit-equal scores), the same
//! counters — because results are collected by static rank, never by
//! completion order. With the ladder disabled every scoring is full
//! fidelity (`full_simulated == simulated`); with it enabled the report
//! is still identical across worker counts and the two rungs partition
//! `simulated`. The same holds under the driver's real scorers (codegen
//! feasibility, the simulator), and a token that fires while the model
//! is still being evaluated stops the sweep before anything is scored.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gpu_codegen::{generate_hybrid, CodegenOptions};
use gpusim::DeviceConfig;
use hybrid_bench::autotune::{simulate_score, sweep_space};
use hybrid_tiling::cancel::{CancelKind, CancelToken};
use hybrid_tiling::tilesize::autotune::{
    autotune, autotune_cancellable, autotune_parallel_cancellable, AutotuneConfig, AutotuneError,
    AutotuneReport,
};
use hybrid_tiling::tilesize::TileSizeModel;
use hybrid_tiling::SearchSpace;
use proptest::prelude::*;
use stencil::{gallery, StencilProgram};

fn stencil_pool() -> Vec<StencilProgram> {
    vec![
        gallery::jacobi2d(),
        gallery::laplacian2d(),
        gallery::heat2d(),
        gallery::contrived1d(),
        gallery::laplacian3d(),
    ]
}

/// A deterministic pure-function scorer: a fixed figure of merit per
/// model (so every sweep ranks identically), rejecting the candidates
/// whose static footprint lands on `reject_mod` (so the `rejected_scorer`
/// path is exercised too).
fn det_score(m: &TileSizeModel, reject_mod: u64) -> Option<f64> {
    if (m.iterations + m.smem_bytes).is_multiple_of(reject_mod) {
        return None;
    }
    Some(-m.ratio() + 0.001 * m.params.h as f64)
}

/// Full structural equality: ranking (whole models + bit-equal scores)
/// and every counter — everything but the `model_ms` wall time.
fn assert_reports_identical(tag: &str, a: &AutotuneReport, b: &AutotuneReport) {
    assert_eq!(a.ranked.len(), b.ranked.len(), "{tag}: ranked length");
    for (i, (x, y)) in a.ranked.iter().zip(&b.ranked).enumerate() {
        assert_eq!(x.model, y.model, "{tag}: rank {i} model");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{tag}: rank {i} score bits"
        );
    }
    assert_eq!(a.examined, b.examined, "{tag}: examined");
    assert_eq!(
        a.rejected_schedule, b.rejected_schedule,
        "{tag}: rejected_schedule"
    );
    assert_eq!(a.rejected_smem, b.rejected_smem, "{tag}: rejected_smem");
    assert_eq!(a.rejected_regs, b.rejected_regs, "{tag}: rejected_regs");
    assert_eq!(a.pruned, b.pruned, "{tag}: pruned");
    assert_eq!(a.shortlisted, b.shortlisted, "{tag}: shortlisted");
    assert_eq!(a.simulated, b.simulated, "{tag}: simulated");
    assert_eq!(
        a.proxy_simulated, b.proxy_simulated,
        "{tag}: proxy_simulated"
    );
    assert_eq!(a.full_simulated, b.full_simulated, "{tag}: full_simulated");
    assert_eq!(
        a.rejected_scorer, b.rejected_scorer,
        "{tag}: rejected_scorer"
    );
}

/// A random sub-space of the §6 sweep space, never empty in any axis.
fn subspace(h_pick: usize, w0_pick: usize, inner_pick: usize, n: usize) -> SearchSpace {
    let h_all = [vec![1], vec![1, 2], vec![0, 1, 2, 3]];
    let w0_all = [vec![1], vec![1, 3], vec![1, 3, 5]];
    let inner_all = [vec![32], vec![32, 64]];
    SearchSpace::for_dims(
        n,
        h_all[h_pick].clone(),
        w0_all[w0_pick].clone(),
        &[4],
        &inner_all[inner_pick],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ladder off: 1, 2, and 8 workers all reproduce the sequential
    /// report, and every scoring is full fidelity.
    #[test]
    fn parallel_sweep_matches_sequential_at_any_worker_count(
        pick in 0usize..5,
        h_pick in 0usize..3,
        w0_pick in 0usize..3,
        inner_pick in 0usize..2,
        top_k in 0usize..=4,
        reject_mod in 2usize..=9,
    ) {
        let program = stencil_pool().swap_remove(pick);
        let space = subspace(h_pick, w0_pick, inner_pick, program.spatial_dims());
        let cfg = AutotuneConfig {
            top_k,
            ..AutotuneConfig::fermi()
        };
        let seq = autotune(&program, &space, &cfg, |m| det_score(m, reject_mod as u64));
        prop_assert_eq!(seq.proxy_simulated, 0);
        prop_assert_eq!(seq.full_simulated, seq.simulated);
        for workers in [1usize, 2, 8] {
            let par = autotune_parallel_cancellable(
                &program,
                &space,
                &cfg,
                &CancelToken::never(),
                workers,
                |m: &TileSizeModel, _| det_score(m, reject_mod as u64),
            )
            .expect("a never-token cannot cancel the sweep");
            assert_reports_identical(
                &format!("{} @ {workers} workers", program.name()),
                &seq,
                &par,
            );
        }
    }

    /// Ladder on: the report is still bit-identical across worker
    /// counts, and the rungs partition the scoring counter.
    #[test]
    fn ladder_report_is_worker_count_invariant(
        pick in 0usize..5,
        h_pick in 0usize..3,
        w0_pick in 0usize..3,
        keep_bump in 0usize..3,
        reject_mod in 2usize..=9,
    ) {
        let program = stencil_pool().swap_remove(pick);
        let space = subspace(h_pick, w0_pick, 1, program.spatial_dims());
        let cfg = AutotuneConfig {
            proxy_frac: 0.5,
            keep_frac: 0.3 + 0.2 * keep_bump as f64,
            ..AutotuneConfig::fermi()
        };
        let one = autotune_parallel_cancellable(
            &program,
            &space,
            &cfg,
            &CancelToken::never(),
            1,
            |m: &TileSizeModel, _| det_score(m, reject_mod as u64),
        )
        .expect("a never-token cannot cancel the sweep");
        prop_assert_eq!(one.simulated, one.proxy_simulated + one.full_simulated);
        // More than one survivor scored => the ladder actually dropped
        // someone (keep_frac < 1 keeps a strict subset of 2+).
        if one.proxy_simulated > 1 {
            prop_assert!(one.full_simulated <= one.proxy_simulated);
        }
        for workers in [2usize, 8] {
            let par = autotune_parallel_cancellable(
                &program,
                &space,
                &cfg,
                &CancelToken::never(),
                workers,
                |m: &TileSizeModel, _| det_score(m, reject_mod as u64),
            )
            .expect("a never-token cannot cancel the sweep");
            assert_reports_identical(
                &format!("{} ladder @ {workers} workers", program.name()),
                &one,
                &par,
            );
        }
    }
}

/// The driver's two scorers — static (codegen feasibility, ranked by the
/// model's ratio) and simulated — over the smoke space: the sequential
/// sweep and the racing one at 1, 2 and 8 workers report the same thing.
#[test]
fn real_scorers_report_identically_at_any_worker_count() {
    let program = gallery::jacobi2d();
    let device = DeviceConfig::gtx470();
    let space = sweep_space(2, true);
    let cfg = AutotuneConfig::fermi();
    let (dims, steps) = (vec![48, 48], 6);
    let static_score = |m: &TileSizeModel| {
        generate_hybrid(&program, &m.params, &dims, steps, CodegenOptions::best())
            .ok()
            .map(|_| -m.ratio())
    };
    let simulated_score =
        |m: &TileSizeModel| simulate_score(&program, &m.params, &device, &dims, steps, 1);
    type Scorer<'a> = &'a (dyn Fn(&TileSizeModel) -> Option<f64> + Sync);
    let scorers: [(&str, Scorer<'_>); 2] =
        [("static", &static_score), ("simulated", &simulated_score)];
    for (name, score) in scorers {
        let seq = autotune_cancellable(&program, &space, &cfg, &CancelToken::never(), score)
            .expect("a never-token cannot cancel the sweep");
        assert_eq!(seq.examined, 4, "{name}");
        assert!(!seq.ranked.is_empty(), "{name}");
        assert!(seq.model_ms > 0.0, "{name}: the front half is timed");
        for workers in [1usize, 2, 8] {
            let par = autotune_parallel_cancellable(
                &program,
                &space,
                &cfg,
                &CancelToken::never(),
                workers,
                |m: &TileSizeModel, _| score(m),
            )
            .expect("a never-token cannot cancel the sweep");
            assert_reports_identical(&format!("{name} @ {workers} workers"), &seq, &par);
        }
    }
}

/// A space large enough that evaluating its model takes seconds, and a
/// flag raised a few milliseconds in: whenever exactly it lands, the sweep
/// must stop inside the front half — fewer candidates examined than the
/// space holds, nothing handed to the scorer.
#[test]
fn a_token_fired_during_the_front_half_stops_before_any_scoring() {
    let program = gallery::jacobi2d();
    let space = SearchSpace {
        h: vec![0, 1, 2, 3],
        w0: (1..=60).collect(),
        wi: vec![(1..=128).collect()],
    };
    let points = 4 * 60 * 128;
    for workers in [1usize, 2, 8] {
        let flag = Arc::new(AtomicBool::new(false));
        let token = CancelToken::with_flag(flag.clone());
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                flag.store(true, Ordering::SeqCst);
            });
            autotune_parallel_cancellable(
                &program,
                &space,
                &AutotuneConfig::fermi(),
                &token,
                workers,
                |_: &TileSizeModel, _| -> Option<f64> {
                    panic!("the scorer must not run after a front-half cancellation")
                },
            )
        });
        match result {
            Err(AutotuneError::Cancelled { kind, partial }) => {
                assert_eq!(kind, CancelKind::Flag);
                assert!(
                    partial.examined < points,
                    "{workers} workers: examined {} of {points}",
                    partial.examined
                );
                assert_eq!(partial.simulated, 0);
                assert!(partial.ranked.is_empty());
            }
            Ok(report) => panic!(
                "{workers} workers: sweep of {} points finished before the flag",
                report.examined
            ),
        }
    }
}

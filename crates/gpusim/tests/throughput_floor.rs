//! The throughput floor of a bounded run is sound: a run stopped below it
//! would have ended below it.
//!
//! [`timing::gstencils_per_s`] divides a fixed `point_updates` by a time
//! that is a max of non-negative multiples of counters plus launch
//! overhead, so adding counts never raises it (the property below). On a
//! real hybrid plan, a floor just above the unbounded run's score stops
//! the run, and a floor just below lets it finish with the unbounded run's
//! counters and grids — on one worker and on several.

use gpu_codegen::{generate_hybrid, CodegenOptions};
use gpusim::{timing, Counters, DeviceConfig, GpuSim, RunEnd};
use hybrid_tiling::TileParams;
use proptest::prelude::*;
use stencil::{gallery, Grid};

/// Counters from 20 draws, in field order, with `point_updates` replaced
/// by `point_updates`.
fn counters(v: &[i64], point_updates: u64) -> Counters {
    let v: Vec<u64> = v.iter().map(|&x| x as u64).collect();
    Counters {
        gld_inst: v[0],
        gst_inst: v[1],
        gld_transactions: v[2],
        gst_transactions: v[3],
        l1_transactions: v[4],
        gld_requested_bytes: v[5],
        l2_read_transactions: v[6],
        l2_write_transactions: v[7],
        dram_read_transactions: v[8],
        dram_write_transactions: v[9],
        shared_load_requests: v[10],
        shared_load_transactions: v[11],
        shared_store_requests: v[12],
        shared_store_transactions: v[13],
        flops: v[14],
        warp_instructions: v[15],
        syncs: v[16],
        divergent_branches: v[17],
        point_updates,
        launches: v[19],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Once a run has counted any time, more counts at the same
    /// `point_updates` never raise its GStencils/s, and a run below a
    /// floor stays below it.
    #[test]
    fn more_counts_never_raise_the_throughput(
        base in prop::collection::vec(0i64..1 << 40, 20),
        delta in prop::collection::vec(0i64..1 << 40, 20),
        point_updates in 1i64..1 << 40,
        launches in 1i64..1 << 20,
    ) {
        let mut base = counters(&base, point_updates as u64);
        // A launch makes the time positive: before any time is counted the
        // throughput reads 0 and bounds nothing.
        base.launches = launches as u64;
        let grown = base + counters(&delta, 0);
        for device in [DeviceConfig::gtx470(), DeviceConfig::nvs5200m()] {
            let (before, after) = (
                timing::gstencils_per_s(&base, &device),
                timing::gstencils_per_s(&grown, &device),
            );
            prop_assert!(after <= before, "{after} > {before} on {}", device.name);
            let floor = before.next_up();
            prop_assert!(timing::below_floor(&base, &device, floor));
            prop_assert!(timing::below_floor(&grown, &device, floor));
            prop_assert!(!timing::below_floor(&base, &device, before));
        }
    }
}

#[test]
fn no_time_counted_is_never_below_a_floor() {
    let c = Counters {
        point_updates: 1_000,
        ..Counters::default()
    };
    assert!(!timing::below_floor(&c, &DeviceConfig::gtx470(), 1.0));
}

/// The five-point Jacobi plan at `h = 3, w = [5, 32]` on a 48 × 40 grid
/// for 6 steps, and a simulator loaded for it.
fn jacobi() -> (gpu_codegen::ir::LaunchPlan, impl Fn() -> GpuSim) {
    let program = gallery::jacobi2d();
    let (dims, steps) = ([48, 40], 6);
    let plan = generate_hybrid(
        &program,
        &TileParams::new(3, &[5, 32]),
        &dims,
        steps,
        CodegenOptions::best(),
    )
    .unwrap();
    let init = vec![Grid::random(&dims, 5)];
    let sim = move || {
        let mut sim = GpuSim::new(DeviceConfig::gtx470(), &init, 2);
        sim.set_point_updates(46 * 38 * steps as u64);
        sim
    };
    (plan, sim)
}

#[test]
fn a_floor_just_above_the_score_stops_the_run() {
    let (plan, sim) = jacobi();
    let mut full = sim();
    full.try_run_plan_parallel_with(&plan, 1).unwrap();
    let score = timing::gstencils_per_s(full.counters(), full.device());
    for threads in [1, 2] {
        let mut bounded = sim();
        let end = bounded
            .try_run_plan_bounded(&plan, threads, score.next_up())
            .unwrap();
        assert_eq!(end, RunEnd::BelowFloor, "{threads} thread(s)");
        // What a stopped run reports bounds the whole run's throughput.
        let reported = timing::gstencils_per_s(bounded.counters(), bounded.device());
        assert!(reported >= score && reported < score.next_up());
        assert_eq!(bounded.counters().launches, plan.launches.len() as u64);

        // Twice the score stops it well before its last block.
        let mut early = sim();
        let end = early
            .try_run_plan_bounded(&plan, threads, 2.0 * score)
            .unwrap();
        assert_eq!(end, RunEnd::BelowFloor, "{threads} thread(s)");
        let (ran, all) = (
            early.counters().warp_instructions,
            full.counters().warp_instructions,
        );
        assert!(
            ran < all,
            "{threads} thread(s): {ran} of {all} instructions ran"
        );
        assert!(timing::gstencils_per_s(early.counters(), early.device()) < 2.0 * score);
    }
}

#[test]
fn a_floor_just_below_the_score_lets_the_run_finish_unchanged() {
    let (plan, sim) = jacobi();
    let mut full = sim();
    full.try_run_plan_parallel_with(&plan, 1).unwrap();
    let score = timing::gstencils_per_s(full.counters(), full.device());
    for threads in [1, 2] {
        let mut bounded = sim();
        let end = bounded
            .try_run_plan_bounded(&plan, threads, score.next_down())
            .unwrap();
        assert_eq!(end, RunEnd::Finished, "{threads} thread(s)");
        assert_eq!(bounded.counters(), full.counters(), "{threads} thread(s)");
        for plane in 0..2 {
            assert!(
                bounded.plane(0, plane).bit_equal(full.plane(0, plane)),
                "{threads} thread(s): plane {plane}"
            );
        }
    }
}

//! Roofline timing model: counters + device parameters → seconds,
//! GFLOPS and GStencils/s.
//!
//! Kernel time is the maximum over the resource components (the kernel is
//! bound by whichever engine saturates first), plus launch overheads. This
//! reproduces the qualitative structure of the paper's evaluation: space
//! tiling is DRAM-bound, hybrid tiling moves kernels toward the
//! shared-memory/issue roof (§6.2's observation that the optimized heat-3d
//! kernel becomes "mostly bound by shared memory").

use crate::counters::Counters;
use crate::device::DeviceConfig;

/// Per-resource time components (seconds).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimeBreakdown {
    /// Arithmetic throughput component.
    pub compute: f64,
    /// Warp instruction issue component.
    pub issue: f64,
    /// Shared-memory transaction component.
    pub shared: f64,
    /// L2 bandwidth component.
    pub l2: f64,
    /// DRAM bandwidth component.
    pub dram: f64,
    /// Kernel launch overhead (additive).
    pub launch: f64,
    /// Total estimated wall time.
    pub total: f64,
}

impl TimeBreakdown {
    /// Name of the dominant (binding) resource.
    pub fn bound_by(&self) -> &'static str {
        let candidates = [
            ("compute", self.compute),
            ("issue", self.issue),
            ("shared", self.shared),
            ("l2", self.l2),
            ("dram", self.dram),
        ];
        candidates
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| *n)
            .unwrap_or("compute")
    }
}

/// Estimates execution time of the counted work on `device`.
pub fn estimate_time(counters: &Counters, device: &DeviceConfig) -> TimeBreakdown {
    let compute = counters.flops as f64 / device.peak_flops();
    let issue = counters.warp_instructions as f64 / device.peak_issue();
    // The L1 and shared memory share one SRAM port on Fermi: global
    // transactions (hit or miss) and shared transactions compete for it.
    let shared = (counters.shared_load_transactions
        + counters.shared_store_transactions
        + counters.l1_transactions) as f64
        / device.peak_shared_transactions();
    let l2 = counters.l2_bytes() as f64 / (device.l2_gbps * 1e9);
    let dram = counters.dram_bytes() as f64 / (device.dram_gbps * 1e9);
    let launch = counters.launches as f64 * device.launch_overhead_s;
    let total = compute.max(issue).max(shared).max(l2).max(dram) + launch;
    TimeBreakdown {
        compute,
        issue,
        shared,
        l2,
        dram,
        launch,
        total,
    }
}

/// Stencil throughput in GStencils/s (point updates per nanosecond).
pub fn gstencils_per_s(counters: &Counters, device: &DeviceConfig) -> f64 {
    let t = estimate_time(counters, device).total;
    if t <= 0.0 {
        return 0.0;
    }
    counters.point_updates as f64 / t / 1e9
}

/// Whether a run whose counters so far are `counters` can only end below
/// `floor` GStencils/s. Every term of [`estimate_time`] is a non-negative
/// multiple of a counter, and counters only grow while `point_updates`
/// (recorded before the run) stays fixed, so once the time is positive
/// [`gstencils_per_s`] only falls as the run goes on. Before any time is
/// counted it reads 0 without bounding anything, so that is never below.
pub fn below_floor(counters: &Counters, device: &DeviceConfig, floor: f64) -> bool {
    estimate_time(counters, device).total > 0.0 && gstencils_per_s(counters, device) < floor
}

/// Arithmetic throughput in GFLOPS.
pub fn gflops(counters: &Counters, device: &DeviceConfig) -> f64 {
    let t = estimate_time(counters, device).total;
    if t <= 0.0 {
        return 0.0;
    }
    counters.flops as f64 / t / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_bound_kernel() {
        let c = Counters {
            flops: 1_000,
            dram_read_transactions: 1_000_000_000,
            ..Counters::default()
        };
        let t = estimate_time(&c, &DeviceConfig::gtx470());
        assert_eq!(t.bound_by(), "dram");
        // 32 GB at 133.9 GB/s ≈ 0.239 s.
        assert!((t.total - 32.0 / 133.9).abs() < 1e-3);
    }

    #[test]
    fn compute_bound_kernel() {
        let c = Counters {
            flops: 10_000_000_000,
            dram_read_transactions: 10,
            ..Counters::default()
        };
        let t = estimate_time(&c, &DeviceConfig::gtx470());
        assert_eq!(t.bound_by(), "compute");
    }

    #[test]
    fn same_work_is_slower_on_mobile_part() {
        let c = Counters {
            flops: 1_000_000,
            dram_read_transactions: 1_000_000,
            point_updates: 1_000_000,
            ..Counters::default()
        };
        let fast = gstencils_per_s(&c, &DeviceConfig::gtx470());
        let slow = gstencils_per_s(&c, &DeviceConfig::nvs5200m());
        assert!(fast > 3.0 * slow);
    }

    #[test]
    fn launch_overhead_accumulates() {
        let c = Counters {
            launches: 1000,
            ..Counters::default()
        };
        let t = estimate_time(&c, &DeviceConfig::gtx470());
        assert!((t.launch - 4e-3).abs() < 1e-9);
    }
}

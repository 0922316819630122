//! # gpusim — a CUDA-execution-model GPU simulator
//!
//! The paper evaluates on an NVIDIA GTX 470 and an NVS 5200M with `nvprof`
//! hardware counters. Neither GPU (nor any GPU) is available here, so this
//! crate simulates the CUDA execution model at the fidelity the paper's
//! claims live at:
//!
//! * **functional**: kernels ([`gpu_codegen::Kernel`]) are executed
//!   warp-synchronously over real `f32` data, so results are compared
//!   *bit-for-bit* against the sequential oracle;
//! * **memory system**: per-warp global-memory coalescing into 128-byte
//!   transactions, a set-associative write-allocate L2, DRAM sector
//!   counters, and 32-bank shared memory with conflict replay — producing
//!   the counter set of the paper's Table 5 (`gld_inst`, DRAM reads, L2
//!   reads, shared loads per request, global-load efficiency);
//! * **timing**: a roofline model over the counters
//!   ([`timing::estimate_time`]) with per-device parameters
//!   ([`DeviceConfig::gtx470`], [`DeviceConfig::nvs5200m`]), yielding the
//!   GStencils/s and GFLOPS figures of Tables 1, 2 and 4.
//!
//! There are exactly two ways to run a plan. The **reference**
//! ([`GpuSim::run_plan`], module [`exec`]) interprets the kernel AST
//! block by block on the calling thread; tests and benchmarks use it as
//! the bit-exactness oracle and nothing else does. The **production**
//! path (module [`parallel`]) is one launch loop over kernels compiled
//! once to a flat bytecode (module [`bytecode`]) — several times faster,
//! same grids, same counters, at any worker count:
//! [`GpuSim::run_plan_compiled`] (one worker),
//! [`GpuSim::run_plan_parallel_with`] /
//! [`GpuSim::try_run_plan_parallel_with`] (block-parallel across CPU
//! cores), [`GpuSim::try_run_plan_bounded`] (the same, stopped once its
//! throughput must end below a floor) and [`GpuSim::run_plan_sampled`].
//!
//! Large paper workloads are simulated in *sampled* mode: a subset of
//! thread blocks per launch is executed exactly and counters are scaled
//! by the grid size; functional results are then meaningless, so
//! correctness always uses full runs on smaller grids.

pub mod bytecode;
pub mod counters;
pub mod device;
pub mod exec;
pub mod memory;
pub mod parallel;
pub mod shared;
pub mod timing;

#[cfg(test)]
mod test_ir;

pub use counters::Counters;
pub use device::DeviceConfig;
pub use exec::GpuSim;
pub use parallel::{resolve_sim_threads, sim_threads, ExecError, RunEnd};
pub use timing::{estimate_time, TimeBreakdown};

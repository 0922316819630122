//! The emission backend abstraction: one kernel IR, thin per-target
//! printers behind a common [`Backend`] trait.
//!
//! The hybrid hexagonal/classical schedules of §3–§4 are
//! target-independent; only the final printing step is CUDA-shaped.
//! This module makes that step pluggable. Each backend is a stateless
//! singleton ([`BackendKind::backend`] hands out `&'static dyn
//! Backend`) that knows how to
//!
//! * print one [`Kernel`] into a caller's buffer
//!   ([`Backend::write_kernel`]; [`Backend::emit_kernel`] wraps it) and,
//!   by default, a whole [`LaunchPlan`] as prologue + per-kernel sources
//!   rendered into a single buffer ([`Backend::emit_plan`]);
//! * optionally print a secondary artifact ([`Backend::emit_aux`] —
//!   the CUDA backend's pseudo-PTX view of Fig. 2);
//! * name its artifacts ([`Backend::source_extension`] /
//!   [`Backend::aux_extension`]);
//! * describe what it can lower ([`Backend::caps`]) and reject what it
//!   cannot with a typed [`CodegenError::UnsupportedStrategy`]
//!   ([`Backend::check_options`]) instead of emitting wrong code.
//!
//! # Adding a fifth backend
//!
//! 1. Write the printer module: a spelling of the shared printer in
//!    `c_like` (how the target spells the leaves and statement forms
//!    that differ; see `wgsl_emit` for a non-C surface, or reuse the C
//!    spelling under a new [`crate::c_like::CDialect`] if the target is
//!    C-family) and an appending `write_kernel(&mut String, &Kernel)`
//!    that prints what surrounds the body. Emission must be a pure
//!    function of the kernel — no clocks, no randomness — so the
//!    driver's content-addressed cache and the golden-file suite stay
//!    byte-deterministic.
//! 2. Add a `BackendKind` variant, extend [`BackendKind::ALL`], and
//!    give it a wire name in [`BackendKind::name`] (CLI `--backend`,
//!    the serve-protocol `"backend"` field, cache entries and metric
//!    labels all use that string; `parse` inverts it for free).
//! 3. Implement [`Backend`] as a unit struct: pick a
//!    [`source_extension`](Backend::source_extension), declare honest
//!    [`caps`](Backend::caps) (which [`SmemStrategy`] rows of Table 4
//!    lower, the SIMT/SIMD vector width), and make
//!    [`default_options`](Backend::default_options) the best ladder
//!    step the target supports.
//! 4. Wire the singleton into [`BackendKind::backend`] and add golden
//!    snapshots under `crates/codegen/tests/golden/` via the existing
//!    `UPDATE_GOLDEN=1` flow. The upper layers — driver fingerprints,
//!    `hybridc --backend`, serve, fleet routing, per-backend metrics —
//!    key on `BackendKind` and pick the new target up automatically.

use crate::c_like::{write_kernel, CUDA_DIALECT, HIP_DIALECT};
use crate::cpu_emit::CPU_PROLOGUE;
use crate::hybrid_gen::CodegenError;
use crate::ir::{Kernel, LaunchPlan};
use crate::options::{CodegenOptions, SmemStrategy};
use crate::ptx_emit::{core_tile_ptx, DEFAULT_CORE_TILE_POINTS};
use std::fmt::Write;

/// Identifier for one emission backend — the value that travels through
/// CLI flags, serve requests, cache entries and metric labels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BackendKind {
    /// CUDA-C pseudo-source plus the pseudo-PTX core-tile view.
    #[default]
    Cuda,
    /// WebGPU shading language (workgroup memory, `@builtin` ids).
    Wgsl,
    /// HIP C++ for AMD GPUs (CUDA-shaped grammar, 64-wide wavefronts).
    Hip,
    /// Whole-block vectorized portable C; executable via the `gpusim`
    /// bytecode path.
    Cpu,
}

impl BackendKind {
    /// Every backend, in stable (metric-label) order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Cuda,
        BackendKind::Wgsl,
        BackendKind::Hip,
        BackendKind::Cpu,
    ];

    /// Stable wire/CLI name (`parse` inverts it).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Cuda => "cuda",
            BackendKind::Wgsl => "wgsl",
            BackendKind::Hip => "hip",
            BackendKind::Cpu => "cpu",
        }
    }

    /// Parses a wire/CLI name back into a kind.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Position in [`BackendKind::ALL`] — the index for per-backend
    /// counter arrays.
    pub fn index(self) -> usize {
        BackendKind::ALL.iter().position(|b| *b == self).unwrap()
    }

    /// The backend singleton implementing this kind.
    pub fn backend(self) -> &'static dyn Backend {
        match self {
            BackendKind::Cuda => &CudaBackend,
            BackendKind::Wgsl => &WgslBackend,
            BackendKind::Hip => &HipBackend,
            BackendKind::Cpu => &CpuBackend,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a backend can lower.
pub struct BackendCaps {
    /// The shared-memory ladder rows (Table 4) the target supports.
    pub smem: &'static [SmemStrategy],
    /// Lanes executing in lockstep on the target (CUDA warp 32, AMD
    /// wavefront 64, one WebGPU invocation, 8-wide CPU SIMD).
    pub vector_width: usize,
}

impl BackendCaps {
    /// True if the backend can lower `smem`.
    pub fn supports(&self, smem: SmemStrategy) -> bool {
        self.smem.contains(&smem)
    }
}

/// One emission target over the kernel IR.
pub trait Backend: Sync {
    /// The kind this backend implements.
    fn kind(&self) -> BackendKind;

    /// Wire/CLI name — same as `self.kind().name()`.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// File extension of the primary source artifact (no leading dot).
    fn source_extension(&self) -> &'static str;

    /// File extension of the secondary artifact, if the backend emits
    /// one (the CUDA backend's pseudo-PTX).
    fn aux_extension(&self) -> Option<&'static str> {
        None
    }

    /// Capability descriptor.
    fn caps(&self) -> BackendCaps;

    /// The best [`CodegenOptions`] this backend can lower — ladder step
    /// (f) clamped to the supported strategies.
    fn default_options(&self) -> CodegenOptions {
        let best = CodegenOptions::best();
        if self.caps().supports(best.smem) {
            best
        } else {
            // Walk the ladder from the top; every backend supports at
            // least step (a).
            let smem = SmemStrategy::ALL
                .into_iter()
                .rev()
                .find(|s| self.caps().supports(*s))
                .unwrap_or(SmemStrategy::GlobalOnly);
            CodegenOptions { smem, ..best }
        }
    }

    /// Rejects options the backend cannot lower with a typed error.
    fn check_options(&self, opts: &CodegenOptions) -> Result<(), CodegenError> {
        if self.caps().supports(opts.smem) {
            Ok(())
        } else {
            Err(CodegenError::UnsupportedStrategy {
                backend: self.name(),
                smem: opts.smem,
            })
        }
    }

    /// Prologue emitted once per plan, ahead of the kernels.
    fn plan_prologue(&self) -> &'static str {
        ""
    }

    /// Appends one kernel in the target language to `out`.
    fn write_kernel(&self, out: &mut String, kernel: &Kernel);

    /// Prints one kernel in the target language.
    fn emit_kernel(&self, kernel: &Kernel) -> String {
        let mut out = String::new();
        self.write_kernel(&mut out, kernel);
        out
    }

    /// Prints a whole plan into one buffer: prologue, then each kernel
    /// followed by a blank line (the historical CUDA layout all goldens
    /// pin).
    fn emit_plan(&self, plan: &LaunchPlan) -> String {
        let mut out = String::from(self.plan_prologue());
        for kernel in &plan.kernels {
            self.write_kernel(&mut out, kernel);
            out.push('\n');
        }
        out
    }

    /// Prints the secondary artifact for a plan, if any.
    fn emit_aux(&self, _plan: &LaunchPlan) -> Option<String> {
        None
    }
}

/// The historical target: CUDA-C pseudo-source plus the pseudo-PTX
/// core-tile artifact. Output is byte-identical to the pre-trait
/// emitter (the `tests/golden/*.cu` / `*.ptx` files prove it).
pub struct CudaBackend;

impl Backend for CudaBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cuda
    }

    fn source_extension(&self) -> &'static str {
        "cu"
    }

    fn aux_extension(&self) -> Option<&'static str> {
        Some("ptx")
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            smem: &SmemStrategy::ALL,
            vector_width: 32,
        }
    }

    fn write_kernel(&self, out: &mut String, kernel: &Kernel) {
        write_kernel(out, kernel, &CUDA_DIALECT);
    }

    fn emit_aux(&self, plan: &LaunchPlan) -> Option<String> {
        let mut ptx = String::new();
        for kernel in &plan.kernels {
            let (text, stats) = core_tile_ptx(kernel, DEFAULT_CORE_TILE_POINTS);
            let _ = writeln!(
                ptx,
                "// kernel {} — core tile, first {DEFAULT_CORE_TILE_POINTS} points: \
                 {} loads, {} stores, {} arith",
                kernel.name, stats.loads, stats.stores, stats.arith
            );
            ptx.push_str(&text);
            ptx.push('\n');
        }
        Some(ptx)
    }
}

/// WebGPU shading language. WGSL workgroup arrays are statically sized
/// and statically addressed per the shader module, which rules out the
/// dynamic-placement move phase of ladder step (f) — `ReuseDynamic` is
/// rejected and the default clamps to `ReuseStatic` (step (e)).
pub struct WgslBackend;

/// The strategies WGSL can lower: everything except dynamic reuse.
const WGSL_SMEM: [SmemStrategy; 4] = [
    SmemStrategy::GlobalOnly,
    SmemStrategy::CopyInOut,
    SmemStrategy::InterleavedCopyOut,
    SmemStrategy::ReuseStatic,
];

impl Backend for WgslBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Wgsl
    }

    fn source_extension(&self) -> &'static str {
        "wgsl"
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            smem: &WGSL_SMEM,
            vector_width: 1,
        }
    }

    fn write_kernel(&self, out: &mut String, kernel: &Kernel) {
        crate::wgsl_emit::write_kernel(out, kernel);
    }
}

/// HIP C++ for AMD GPUs: the CUDA grammar with the HIP runtime header
/// and `__launch_bounds__` (occupancy on 64-wide wavefronts is
/// sensitive to it).
pub struct HipBackend;

impl Backend for HipBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Hip
    }

    fn source_extension(&self) -> &'static str {
        "hip.cpp"
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            smem: &SmemStrategy::ALL,
            vector_width: 64,
        }
    }

    fn plan_prologue(&self) -> &'static str {
        HIP_DIALECT.prologue
    }

    fn write_kernel(&self, out: &mut String, kernel: &Kernel) {
        write_kernel(out, kernel, &HIP_DIALECT);
    }
}

/// Whole-block vectorized CPU target. The printed `.cpu.c` source is
/// the documentation artifact; the executable twin is the `gpusim`
/// bytecode path, which the driver verifies bit-exact against the
/// sequential interpreter oracle.
pub struct CpuBackend;

impl Backend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn source_extension(&self) -> &'static str {
        "cpu.c"
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            smem: &SmemStrategy::ALL,
            vector_width: 8,
        }
    }

    fn plan_prologue(&self) -> &'static str {
        CPU_PROLOGUE
    }

    fn write_kernel(&self, out: &mut String, kernel: &Kernel) {
        crate::cpu_emit::write_kernel(out, kernel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_index_is_stable() {
        for (i, kind) in BackendKind::ALL.into_iter().enumerate() {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.index(), i);
            assert_eq!(kind.backend().kind(), kind);
            assert_eq!(kind.backend().name(), kind.name());
        }
        assert_eq!(BackendKind::parse("metal"), None);
        assert_eq!(BackendKind::default(), BackendKind::Cuda);
    }

    #[test]
    fn capability_matrix_matches_check_options() {
        for kind in BackendKind::ALL {
            let b = kind.backend();
            for smem in SmemStrategy::ALL {
                let opts = CodegenOptions {
                    smem,
                    ..CodegenOptions::best()
                };
                let res = b.check_options(&opts);
                if b.caps().supports(smem) {
                    assert_eq!(res, Ok(()), "{kind} should accept {smem:?}");
                } else {
                    assert_eq!(
                        res,
                        Err(CodegenError::UnsupportedStrategy {
                            backend: kind.name(),
                            smem,
                        }),
                        "{kind} should reject {smem:?} with a typed error"
                    );
                }
            }
        }
    }

    #[test]
    fn only_wgsl_rejects_and_only_dynamic_reuse() {
        for kind in BackendKind::ALL {
            let b = kind.backend();
            for smem in SmemStrategy::ALL {
                let rejected = !b.caps().supports(smem);
                assert_eq!(
                    rejected,
                    kind == BackendKind::Wgsl && smem == SmemStrategy::ReuseDynamic,
                    "capability matrix drifted: {kind} / {smem:?}"
                );
            }
        }
    }

    #[test]
    fn default_options_always_pass_the_backend_check() {
        for kind in BackendKind::ALL {
            let b = kind.backend();
            assert_eq!(b.check_options(&b.default_options()), Ok(()));
        }
        // WGSL clamps ladder step (f) down to (e); the rest keep best().
        assert_eq!(
            BackendKind::Wgsl.backend().default_options().smem,
            SmemStrategy::ReuseStatic
        );
        assert_eq!(
            BackendKind::Cuda.backend().default_options(),
            CodegenOptions::best()
        );
    }

    #[test]
    fn emit_plan_is_prologue_then_each_kernel_and_a_blank_line() {
        use crate::hybrid_gen::generate_hybrid;
        use hybrid_tiling::TileParams;
        for kind in BackendKind::ALL {
            let b = kind.backend();
            let plan = generate_hybrid(
                &stencil::gallery::jacobi2d(),
                &TileParams::new(2, &[3, 32]),
                &[64, 64],
                8,
                b.default_options(),
            )
            .unwrap();
            assert_eq!(plan.kernels.len(), 2);
            let mut expected = String::from(b.plan_prologue());
            for kernel in &plan.kernels {
                expected += &b.emit_kernel(kernel);
                expected += "\n";
            }
            assert_eq!(b.emit_plan(&plan), expected, "{kind}");
        }
    }

    #[test]
    fn extensions_are_distinct() {
        let exts: Vec<&str> = BackendKind::ALL
            .iter()
            .map(|k| k.backend().source_extension())
            .collect();
        for (i, a) in exts.iter().enumerate() {
            for b in &exts[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(BackendKind::Cuda.backend().aux_extension(), Some("ptx"));
        assert_eq!(BackendKind::Wgsl.backend().aux_extension(), None);
    }
}

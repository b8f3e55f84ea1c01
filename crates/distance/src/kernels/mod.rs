//! Runtime-dispatched SIMD distance kernels.
//!
//! The engine is a function-pointer table ([`Kernels`]) selected once
//! per process: [`detected`] probes the CPU (`avx2`/`f16c` on x86_64,
//! `neon` on aarch64) and caches the best available backend;
//! [`scalar`] is the always-available canonical reference; and
//! [`active`] is what the rest of the workspace calls — it returns the
//! detected table unless scalar has been forced.
//!
//! **Bit-exactness contract.** All backends implement the *same*
//! floating-point computation: 8-lane accumulation in a fixed order, a
//! fixed horizontal-reduction tree, a sequential tail, and no FMA (see
//! [`scalar`]'s module docs for the full statement). Search results —
//! neighbor ids *and* f32 distance bit patterns — are therefore
//! identical whichever backend runs, which is what lets the CI matrix
//! run the whole suite under `CAGRA_FORCE_SCALAR=1` and expect
//! byte-for-byte the same output. The multi-row entries
//! (`l2_x4`, `dot_x4`, `dot_norm_x4`) give each of their [`MULTI`] rows
//! its own accumulator running exactly the one-row operations, so
//! their results equal [`MULTI`] one-row calls bit for bit.
//!
//! **Symmetry.** Every per-element operation is commutative in IEEE
//! arithmetic (`(q - r)²` equals `(r - q)²`, `q·r` equals `r·q`) and
//! both operands go through the same accumulation order, so for f32,
//! binary16 and int8 rows a distance from row `a` (widened, as a
//! query) to row `b` equals the distance from `b` to `a` bit for bit.
//! Cosine keeps it too: the query norm `dot(q, q)` and the fused
//! `r · r` half run the same accumulation. The exact k-NN scan scores
//! each unordered pair once on the strength of this. PQ rows are the
//! exception — an exact query against a quantized row is not
//! symmetric — and [`crate::DistanceOracle::symmetric`] says so.
//!
//! **Forcing scalar.** Set the environment variable
//! `CAGRA_FORCE_SCALAR=1` before the first distance computation (read
//! once, cached), or call [`force_scalar`] from tests to flip the
//! backend at runtime. Oracles capture the active table when they are
//! constructed, so a flip affects oracles built after it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use dataset::F16;

/// `fn(query, f32 row) -> distance`.
pub type KernF32 = fn(&[f32], &[f32]) -> f32;
/// `fn(query, f32 row) -> (q · r, r · r)` — the fused cosine pass.
pub type KernNormF32 = fn(&[f32], &[f32]) -> (f32, f32);
/// `fn(query, f16 row) -> distance` (widening in-kernel).
pub type KernF16 = fn(&[f32], &[F16]) -> f32;
/// `fn(query, f16 row) -> (q · r, r · r)`.
pub type KernNormF16 = fn(&[f32], &[F16]) -> (f32, f32);
/// `fn(query, i8 codes, per-component scales) -> distance`.
pub type KernI8 = fn(&[f32], &[i8], &[f32]) -> f32;
/// `fn(query, i8 codes, per-component scales) -> (q · r, r · r)`.
pub type KernNormI8 = fn(&[f32], &[i8], &[f32]) -> (f32, f32);
/// `fn(query, MULTI f32 rows) -> MULTI distances`.
pub type KernF32Multi = fn(&[f32], [&[f32]; MULTI]) -> [f32; MULTI];
/// `fn(query, MULTI f32 rows) -> MULTI (q · r, r · r) pairs`.
pub type KernNormF32Multi = fn(&[f32], [&[f32]; MULTI]) -> [(f32, f32); MULTI];

/// Rows one multi-row kernel call scores against a query. Four
/// independent accumulator chains hide the add latency that bounds a
/// single row's dependent chain, and still fit the 16 AVX2 registers
/// for `dot_norm` (eight accumulators).
pub const MULTI: usize = 4;

/// A complete distance-kernel backend: one entry per (operation,
/// element type). `dot_norm` fuses `(q · r, r · r)` for cosine so the
/// row streams through memory once.
///
/// All entries require `q.len() == row length` (every row's, for the
/// multi-row entries; and `== scales.len()` for int8); they panic or
/// return garbage otherwise, exactly like the free functions in the
/// crate root.
#[derive(Clone, Copy)]
pub struct Kernels {
    /// Backend name for logs/benches: `"scalar"`, `"avx2"`, `"neon"`.
    pub name: &'static str,
    pub l2: KernF32,
    pub dot: KernF32,
    pub dot_norm: KernNormF32,
    /// [`MULTI`] f32 rows at once; equal to `l2` per row, bit for bit.
    pub l2_x4: KernF32Multi,
    /// [`MULTI`] f32 rows at once; equal to `dot` per row, bit for bit.
    pub dot_x4: KernF32Multi,
    /// [`MULTI`] f32 rows at once; equal to `dot_norm` per row.
    pub dot_norm_x4: KernNormF32Multi,
    pub l2_f16: KernF16,
    pub dot_f16: KernF16,
    pub dot_norm_f16: KernNormF16,
    pub l2_i8: KernI8,
    pub dot_i8: KernI8,
    pub dot_norm_i8: KernNormI8,
}

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

const SCALAR: Kernels = Kernels {
    name: "scalar",
    l2: scalar::l2_f32,
    dot: scalar::dot_f32,
    dot_norm: scalar::dot_norm_f32,
    l2_x4: scalar::l2_f32_x4,
    dot_x4: scalar::dot_f32_x4,
    dot_norm_x4: scalar::dot_norm_f32_x4,
    l2_f16: scalar::l2_f16,
    dot_f16: scalar::dot_f16,
    dot_norm_f16: scalar::dot_norm_f16,
    l2_i8: scalar::l2_i8,
    dot_i8: scalar::dot_i8,
    dot_norm_i8: scalar::dot_norm_i8,
};

/// The canonical scalar backend (always available).
pub fn scalar() -> &'static Kernels {
    &SCALAR
}

// Safe fn-pointer shims over the `unsafe fn` SIMD kernels. Soundness:
// `detect()` only installs them after the runtime feature check, and
// the table is the only way they escape this module.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::MULTI;
    use dataset::F16;

    macro_rules! shim {
        ($name:ident, f32multi, $imp:path) => {
            pub fn $name(q: &[f32], rows: [&[f32]; MULTI]) -> [f32; MULTI] {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and rows as long as the query are the table's
                // documented caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, rows) }
            }
        };
        ($name:ident, f32multi2, $imp:path) => {
            pub fn $name(q: &[f32], rows: [&[f32]; MULTI]) -> [(f32, f32); MULTI] {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and rows as long as the query are the table's
                // documented caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, rows) }
            }
        };
        ($name:ident, f32pair, $imp:path) => {
            pub fn $name(q: &[f32], r: &[f32]) -> f32 {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, r) }
            }
        };
        ($name:ident, f32pair2, $imp:path) => {
            pub fn $name(q: &[f32], r: &[f32]) -> (f32, f32) {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, r) }
            }
        };
        ($name:ident, f16pair, $imp:path) => {
            pub fn $name(q: &[f32], r: &[F16]) -> f32 {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, r) }
            }
        };
        ($name:ident, f16pair2, $imp:path) => {
            pub fn $name(q: &[f32], r: &[F16]) -> (f32, f32) {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, r) }
            }
        };
        ($name:ident, i8triple, $imp:path) => {
            pub fn $name(q: &[f32], c: &[i8], s: &[f32]) -> f32 {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, c, s) }
            }
        };
        ($name:ident, i8triple2, $imp:path) => {
            pub fn $name(q: &[f32], c: &[i8], s: &[f32]) -> (f32, f32) {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, c, s) }
            }
        };
    }

    shim!(l2, f32pair, super::avx2::l2_f32);
    shim!(dot, f32pair, super::avx2::dot_f32);
    shim!(dot_norm, f32pair2, super::avx2::dot_norm_f32);
    shim!(l2_x4, f32multi, super::avx2::l2_f32_x4);
    shim!(dot_x4, f32multi, super::avx2::dot_f32_x4);
    shim!(dot_norm_x4, f32multi2, super::avx2::dot_norm_f32_x4);
    shim!(l2_f16, f16pair, super::avx2::l2_f16);
    shim!(dot_f16, f16pair, super::avx2::dot_f16);
    shim!(dot_norm_f16, f16pair2, super::avx2::dot_norm_f16);
    shim!(l2_i8, i8triple, super::avx2::l2_i8);
    shim!(dot_i8, i8triple, super::avx2::dot_i8);
    shim!(dot_norm_i8, i8triple2, super::avx2::dot_norm_i8);
}

#[cfg(target_arch = "aarch64")]
mod arm {
    macro_rules! shim {
        ($name:ident, f32pair, $imp:path) => {
            pub fn $name(q: &[f32], r: &[f32]) -> f32 {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, r) }
            }
        };
        ($name:ident, f32pair2, $imp:path) => {
            pub fn $name(q: &[f32], r: &[f32]) -> (f32, f32) {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, r) }
            }
        };
        ($name:ident, i8triple, $imp:path) => {
            pub fn $name(q: &[f32], c: &[i8], s: &[f32]) -> f32 {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, c, s) }
            }
        };
        ($name:ident, i8triple2, $imp:path) => {
            pub fn $name(q: &[f32], c: &[i8], s: &[f32]) -> (f32, f32) {
                // SAFETY: `detect()` installs this shim in the dispatch
                // table only after the runtime feature probe succeeded,
                // and equal slice lengths are the table's documented
                // caller contract (upheld by `DistanceOracle`).
                unsafe { $imp(q, c, s) }
            }
        };
    }

    shim!(l2, f32pair, super::neon::l2_f32);
    shim!(dot, f32pair, super::neon::dot_f32);
    shim!(dot_norm, f32pair2, super::neon::dot_norm_f32);
    shim!(l2_i8, i8triple, super::neon::l2_i8);
    shim!(dot_i8, i8triple, super::neon::dot_i8);
    shim!(dot_norm_i8, i8triple2, super::neon::dot_norm_i8);

    // No NEON multi-row body yet: one NEON call per row, which is the
    // contract's definition of the multi-row result.
    pub fn l2_x4(q: &[f32], rows: [&[f32]; super::MULTI]) -> [f32; super::MULTI] {
        rows.map(|r| l2(q, r))
    }
    pub fn dot_x4(q: &[f32], rows: [&[f32]; super::MULTI]) -> [f32; super::MULTI] {
        rows.map(|r| dot(q, r))
    }
    pub fn dot_norm_x4(q: &[f32], rows: [&[f32]; super::MULTI]) -> [(f32, f32); super::MULTI] {
        rows.map(|r| dot_norm(q, r))
    }
}

fn detect() -> Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut k = Kernels {
                name: "avx2",
                l2: x86::l2,
                dot: x86::dot,
                dot_norm: x86::dot_norm,
                l2_x4: x86::l2_x4,
                dot_x4: x86::dot_x4,
                dot_norm_x4: x86::dot_norm_x4,
                l2_i8: x86::l2_i8,
                dot_i8: x86::dot_i8,
                dot_norm_i8: x86::dot_norm_i8,
                ..SCALAR
            };
            // f16c ships with every AVX2 part in practice, but select
            // the FP16 entries independently to stay correct on the
            // exceptions (the scalar f16 kernels are bit-identical).
            if std::arch::is_x86_feature_detected!("f16c") {
                k.l2_f16 = x86::l2_f16;
                k.dot_f16 = x86::dot_f16;
                k.dot_norm_f16 = x86::dot_norm_f16;
            }
            return k;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // FP16 entries stay scalar on NEON (see neon.rs docs).
            return Kernels {
                name: "neon",
                l2: arm::l2,
                dot: arm::dot,
                dot_norm: arm::dot_norm,
                l2_x4: arm::l2_x4,
                dot_x4: arm::dot_x4,
                dot_norm_x4: arm::dot_norm_x4,
                l2_i8: arm::l2_i8,
                dot_i8: arm::dot_i8,
                dot_norm_i8: arm::dot_norm_i8,
                ..SCALAR
            };
        }
    }
    SCALAR
}

/// The best backend this CPU supports (probed once, then cached).
pub fn detected() -> &'static Kernels {
    static DETECTED: OnceLock<Kernels> = OnceLock::new();
    DETECTED.get_or_init(detect)
}

fn force_flag() -> &'static AtomicBool {
    static FORCE: OnceLock<AtomicBool> = OnceLock::new();
    FORCE.get_or_init(|| {
        let env = std::env::var("CAGRA_FORCE_SCALAR").is_ok_and(|v| v == "1");
        AtomicBool::new(env)
    })
}

/// Force (or un-force) the scalar backend at runtime. Test hook behind
/// the same switch as `CAGRA_FORCE_SCALAR`; affects oracles and
/// [`active`] calls from this point on.
pub fn force_scalar(on: bool) {
    force_flag().store(on, Ordering::SeqCst);
}

/// True when the scalar backend is currently forced (env or hook).
pub fn forcing_scalar() -> bool {
    force_flag().load(Ordering::SeqCst)
}

/// The backend the workspace should use right now: [`detected`],
/// unless scalar is forced via `CAGRA_FORCE_SCALAR=1` or
/// [`force_scalar`].
#[inline]
pub fn active() -> &'static Kernels {
    if forcing_scalar() {
        &SCALAR
    } else {
        detected()
    }
}

/// Best-effort prefetch of the cache line at `p` (no-op off x86_64).
/// The gang kernels use it to start pulling neighbor row `j + 2` while
/// row `j` computes.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch never faults, even on invalid addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Best-effort prefetch of every cache line `s` spans (no-op off
/// x86_64): the search loop starts pulling a round's adjacency rows
/// while it is still picking the other workers' parents.
#[inline(always)]
pub fn prefetch_slice<T>(s: &[T]) {
    const LINE: usize = 64;
    let start = s.as_ptr().cast::<u8>();
    let skew = start as usize % LINE;
    let first_line = start.wrapping_sub(skew);
    for offset in (0..skew + std::mem::size_of_val(s)).step_by(LINE) {
        prefetch(first_line.wrapping_add(offset));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_table_is_always_available() {
        let k = scalar();
        assert_eq!(k.name, "scalar");
        assert_eq!((k.l2)(&[1.0, 2.0], &[2.0, 4.0]), 5.0);
    }

    #[test]
    fn force_scalar_switches_active_table() {
        let was = forcing_scalar();
        force_scalar(true);
        assert_eq!(active().name, "scalar");
        force_scalar(false);
        assert_eq!(active().name, detected().name);
        force_scalar(was);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_detected_on_capable_hosts() {
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(detected().name, "avx2");
        } else {
            assert_eq!(detected().name, "scalar");
        }
    }
}

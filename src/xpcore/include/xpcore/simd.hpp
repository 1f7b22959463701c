#pragma once

/// \file simd.hpp
/// Runtime SIMD dispatch for the data-parallel compute kernels.
///
/// The library ships three implementations of every hot inner loop: the
/// portable scalar kernels (bit-for-bit identical to the pre-SIMD code, the
/// only path on non-x86 builds), AVX2/FMA kernels, and AVX-512 kernels with
/// a widened microkernel and masked tails. The level is selected at runtime:
///
///   1. a programmatic override installed with set_level() (tests, benches),
///   2. the XPDNN_SIMD environment variable
///      ("0"/"scalar" force the scalar path, "avx2" caps at AVX2,
///      "1"/"auto"/"avx512" allow the best detected level),
///   3. CPUID: AVX2+FMA and AVX-512F/VL/DQ/BW support detected at first use.
///
/// SIMD is a speed knob with *bounded* numerical differences, not a results
/// knob in the bit-exact sense: the vector kernels use FMA contraction and
/// polynomial approximations of tanh/exp (max errors documented in
/// simd_kernels.hpp and pinned by tests/test_simd_parity.cpp), so their
/// output differs from the scalar path at the last-ulp level, and the two
/// vector levels differ from each other the same way (different summation
/// tree widths). For any fixed level, results remain bit-identical across
/// thread counts: the kernels partition output rows only and never reorder
/// a per-element accumulation.

namespace xpcore::simd {

/// Instruction-set level of the compute kernels.
enum class Level {
    Scalar = 0,  ///< portable scalar kernels (pre-SIMD behavior, bit-exact)
    Avx2 = 1,    ///< AVX2 + FMA microkernels
    Avx512 = 2,  ///< AVX-512F/VL microkernels (widened tiles, masked tails)
};

/// Highest level this binary can run on this CPU (compile-time support
/// intersected with CPUID). Never affected by overrides or XPDNN_SIMD.
Level max_level();

/// The level the kernels dispatch on right now (override > env > CPUID).
Level active_level();

/// True when the AVX2 kernels (or better) are the active dispatch target.
bool avx2_active();

/// True when the AVX-512 kernels are the active dispatch target.
bool avx512_active();

/// Install a runtime override (clamped to max_level()).
void set_level(Level level);

/// Drop the override and return to the XPDNN_SIMD / CPUID default.
void reset_level();

/// Human-readable level name ("scalar", "avx2", "avx512").
const char* level_name(Level level);

/// Parse a level name ("scalar"/"0"/"off", "avx2", "avx512"); anything else
/// (including "1"/"auto") means "best available". Used by the XPDNN_SIMD
/// parser.
Level parse_level(const char* name);

/// The CPU brand string from CPUID (e.g. "Intel(R) Xeon(R) ..."), or
/// "unknown" where the leaf is unavailable. Recorded in the machine
/// provenance block so bench trajectories across machines stay
/// interpretable.
const char* cpu_model_string();

/// RAII scope that pins the dispatch level and restores the previous state
/// on exit — used by the parity tests and the scalar-vs-SIMD benches.
class LevelGuard {
public:
    explicit LevelGuard(Level level) : previous_(active_level()) { set_level(level); }
    ~LevelGuard() { set_level(previous_); }
    LevelGuard(const LevelGuard&) = delete;
    LevelGuard& operator=(const LevelGuard&) = delete;

private:
    Level previous_;
};

}  // namespace xpcore::simd

#pragma once

/// \file simd_kernels.hpp
/// Vector kernel entry points for the two SIMD dispatch levels:
///   * _avx2 — AVX2/FMA, defined in simd_avx2.cpp (compiled with
///     -mavx2 -mfma on x86);
///   * _avx512 — AVX-512F/VL/BW/DQ, defined in simd_avx512.cpp (compiled
///     with the matching -mavx512* flags on x86).
/// Callers must check xpcore::simd::avx2_active() / avx512_active() before
/// calling the corresponding set; on builds without x86 SIMD support the
/// functions exist but terminate if reached (the actives are then constantly
/// false, so they are unreachable in correct code).
///
/// Numerical contracts (pinned by tests/test_simd_parity.cpp):
///  - gemm_f32_avx2 / gemm_f32_avx512: same sum over k per output element as
///    the scalar kernels, evaluated with FMA contraction and an 8-lane
///    (resp. 16-lane) tile layout; relative error vs. the scalar kernels is
///    O(k * eps_f32). Accumulation order per element is fixed by the
///    (k-panel, lane) position only, so results are bit-identical across
///    thread counts and batch row counts at a fixed level.
///  - tanh_f32_*: rational approximation R(x) = x * P(x^2) / Q(x^2) on the
///    clamped range [-9, 9]; max absolute error vs. std::tanh over [-20, 20]
///    is < 5e-7 (measured ~1.1e-7). Both widths evaluate the identical
///    polynomial (simd_poly.hpp).
///  - exp_f32_*: 2^n * P(r) range reduction with a degree-5 polynomial; max
///    relative error vs. std::exp over [-87, 87] is < 5e-7 (measured
///    ~1.2e-7). Inputs <= -87.3 flush to 0, inputs >= 88.7 saturate to the
///    largest finite float (softmax never feeds positive inputs).
///  - softmax_rows_* / adamax_update_*: composed from the above plus
///    elementwise FMA arithmetic; tolerance-checked against the scalar
///    implementations.

#include <cstddef>

namespace xpcore::simd {

/// Cache-blocking parameters of a packed-panel GEMM level: the k panel
/// depth (KC), the packed row block (MC, a multiple of the microkernel
/// row count) and the packed column block (NC, a multiple of the
/// microkernel column width). Each level compiles in one constant
/// blocking: KC sets the floating-point summation grouping, so a blocking
/// chosen at run time would let two processes disagree in the last ulp.
struct GemmBlocking {
    std::size_t kc = 0;
    std::size_t mc = 0;
    std::size_t nc = 0;
};

// ---- AVX2 ------------------------------------------------------------------

/// True when the binary contains the AVX2 kernels (x86 + compiler support).
bool compiled_with_avx2();

/// The compiled blocking of the AVX2 kernel (6 x 16 microkernel tile):
/// kc 256, mc 96, nc 768. Recorded in the machine provenance block.
GemmBlocking gemm_blocking_avx2();

/// General packed-panel SGEMM over an output-row range:
///   C[i0..i1, :] = (or +=) op_a(A) * op_b(B)
/// with op(X) = X or X^T selected by the trans flags. Logical shapes are
/// op_a(A) = [m x k], op_b(B) = [k x n], C = [m x n]; lda/ldb/ldc are the
/// *storage* row strides of A, B, C. Packing buffers are per-thread scratch
/// reused across calls (zero allocations in steady state once sized).
void gemm_f32_avx2(std::size_t m, std::size_t n, std::size_t k, const float* a,
                   std::size_t lda, bool trans_a, const float* b, std::size_t ldb,
                   bool trans_b, float* c, std::size_t ldc, bool accumulate,
                   std::size_t i0, std::size_t i1);

/// y[i] = tanh(x[i]) via the vectorized rational approximation.
void tanh_f32_avx2(const float* x, float* y, std::size_t n);

/// y[i] = exp(x[i]) via the vectorized range-reduction approximation.
void exp_f32_avx2(const float* x, float* y, std::size_t n);

/// Row-wise stable softmax: out[r, :] = softmax(in[r, :]) for `rows` rows
/// of `cols` contiguous floats (max-subtracted, vectorized exp and sums).
void softmax_rows_avx2(const float* in, float* out, std::size_t rows, std::size_t cols);

/// One fused AdaMax update over a parameter block of n scalars:
///   m = beta1 * m + (1 - beta1) * g
///   u = max(beta2 * u, |g|)
///   w -= rate * m / (u + epsilon)
///   g = 0                      (the step owns gradient clearing)
void adamax_update_avx2(float* w, float* g, float* m, float* u, std::size_t n,
                        float rate, float beta1, float beta2, float epsilon);

// ---- AVX-512 ---------------------------------------------------------------

/// True when the binary contains the AVX-512 kernels (x86 + compiler
/// support for -mavx512f/vl/bw/dq).
bool compiled_with_avx512();

/// The compiled blocking of the AVX-512 kernel (14 x 32 microkernel tile:
/// 28 zmm accumulators, one broadcast, two B loads — 31 of the 32 vector
/// registers): kc 256, mc 140, nc 960.
GemmBlocking gemm_blocking_avx512();

/// AVX-512 counterparts of the AVX2 entry points above; identical calling
/// conventions and numerical contracts, wider tiles and masked tails.
void gemm_f32_avx512(std::size_t m, std::size_t n, std::size_t k, const float* a,
                     std::size_t lda, bool trans_a, const float* b, std::size_t ldb,
                     bool trans_b, float* c, std::size_t ldc, bool accumulate,
                     std::size_t i0, std::size_t i1);
void tanh_f32_avx512(const float* x, float* y, std::size_t n);
void exp_f32_avx512(const float* x, float* y, std::size_t n);
void softmax_rows_avx512(const float* in, float* out, std::size_t rows, std::size_t cols);
void adamax_update_avx512(float* w, float* g, float* m, float* u, std::size_t n,
                          float rate, float beta1, float beta2, float epsilon);

// ---- scalar references -----------------------------------------------------

/// Scalar reference implementations of the SIMD polynomial approximations
/// (same clamping and coefficients, no FMA guarantees). Exposed so tests
/// and docs can measure the approximation error independently of the
/// vector code path, and so non-benchmark callers can reuse the polynomial
/// without AVX2.
float tanh_approx(float x);
float exp_approx(float x);

}  // namespace xpcore::simd

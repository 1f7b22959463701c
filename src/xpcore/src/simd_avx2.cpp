/// \file simd_avx2.cpp
/// AVX2/FMA compute kernels: packed-panel SGEMM microkernel, vectorized
/// tanh/exp/softmax, and the fused AdaMax update. Compiled with
/// -mavx2 -mfma on x86 (see src/xpcore/CMakeLists.txt); on other targets
/// the entry points remain as never-called stubs and
/// compiled_with_avx2() reports false, so xpcore::simd::avx2_active()
/// keeps every caller on the scalar path.
///
/// GEMM design (BLIS-style, blocked for one core's cache hierarchy):
///   - 6x16 register microkernel: 12 ymm accumulators, one broadcast
///     register for A, two loads for B — 15 of the 16 ymm registers.
///   - A is packed into column-major micro-panels of 6 rows, B into
///     row-major micro-panels of 16 columns, both zero-padded at the
///     edges, so the microkernel always runs full-width FMAs and the
///     tails cost only packing zeros.
///   - Loop nest jc (NC) -> pc (KC) -> ic (MC) -> jr -> ir. Per output
///     element the k-accumulation order depends only on the pc split and
///     the microkernel's k loop, never on the row range, so results are
///     bit-identical for any thread partition and any batch row count.
///   - KC/MC/NC are one compiled constant (kBlocking below), so every
///     process on every host groups the k sums the same way.
///   - Packing buffers are thread_local and sized on first use;
///     steady-state calls perform no heap allocation.
///
/// All loads/stores are unaligned variants (loadu/storeu): tensors are
/// 64-byte aligned (xpcore/aligned.hpp) but packed-panel interiors are not,
/// and on every AVX2-era core loadu on an aligned address costs the same as
/// an aligned load while never faulting on the unaligned case.

#include "xpcore/simd_kernels.hpp"

#include <cstdlib>

#include "simd_poly.hpp"

namespace xpcore::simd {

namespace {

constexpr std::size_t kMR = 6;           // microkernel rows
constexpr std::size_t kNR = 16;          // microkernel cols (2 ymm)
// The one cache blocking of this level (kc, mc, nc): the k panel, the row
// block (16 micro-panels of 6) and the column block (48 micro-panels of 16).
constexpr GemmBlocking kBlocking{256, 96, 768};

static_assert(kBlocking.mc % kMR == 0 && kBlocking.nc % kNR == 0);

}  // namespace

GemmBlocking gemm_blocking_avx2() { return kBlocking; }

}  // namespace xpcore::simd

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <vector>

namespace xpcore::simd {

bool compiled_with_avx2() { return true; }

namespace {

/// Per-thread packing scratch, grown to the largest blocking seen and
/// reused (zero-allocation steady state). Holds ceil(mc/MR)*MR x kc for A
/// and kc x nc for B.
struct PackBuffers {
    std::vector<float> a;
    std::vector<float> b;
};

PackBuffers& pack_buffers(std::size_t kc, std::size_t mc, std::size_t nc) {
    thread_local PackBuffers buffers;
    if (buffers.a.size() < mc * kc) buffers.a.resize(mc * kc);
    if (buffers.b.size() < kc * nc) buffers.b.resize(kc * nc);
    return buffers;
}

/// Pack rows [row0, row0+mc) x k-slice [k0, k0+kc) of op(A) into
/// column-major micro-panels of kMR rows: dst panel p holds
/// dst[kk * kMR + i] = op(A)[row0 + p*kMR + i, k0 + kk], zero-padded rows.
void pack_a(float* dst, const float* a, std::size_t lda, bool trans, std::size_t row0,
            std::size_t mc, std::size_t k0, std::size_t kc) {
    for (std::size_t p = 0; p < mc; p += kMR) {
        const std::size_t rows = std::min(kMR, mc - p);
        if (!trans) {
            for (std::size_t kk = 0; kk < kc; ++kk) {
                for (std::size_t i = 0; i < rows; ++i) {
                    dst[kk * kMR + i] = a[(row0 + p + i) * lda + k0 + kk];
                }
                for (std::size_t i = rows; i < kMR; ++i) dst[kk * kMR + i] = 0.0f;
            }
        } else {
            // op(A) = A^T with A stored [k x m]: element (r, kk) = a[kk*lda + r].
            for (std::size_t kk = 0; kk < kc; ++kk) {
                const float* src = a + (k0 + kk) * lda + row0 + p;
                for (std::size_t i = 0; i < rows; ++i) dst[kk * kMR + i] = src[i];
                for (std::size_t i = rows; i < kMR; ++i) dst[kk * kMR + i] = 0.0f;
            }
        }
        dst += kMR * kc;
    }
}

/// Pack k-slice [k0, k0+kc) x cols [col0, col0+nc) of op(B) into row-major
/// micro-panels of kNR columns: dst panel q holds
/// dst[kk * kNR + j] = op(B)[k0 + kk, col0 + q*kNR + j], zero-padded cols.
void pack_b(float* dst, const float* b, std::size_t ldb, bool trans, std::size_t k0,
            std::size_t kc, std::size_t col0, std::size_t nc) {
    for (std::size_t q = 0; q < nc; q += kNR) {
        const std::size_t cols = std::min(kNR, nc - q);
        if (!trans) {
            for (std::size_t kk = 0; kk < kc; ++kk) {
                const float* src = b + (k0 + kk) * ldb + col0 + q;
                float* out = dst + kk * kNR;
                if (cols == kNR) {
                    _mm256_storeu_ps(out, _mm256_loadu_ps(src));
                    _mm256_storeu_ps(out + 8, _mm256_loadu_ps(src + 8));
                } else {
                    for (std::size_t j = 0; j < cols; ++j) out[j] = src[j];
                    for (std::size_t j = cols; j < kNR; ++j) out[j] = 0.0f;
                }
            }
        } else {
            // op(B) = B^T with B stored [n x k]: element (kk, c) = b[c*ldb + kk].
            for (std::size_t kk = 0; kk < kc; ++kk) {
                float* out = dst + kk * kNR;
                for (std::size_t j = 0; j < cols; ++j) {
                    out[j] = b[(col0 + q + j) * ldb + k0 + kk];
                }
                for (std::size_t j = cols; j < kNR; ++j) out[j] = 0.0f;
            }
        }
        dst += kNR * kc;
    }
}

/// C[0..mr, 0..nr] += panel product: ap is a kMR x kc column-major
/// micro-panel, bp a kc x kNR row-major micro-panel. Always computes the
/// full 6x16 tile in registers (padded lanes produce zeros) and adds the
/// valid region to C.
void micro_6x16(std::size_t kc, const float* ap, const float* bp, float* c,
                std::size_t ldc, std::size_t mr, std::size_t nr) {
    __m256 acc[kMR][2];
    for (std::size_t i = 0; i < kMR; ++i) {
        acc[i][0] = _mm256_setzero_ps();
        acc[i][1] = _mm256_setzero_ps();
    }
    for (std::size_t kk = 0; kk < kc; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(bp + kk * kNR);
        const __m256 b1 = _mm256_loadu_ps(bp + kk * kNR + 8);
        const float* arow = ap + kk * kMR;
        for (std::size_t i = 0; i < kMR; ++i) {
            const __m256 ai = _mm256_broadcast_ss(arow + i);
            acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
            acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
        }
    }
    if (mr == kMR && nr == kNR) {
        for (std::size_t i = 0; i < kMR; ++i) {
            float* crow = c + i * ldc;
            _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[i][0]));
            _mm256_storeu_ps(crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[i][1]));
        }
    } else {
        alignas(32) float tile[kMR * kNR];
        for (std::size_t i = 0; i < kMR; ++i) {
            _mm256_store_ps(tile + i * kNR, acc[i][0]);
            _mm256_store_ps(tile + i * kNR + 8, acc[i][1]);
        }
        for (std::size_t i = 0; i < mr; ++i) {
            float* crow = c + i * ldc;
            for (std::size_t j = 0; j < nr; ++j) crow[j] += tile[i * kNR + j];
        }
    }
}

// ---- vector math ---------------------------------------------------------

inline __m256 tanh_ps(__m256 x) {
    using namespace detail;
    const __m256 clamp = _mm256_set1_ps(kTanhClamp);
    x = _mm256_max_ps(_mm256_min_ps(x, clamp), _mm256_sub_ps(_mm256_setzero_ps(), clamp));
    const __m256 x2 = _mm256_mul_ps(x, x);
    __m256 p = _mm256_set1_ps(kTanhAlpha13);
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha11));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha9));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha7));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha5));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha3));
    p = _mm256_fmadd_ps(p, x2, _mm256_set1_ps(kTanhAlpha1));
    p = _mm256_mul_ps(x, p);
    __m256 q = _mm256_set1_ps(kTanhBeta6);
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhBeta4));
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhBeta2));
    q = _mm256_fmadd_ps(q, x2, _mm256_set1_ps(kTanhBeta0));
    return _mm256_div_ps(p, q);
}

inline __m256 exp_ps(__m256 x) {
    using namespace detail;
    x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
    x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
    __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2E), _mm256_set1_ps(0.5f));
    fx = _mm256_floor_ps(fx);
    x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kExpC1), x);
    x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kExpC2), x);
    const __m256 z = _mm256_mul_ps(x, x);
    __m256 p = _mm256_set1_ps(kExpP0);
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kExpP1));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kExpP2));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kExpP3));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kExpP4));
    p = _mm256_fmadd_ps(p, x, _mm256_set1_ps(kExpP5));
    p = _mm256_fmadd_ps(p, z, _mm256_add_ps(x, _mm256_set1_ps(1.0f)));
    const __m256i n = _mm256_cvttps_epi32(fx);
    const __m256i pow2 =
        _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
    return _mm256_mul_ps(p, _mm256_castsi256_ps(pow2));
}

inline float hsum_ps(__m256 v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 sum = _mm_add_ps(lo, hi);
    sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
    sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 1));
    return _mm_cvtss_f32(sum);
}

inline float hmax_ps(__m256 v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 m = _mm_max_ps(lo, hi);
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
}

}  // namespace

void gemm_f32_avx2(std::size_t m, std::size_t n, std::size_t k, const float* a,
                   std::size_t lda, bool trans_a, const float* b, std::size_t ldb,
                   bool trans_b, float* c, std::size_t ldc, bool accumulate,
                   std::size_t i0, std::size_t i1) {
    (void)m;
    if (i0 >= i1 || n == 0) return;
    if (!accumulate) {
        if (ldc == n) {
            std::memset(c + i0 * ldc, 0, (i1 - i0) * n * sizeof(float));
        } else {
            for (std::size_t i = i0; i < i1; ++i) {
                std::memset(c + i * ldc, 0, n * sizeof(float));
            }
        }
    }
    if (k == 0) return;

    PackBuffers& buffers = pack_buffers(kBlocking.kc, kBlocking.mc, kBlocking.nc);
    for (std::size_t jc = 0; jc < n; jc += kBlocking.nc) {
        const std::size_t nc = std::min(kBlocking.nc, n - jc);
        for (std::size_t pc = 0; pc < k; pc += kBlocking.kc) {
            const std::size_t kc = std::min(kBlocking.kc, k - pc);
            pack_b(buffers.b.data(), b, ldb, trans_b, pc, kc, jc, nc);
            for (std::size_t ic = i0; ic < i1; ic += kBlocking.mc) {
                const std::size_t mc = std::min(kBlocking.mc, i1 - ic);
                pack_a(buffers.a.data(), a, lda, trans_a, ic, mc, pc, kc);
                for (std::size_t jr = 0; jr < nc; jr += kNR) {
                    const std::size_t nr = std::min(kNR, nc - jr);
                    const float* bp = buffers.b.data() + (jr / kNR) * kNR * kc;
                    for (std::size_t ir = 0; ir < mc; ir += kMR) {
                        const std::size_t mr = std::min(kMR, mc - ir);
                        const float* ap = buffers.a.data() + (ir / kMR) * kMR * kc;
                        micro_6x16(kc, ap, bp, c + (ic + ir) * ldc + jc + jr, ldc, mr, nr);
                    }
                }
            }
        }
    }
}

void tanh_f32_avx2(const float* x, float* y, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(y + i, tanh_ps(_mm256_loadu_ps(x + i)));
    }
    if (i < n) {
        alignas(32) float buf[8] = {};
        std::memcpy(buf, x + i, (n - i) * sizeof(float));
        _mm256_store_ps(buf, tanh_ps(_mm256_load_ps(buf)));
        std::memcpy(y + i, buf, (n - i) * sizeof(float));
    }
}

void exp_f32_avx2(const float* x, float* y, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(y + i, exp_ps(_mm256_loadu_ps(x + i)));
    }
    if (i < n) {
        alignas(32) float buf[8] = {};
        std::memcpy(buf, x + i, (n - i) * sizeof(float));
        _mm256_store_ps(buf, exp_ps(_mm256_load_ps(buf)));
        std::memcpy(y + i, buf, (n - i) * sizeof(float));
    }
}

void softmax_rows_avx2(const float* in, float* out, std::size_t rows, std::size_t cols) {
    if (cols == 0) return;
    for (std::size_t r = 0; r < rows; ++r) {
        const float* x = in + r * cols;
        float* y = out + r * cols;

        // Row maximum (padded lanes contribute -FLT_MAX).
        __m256 vmax = _mm256_set1_ps(-FLT_MAX);
        std::size_t i = 0;
        for (; i + 8 <= cols; i += 8) vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
        float max_value = hmax_ps(vmax);
        for (; i < cols; ++i) max_value = std::max(max_value, x[i]);

        // exp(x - max) and the row sum in one pass. The tail goes through a
        // padded lane buffer so every element sees the identical vector
        // polynomial (padding with kExpLo makes the dead lanes ~1e-38,
        // which are simply not read back).
        const __m256 vshift = _mm256_set1_ps(max_value);
        __m256 vsum = _mm256_setzero_ps();
        i = 0;
        for (; i + 8 <= cols; i += 8) {
            const __m256 e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vshift));
            _mm256_storeu_ps(y + i, e);
            vsum = _mm256_add_ps(vsum, e);
        }
        float sum = hsum_ps(vsum);
        if (i < cols) {
            alignas(32) float buf[8];
            for (std::size_t j = 0; j < 8; ++j) {
                buf[j] = (i + j < cols) ? x[i + j] - max_value : detail::kExpLo;
            }
            _mm256_store_ps(buf, exp_ps(_mm256_load_ps(buf)));
            for (std::size_t j = 0; i + j < cols; ++j) {
                y[i + j] = buf[j];
                sum += buf[j];
            }
        }

        const float inv = 1.0f / sum;
        const __m256 vinv = _mm256_set1_ps(inv);
        i = 0;
        for (; i + 8 <= cols; i += 8) {
            _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), vinv));
        }
        for (; i < cols; ++i) y[i] *= inv;
    }
}

void adamax_update_avx2(float* w, float* g, float* m, float* u, std::size_t n,
                        float rate, float beta1, float beta2, float epsilon) {
    const __m256 vb1 = _mm256_set1_ps(beta1);
    const __m256 vb1c = _mm256_set1_ps(1.0f - beta1);
    const __m256 vb2 = _mm256_set1_ps(beta2);
    const __m256 vrate = _mm256_set1_ps(rate);
    const __m256 veps = _mm256_set1_ps(epsilon);
    const __m256 vabs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    const __m256 vzero = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 vg = _mm256_loadu_ps(g + i);
        const __m256 vm = _mm256_fmadd_ps(vb1, _mm256_loadu_ps(m + i), _mm256_mul_ps(vb1c, vg));
        const __m256 vu =
            _mm256_max_ps(_mm256_mul_ps(vb2, _mm256_loadu_ps(u + i)), _mm256_and_ps(vg, vabs));
        const __m256 vw = _mm256_fnmadd_ps(
            vrate, _mm256_div_ps(vm, _mm256_add_ps(vu, veps)), _mm256_loadu_ps(w + i));
        _mm256_storeu_ps(m + i, vm);
        _mm256_storeu_ps(u + i, vu);
        _mm256_storeu_ps(w + i, vw);
        _mm256_storeu_ps(g + i, vzero);
    }
    for (; i < n; ++i) {
        m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
        u[i] = std::max(beta2 * u[i], std::abs(g[i]));
        w[i] -= rate * m[i] / (u[i] + epsilon);
        g[i] = 0.0f;
    }
}

}  // namespace xpcore::simd

#else  // !(__AVX2__ && __FMA__): stubs, unreachable behind avx2_active().

namespace xpcore::simd {

bool compiled_with_avx2() { return false; }

namespace {
[[noreturn]] void unreachable_stub() { std::abort(); }
}  // namespace

void gemm_f32_avx2(std::size_t, std::size_t, std::size_t, const float*, std::size_t, bool,
                   const float*, std::size_t, bool, float*, std::size_t, bool, std::size_t,
                   std::size_t) {
    unreachable_stub();
}
void tanh_f32_avx2(const float*, float*, std::size_t) { unreachable_stub(); }
void exp_f32_avx2(const float*, float*, std::size_t) { unreachable_stub(); }
void softmax_rows_avx2(const float*, float*, std::size_t, std::size_t) { unreachable_stub(); }
void adamax_update_avx2(float*, float*, float*, float*, std::size_t, float, float, float,
                        float) {
    unreachable_stub();
}

}  // namespace xpcore::simd

#endif

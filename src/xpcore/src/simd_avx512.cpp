/// \file simd_avx512.cpp
/// AVX-512 compute kernels: the widened packed-panel SGEMM microkernel plus
/// 512-bit tanh/exp/softmax and the fused AdaMax update. Compiled with
/// -mavx512f -mavx512vl -mavx512bw -mavx512dq on x86 (see
/// src/xpcore/CMakeLists.txt); elsewhere the entry points remain as
/// never-called stubs and compiled_with_avx512() reports false, keeping
/// xpcore::simd::avx512_active() constantly false.
///
/// GEMM microkernel: 14x32 (28 zmm accumulators + 2 B loads + 1 A
/// broadcast = 31 of the 32 zmm registers). The panel/packing scheme and
/// the loop nest are identical to simd_avx2.cpp — per output element the
/// k-accumulation order depends only on the KC split, so the thread-count
/// bit-identity contract carries over unchanged; only the lane width (and
/// therefore the last-ulp rounding pattern vs. the other levels) differs.
///
/// Elementwise kernels use AVX-512 masked loads/stores for tails instead of
/// the AVX2 copy-through-buffer idiom: every element — tail included — runs
/// through the identical vector polynomial, and dead lanes are never read
/// or written.

#include "xpcore/simd_kernels.hpp"

#include <cstdlib>

#include "simd_poly.hpp"

namespace xpcore::simd {

namespace {

constexpr std::size_t kMR = 14;          // microkernel rows
constexpr std::size_t kNR = 32;          // microkernel cols (2 zmm)
// The one cache blocking of this level (kc, mc, nc): the k panel, the row
// block (10 micro-panels of 14) and the column block (30 micro-panels of 32).
constexpr GemmBlocking kBlocking{256, 140, 960};

static_assert(kBlocking.mc % kMR == 0 && kBlocking.nc % kNR == 0);

}  // namespace

GemmBlocking gemm_blocking_avx512() { return kBlocking; }

}  // namespace xpcore::simd

#if defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <vector>

namespace xpcore::simd {

bool compiled_with_avx512() { return true; }

namespace {

inline __mmask16 tail_mask(std::size_t n) {
    return static_cast<__mmask16>((1u << n) - 1u);
}

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
/// column-major micro-panels of kMR rows, zero-padded.
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
            // Rows are contiguous in the source here, so a masked 14-lane
            // copy per k step replaces the scalar loop.
            const __mmask16 rmask = tail_mask(rows);
            for (std::size_t kk = 0; kk < kc; ++kk) {
                const float* src = a + (k0 + kk) * lda + row0 + p;
                _mm512_mask_storeu_ps(dst + kk * kMR,
                                      tail_mask(kMR),  // always write all 14 slots
                                      _mm512_maskz_loadu_ps(rmask, src));
            }
        }
        dst += kMR * kc;
    }
}

/// Pack k-slice [k0, k0+kc) x cols [col0, col0+nc) of op(B) into row-major
/// micro-panels of kNR columns, zero-padded.
void pack_b(float* dst, const float* b, std::size_t ldb, bool trans, std::size_t k0,
            std::size_t kc, std::size_t col0, std::size_t nc) {
    for (std::size_t q = 0; q < nc; q += kNR) {
        const std::size_t cols = std::min(kNR, nc - q);
        if (!trans) {
            if (cols == kNR) {
                for (std::size_t kk = 0; kk < kc; ++kk) {
                    const float* src = b + (k0 + kk) * ldb + col0 + q;
                    float* out = dst + kk * kNR;
                    _mm512_storeu_ps(out, _mm512_loadu_ps(src));
                    _mm512_storeu_ps(out + 16, _mm512_loadu_ps(src + 16));
                }
            } else {
                const __mmask16 m0 = tail_mask(std::min<std::size_t>(cols, 16));
                const __mmask16 m1 = cols > 16 ? tail_mask(cols - 16) : 0;
                for (std::size_t kk = 0; kk < kc; ++kk) {
                    const float* src = b + (k0 + kk) * ldb + col0 + q;
                    float* out = dst + kk * kNR;
                    _mm512_storeu_ps(out, _mm512_maskz_loadu_ps(m0, src));
                    _mm512_storeu_ps(out + 16, _mm512_maskz_loadu_ps(m1, src + 16));
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

/// C[0..mr, 0..nr] += panel product of a kMR x kc column-major A micro-panel
/// with a kc x kNR row-major B micro-panel. The full 14x32 tile lives in 28
/// zmm accumulators; the valid region is added to C at the end.
void micro_14x32(std::size_t kc, const float* ap, const float* bp, float* c,
                 std::size_t ldc, std::size_t mr, std::size_t nr) {
    __m512 acc[kMR][2];
    for (std::size_t i = 0; i < kMR; ++i) {
        acc[i][0] = _mm512_setzero_ps();
        acc[i][1] = _mm512_setzero_ps();
    }
    for (std::size_t kk = 0; kk < kc; ++kk) {
        const __m512 b0 = _mm512_loadu_ps(bp + kk * kNR);
        const __m512 b1 = _mm512_loadu_ps(bp + kk * kNR + 16);
        const float* arow = ap + kk * kMR;
        for (std::size_t i = 0; i < kMR; ++i) {
            const __m512 ai = _mm512_set1_ps(arow[i]);
            acc[i][0] = _mm512_fmadd_ps(ai, b0, acc[i][0]);
            acc[i][1] = _mm512_fmadd_ps(ai, b1, acc[i][1]);
        }
    }
    if (mr == kMR && nr == kNR) {
        for (std::size_t i = 0; i < kMR; ++i) {
            float* crow = c + i * ldc;
            _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow), acc[i][0]));
            _mm512_storeu_ps(crow + 16, _mm512_add_ps(_mm512_loadu_ps(crow + 16), acc[i][1]));
        }
    } else {
        const __mmask16 m0 = tail_mask(std::min<std::size_t>(nr, 16));
        const __mmask16 m1 = nr > 16 ? tail_mask(nr - 16) : 0;
        for (std::size_t i = 0; i < mr; ++i) {
            float* crow = c + i * ldc;
            _mm512_mask_storeu_ps(
                crow, m0, _mm512_add_ps(_mm512_maskz_loadu_ps(m0, crow), acc[i][0]));
            if (m1) {
                _mm512_mask_storeu_ps(
                    crow + 16, m1,
                    _mm512_add_ps(_mm512_maskz_loadu_ps(m1, crow + 16), acc[i][1]));
            }
        }
    }
}

// ---- vector math ---------------------------------------------------------

inline __m512 tanh_ps(__m512 x) {
    using namespace detail;
    const __m512 clamp = _mm512_set1_ps(kTanhClamp);
    x = _mm512_max_ps(_mm512_min_ps(x, clamp), _mm512_sub_ps(_mm512_setzero_ps(), clamp));
    const __m512 x2 = _mm512_mul_ps(x, x);
    __m512 p = _mm512_set1_ps(kTanhAlpha13);
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(kTanhAlpha11));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(kTanhAlpha9));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(kTanhAlpha7));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(kTanhAlpha5));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(kTanhAlpha3));
    p = _mm512_fmadd_ps(p, x2, _mm512_set1_ps(kTanhAlpha1));
    p = _mm512_mul_ps(x, p);
    __m512 q = _mm512_set1_ps(kTanhBeta6);
    q = _mm512_fmadd_ps(q, x2, _mm512_set1_ps(kTanhBeta4));
    q = _mm512_fmadd_ps(q, x2, _mm512_set1_ps(kTanhBeta2));
    q = _mm512_fmadd_ps(q, x2, _mm512_set1_ps(kTanhBeta0));
    return _mm512_div_ps(p, q);
}

inline __m512 exp_ps(__m512 x) {
    using namespace detail;
    x = _mm512_min_ps(x, _mm512_set1_ps(kExpHi));
    x = _mm512_max_ps(x, _mm512_set1_ps(kExpLo));
    __m512 fx = _mm512_fmadd_ps(x, _mm512_set1_ps(kLog2E), _mm512_set1_ps(0.5f));
    // roundscale imm 0x09 = round toward -inf, suppress exceptions (floor).
    fx = _mm512_roundscale_ps(fx, 0x09);
    x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(kExpC1), x);
    x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(kExpC2), x);
    const __m512 z = _mm512_mul_ps(x, x);
    __m512 p = _mm512_set1_ps(kExpP0);
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(kExpP1));
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(kExpP2));
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(kExpP3));
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(kExpP4));
    p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(kExpP5));
    p = _mm512_fmadd_ps(p, z, _mm512_add_ps(x, _mm512_set1_ps(1.0f)));
    const __m512i n = _mm512_cvttps_epi32(fx);
    const __m512i pow2 =
        _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(127)), 23);
    return _mm512_mul_ps(p, _mm512_castsi512_ps(pow2));
}

}  // namespace

void gemm_f32_avx512(std::size_t m, std::size_t n, std::size_t k, const float* a,
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
                        micro_14x32(kc, ap, bp, c + (ic + ir) * ldc + jc + jr, ldc, mr, nr);
                    }
                }
            }
        }
    }
}

void tanh_f32_avx512(const float* x, float* y, std::size_t n) {
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        _mm512_storeu_ps(y + i, tanh_ps(_mm512_loadu_ps(x + i)));
    }
    if (i < n) {
        const __mmask16 m = tail_mask(n - i);
        _mm512_mask_storeu_ps(y + i, m, tanh_ps(_mm512_maskz_loadu_ps(m, x + i)));
    }
}

void exp_f32_avx512(const float* x, float* y, std::size_t n) {
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        _mm512_storeu_ps(y + i, exp_ps(_mm512_loadu_ps(x + i)));
    }
    if (i < n) {
        const __mmask16 m = tail_mask(n - i);
        _mm512_mask_storeu_ps(y + i, m, exp_ps(_mm512_maskz_loadu_ps(m, x + i)));
    }
}

void softmax_rows_avx512(const float* in, float* out, std::size_t rows, std::size_t cols) {
    if (cols == 0) return;
    for (std::size_t r = 0; r < rows; ++r) {
        const float* x = in + r * cols;
        float* y = out + r * cols;

        // Row maximum; masked tail lanes contribute -FLT_MAX.
        __m512 vmax = _mm512_set1_ps(-FLT_MAX);
        std::size_t i = 0;
        for (; i + 16 <= cols; i += 16) vmax = _mm512_max_ps(vmax, _mm512_loadu_ps(x + i));
        if (i < cols) {
            const __mmask16 m = tail_mask(cols - i);
            vmax = _mm512_max_ps(vmax,
                                 _mm512_mask_loadu_ps(_mm512_set1_ps(-FLT_MAX), m, x + i));
        }
        const float max_value = _mm512_reduce_max_ps(vmax);

        // exp(x - max) and the row sum in one pass; dead tail lanes are
        // masked out of both the store and the reduction, so their value
        // never matters.
        const __m512 vshift = _mm512_set1_ps(max_value);
        __m512 vsum = _mm512_setzero_ps();
        i = 0;
        for (; i + 16 <= cols; i += 16) {
            const __m512 e = exp_ps(_mm512_sub_ps(_mm512_loadu_ps(x + i), vshift));
            _mm512_storeu_ps(y + i, e);
            vsum = _mm512_add_ps(vsum, e);
        }
        float sum = _mm512_reduce_add_ps(vsum);
        if (i < cols) {
            const __mmask16 m = tail_mask(cols - i);
            const __m512 src = _mm512_mask_loadu_ps(_mm512_set1_ps(0.0f), m, x + i);
            const __m512 e = exp_ps(_mm512_sub_ps(src, vshift));
            _mm512_mask_storeu_ps(y + i, m, e);
            sum += _mm512_reduce_add_ps(_mm512_maskz_mov_ps(m, e));
        }

        const float inv = 1.0f / sum;
        const __m512 vinv = _mm512_set1_ps(inv);
        i = 0;
        for (; i + 16 <= cols; i += 16) {
            _mm512_storeu_ps(y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), vinv));
        }
        if (i < cols) {
            const __mmask16 m = tail_mask(cols - i);
            _mm512_mask_storeu_ps(
                y + i, m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, y + i), vinv));
        }
    }
}

void adamax_update_avx512(float* w, float* g, float* m, float* u, std::size_t n,
                          float rate, float beta1, float beta2, float epsilon) {
    const __m512 vb1 = _mm512_set1_ps(beta1);
    const __m512 vb1c = _mm512_set1_ps(1.0f - beta1);
    const __m512 vb2 = _mm512_set1_ps(beta2);
    const __m512 vrate = _mm512_set1_ps(rate);
    const __m512 veps = _mm512_set1_ps(epsilon);
    const __m512 vzero = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 vg = _mm512_loadu_ps(g + i);
        const __m512 vm = _mm512_fmadd_ps(vb1, _mm512_loadu_ps(m + i), _mm512_mul_ps(vb1c, vg));
        const __m512 vu =
            _mm512_max_ps(_mm512_mul_ps(vb2, _mm512_loadu_ps(u + i)), _mm512_abs_ps(vg));
        const __m512 vw = _mm512_fnmadd_ps(
            vrate, _mm512_div_ps(vm, _mm512_add_ps(vu, veps)), _mm512_loadu_ps(w + i));
        _mm512_storeu_ps(m + i, vm);
        _mm512_storeu_ps(u + i, vu);
        _mm512_storeu_ps(w + i, vw);
        _mm512_storeu_ps(g + i, vzero);
    }
    if (i < n) {
        const __mmask16 km = tail_mask(n - i);
        const __m512 vg = _mm512_maskz_loadu_ps(km, g + i);
        const __m512 vm = _mm512_fmadd_ps(vb1, _mm512_maskz_loadu_ps(km, m + i),
                                          _mm512_mul_ps(vb1c, vg));
        const __m512 vu = _mm512_max_ps(_mm512_mul_ps(vb2, _mm512_maskz_loadu_ps(km, u + i)),
                                        _mm512_abs_ps(vg));
        const __m512 vw = _mm512_fnmadd_ps(
            vrate, _mm512_div_ps(vm, _mm512_add_ps(vu, veps)),
            _mm512_maskz_loadu_ps(km, w + i));
        _mm512_mask_storeu_ps(m + i, km, vm);
        _mm512_mask_storeu_ps(u + i, km, vu);
        _mm512_mask_storeu_ps(w + i, km, vw);
        _mm512_mask_storeu_ps(g + i, km, vzero);
    }
}

}  // namespace xpcore::simd

#else  // no AVX-512 compile support: stubs, unreachable behind avx512_active().

namespace xpcore::simd {

bool compiled_with_avx512() { return false; }

namespace {
[[noreturn]] void unreachable_stub() { std::abort(); }
}  // namespace

void gemm_f32_avx512(std::size_t, std::size_t, std::size_t, const float*, std::size_t, bool,
                     const float*, std::size_t, bool, float*, std::size_t, bool, std::size_t,
                     std::size_t) {
    unreachable_stub();
}
void tanh_f32_avx512(const float*, float*, std::size_t) { unreachable_stub(); }
void exp_f32_avx512(const float*, float*, std::size_t) { unreachable_stub(); }
void softmax_rows_avx512(const float*, float*, std::size_t, std::size_t) {
    unreachable_stub();
}
void adamax_update_avx512(float*, float*, float*, float*, std::size_t, float, float, float,
                          float) {
    unreachable_stub();
}

}  // namespace xpcore::simd

#endif

#include "nn/tensor.hpp"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "xpcore/rng.hpp"
#include "xpcore/simd.hpp"
#include "xpcore/simd_kernels.hpp"
#include "xpcore/thread_pool.hpp"

namespace nn {

void Tensor::resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    const std::size_t n = rows * cols;
    // Contents are not preserved, so when the buffer must grow, drop the old
    // elements first — vector::resize alone would copy them into the new
    // allocation for nothing. Shrinking keeps the capacity.
    if (n > data_.capacity()) data_.clear();
    data_.resize(n);
}

void Tensor::fill(float value) {
    for (auto& v : data_) v = value;
}

void Tensor::glorot_uniform(std::size_t fan_in, std::size_t fan_out, xpcore::Rng& rng) {
    const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    for (auto& v : data_) v = static_cast<float>(rng.uniform(-a, a));
}

namespace {

// Cache blocking: K panels of kKC rows of b stay resident while they are
// streamed over a row block of c, and the j extent is cut into kNC-wide
// blocks so the active c rows and the b panel fit in L2 together.
// (kKC * kNC floats = 256 KiB panel, well under typical L2.)
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 256;
// Row-tile height of the tn (outer-product) kernel: a[kk, i0..i0+kTI) is a
// contiguous load and each b row is reused kTI times from L1.
constexpr std::size_t kTI = 16;

constexpr std::size_t kDefaultParallelThreshold = std::size_t{1} << 17;

std::size_t env_parallel_threshold() {
    static const std::size_t value = [] {
        if (const char* env = std::getenv("XPDNN_GEMM_THRESHOLD")) {
            const long long parsed = std::strtoll(env, nullptr, 10);
            if (parsed > 0) return static_cast<std::size_t>(parsed);
        }
        return kDefaultParallelThreshold;
    }();
    return value;
}

std::atomic<std::size_t> g_threshold_override{0};

/// Split the row range [0, rows) over the pool when the product is large
/// enough; otherwise run the range kernel inline. The kernels only ever
/// partition output rows, so the floating-point accumulation order of every
/// element is independent of the split.
template <typename RangeKernel>
void dispatch_rows(xpcore::ThreadPool& pool, std::size_t rows, std::size_t flops,
                   const RangeKernel& kernel) {
    if (rows >= 2 && pool.size() > 0 && flops >= gemm_parallel_threshold()) {
        xpcore::parallel_for(pool, rows,
                             [&](std::size_t begin, std::size_t end) { kernel(begin, end); });
    } else {
        kernel(0, rows);
    }
}

/// c[i0..i1) = (or +=) a[i0..i1) * b. i-k-j ordering inside K panels and
/// N blocks: the inner loop is unit-stride over both b and c, so the
/// compiler vectorizes it into FMA over the row of c. Per element the
/// k accumulation order equals the unblocked kernel's.
void gemm_nn_range(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
                   std::size_t i0, std::size_t i1) {
    const std::size_t k = a.cols(), n = b.cols();
    if (!accumulate) {
        std::memset(c.data() + i0 * n, 0, (i1 - i0) * n * sizeof(float));
    }
    for (std::size_t k0 = 0; k0 < k; k0 += kKC) {
        const std::size_t k1 = std::min(k0 + kKC, k);
        for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
            const std::size_t j1 = std::min(j0 + kNC, n);
            for (std::size_t i = i0; i < i1; ++i) {
                const float* arow = a.data() + i * k;
                float* crow = c.data() + i * n;
                for (std::size_t kk = k0; kk < k1; ++kk) {
                    const float aik = arow[kk];
                    if (aik == 0.0f) continue;
                    const float* brow = b.data() + kk * n;
                    for (std::size_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
                }
            }
        }
    }
}

/// c[i0..i1) rows of a * b^T. Dot products of rows, four independent
/// accumulators per product so the reduction pipelines instead of
/// serializing on one FMA chain; b^T rows are walked in kNC-row panels so
/// a panel stays cached across the whole row range.
void gemm_nt_range(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
                   std::size_t i0, std::size_t i1) {
    const std::size_t k = a.cols(), n = b.rows();
    for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
        const std::size_t j1 = std::min(j0 + kNC, n);
        for (std::size_t i = i0; i < i1; ++i) {
            const float* arow = a.data() + i * k;
            float* crow = c.data() + i * n;
            for (std::size_t j = j0; j < j1; ++j) {
                const float* brow = b.data() + j * k;
                float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
                std::size_t kk = 0;
                for (; kk + 4 <= k; kk += 4) {
                    s0 += arow[kk] * brow[kk];
                    s1 += arow[kk + 1] * brow[kk + 1];
                    s2 += arow[kk + 2] * brow[kk + 2];
                    s3 += arow[kk + 3] * brow[kk + 3];
                }
                float sum = (s0 + s1) + (s2 + s3);
                for (; kk < k; ++kk) sum += arow[kk] * brow[kk];
                crow[j] = accumulate ? crow[j] + sum : sum;
            }
        }
    }
}

/// c rows [i0..i1) of a^T * b: for each sample kk, c[i, :] += a[kk, i] *
/// b[kk, :]. Row tiles of kTI make the a loads contiguous and reuse each
/// b row from L1; per element the kk accumulation order is unchanged.
void gemm_tn_range(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
                   std::size_t i0, std::size_t i1) {
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    if (!accumulate) {
        std::memset(c.data() + i0 * n, 0, (i1 - i0) * n * sizeof(float));
    }
    for (std::size_t it = i0; it < i1; it += kTI) {
        const std::size_t ie = std::min(it + kTI, i1);
        for (std::size_t k0 = 0; k0 < k; k0 += kKC) {
            const std::size_t k1 = std::min(k0 + kKC, k);
            for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
                const std::size_t j1 = std::min(j0 + kNC, n);
                for (std::size_t kk = k0; kk < k1; ++kk) {
                    const float* arow = a.data() + kk * m;
                    const float* brow = b.data() + kk * n;
                    for (std::size_t i = it; i < ie; ++i) {
                        const float aki = arow[i];
                        if (aki == 0.0f) continue;
                        float* crow = c.data() + i * n;
                        for (std::size_t j = j0; j < j1; ++j) crow[j] += aki * brow[j];
                    }
                }
            }
        }
    }
}

/// The packed SIMD kernel for a dispatch level, or nullptr for the scalar
/// path. The level is sampled once per product so every row range of one
/// call runs the same kernel even if the level changes concurrently (tests
/// flip it between calls, never mid-call).
using SimdGemmFn = void (*)(std::size_t, std::size_t, std::size_t, const float*,
                            std::size_t, bool, const float*, std::size_t, bool, float*,
                            std::size_t, bool, std::size_t, std::size_t);

SimdGemmFn select_simd_gemm() {
    const xpcore::simd::Level level = xpcore::simd::active_level();
    if (level == xpcore::simd::Level::Scalar) return nullptr;
    return level == xpcore::simd::Level::Avx512 ? xpcore::simd::gemm_f32_avx512
                                                : xpcore::simd::gemm_f32_avx2;
}

}  // namespace

std::size_t gemm_parallel_threshold() {
    const std::size_t override_value = g_threshold_override.load(std::memory_order_relaxed);
    return override_value != 0 ? override_value : env_parallel_threshold();
}

void set_gemm_parallel_threshold(std::size_t flops) {
    g_threshold_override.store(flops, std::memory_order_relaxed);
}

void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
             xpcore::ThreadPool& pool) {
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    assert(b.rows() == k && c.rows() == m && c.cols() == n);
    const SimdGemmFn simd_gemm = select_simd_gemm();
    dispatch_rows(pool, m, m * n * k, [&](std::size_t begin, std::size_t end) {
        if (simd_gemm != nullptr) {
            simd_gemm(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n,
                      accumulate, begin, end);
        } else {
            gemm_nn_range(a, b, c, accumulate, begin, end);
        }
    });
}

void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
    gemm_nn(a, b, c, accumulate, xpcore::ThreadPool::global());
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
             xpcore::ThreadPool& pool) {
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    assert(b.cols() == k && c.rows() == m && c.cols() == n);
    const SimdGemmFn simd_gemm = select_simd_gemm();
    dispatch_rows(pool, m, m * n * k, [&](std::size_t begin, std::size_t end) {
        if (simd_gemm != nullptr) {
            // op(B) = B^T of the [n x k]-stored b.
            simd_gemm(m, n, k, a.data(), k, false, b.data(), k, true, c.data(), n,
                      accumulate, begin, end);
        } else {
            gemm_nt_range(a, b, c, accumulate, begin, end);
        }
    });
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
    gemm_nt(a, b, c, accumulate, xpcore::ThreadPool::global());
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
             xpcore::ThreadPool& pool) {
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    assert(b.rows() == k && c.rows() == m && c.cols() == n);
    const SimdGemmFn simd_gemm = select_simd_gemm();
    dispatch_rows(pool, m, m * n * k, [&](std::size_t begin, std::size_t end) {
        if (simd_gemm != nullptr) {
            // op(A) = A^T of the [k x m]-stored a.
            simd_gemm(m, n, k, a.data(), m, true, b.data(), n, false, c.data(), n,
                      accumulate, begin, end);
        } else {
            gemm_tn_range(a, b, c, accumulate, begin, end);
        }
    });
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
    gemm_tn(a, b, c, accumulate, xpcore::ThreadPool::global());
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
    assert(x.rows() == y.rows() && x.cols() == y.cols());
    const float* xs = x.data();
    float* ys = y.data();
    for (std::size_t i = 0; i < x.size(); ++i) ys[i] += alpha * xs[i];
}

}  // namespace nn

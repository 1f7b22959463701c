// Tests for the f32 tensor and GEMM kernels, validated against a naive
// triple-loop reference oracle over random shapes — including degenerate
// inference shapes (m=1, k=11), sizes straddling the parallel-dispatch
// threshold, and accumulate on/off for all three variants — and pinned to
// be bit-identical between a serial pool and a 4-worker pool. At the scalar
// level the blocked kernels are also pinned bit for bit to the seed
// library's unblocked loops.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "nn/tensor.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/simd.hpp"
#include "xpcore/thread_pool.hpp"

namespace {

using nn::Tensor;

Tensor random_tensor(std::size_t rows, std::size_t cols, xpcore::Rng& rng) {
    Tensor t(rows, cols);
    for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    return t;
}

// Reference oracle: naive i-j-k triple loop in double precision accumulation
// order-independent enough for the 1e-4 tolerance below.
Tensor naive_nn(const Tensor& a, const Tensor& b) {
    Tensor c(a.rows(), b.cols(), 0.0f);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            for (std::size_t k = 0; k < a.cols(); ++k) c(i, j) += a(i, k) * b(k, j);
    return c;
}

Tensor transpose(const Tensor& t) {
    Tensor out(t.cols(), t.rows());
    for (std::size_t i = 0; i < t.rows(); ++i)
        for (std::size_t j = 0; j < t.cols(); ++j) out(j, i) = t(i, j);
    return out;
}

void expect_near(const Tensor& actual, const Tensor& expected, float tol = 1e-4f) {
    ASSERT_EQ(actual.rows(), expected.rows());
    ASSERT_EQ(actual.cols(), expected.cols());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_NEAR(actual.data()[i], expected.data()[i], tol);
    }
}

void expect_identical(const Tensor& actual, const Tensor& expected) {
    ASSERT_EQ(actual.rows(), expected.rows());
    ASSERT_EQ(actual.cols(), expected.cols());
    EXPECT_EQ(std::memcmp(actual.data(), expected.data(), actual.size() * sizeof(float)), 0);
}

// The seed library's unblocked single-threaded loops. The blocked scalar
// kernels only re-block and re-partition rows, never reorder the sum of one
// output element, so they must reproduce these bit for bit.
void seed_gemm_nn(const Tensor& a, const Tensor& b, Tensor& c) {
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    c.fill(0.0f);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float aik = a(i, kk);
            if (aik == 0.0f) continue;
            for (std::size_t j = 0; j < n; ++j) c(i, j) += aik * b(kk, j);
        }
    }
}

void seed_gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
            std::size_t kk = 0;
            for (; kk + 4 <= k; kk += 4) {
                s0 += a(i, kk) * b(j, kk);
                s1 += a(i, kk + 1) * b(j, kk + 1);
                s2 += a(i, kk + 2) * b(j, kk + 2);
                s3 += a(i, kk + 3) * b(j, kk + 3);
            }
            float sum = (s0 + s1) + (s2 + s3);
            for (; kk < k; ++kk) sum += a(i, kk) * b(j, kk);
            c(i, j) = sum;
        }
    }
}

void seed_gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    c.fill(0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t i = 0; i < m; ++i) {
            const float aki = a(kk, i);
            if (aki == 0.0f) continue;
            for (std::size_t j = 0; j < n; ++j) c(i, j) += aki * b(kk, j);
        }
    }
}

/// Forces the parallel dispatch path for the guarded scope (and restores
/// the default threshold on exit).
struct ThresholdOverride {
    explicit ThresholdOverride(std::size_t flops) { nn::set_gemm_parallel_threshold(flops); }
    ~ThresholdOverride() { nn::set_gemm_parallel_threshold(0); }
};

TEST(Tensor, ConstructAndIndex) {
    Tensor t(2, 3, 1.5f);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.size(), 6u);
    t(1, 2) = 7.0f;
    EXPECT_FLOAT_EQ(t(1, 2), 7.0f);
    EXPECT_FLOAT_EQ(t(0, 0), 1.5f);
}

TEST(Tensor, RowSpan) {
    Tensor t(2, 3);
    for (std::size_t c = 0; c < 3; ++c) t(1, c) = static_cast<float>(c);
    const auto row = t.row(1);
    EXPECT_EQ(row.size(), 3u);
    EXPECT_FLOAT_EQ(row[2], 2.0f);
}

TEST(Tensor, FillAndResize) {
    Tensor t(2, 2);
    t.fill(3.0f);
    EXPECT_FLOAT_EQ(t(1, 1), 3.0f);
    t.resize(4, 5);
    EXPECT_EQ(t.rows(), 4u);
    EXPECT_EQ(t.size(), 20u);
}

TEST(Tensor, ResizeKeepsCapacityWhenShrinking) {
    Tensor t(8, 16);
    const std::size_t cap = t.capacity();
    EXPECT_GE(cap, 128u);

    // Shrink: the buffer must be kept so growing back within the old
    // capacity cannot reallocate (the workspace-reuse contract).
    t.resize(2, 3);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.size(), 6u);
    EXPECT_EQ(t.capacity(), cap);

    const float* buffer = t.data();
    t.resize(8, 16);  // grow back within capacity: same buffer
    EXPECT_EQ(t.capacity(), cap);
    EXPECT_EQ(t.data(), buffer);

    t.resize(32, 32);  // grow beyond capacity: must actually grow
    EXPECT_GE(t.capacity(), 1024u);
    EXPECT_EQ(t.size(), 1024u);
}

TEST(Tensor, GlorotUniformBounds) {
    xpcore::Rng rng(1);
    Tensor t(100, 100);
    t.glorot_uniform(100, 100, rng);
    const float bound = std::sqrt(6.0f / 200.0f);
    float max_abs = 0.0f;
    for (std::size_t i = 0; i < t.size(); ++i) max_abs = std::max(max_abs, std::abs(t.data()[i]));
    EXPECT_LE(max_abs, bound);
    EXPECT_GT(max_abs, bound * 0.9f);  // actually fills the range
}

TEST(Gemm, KnownSmallProduct) {
    Tensor a(2, 2), b(2, 2), c(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 3;
    a(1, 1) = 4;
    b(0, 0) = 5;
    b(0, 1) = 6;
    b(1, 0) = 7;
    b(1, 1) = 8;
    gemm_nn(a, b, c);
    EXPECT_FLOAT_EQ(c(0, 0), 19);
    EXPECT_FLOAT_EQ(c(0, 1), 22);
    EXPECT_FLOAT_EQ(c(1, 0), 43);
    EXPECT_FLOAT_EQ(c(1, 1), 50);
}

// (m, k, n) shapes: degenerate vectors, the 1 x 11 inference line, odd
// primes that break tile boundaries, and sizes straddling the parallel
// threshold (forced low in the threaded suite below).
class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, NnMatchesNaive) {
    const auto [m, k, n] = GetParam();
    for (const bool accumulate : {false, true}) {
        xpcore::Rng rng(m * 100 + k * 10 + n + (accumulate ? 7 : 0));
        const Tensor a = random_tensor(m, k, rng);
        const Tensor b = random_tensor(k, n, rng);
        Tensor c = random_tensor(m, n, rng);
        Tensor expected = naive_nn(a, b);
        if (accumulate) {
            for (std::size_t i = 0; i < expected.size(); ++i) expected.data()[i] += c.data()[i];
        }
        gemm_nn(a, b, c, accumulate);
        expect_near(c, expected);
    }
}

TEST_P(GemmShapes, NtMatchesNaive) {
    const auto [m, k, n] = GetParam();
    for (const bool accumulate : {false, true}) {
        xpcore::Rng rng(m * 100 + k * 10 + n + (accumulate ? 8 : 1));
        const Tensor a = random_tensor(m, k, rng);
        const Tensor bt = random_tensor(n, k, rng);  // b^T stored
        Tensor c = random_tensor(m, n, rng);
        Tensor expected = naive_nn(a, transpose(bt));
        if (accumulate) {
            for (std::size_t i = 0; i < expected.size(); ++i) expected.data()[i] += c.data()[i];
        }
        gemm_nt(a, bt, c, accumulate);
        expect_near(c, expected);
    }
}

TEST_P(GemmShapes, TnMatchesNaive) {
    const auto [m, k, n] = GetParam();
    for (const bool accumulate : {false, true}) {
        xpcore::Rng rng(m * 100 + k * 10 + n + (accumulate ? 9 : 2));
        const Tensor at = random_tensor(k, m, rng);  // a^T stored
        const Tensor b = random_tensor(k, n, rng);
        Tensor c = random_tensor(m, n, rng);
        Tensor expected = naive_nn(transpose(at), b);
        if (accumulate) {
            for (std::size_t i = 0; i < expected.size(); ++i) expected.data()[i] += c.data()[i];
        }
        gemm_tn(at, b, c, accumulate);
        expect_near(c, expected);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                                           std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                                           std::make_tuple(1, 32, 8), std::make_tuple(33, 17, 9),
                                           std::make_tuple(1, 11, 43),   // one inference line
                                           std::make_tuple(48, 48, 48),  // below 2^17 threshold
                                           std::make_tuple(64, 65, 66),  // above 2^17 threshold
                                           std::make_tuple(5, 300, 37)   // K-panel straddle
                                           ));

// Bit-exact determinism across worker counts: the kernels partition output
// rows only, so a 4-worker pool must reproduce the serial pool exactly —
// this is what makes XPDNN_THREADS=0/1/4 model selection identical.
class GemmThreaded : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmThreaded, SerialAndParallelPoolsBitIdentical) {
    const auto [m, k, n] = GetParam();
    ThresholdOverride force_parallel(1);  // everything above 1 madd parallelizes
    xpcore::ThreadPool serial_pool(0);
    xpcore::ThreadPool parallel_pool(4);

    for (const bool accumulate : {false, true}) {
        xpcore::Rng rng(m * 1000 + k * 100 + n + (accumulate ? 3 : 0));
        const Tensor a = random_tensor(m, k, rng);
        const Tensor b = random_tensor(k, n, rng);
        const Tensor bt = transpose(b);
        const Tensor at = transpose(a);
        const Tensor init = random_tensor(m, n, rng);

        Tensor c_serial = init, c_parallel = init;
        gemm_nn(a, b, c_serial, accumulate, serial_pool);
        gemm_nn(a, b, c_parallel, accumulate, parallel_pool);
        expect_identical(c_parallel, c_serial);
        expect_near(c_serial, c_parallel);  // shape check side effect

        c_serial = init;
        c_parallel = init;
        gemm_nt(a, bt, c_serial, accumulate, serial_pool);
        gemm_nt(a, bt, c_parallel, accumulate, parallel_pool);
        expect_identical(c_parallel, c_serial);

        c_serial = init;
        c_parallel = init;
        gemm_tn(at, b, c_serial, accumulate, serial_pool);
        gemm_tn(at, b, c_parallel, accumulate, parallel_pool);
        expect_identical(c_parallel, c_serial);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmThreaded,
                         ::testing::Values(std::make_tuple(2, 3, 4), std::make_tuple(16, 16, 16),
                                           std::make_tuple(48, 48, 48),
                                           std::make_tuple(64, 65, 66),
                                           std::make_tuple(128, 11, 43),  // training batch
                                           std::make_tuple(97, 300, 31)));

TEST(Gemm, ScalarBlockedKernelsBitIdenticalToSeedLoops) {
    xpcore::simd::LevelGuard scalar(xpcore::simd::Level::Scalar);
    xpcore::SerialGuard serial;
    // (m, k, n): square products, the batch-16 forward product and the
    // batch-16 backward dW product.
    for (const std::size_t n : {64u, 96u}) {
        const std::size_t shapes[][3] = {{n, n, n}, {16, n, n}, {n, 16, n}};
        for (const auto& [m, k, cols] : shapes) {
            xpcore::Rng rng(m * 7919 + k * 131 + cols);
            const Tensor a = random_tensor(m, k, rng);
            const Tensor at = transpose(a);
            const Tensor b = random_tensor(k, cols, rng);
            const Tensor bt = transpose(b);
            Tensor expected(m, cols), actual(m, cols);
            seed_gemm_nn(a, b, expected);
            gemm_nn(a, b, actual);
            expect_identical(actual, expected);
            seed_gemm_nt(a, bt, expected);
            gemm_nt(a, bt, actual);
            expect_identical(actual, expected);
            seed_gemm_tn(at, b, expected);
            gemm_tn(at, b, actual);
            expect_identical(actual, expected);
        }
    }
}

TEST(Gemm, ParallelThresholdKnob) {
    EXPECT_GT(nn::gemm_parallel_threshold(), 0u);
    const std::size_t before = nn::gemm_parallel_threshold();
    nn::set_gemm_parallel_threshold(12345);
    EXPECT_EQ(nn::gemm_parallel_threshold(), 12345u);
    nn::set_gemm_parallel_threshold(0);  // restore default
    EXPECT_EQ(nn::gemm_parallel_threshold(), before);
}

TEST(Gemm, AccumulateAddsToExisting) {
    xpcore::Rng rng(9);
    const Tensor a = random_tensor(3, 4, rng);
    const Tensor b = random_tensor(4, 2, rng);
    Tensor c(3, 2, 1.0f);
    gemm_nn(a, b, c, /*accumulate=*/true);
    Tensor expected = naive_nn(a, b);
    for (std::size_t i = 0; i < expected.size(); ++i) expected.data()[i] += 1.0f;
    expect_near(c, expected);
}

TEST(Axpy, AddsScaled) {
    Tensor x(2, 2, 2.0f);
    Tensor y(2, 2, 1.0f);
    axpy(0.5f, x, y);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y.data()[i], 2.0f);
}

}  // namespace

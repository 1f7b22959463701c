#pragma once

/// \file tensor.hpp
/// Dense 2-D float tensor and the GEMM kernels the network is built on.
///
/// The paper's classifier is a small dense MLP, so a row-major f32 matrix
/// with cache-blocked loop ordering (K panels x N blocks, unit-stride inner
/// loops that the compiler auto-vectorizes with FMA) is all the tensor
/// substrate the library needs. No external BLAS or ML framework is
/// required. Products large enough to amortize synchronization are split
/// into row ranges and dispatched onto the xpcore thread pool; the split is
/// over output rows only, so every element is accumulated in the same order
/// regardless of thread count and results are bit-identical for 0..N
/// threads.
///
/// Below the thread layer sits a data-parallel layer: the kernels sample
/// xpcore::simd::active_level() once per product and dispatch to the packed
/// AVX-512 or AVX2/FMA microkernel in xpcore (see xpcore/simd_kernels.hpp);
/// at Level::Scalar they run the blocked scalar loops below, which are
/// bit-identical to the pre-SIMD library. Each vector level runs one
/// compiled cache blocking (xpcore/simd_kernels.hpp). The SIMD results
/// differ from scalar only by FMA contraction and summation-tree shape
/// (tolerance-pinned in tests/test_simd_parity.cpp) and remain
/// bit-identical across thread counts at any fixed level.
///
/// Tensor storage is 64-byte aligned (xpcore/aligned.hpp): cache-line and
/// zmm-register boundaries for the vector kernels, asserted by the
/// zero-alloc test.

#include <cstddef>
#include <span>
#include <vector>

#include "xpcore/aligned.hpp"

namespace xpcore {
class Rng;
class ThreadPool;
}

namespace nn {

/// Row-major matrix of floats. A vector is a 1 x n or n x 1 tensor.
class Tensor {
public:
    Tensor() = default;
    Tensor(std::size_t rows, std::size_t cols, float fill = 0.0f)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }
    std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
    std::span<const float> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

    /// Resize without preserving contents. Shrinking (or growing within
    /// capacity()) never touches the heap; growing beyond capacity()
    /// allocates without copying the old contents (they are not preserved
    /// anyway). This is what makes reused workspace tensors allocation-free
    /// in steady state.
    void resize(std::size_t rows, std::size_t cols);

    /// Number of elements the current buffer can hold without reallocating.
    std::size_t capacity() const { return data_.capacity(); }

    /// Set every element to `value`.
    void fill(float value);

    /// Glorot/Xavier uniform initialization: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
    void glorot_uniform(std::size_t fan_in, std::size_t fan_out, xpcore::Rng& rng);

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float, xpcore::AlignedAllocator<float>> data_;
};

/// Work threshold (m * n * k multiply-adds) above which the GEMM kernels
/// dispatch row ranges onto the thread pool; below it they stay serial so
/// tiny products (1 x 11 inference lines) pay no synchronization. The
/// default (1 << 17) can be overridden with the XPDNN_GEMM_THRESHOLD
/// environment variable or, at runtime, with set_gemm_parallel_threshold
/// (0 restores the environment/default value).
std::size_t gemm_parallel_threshold();
void set_gemm_parallel_threshold(std::size_t flops);

/// c = a * b (+ c if accumulate). Dimensions: a[m x k], b[k x n], c[m x n].
/// The default overload runs on xpcore::ThreadPool::global(); the explicit
/// overload exists so tests can pin the worker count in-process.
void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);
void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
             xpcore::ThreadPool& pool);

/// c = a * b^T. Dimensions: a[m x k], b[n x k], c[m x n].
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
             xpcore::ThreadPool& pool);

/// c = a^T * b. Dimensions: a[k x m], b[k x n], c[m x n].
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
             xpcore::ThreadPool& pool);

/// y += alpha * x, elementwise over equal-shaped tensors.
void axpy(float alpha, const Tensor& x, Tensor& y);

}  // namespace nn

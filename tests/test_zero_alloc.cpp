// Zero-allocation guarantees of the workspace-backed hot paths: after a
// warm-up pass has sized every buffer, (a) further training epochs — serial
// and gradient-sharded — and (b) further batched classify_lines_into calls
// must not touch the heap. Enforced with a counting global operator new.
// Tensor buffers allocate through the over-aligned operator new
// (xpcore/aligned.hpp), so the aligned forms are interposed too: without
// them, Tensor growth would be invisible to the counter.
//
// The guarantee holds on the serial execution path (SerialGuard): the thread
// pool's task dispatch allocates by design, so pool-parallel runs are out of
// scope here.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "dnn/modeler.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "xpcore/aligned.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/thread_pool.hpp"

namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Over-aligned forms (Tensor data goes through these with a 64-byte
// alignment request — see xpcore::AlignedAllocator).
void* operator new(std::size_t size, std::align_val_t align) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    const std::size_t alignment =
        std::max(static_cast<std::size_t>(align), sizeof(void*));
    if (posix_memalign(&p, alignment, size ? size : alignment) == 0) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

void fill_random(nn::Tensor& t, xpcore::Rng& rng) {
    for (std::size_t i = 0; i < t.size(); ++i) {
        t.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    }
}

TEST(ZeroAlloc, TensorBuffersAre64ByteAligned) {
    // The SIMD kernels and the packed GEMM assume cache-line-aligned tensor
    // storage (xpcore::kBufferAlignment); pin it across construction,
    // resize-growth, and copies.
    static_assert(xpcore::kBufferAlignment == 64);
    auto aligned = [](const float* p) {
        return reinterpret_cast<std::uintptr_t>(p) % xpcore::kBufferAlignment == 0;
    };
    nn::Tensor t(3, 5);
    EXPECT_TRUE(aligned(t.data()));
    t.resize(129, 77);  // forces a reallocation
    EXPECT_TRUE(aligned(t.data()));
    const nn::Tensor copy = t;
    EXPECT_TRUE(aligned(copy.data()));
    nn::Tensor grown;
    grown.resize(1, 1);
    EXPECT_TRUE(aligned(grown.data()));
}

TEST(ZeroAlloc, SteadyStateTrainingEpochsAllocateNothing) {
    xpcore::SerialGuard serial;
    xpcore::Rng rng(1);
    nn::Network net = nn::Network::mlp({11, 64, 32, 43}, rng);
    nn::AdaMax opt;
    nn::Trainer trainer(net, opt, {1, 32, true});
    nn::Dataset data;
    const std::size_t samples = 128;
    data.inputs.resize(samples, 11);
    fill_random(data.inputs, rng);
    data.labels.resize(samples);
    for (std::size_t i = 0; i < samples; ++i) data.labels[i] = static_cast<std::int32_t>(i % 43);

    xpcore::Rng train_rng(2);
    trainer.fit(data, train_rng);  // warm-up epoch sizes the workspace

    const long long before = g_allocs.load();
    trainer.fit(data, train_rng);
    trainer.fit(data, train_rng);
    const long long allocations = g_allocs.load() - before;
    EXPECT_EQ(allocations, 0) << "steady-state training epochs must not allocate";
}

TEST(ZeroAlloc, SteadyStateShardedTrainingEpochsAllocateNothing) {
    // The gradient-sharded step reuses per-shard workspaces and gradient
    // sinks (nn::GradShard) exactly like the serial path reuses the main
    // workspace: after a warm-up epoch has sized them, further sharded
    // epochs are allocation-free on the serial execution path.
    xpcore::SerialGuard serial;
    xpcore::Rng rng(5);
    nn::Network net = nn::Network::mlp({11, 64, 32, 43}, rng);
    nn::AdaMax opt;
    nn::Trainer::Config config;
    config.epochs = 1;
    config.batch_size = 32;
    config.grad_shards = 4;
    nn::Trainer trainer(net, opt, config);
    nn::Dataset data;
    const std::size_t samples = 128;
    data.inputs.resize(samples, 11);
    fill_random(data.inputs, rng);
    data.labels.resize(samples);
    for (std::size_t i = 0; i < samples; ++i) data.labels[i] = static_cast<std::int32_t>(i % 43);

    xpcore::Rng train_rng(6);
    trainer.fit(data, train_rng);  // warm-up epoch sizes every shard

    const long long before = g_allocs.load();
    trainer.fit(data, train_rng);
    trainer.fit(data, train_rng);
    EXPECT_EQ(g_allocs.load() - before, 0)
        << "steady-state sharded training epochs must not allocate";
}

TEST(ZeroAlloc, SteadyStateBatchedInferenceAllocatesNothing) {
    xpcore::SerialGuard serial;
    dnn::DnnConfig config;
    config.hidden = {32, 16};
    config.pretrain_samples_per_class = 10;
    config.pretrain_epochs = 1;
    dnn::DnnModeler modeler(config, /*seed=*/3);
    modeler.pretrain();

    std::vector<dnn::LineSample> lines(10);
    for (auto& line : lines) {
        line.xs = {8, 16, 32, 64, 128};
        line.values = {1.0, 2.1, 4.4, 9.0, 18.5};
    }
    nn::Tensor probs;
    modeler.classify_lines_into(lines, probs);  // warm-up sizes the buffers

    const long long before = g_allocs.load();
    for (int i = 0; i < 5; ++i) modeler.classify_lines_into(lines, probs);
    const long long allocations = g_allocs.load() - before;
    EXPECT_EQ(allocations, 0) << "steady-state batched inference must not allocate";

    // A smaller batch reuses the larger buffers (resize keeps capacity).
    const long long before_small = g_allocs.load();
    modeler.classify_lines_into({lines.data(), 3}, probs);
    EXPECT_EQ(g_allocs.load() - before_small, 0)
        << "shrinking the batch must not allocate either";
}

TEST(ZeroAlloc, EvaluateAndPredictReuseTrainerWorkspace) {
    xpcore::SerialGuard serial;
    xpcore::Rng rng(4);
    nn::Network net = nn::Network::mlp({11, 32, 43}, rng);
    nn::AdaMax opt;
    nn::Trainer trainer(net, opt, {1, 32, false});
    nn::Dataset data;
    data.inputs.resize(64, 11);
    fill_random(data.inputs, rng);
    data.labels.resize(64);
    for (std::size_t i = 0; i < 64; ++i) data.labels[i] = static_cast<std::int32_t>(i % 43);

    trainer.evaluate(data);  // warm-up
    const long long before = g_allocs.load();
    trainer.evaluate(data);
    trainer.evaluate(data);
    EXPECT_EQ(g_allocs.load() - before, 0) << "repeated evaluate() must not allocate";
}

}  // namespace

// Thread-count invariance of the whole modeling pipeline: the parallel
// compute layer (blocked GEMM, parallel data generation, parallel CV
// ranking, sharded-gradient training) must produce bit-identical results at
// 0, 1, and 4 workers — XPDNN_THREADS is a speed knob, never a results knob.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dnn/modeler.hpp"
#include "dnn/training_data.hpp"
#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"
#include "nn/trainer.hpp"
#include "pmnf/exponents.hpp"
#include "pmnf/serialize.hpp"
#include "regression/modeler.hpp"
#include "regression/search.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/simd.hpp"
#include "xpcore/thread_pool.hpp"

namespace {

/// Runs the body once per global worker count and restores the default
/// global pool afterwards (the data-generation and CV paths use
/// ThreadPool::global(), so the test has to swap the singleton).
class GlobalPoolSweep : public ::testing::Test {
protected:
    void TearDown() override {
        xpcore::ThreadPool::reset_global();
        nn::set_gemm_parallel_threshold(0);
    }
};

dnn::GeneratorConfig tiny_generator() {
    dnn::GeneratorConfig config;
    config.samples_per_class = 12;
    return config;
}

dnn::DnnConfig tiny_config() {
    dnn::DnnConfig config;
    config.hidden = {32, 16};
    config.pretrain_samples_per_class = 40;
    config.pretrain_epochs = 1;
    config.adapt_samples_per_class = 20;
    config.adapt_epochs = 1;
    return config;
}

measure::ExperimentSet linear_kernel_set() {
    measure::ExperimentSet set({"p"});
    for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) set.add({p}, {5.0 + 2.0 * p});
    return set;
}

TEST_F(GlobalPoolSweep, TrainingDataBitIdenticalAcrossThreadCounts) {
    const dnn::GeneratorConfig config = tiny_generator();

    xpcore::ThreadPool::reset_global(0);
    xpcore::Rng rng_serial(42);
    const nn::Dataset serial = dnn::generate_training_data(config, rng_serial);

    for (std::size_t workers : {1u, 4u}) {
        xpcore::ThreadPool::reset_global(workers);
        xpcore::Rng rng(42);
        const nn::Dataset parallel = dnn::generate_training_data(config, rng);
        ASSERT_EQ(parallel.size(), serial.size());
        EXPECT_EQ(parallel.labels, serial.labels) << workers << " workers";
        ASSERT_EQ(parallel.inputs.size(), serial.inputs.size());
        EXPECT_EQ(std::memcmp(parallel.inputs.data(), serial.inputs.data(),
                              serial.inputs.size() * sizeof(float)),
                  0)
            << workers << " workers";
    }
}

TEST_F(GlobalPoolSweep, TrainingDataRngStateMatchesAfterGeneration) {
    // The caller's Rng must advance identically regardless of the worker
    // count (streams are split off sequentially before the parallel loop).
    const dnn::GeneratorConfig config = tiny_generator();

    xpcore::ThreadPool::reset_global(0);
    xpcore::Rng rng_serial(7);
    (void)dnn::generate_training_data(config, rng_serial);
    const double next_serial = rng_serial.uniform(0, 1);

    xpcore::ThreadPool::reset_global(4);
    xpcore::Rng rng_parallel(7);
    (void)dnn::generate_training_data(config, rng_parallel);
    EXPECT_EQ(rng_parallel.uniform(0, 1), next_serial);
}

TEST_F(GlobalPoolSweep, PretrainAndModelIdenticalAcrossThreadCounts) {
    // End-to-end acceptance: pretrain() at the default pretrain_shards
    // gives the same weight bytes, and model() selects the exact same model
    // (terms and scores), at 0, 1, and 4 workers. The GEMM parallel
    // threshold is forced to 1 so even the tiny test matrices take the
    // parallel dispatch path.
    nn::set_gemm_parallel_threshold(1);
    const measure::ExperimentSet set = linear_kernel_set();

    std::string baseline_weights, baseline_model;
    double baseline_cv = 0.0, baseline_fit = 0.0;
    for (std::size_t workers : {0u, 1u, 4u}) {
        xpcore::ThreadPool::reset_global(workers);
        dnn::DnnModeler modeler(tiny_config(), /*seed=*/11);
        modeler.pretrain();
        std::ostringstream weights;
        modeler.save_pretrained(weights);
        const regression::ModelResult result = modeler.model(set);
        const std::string description = result.model.to_string();
        if (workers == 0) {
            baseline_weights = weights.str();
            baseline_model = description;
            baseline_cv = result.cv_smape;
            baseline_fit = result.fit_smape;
            EXPECT_FALSE(baseline_model.empty());
        } else {
            EXPECT_TRUE(weights.str() == baseline_weights) << workers << " workers";
            EXPECT_EQ(description, baseline_model) << workers << " workers";
            EXPECT_EQ(result.cv_smape, baseline_cv) << workers << " workers";
            EXPECT_EQ(result.fit_smape, baseline_fit) << workers << " workers";
        }
    }
}

TEST_F(GlobalPoolSweep, ShardedGradientWeightsBitIdenticalAcrossThreadCounts) {
    // The deterministic-reduction contract of Trainer::Config::grad_shards:
    // for a fixed shard count, the trained weight *bytes* depend only on the
    // data and seed — never on the worker count — at every SIMD level this
    // host can run. grad_shards = 8 with batch_size = 128 also drives the
    // final 4-row batch through the empty-trailing-shards path.
    nn::set_gemm_parallel_threshold(1);
    xpcore::ThreadPool::reset_global(0);
    xpcore::Rng data_rng(5);
    const nn::Dataset data = dnn::generate_training_data(tiny_generator(), data_rng);

    std::vector<xpcore::simd::Level> levels = {xpcore::simd::Level::Scalar};
    if (xpcore::simd::max_level() >= xpcore::simd::Level::Avx2) {
        levels.push_back(xpcore::simd::Level::Avx2);
    }
    if (xpcore::simd::max_level() >= xpcore::simd::Level::Avx512) {
        levels.push_back(xpcore::simd::Level::Avx512);
    }

    auto train_weights = [&](std::size_t shards) {
        nn::Network net = [&] {
            xpcore::Rng init_rng(17);
            return nn::Network::mlp({data.inputs.cols(), 32, pmnf::class_count()}, init_rng,
                                    nn::Activation::Tanh);
        }();
        nn::AdaMax optimizer;
        nn::Trainer::Config config;
        config.epochs = 2;
        config.batch_size = 128;
        config.grad_shards = shards;
        nn::Trainer trainer(net, optimizer, config);
        xpcore::Rng train_rng(23);
        trainer.fit(data, train_rng);
        std::vector<float> flat;
        for (const nn::Param& p : net.params()) {
            flat.insert(flat.end(), p.value->data(), p.value->data() + p.value->size());
        }
        return flat;
    };

    for (xpcore::simd::Level level : levels) {
        xpcore::simd::LevelGuard guard(level);
        std::vector<float> baseline;
        for (std::size_t workers : {0u, 1u, 4u}) {
            xpcore::ThreadPool::reset_global(workers);
            const std::vector<float> weights = train_weights(8);
            ASSERT_FALSE(weights.empty());
            if (workers == 0) {
                baseline = weights;
            } else {
                ASSERT_EQ(weights.size(), baseline.size());
                EXPECT_EQ(std::memcmp(weights.data(), baseline.data(),
                                      baseline.size() * sizeof(float)),
                          0)
                    << workers << " workers at " << xpcore::simd::level_name(level);
            }
        }
    }
}

TEST_F(GlobalPoolSweep, SingleShardMatchesLegacySerialTrainer) {
    // grad_shards = 1 must stay on the untouched serial path: identical
    // bytes to a grad_shards-agnostic trainer run (the pre-sharding code).
    xpcore::ThreadPool::reset_global(0);
    xpcore::Rng data_rng(6);
    const nn::Dataset data = dnn::generate_training_data(tiny_generator(), data_rng);

    auto train_weights = [&](std::size_t shards) {
        nn::Network net = [&] {
            xpcore::Rng init_rng(29);
            return nn::Network::mlp({data.inputs.cols(), 24, pmnf::class_count()}, init_rng,
                                    nn::Activation::Tanh);
        }();
        nn::AdaMax optimizer;
        nn::Trainer::Config config;
        config.epochs = 1;
        config.batch_size = 64;
        config.grad_shards = shards;
        nn::Trainer trainer(net, optimizer, config);
        xpcore::Rng train_rng(31);
        trainer.fit(data, train_rng);
        std::vector<float> flat;
        for (const nn::Param& p : net.params()) {
            flat.insert(flat.end(), p.value->data(), p.value->data() + p.value->size());
        }
        return flat;
    };

    const std::vector<float> serial = train_weights(1);
    // A sharded run with R > 1 regroups the FP reduction, so its weights may
    // (and generally do) differ in the last ulp — but loss/accuracy must stay
    // statistically equivalent; here we only pin that R = 1 is bitwise stable
    // across repeated runs (i.e. the legacy path is untouched and pure).
    const std::vector<float> serial_again = train_weights(1);
    ASSERT_EQ(serial.size(), serial_again.size());
    EXPECT_EQ(std::memcmp(serial.data(), serial_again.data(), serial.size() * sizeof(float)),
              0);
}

TEST_F(GlobalPoolSweep, CandidateClassesIdenticalAcrossThreadCounts) {
    nn::set_gemm_parallel_threshold(1);
    measure::ExperimentSet set({"p", "n"});
    for (double p : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        for (double n : {10.0, 20.0, 30.0, 40.0, 50.0}) {
            set.add({p, n}, {1.0 + 0.5 * p * n});
        }
    }

    std::vector<std::vector<pmnf::TermClass>> baseline;
    for (std::size_t workers : {0u, 4u}) {
        xpcore::ThreadPool::reset_global(workers);
        dnn::DnnModeler modeler(tiny_config(), /*seed=*/3);
        modeler.pretrain();
        const auto candidates = modeler.candidate_classes(set);
        ASSERT_EQ(candidates.size(), 2u);
        if (workers == 0) {
            baseline = candidates;
        } else {
            ASSERT_EQ(candidates.size(), baseline.size());
            for (std::size_t param = 0; param < candidates.size(); ++param) {
                ASSERT_EQ(candidates[param].size(), baseline[param].size()) << param;
                for (std::size_t c = 0; c < candidates[param].size(); ++c) {
                    EXPECT_TRUE(candidates[param][c] == baseline[param][c]) << param << "/" << c;
                }
            }
        }
    }
}

/// A noisy full 5^3 grid with a compound term: the regression-grid shape,
/// where the CV search fans out over hundreds of shapes.
measure::ExperimentSet noisy_grid_set(std::uint64_t seed) {
    xpcore::Rng rng(seed);
    measure::ExperimentSet set({"p", "n", "s"});
    for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) {
        for (double n : {10.0, 20.0, 40.0, 80.0, 160.0}) {
            for (double s : {1.0, 2.0, 3.0, 4.0, 5.0}) {
                const double truth = 3.0 + 0.2 * p * std::log2(n) + 0.05 * s * s;
                std::vector<double> reps;
                for (int r = 0; r < 5; ++r) {
                    reps.push_back(truth * (1.0 + rng.uniform(-0.05, 0.05)));
                }
                set.add({p, n, s}, reps);
            }
        }
    }
    return set;
}

/// DNN-style candidates: three classes per parameter plus the constant.
std::vector<std::vector<pmnf::TermClass>> dnn_style_candidates() {
    using pmnf::Rational;
    return {{{Rational(1), 0}, {Rational(1), 1}, {Rational(3, 2), 0}, {}},
            {{Rational(0), 1}, {Rational(1, 2), 0}, {Rational(1), 0}, {}},
            {{Rational(2), 0}, {Rational(1), 0}, {Rational(0), 1}, {}}};
}

/// Every double of the results as its exact bits, plus the model JSON.
std::string fingerprint(const std::vector<regression::ModelResult>& results) {
    std::string out;
    for (const auto& result : results) {
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%a %a ", result.cv_smape, result.fit_smape);
        out += buffer + pmnf::to_json(result.model) + "\n";
    }
    return out;
}

TEST_F(GlobalPoolSweep, RegressionSearchBitIdenticalAcrossThreadCounts) {
    const auto set = noisy_grid_set(17);
    const regression::RegressionModeler modeler;
    const auto candidates = dnn_style_candidates();

    std::string alternatives_baseline, selection_baseline;
    for (std::size_t workers : {0u, 1u, 4u}) {
        xpcore::ThreadPool::reset_global(workers);
        const std::string alternatives = fingerprint(modeler.model_alternatives(set, 3));
        const std::string selection =
            fingerprint({regression::select_best_combination(set, candidates)});
        if (workers == 0) {
            alternatives_baseline = alternatives;
            selection_baseline = selection;
            EXPECT_EQ(std::count(alternatives.begin(), alternatives.end(), '\n'), 3);
        } else {
            EXPECT_EQ(alternatives, alternatives_baseline) << workers << " workers";
            EXPECT_EQ(selection, selection_baseline) << workers << " workers";
        }
    }
}

TEST_F(GlobalPoolSweep, ConcurrentRegressionSearchesOnSerialPoolMatchSerialAnswer) {
    // Two sessions modeling at once on the serial pool, as the daemon's
    // workers do: every search must own its state, so each thread gets the
    // answer a lone serial call gives.
    xpcore::ThreadPool::reset_global(0);
    const regression::RegressionModeler modeler;
    const std::vector<measure::ExperimentSet> sets = {noisy_grid_set(1), noisy_grid_set(2)};
    std::vector<std::string> serial;
    for (const auto& set : sets) serial.push_back(fingerprint(modeler.model_alternatives(set, 3)));
    ASSERT_NE(serial[0], serial[1]);

    constexpr int kRounds = 4;
    std::vector<std::vector<std::string>> concurrent(sets.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < sets.size(); ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                concurrent[t].push_back(fingerprint(modeler.model_alternatives(sets[t], 3)));
            }
        });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 0; t < sets.size(); ++t) {
        ASSERT_EQ(concurrent[t].size(), static_cast<std::size_t>(kRounds));
        for (const auto& answer : concurrent[t]) EXPECT_EQ(answer, serial[t]) << "thread " << t;
    }
}

}  // namespace

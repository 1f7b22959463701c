// Tests for the DNN modeler: pretraining, classification, domain
// adaptation, caching, and end-to-end modeling. A reduced network is
// pretrained once per test binary (shared fixture) to keep the suite fast.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "dnn/cache.hpp"
#include "dnn/modeler.hpp"
#include "noise/injector.hpp"
#include "xpcore/rng.hpp"

namespace {

using namespace dnn;

DnnConfig tiny_config() {
    DnnConfig config;
    config.hidden = {96, 48};
    config.pretrain_samples_per_class = 250;
    config.pretrain_epochs = 4;
    config.adapt_samples_per_class = 120;
    config.adapt_epochs = 1;
    return config;
}

class DnnModelerTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        modeler_ = new DnnModeler(tiny_config(), /*seed=*/11);
        modeler_->pretrain();
    }
    static void TearDownTestSuite() {
        delete modeler_;
        modeler_ = nullptr;
    }
    void TearDown() override { modeler_->reset_adaptation(); }

    static DnnModeler* modeler_;
};

DnnModeler* DnnModelerTest::modeler_ = nullptr;

TEST_F(DnnModelerTest, PretrainedFlagSet) { EXPECT_TRUE(modeler_->is_pretrained()); }

TEST_F(DnnModelerTest, ClassifierBeatsChanceByWideMargin) {
    GeneratorConfig gen;
    gen.samples_per_class = 20;
    gen.noise_min = gen.noise_max = 0.0;
    gen.random_repetitions = false;
    xpcore::Rng rng(100);
    const auto test_data = generate_training_data(gen, rng);
    const double top1 = modeler_->top_k_accuracy(test_data, 1);
    const double top3 = modeler_->top_k_accuracy(test_data, 3);
    // Chance levels: 1/43 = 2.3% and 3/43 = 7%. Even the tiny network must
    // be far above that.
    EXPECT_GT(top1, 0.10);
    EXPECT_GT(top3, 0.25);
    EXPECT_GE(top3, top1);
}

TEST_F(DnnModelerTest, ClassifyLineReturnsDistribution) {
    const std::vector<double> xs = {4, 8, 16, 32, 64};
    std::vector<double> vs;
    for (double x : xs) vs.push_back(2.0 + 3.0 * x);
    const auto probs = modeler_->classify_line(xs, vs);
    ASSERT_EQ(probs.size(), 43u);
    float sum = 0.0f;
    for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4);
}

TEST_F(DnnModelerTest, CandidateClassesIncludeConstantFallback) {
    measure::ExperimentSet set({"p"});
    for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) set.add({p}, {1.0 + p});
    const auto candidates = modeler_->candidate_classes(set);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_GE(candidates[0].size(), 3u);
    bool has_constant = false;
    for (const auto& cls : candidates[0]) {
        if (cls.is_constant()) has_constant = true;
    }
    EXPECT_TRUE(has_constant);
}

TEST_F(DnnModelerTest, ModelsCleanLinearKernelAccurately) {
    measure::ExperimentSet set({"p"});
    for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) set.add({p}, {5.0 + 2.0 * p});
    const auto result = modeler_->model(set);
    // CV selection among top-3 + constant must land within half an order.
    EXPECT_LE(std::abs(result.model.lead_exponent(0) - 1.0), 0.5);
    EXPECT_LT(result.fit_smape, 20.0);
}

TEST_F(DnnModelerTest, ModelsTwoParameterSet) {
    measure::ExperimentSet set({"p", "n"});
    for (double p : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        for (double n : {10.0, 20.0, 30.0, 40.0, 50.0}) {
            set.add({p, n}, {1.0 + 0.5 * p * n});
        }
    }
    const auto result = modeler_->model(set);
    EXPECT_LE(std::abs(result.model.lead_exponent(0) - 1.0), 0.5);
    EXPECT_LE(std::abs(result.model.lead_exponent(1) - 1.0), 0.5);
}

TEST_F(DnnModelerTest, AdaptationKeepsPretrainedNetworkIntact) {
    const std::vector<double> xs = {4, 8, 16, 32, 64};
    std::vector<double> vs;
    for (double x : xs) vs.push_back(1.0 + x * x);
    const auto before = modeler_->classify_line(xs, vs);

    TaskProperties task;
    task.noise_min = 0.3;
    task.noise_max = 0.5;
    task.repetitions = 5;
    modeler_->adapt(task);
    modeler_->reset_adaptation();

    const auto after = modeler_->classify_line(xs, vs);
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_FLOAT_EQ(before[i], after[i]);  // pretrained weights untouched
    }
}

TEST_F(DnnModelerTest, AdaptationChangesActiveNetwork) {
    const std::vector<double> xs = {4, 8, 16, 32, 64};
    std::vector<double> vs;
    for (double x : xs) vs.push_back(1.0 + x * x);
    const auto before = modeler_->classify_line(xs, vs);
    TaskProperties task;
    task.noise_min = 0.0;
    task.noise_max = 0.2;
    modeler_->adapt(task);
    const auto after = modeler_->classify_line(xs, vs);
    double diff = 0.0;
    for (std::size_t i = 0; i < before.size(); ++i) diff += std::abs(before[i] - after[i]);
    EXPECT_GT(diff, 1e-6);
}

TEST_F(DnnModelerTest, SaveLoadPreservesPredictions) {
    const std::string path = ::testing::TempDir() + "/xpdnn_pretrained_test.bin";
    modeler_->save_pretrained(path);
    DnnModeler loaded(tiny_config(), /*seed=*/999);
    loaded.load_pretrained(path);
    EXPECT_TRUE(loaded.is_pretrained());

    const std::vector<double> xs = {4, 8, 16, 32, 64};
    std::vector<double> vs;
    for (double x : xs) vs.push_back(3.0 + std::sqrt(x));
    const auto a = modeler_->classify_line(xs, vs);
    const auto b = loaded.classify_line(xs, vs);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
    std::filesystem::remove(path);
}

TEST_F(DnnModelerTest, EmptySetThrows) {
    measure::ExperimentSet set({"p"});
    EXPECT_THROW(modeler_->model(set), std::invalid_argument);
}

TEST(DnnModelerStandalone, UnpretrainedUseThrows) {
    DnnModeler modeler(tiny_config(), 1);
    const std::vector<double> xs = {1, 2, 3, 4, 5};
    const std::vector<double> vs = {1, 2, 3, 4, 5};
    EXPECT_THROW(modeler.classify_line(xs, vs), std::logic_error);
    EXPECT_THROW(modeler.adapt(TaskProperties{}), std::logic_error);
    EXPECT_THROW(modeler.save_pretrained("/tmp/x.bin"), std::logic_error);
}

TEST(TaskPropertiesTest, FromExperimentExtractsEverything) {
    xpcore::Rng rng(5);
    noise::Injector injector(0.3, rng);
    measure::ExperimentSet set({"p", "n"});
    for (double p : {2.0, 4.0, 8.0}) {
        for (double n : {10.0, 20.0}) {
            set.add({p, n}, injector.repetitions(p * n, 3));
        }
    }
    const auto task = TaskProperties::from_experiment(set);
    ASSERT_EQ(task.sequences.size(), 2u);
    EXPECT_EQ(task.sequences[0], (std::vector<double>{2, 4, 8}));
    EXPECT_EQ(task.sequences[1], (std::vector<double>{10, 20}));
    EXPECT_EQ(task.repetitions, 3u);
    EXPECT_GT(task.noise_max, 0.0);
    EXPECT_LE(task.noise_min, task.noise_max);
}

TEST(CacheTest, HashIsStableAndConfigSensitive) {
    const DnnConfig a = tiny_config();
    DnnConfig b = tiny_config();
    EXPECT_EQ(pretrain_config_hash(a, 1), pretrain_config_hash(b, 1));
    EXPECT_NE(pretrain_config_hash(a, 1), pretrain_config_hash(a, 2));
    b.hidden = {128, 64};
    EXPECT_NE(pretrain_config_hash(a, 1), pretrain_config_hash(b, 1));
    b = tiny_config();
    b.pretrain_epochs += 1;
    EXPECT_NE(pretrain_config_hash(a, 1), pretrain_config_hash(b, 1));
}

TEST(CacheTest, HashCoversActivationAndAdaptation) {
    const DnnConfig a = tiny_config();
    DnnConfig b = tiny_config();
    b.activation = nn::Activation::Relu;
    EXPECT_NE(pretrain_config_hash(a, 1), pretrain_config_hash(b, 1));
    b = tiny_config();
    b.pretrain_samples_per_class += 1;
    EXPECT_NE(pretrain_config_hash(a, 1), pretrain_config_hash(b, 1));
}

TEST(CacheTest, CorruptOrTruncatedFileIsAMiss) {
    const std::string dir =
        ::testing::TempDir() + "/xpdnn_cache_corrupt_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    ::setenv("XPDNN_CACHE_DIR", dir.c_str(), 1);

    DnnConfig config = tiny_config();
    config.pretrain_samples_per_class = 40;
    config.pretrain_epochs = 1;
    const std::string path = pretrained_cache_path(config, 99);

    {
        DnnModeler seedling(config, 99);
        EXPECT_FALSE(ensure_pretrained(seedling, 99));  // cold: pretrains + stores
    }
    // Garbage contents: the load fails, which must count as a miss — the
    // network is re-pretrained and the bad file silently overwritten.
    std::ofstream(path, std::ios::trunc) << "this is not a serialized network";
    {
        DnnModeler repaired(config, 99);
        EXPECT_FALSE(ensure_pretrained(repaired, 99));
        EXPECT_TRUE(repaired.is_pretrained());
    }
    {
        DnnModeler reader(config, 99);
        EXPECT_TRUE(ensure_pretrained(reader, 99));  // repaired file hits again
    }
    // Truncation (e.g. a crashed writer): also a miss, also repaired.
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const std::string bytes = buffer.str();
        ASSERT_GT(bytes.size(), 2u);
        std::ofstream(path, std::ios::trunc | std::ios::binary)
            << bytes.substr(0, bytes.size() / 2);
    }
    {
        DnnModeler repaired(config, 99);
        EXPECT_FALSE(ensure_pretrained(repaired, 99));
        EXPECT_TRUE(repaired.is_pretrained());
    }

    ::unsetenv("XPDNN_CACHE_DIR");
    std::filesystem::remove_all(dir);
}

TEST(CacheTest, StoreIsAtomicNoTempLeftoversAndSafeUnderConcurrency) {
    // Regression for the torn-write bug: ensure_pretrained used to stream
    // the network straight into the final cache path, so a concurrent
    // reader could open a half-written file. The store now goes through a
    // pid-suffixed temp file plus rename (xpcore/store.hpp):
    // the final path either does not exist or holds a complete network.
    const std::string dir =
        ::testing::TempDir() + "/xpdnn_cache_atomic_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    ::setenv("XPDNN_CACHE_DIR", dir.c_str(), 1);

    DnnConfig config = tiny_config();
    config.pretrain_samples_per_class = 40;
    config.pretrain_epochs = 1;
    const std::string path = pretrained_cache_path(config, 55);

    // Two sessions race the cold cache. Whatever the interleaving, both
    // must come out pretrained, and any reader that finds the file must
    // either load it completely or re-pretrain — never crash or load junk.
    auto warm_up = [&config] {
        DnnModeler modeler(config, 55);
        ensure_pretrained(modeler, 55);
        EXPECT_TRUE(modeler.is_pretrained());
    };
    std::thread racer(warm_up);
    warm_up();
    racer.join();

    // The rename either installed a complete file or failed cleanly; no
    // temp files may survive, and the final file must be a clean hit.
    ASSERT_TRUE(std::filesystem::exists(path));
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_NE(entry.path().extension(), ".tmp")
            << "leftover cache artifact: " << entry.path();
    }
    DnnModeler reader(config, 55);
    EXPECT_TRUE(ensure_pretrained(reader, 55));

    ::unsetenv("XPDNN_CACHE_DIR");
    std::filesystem::remove_all(dir);
}

TEST(CacheTest, WriteFailureWarnsInsteadOfSilentSwallow) {
    // Regression: a failed cache publish (here: the cache "directory" is a
    // regular file) used to vanish without a trace — the session just
    // re-pretrained forever. The durable-store layer now surfaces one
    // structured "xpdnn: warning:" line per failed publish, and the modeler
    // still comes out pretrained.
    const std::string blocked =
        ::testing::TempDir() + "/xpdnn_cache_blocked_" + std::to_string(::getpid());
    std::ofstream(blocked) << "not a directory";
    ::setenv("XPDNN_CACHE_DIR", blocked.c_str(), 1);

    DnnConfig config = tiny_config();
    config.pretrain_samples_per_class = 40;
    config.pretrain_epochs = 1;

    ::testing::internal::CaptureStderr();
    DnnModeler modeler(config, 77);
    EXPECT_FALSE(ensure_pretrained(modeler, 77));  // miss, and the put fails
    const std::string captured = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(modeler.is_pretrained());
    EXPECT_NE(captured.find("xpdnn: warning:"), std::string::npos) << captured;

    ::unsetenv("XPDNN_CACHE_DIR");
    std::filesystem::remove(blocked);
}

TEST(CacheTest, EnsurePretrainedCreatesAndReusesCache) {
    const std::string dir = ::testing::TempDir() + "/xpdnn_cache_test";
    std::filesystem::create_directories(dir);
    ::setenv("XPDNN_CACHE_DIR", dir.c_str(), 1);

    DnnConfig config = tiny_config();
    config.pretrain_samples_per_class = 40;  // keep the miss cheap
    config.pretrain_epochs = 1;
    DnnModeler first(config, 77);
    EXPECT_FALSE(ensure_pretrained(first, 77));  // miss: pretrains + stores
    EXPECT_TRUE(std::filesystem::exists(pretrained_cache_path(config, 77)));

    DnnModeler second(config, 77);
    EXPECT_TRUE(ensure_pretrained(second, 77));  // hit: loads

    ::unsetenv("XPDNN_CACHE_DIR");
    std::filesystem::remove_all(dir);
}

}  // namespace

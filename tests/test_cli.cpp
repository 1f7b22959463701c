// Tests for the xpdnn command-line driver (src/cli).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "cli/commands.hpp"
#include "measure/binary.hpp"
#include "measure/io.hpp"
#include "noise/injector.hpp"
#include "pmnf/serialize.hpp"
#include "xpcore/rng.hpp"

namespace {

struct CliResult {
    int code;
    std::string out;
    std::string err;
};

CliResult run_cli(std::vector<std::string> argv_strings) {
    argv_strings.insert(argv_strings.begin(), "xpdnn");
    std::vector<const char*> argv;
    for (const auto& s : argv_strings) argv.push_back(s.c_str());
    std::ostringstream out, err;
    const int code = cli::run(static_cast<int>(argv.size()), argv.data(), out, err);
    return {code, out.str(), err.str()};
}

/// Writes a measurement file of f(p) = 2 + 3p with mild noise. The path is
/// per-process: ctest runs each discovered test in its own process, possibly
/// in parallel, and a shared fixed name lets one test read another's
/// half-written file.
std::string write_linear_measurements() {
    const std::string path = ::testing::TempDir() + "/xpdnn_cli_linear_" +
                             std::to_string(::getpid()) + ".txt";
    xpcore::Rng rng(1);
    noise::Injector injector(0.05, rng);
    measure::ExperimentSet set({"p"});
    for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) {
        set.add({p}, injector.repetitions(2.0 + 3.0 * p, 5));
    }
    measure::save_text_file(set, path);
    return path;
}

TEST(Cli, NoArgumentsPrintsUsage) {
    const auto result = run_cli({});
    EXPECT_EQ(result.code, 1);
    EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(Cli, HelpPrintsUsageToStdout) {
    const auto result = run_cli({"help"});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
    const auto result = run_cli({"frobnicate"});
    EXPECT_EQ(result.code, 1);
    EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, ModelRegressionRecoversLinear) {
    const auto result = run_cli({"model", write_linear_measurements(), "--modeler=regression"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("model:"), std::string::npos);
    EXPECT_NE(result.out.find("* p"), std::string::npos);  // linear term present
    EXPECT_NE(result.out.find("estimated noise"), std::string::npos);
}

TEST(Cli, DnnModelLeavesOnlyPretrainedBlobsInCacheDir) {
    const std::string dir = ::testing::TempDir() + "/xpdnn_cli_dnn_cache_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ::setenv("XPDNN_CACHE_DIR", dir.c_str(), 1);
    const auto result =
        run_cli({"model", write_linear_measurements(), "--modeler=dnn", "--net=tiny"});
    ::unsetenv("XPDNN_CACHE_DIR");
    ASSERT_EQ(result.code, 0) << result.err;

    std::size_t blobs = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        EXPECT_EQ(name.rfind("xpdnn_pretrained_", 0), 0u) << name;
        EXPECT_EQ(entry.path().extension(), ".blob") << name;
        ++blobs;
    }
    EXPECT_GT(blobs, 0u);
    std::filesystem::remove_all(dir);
}

TEST(Cli, ModelMissingFileFails) {
    const auto result = run_cli({"model"});
    EXPECT_EQ(result.code, 1);
}

TEST(Cli, ModelNonexistentFileFailsGracefully) {
    const auto result = run_cli({"model", "/nonexistent.txt", "--modeler=regression"});
    EXPECT_EQ(result.code, 2);
    EXPECT_FALSE(result.err.empty());
}

TEST(Cli, ModelUnknownModelerFails) {
    const auto result = run_cli({"model", write_linear_measurements(), "--modeler=psychic"});
    EXPECT_EQ(result.code, 1);
}

TEST(Cli, ModelJsonOutputIsLoadable) {
    const auto result =
        run_cli({"model", write_linear_measurements(), "--modeler=regression", "--json"});
    ASSERT_EQ(result.code, 0) << result.err;
    const auto model = pmnf::from_json(result.out.substr(0, result.out.find('\n')));
    EXPECT_NEAR(model.evaluate({{128.0}}), 2.0 + 3.0 * 128.0, 40.0);
}

TEST(Cli, ModelAlternativesPrintsRunnersUp) {
    const auto result = run_cli(
        {"model", write_linear_measurements(), "--modeler=regression", "--alternatives=2"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("alternative:"), std::string::npos);
}

TEST(Cli, ModelEvalPointPrintsPrediction) {
    const auto result = run_cli({"model", write_linear_measurements(), "--modeler=regression",
                                 "--eval=128"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("prediction at (128)"), std::string::npos);
}

TEST(Cli, ModelEvalArityMismatchFails) {
    const auto result = run_cli({"model", write_linear_measurements(), "--modeler=regression",
                                 "--eval=128,256"});
    EXPECT_EQ(result.code, 1);
}

TEST(Cli, ModelSimplifyOptionAccepted) {
    const auto result = run_cli(
        {"model", write_linear_measurements(), "--modeler=regression", "--simplify"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("model:"), std::string::npos);
}

TEST(Cli, ModelAggregationOptionAccepted) {
    for (const char* agg : {"median", "mean", "minimum"}) {
        const auto result = run_cli({"model", write_linear_measurements(),
                                     "--modeler=regression",
                                     std::string("--aggregation=") + agg});
        EXPECT_EQ(result.code, 0) << agg << ": " << result.err;
    }
}

TEST(Cli, ModelBadAggregationFails) {
    const auto result = run_cli(
        {"model", write_linear_measurements(), "--modeler=regression", "--aggregation=mode"});
    EXPECT_EQ(result.code, 2);
}

TEST(Cli, NoiseReportsLevels) {
    const auto result = run_cli({"noise", write_linear_measurements()});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("noise estimate:"), std::string::npos);
    EXPECT_NE(result.out.find("per-point noise:"), std::string::npos);
}

TEST(Cli, PredictEvaluatesStoredModel) {
    const std::string path = ::testing::TempDir() + "/xpdnn_cli_model.json";
    pmnf::CompoundTerm term{3.0, {{0, {pmnf::Rational(1), 0}}}};
    std::ofstream(path) << pmnf::to_json(pmnf::Model(2.0, {term}));
    const auto result = run_cli({"predict", path, "10"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NEAR(std::stod(result.out), 32.0, 1e-9);
}

TEST(Cli, PredictRejectsTrailingGarbageInCoordinates) {
    // Regression: coordinates used to go through std::stod without a
    // consumed-length check, so "1.5abc" silently evaluated at 1.5.
    const std::string path = ::testing::TempDir() + "/xpdnn_cli_model_garbage.json";
    pmnf::CompoundTerm term{3.0, {{0, {pmnf::Rational(1), 0}}}};
    std::ofstream(path) << pmnf::to_json(pmnf::Model(2.0, {term}));
    for (const char* bad : {"1.5abc", "abc", "", "nan", "inf", "2,5"}) {
        const auto result = run_cli({"predict", path, bad});
        EXPECT_EQ(result.code, 2) << "accepted coordinate '" << bad << "'";
        EXPECT_NE(result.err.find("malformed coordinate"), std::string::npos) << result.err;
    }
    const auto good = run_cli({"predict", path, "10"});
    ASSERT_EQ(good.code, 0) << good.err;
}

TEST(Cli, ModelEvalRejectsTrailingGarbage) {
    const auto result = run_cli(
        {"model", write_linear_measurements(), "--modeler=regression", "--eval=8,16x"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("malformed coordinate"), std::string::npos) << result.err;
}

TEST(Cli, PredictMissingArgsFails) {
    EXPECT_EQ(run_cli({"predict"}).code, 1);
    EXPECT_EQ(run_cli({"predict", "model.json"}).code, 1);
}

TEST(Cli, PredictMissingFileFails) {
    const auto result = run_cli({"predict", "/nonexistent.json", "1"});
    EXPECT_EQ(result.code, 2);
}

TEST(Cli, SimulateWritesLoadableCampaign) {
    const std::string path = ::testing::TempDir() + "/xpdnn_cli_sim.txt";
    const auto result = run_cli({"simulate", "relearn", "--out=" + path, "--seed=5"});
    ASSERT_EQ(result.code, 0) << result.err;
    const auto set = measure::load_text_file(path);
    EXPECT_EQ(set.size(), 9u);  // RELeARN's two overlapping lines
    EXPECT_EQ(set.parameter_count(), 2u);
}

TEST(Cli, SimulateToStdout) {
    const auto result = run_cli({"simulate", "relearn"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("params: p n"), std::string::npos);
}

TEST(Cli, SimulateSelectsKernel) {
    const auto result = run_cli({"simulate", "kripke", "LTimes"});
    EXPECT_EQ(result.code, 0) << result.err;
}

TEST(Cli, SimulateUnknownAppOrKernelFails) {
    EXPECT_EQ(run_cli({"simulate", "doom"}).code, 1);
    const auto result = run_cli({"simulate", "kripke", "NoSuchKernel"});
    EXPECT_EQ(result.code, 1);
    EXPECT_NE(result.err.find("SweepSolver"), std::string::npos);  // lists kernels
}

TEST(Cli, SimulateDeterministicWithSeed) {
    const auto a = run_cli({"simulate", "fastest", "--seed=9"});
    const auto b = run_cli({"simulate", "fastest", "--seed=9"});
    EXPECT_EQ(a.out, b.out);
}

TEST(Cli, SimulateAllKernelsEmitsArchive) {
    const auto result = run_cli({"simulate", "relearn", "--all-kernels"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("kernel: connectivity_update metric: time"), std::string::npos);
    EXPECT_NE(result.out.find("kernel: gather_neurons metric: time"), std::string::npos);
}

TEST(Cli, ModelAllModelsArchiveWithBatchAdaptation) {
    const std::string dir = ::testing::TempDir() + "/xpdnn_cli_modelall";
    std::filesystem::create_directories(dir);
    ::setenv("XPDNN_CACHE_DIR", dir.c_str(), 1);
    const std::string path = dir + "/archive.txt";
    ASSERT_EQ(run_cli({"simulate", "relearn", "--all-kernels", "--out=" + path}).code, 0);

    const auto result = run_cli({"model-all", path, "--net=tiny"});
    ::unsetenv("XPDNN_CACHE_DIR");
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("connectivity_update/time"), std::string::npos);
    EXPECT_NE(result.out.find("domain adaptation(s)"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, ModelAllNoTimingsZeroesEveryReportsTimings) {
    const std::string dir = ::testing::TempDir() + "/xpdnn_cli_modelall_no_timings_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    ::setenv("XPDNN_CACHE_DIR", dir.c_str(), 1);
    const std::string path = dir + "/archive.txt";
    ASSERT_EQ(run_cli({"simulate", "relearn", "--all-kernels", "--out=" + path}).code, 0);

    const std::vector<std::string> argv = {"model-all", path, "--net=tiny", "--report=json",
                                           "--no-timings"};
    const auto first = run_cli(argv);
    const auto second = run_cli(argv);
    const auto timed = run_cli({"model-all", path, "--net=tiny", "--report=json"});
    ::unsetenv("XPDNN_CACHE_DIR");
    std::filesystem::remove_all(dir);
    ASSERT_EQ(first.code, 0) << first.err;
    ASSERT_EQ(timed.code, 0) << timed.err;

    // One report per line, each with a zeroed timings block, and the whole
    // output byte-identical across runs.
    const std::string zeroed =
        "\"timings\": {\"regression_seconds\": 0, \"dnn_seconds\": 0, \"total_seconds\": 0}";
    std::istringstream lines(first.out);
    std::size_t reports = 0;
    for (std::string line; std::getline(lines, line); ++reports) {
        EXPECT_NE(line.find(zeroed), std::string::npos) << line;
    }
    EXPECT_GT(reports, 1u);
    EXPECT_EQ(first.out, second.out);
    // Without the flag the wall-clock timings are reported.
    EXPECT_EQ(timed.out.find(zeroed), std::string::npos);
}

TEST(Cli, ModelAllMissingFileFails) {
    EXPECT_EQ(run_cli({"model-all"}).code, 1);
    EXPECT_EQ(run_cli({"model-all", "/nonexistent.txt"}).code, 2);
}

TEST(Cli, ModelersListsRegisteredNames) {
    const auto result = run_cli({"modelers"});
    ASSERT_EQ(result.code, 0) << result.err;
    for (const char* name : {"regression", "dnn", "ensemble", "adaptive", "batch", "noise"}) {
        EXPECT_NE(result.out.find(name), std::string::npos) << name;
    }
    EXPECT_NE(result.out.find("diagnostic"), std::string::npos);  // noise's kind
}

TEST(Cli, ModelReportJsonEmitsSchemaDocument) {
    const auto result =
        run_cli({"model", write_linear_measurements(), "--modeler=regression", "--report=json"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_EQ(result.out.rfind("{\"schema\": \"xpdnn.report\"", 0), 0u);
}

/// Writes a multi-kernel text archive (RELeARN, all kernels) under a fresh
/// per-process scratch dir and returns {dir, archive_path}.
std::pair<std::string, std::string> write_relearn_archive_batch() {
    const std::string dir = ::testing::TempDir() + "/xpdnn_cli_ingest_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    const std::string batch = dir + "/batch.txt";
    EXPECT_EQ(run_cli({"simulate", "relearn", "--all-kernels", "--out=" + batch,
                       "--seed=4"})
                  .code,
              0);
    return {dir, batch};
}

TEST(Cli, IngestArchiveBatchAppendsEveryEntry) {
    const auto [dir, batch] = write_relearn_archive_batch();
    const std::string arch = dir + "/live_all.arch";

    const auto created = run_cli({"ingest", arch, batch});
    ASSERT_EQ(created.code, 0) << created.err;
    EXPECT_NE(created.out.find("created"), std::string::npos) << created.out;

    const auto appended = run_cli({"ingest", arch, batch});
    ASSERT_EQ(appended.code, 0) << appended.err;
    EXPECT_NE(appended.out.find("appended"), std::string::npos) << appended.out;

    const auto live = measure::load_binary_archive_file(arch);
    const auto source = measure::load_archive_file_any(batch);
    ASSERT_EQ(live.size(), source.size());
    for (const auto& entry : source.entries()) {
        const auto* got = live.find(entry.kernel, entry.metric);
        ASSERT_NE(got, nullptr) << entry.kernel << "/" << entry.metric;
        EXPECT_EQ(got->experiments.size(), 2 * entry.experiments.size());
    }
    std::filesystem::remove_all(dir);
}

TEST(Cli, IngestArchiveBatchSelectorPicksOneEntry) {
    const auto [dir, batch] = write_relearn_archive_batch();
    const std::string arch = dir + "/live_one.arch";

    const auto result = run_cli({"ingest", arch, batch, "--kernel=connectivity_update",
                                 "--metric=time"});
    ASSERT_EQ(result.code, 0) << result.err;
    const auto live = measure::load_binary_archive_file(arch);
    EXPECT_EQ(live.size(), 1u);
    EXPECT_NE(live.find("connectivity_update", "time"), nullptr);

    const auto missing = run_cli({"ingest", arch, batch, "--kernel=no_such_kernel",
                                  "--metric=time"});
    EXPECT_EQ(missing.code, 1);
    EXPECT_NE(missing.err.find("no measurements for"), std::string::npos) << missing.err;
    std::filesystem::remove_all(dir);
}

TEST(Cli, IngestModelOnMultiKernelBatchNeedsSelector) {
    const auto [dir, batch] = write_relearn_archive_batch();
    const std::string arch = dir + "/live_model.arch";

    const auto result = run_cli({"ingest", arch, batch, "--model", "--modeler=regression"});
    EXPECT_EQ(result.code, 1);
    EXPECT_NE(result.err.find("--kernel and --metric"), std::string::npos) << result.err;
    // The error fires before any append: nothing was published.
    EXPECT_FALSE(std::filesystem::exists(arch));
    std::filesystem::remove_all(dir);
}

TEST(Cli, IngestShapeMismatchIsATypedError) {
    const auto [dir, batch] = write_relearn_archive_batch();
    const std::string arch = dir + "/live_shape.arch";
    ASSERT_EQ(run_cli({"ingest", arch, batch}).code, 0);

    // A single-set batch without a selector cannot land in an archive-shaped
    // target: ValidationError, exit 2 like every bad input.
    const auto mismatch = run_cli({"ingest", arch, write_linear_measurements()});
    EXPECT_EQ(mismatch.code, 2);
    EXPECT_FALSE(mismatch.err.empty());
    std::filesystem::remove_all(dir);
}

TEST(Cli, ModelRoundTripThroughSimulate) {
    // simulate -> model --modeler=regression: the full user workflow.
    const std::string path = ::testing::TempDir() + "/xpdnn_cli_roundtrip.txt";
    ASSERT_EQ(run_cli({"simulate", "relearn", "update_electrical_activity",
                       "--out=" + path, "--seed=3"})
                  .code,
              0);
    const auto result = run_cli({"model", path, "--modeler=regression"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("model:"), std::string::npos);
}

}  // namespace

// The "xpdnn.arch" binary archive: format round trips (text -> binary ->
// text byte-identical), streaming-append semantics, the miss+repair open
// discipline, and the typed-error contract on the golden bad files under
// tests/data/.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "measure/archive.hpp"
#include "measure/binary.hpp"
#include "measure/io.hpp"
#include "xpcore/archive.hpp"
#include "xpcore/error.hpp"
#include "xpcore/rng.hpp"

namespace {

using namespace measure;
namespace xarch = xpcore::archive;
namespace fs = std::filesystem;

std::string data_path(const std::string& name) {
    return std::string(XPDNN_TEST_DATA_DIR) + "/" + name;
}

// Per-test scratch directory so parallel ctest processes never collide.
class ScratchDir {
public:
    ScratchDir() {
        dir_ = fs::temp_directory_path() /
               ("xpdnn_arch_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        fs::create_directories(dir_);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path(const std::string& name) const { return (dir_ / name).string(); }

private:
    static inline int counter_ = 0;
    fs::path dir_;
};

ExperimentSet small_set() {
    ExperimentSet set({"p", "n"});
    set.add({8, 1024}, {1.23, 1.25, 1.22});
    set.add({16, 1024}, {2.41, 2.39});
    set.add({32, 2048}, {4.8});
    return set;
}

Archive small_archive() {
    Archive archive({"p"});
    ExperimentSet a({"p"});
    a.add({2}, {0.5, 0.52});
    a.add({4}, {1.0});
    ExperimentSet b({"p"});
    b.add({2}, {10.0});
    archive.add("SweepSolver", "time", std::move(a));
    archive.add("LTimes", "time", std::move(b));
    return archive;
}

std::string set_text(const ExperimentSet& set) {
    std::ostringstream out;
    save_text(set, out);
    return out.str();
}

std::string archive_text(const Archive& archive) {
    std::ostringstream out;
    save_archive(archive, out);
    return out.str();
}

std::vector<char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ExperimentSet random_set(xpcore::Rng& rng) {
    const std::size_t arity = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::vector<std::string> names;
    for (std::size_t i = 0; i < arity; ++i) names.push_back("p" + std::to_string(i));
    ExperimentSet set(names);
    const int rows = static_cast<int>(rng.uniform_int(1, 12));
    for (int r = 0; r < rows; ++r) {
        Coordinate point;
        for (std::size_t i = 0; i < arity; ++i) point.push_back(rng.uniform(1.0, 1e6));
        std::vector<double> values;
        const int reps = static_cast<int>(rng.uniform_int(1, 5));
        for (int v = 0; v < reps; ++v) {
            switch (rng.uniform_int(0, 3)) {
                case 0: values.push_back(rng.uniform(-1e9, 1e9)); break;
                case 1: values.push_back(rng.uniform(-1e-9, 1e-9)); break;
                case 2: values.push_back(0.0); break;
                default: values.push_back(rng.normal(0.0, 1.0)); break;
            }
        }
        set.add(point, values);
    }
    return set;
}

// ---------------------------------------------------------------------------
// Round trips

TEST(BinaryArchive, SetRoundTripIsByteIdenticalText) {
    ScratchDir scratch;
    xpcore::Rng rng(7);
    for (int iter = 0; iter < 50; ++iter) {
        const ExperimentSet original = random_set(rng);
        const std::string path = scratch.path("set.arch");
        save_binary_file(original, path);
        const ExperimentSet loaded = load_binary_set_file(path);
        EXPECT_EQ(set_text(loaded), set_text(original));
    }
}

TEST(BinaryArchive, ArchiveRoundTripIsByteIdenticalText) {
    ScratchDir scratch;
    const Archive original = small_archive();
    const std::string path = scratch.path("multi.arch");
    save_binary_file(original, path);
    const Archive loaded = load_binary_archive_file(path);
    EXPECT_EQ(archive_text(loaded), archive_text(original));
}

TEST(BinaryArchive, StreamedCampaignRoundTripIsByteIdenticalText) {
    // A 20-kernel x 150-point x 20-repetition campaign: parsed from text,
    // then streamed into a binary archive one append commit per kernel,
    // the binary re-serializes to the identical text.
    ScratchDir scratch;
    xpcore::Rng rng(7);
    Archive campaign({"p0", "p1"});
    for (int kernel = 0; kernel < 20; ++kernel) {
        ExperimentSet set({"p0", "p1"});
        for (int i = 0; i < 150; ++i) {
            const double p0 = 2 + i % 96, p1 = 2 + (i + 7) % 96;
            std::vector<double> values;
            for (int r = 0; r < 20; ++r) {
                values.push_back(p0 * p1 * (1 + 0.1 * rng.uniform(-1, 1)));
            }
            set.add({p0, p1}, values);
        }
        campaign.add("kernel" + std::to_string(kernel), "time", std::move(set));
    }
    const std::string text_path = scratch.path("campaign.txt");
    save_archive_file(campaign, text_path);
    const Archive from_text = load_archive_file(text_path);
    const std::string binary_path = scratch.path("campaign.arch");
    for (const ArchiveEntry& entry : from_text.entries()) {
        append_binary_file(binary_path, entry.kernel, entry.metric, entry.experiments);
    }
    EXPECT_EQ(archive_text(load_binary_archive_file(binary_path)), archive_text(from_text));
}

TEST(BinaryArchive, EmptySetRoundTrips) {
    ScratchDir scratch;
    const ExperimentSet empty({"x", "y", "z"});
    const std::string path = scratch.path("empty.arch");
    save_binary_file(empty, path);
    const ExperimentSet loaded = load_binary_set_file(path);
    EXPECT_EQ(loaded.parameter_names(), empty.parameter_names());
    EXPECT_TRUE(loaded.empty());
}

TEST(BinaryArchive, SaveAtomicallyReplacesExistingFile) {
    ScratchDir scratch;
    const std::string path = scratch.path("replace.arch");
    save_binary_file(small_set(), path);
    ExperimentSet other({"a"});
    other.add({1}, {2.0});
    save_binary_file(other, path);  // different parameter space entirely
    const ExperimentSet loaded = load_binary_set_file(path);
    EXPECT_EQ(loaded.parameter_names(), other.parameter_names());
    EXPECT_EQ(loaded.size(), 1u);
}

TEST(BinaryArchive, ShapeFlagIsEnforcedBothWays) {
    ScratchDir scratch;
    const std::string set_path = scratch.path("set.arch");
    const std::string arch_path = scratch.path("multi.arch");
    save_binary_file(small_set(), set_path);
    save_binary_file(small_archive(), arch_path);
    EXPECT_THROW(load_binary_archive_file(set_path), xpcore::ValidationError);
    EXPECT_THROW(load_binary_set_file(arch_path), xpcore::ValidationError);
}

// ---------------------------------------------------------------------------
// Zero-copy reader properties

TEST(BinaryArchive, ReaderViewsAre64ByteAligned) {
    ScratchDir scratch;
    const std::string path = scratch.path("aligned.arch");
    save_binary_file(small_archive(), path);
    auto reader = xarch::Reader::open(path);
    ASSERT_EQ(reader.section_count(), 2u);
    for (std::size_t s = 0; s < reader.section_count(); ++s) {
        const auto view = reader.section(s);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.value_offsets.data()) % 64, 0u);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.points.data()) % 64, 0u);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.values.data()) % 64, 0u);
    }
}

TEST(BinaryArchive, ReaderSurvivesConcurrentCommitReplacingThePath) {
    ScratchDir scratch;
    const std::string path = scratch.path("live.arch");
    ExperimentSet batch({"p"});
    batch.add({1}, {1.0});
    append_binary_set_file(path, batch);
    auto reader = xarch::Reader::open(path);
    const auto before = reader.section(0).values[0];
    // A concurrent append renames a new image over the path; the old
    // mapping must stay valid and unchanged.
    ExperimentSet more({"p"});
    more.add({2}, {99.0});
    append_binary_set_file(path, more);
    EXPECT_EQ(reader.section_count(), 1u);
    EXPECT_EQ(reader.section(0).values[0], before);
    auto reopened = xarch::Reader::open(path);
    EXPECT_EQ(reopened.total_measurements(), 2u);
}

// ---------------------------------------------------------------------------
// Streaming append

TEST(BinaryArchive, AppendAccumulatesAcrossWriterLifetimes) {
    ScratchDir scratch;
    const std::string path = scratch.path("stream.arch");
    ExperimentSet first({"p", "n"});
    first.add({1, 10}, {0.1, 0.11});
    ExperimentSet second({"p", "n"});
    second.add({2, 10}, {0.2});
    second.add({3, 10}, {0.3, 0.31, 0.32});

    auto r1 = append_binary_file(path, "K", "time", first);
    EXPECT_EQ(r1.status, xarch::Writer::OpenStatus::Created);
    EXPECT_EQ(r1.total, 1u);
    auto r2 = append_binary_file(path, "K", "time", second);
    EXPECT_EQ(r2.status, xarch::Writer::OpenStatus::Appending);
    EXPECT_EQ(r2.appended, 2u);
    EXPECT_EQ(r2.total, 3u);

    // Materialization concatenates the two append batches in order.
    const Archive merged = load_binary_archive_file(path);
    ASSERT_EQ(merged.size(), 1u);
    const auto& entry = merged.entries().front();
    ASSERT_EQ(entry.experiments.size(), 3u);
    EXPECT_EQ(entry.experiments.measurements()[0].values, first.measurements()[0].values);
    EXPECT_EQ(entry.experiments.measurements()[2].values, second.measurements()[1].values);
}

TEST(BinaryArchive, AppendInterleavesKernelsByFirstOccurrence) {
    ScratchDir scratch;
    const std::string path = scratch.path("interleave.arch");
    ExperimentSet a({"p"});
    a.add({1}, {1.0});
    ExperimentSet b({"p"});
    b.add({1}, {2.0});
    ExperimentSet a2({"p"});
    a2.add({2}, {3.0});
    append_binary_file(path, "A", "time", a);
    append_binary_file(path, "B", "time", b);
    append_binary_file(path, "A", "time", a2);
    const Archive merged = load_binary_archive_file(path);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.entries()[0].kernel, "A");
    EXPECT_EQ(merged.entries()[0].experiments.size(), 2u);
    EXPECT_EQ(merged.entries()[1].kernel, "B");
}

TEST(BinaryArchive, AppendRejectsParameterMismatchWithoutDestroyingData) {
    ScratchDir scratch;
    const std::string path = scratch.path("mismatch.arch");
    ExperimentSet good({"p", "n"});
    good.add({1, 2}, {1.0});
    append_binary_file(path, "K", "time", good);
    ExperimentSet wrong({"q"});
    wrong.add({1}, {1.0});
    EXPECT_THROW(append_binary_file(path, "K", "time", wrong), xpcore::ValidationError);
    // The healthy archive is untouched — no repair, no .corrupt file.
    EXPECT_FALSE(fs::exists(path + ".corrupt"));
    EXPECT_EQ(load_binary_archive_file(path).entries().front().experiments.size(), 1u);
}

TEST(BinaryArchive, WriterRejectsMalformedStagedSections) {
    ScratchDir scratch;
    xarch::Writer writer(scratch.path("w.arch"), {"p"});
    xarch::PendingSection empty_reps;
    empty_reps.kernel = "K";
    empty_reps.metric = "time";
    empty_reps.value_offsets = {0, 0};  // a measurement with no repetitions
    empty_reps.points = {1.0};
    EXPECT_THROW(writer.stage(empty_reps), xpcore::ValidationError);

    xarch::PendingSection bad_points;
    bad_points.kernel = "K";
    bad_points.metric = "time";
    bad_points.value_offsets = {0, 1};
    bad_points.points = {1.0, 2.0};  // arity 1 but two coordinates
    bad_points.values = {1.0};
    EXPECT_THROW(writer.stage(bad_points), xpcore::ValidationError);

    xarch::PendingSection non_finite;
    non_finite.kernel = "K";
    non_finite.metric = "time";
    non_finite.value_offsets = {0, 1};
    non_finite.points = {1.0};
    non_finite.values = {std::numeric_limits<double>::infinity()};
    EXPECT_THROW(writer.stage(non_finite), xpcore::ValidationError);
}

// ---------------------------------------------------------------------------
// Miss + repair and the typed-error contract

TEST(BinaryArchive, GoldenBadFilesRaiseTypedErrors) {
    EXPECT_THROW(xarch::Reader::open(data_path("arch_bad_magic.arch")), xpcore::ParseError);
    EXPECT_THROW(xarch::Reader::open(data_path("arch_truncated_header.arch")),
                 xpcore::ParseError);
    EXPECT_THROW(xarch::Reader::open(data_path("arch_truncated_payload.arch")),
                 xpcore::ParseError);
    EXPECT_THROW(xarch::Reader::open(data_path("arch_version_skew.arch")),
                 xpcore::ValidationError);
    EXPECT_THROW(xarch::Reader::open(data_path("arch_corrupt_payload.arch")),
                 xpcore::ValidationError);
}

TEST(BinaryArchive, GoldenBadFileDiagnosticsCarryTheSource) {
    try {
        xarch::Reader::open(data_path("arch_version_skew.arch"));
        FAIL() << "version skew must not load";
    } catch (const xpcore::ValidationError& e) {
        EXPECT_EQ(e.source(), data_path("arch_version_skew.arch"));
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
}

TEST(BinaryArchive, WriterRepairsEveryGoldenBadFile) {
    for (const std::string name :
         {"arch_bad_magic.arch", "arch_truncated_header.arch",
          "arch_truncated_payload.arch", "arch_version_skew.arch",
          "arch_corrupt_payload.arch"}) {
        ScratchDir scratch;
        const std::string path = scratch.path("damaged.arch");
        spit(path, slurp(data_path(name)));
        xarch::Writer writer(path, {"p", "n"});
        EXPECT_EQ(writer.status(), xarch::Writer::OpenStatus::Repaired) << name;
        EXPECT_TRUE(fs::exists(path + ".corrupt")) << name;
        // The repaired writer starts a fresh, loadable archive.
        ExperimentSet batch({"p", "n"});
        batch.add({1, 2}, {1.0});
        writer.stage(to_section("K", "time", batch));
        writer.commit();
        EXPECT_EQ(load_binary_archive_file(path).size(), 1u) << name;
    }
}

TEST(BinaryArchive, TruncationAnywhereIsATypedError) {
    ScratchDir scratch;
    const std::string path = scratch.path("full.arch");
    save_binary_file(small_archive(), path);
    const auto bytes = slurp(path);
    for (std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{127},
                            std::size_t{128}, bytes.size() / 2, bytes.size() - 1}) {
        const std::string cut_path = scratch.path("cut.arch");
        spit(cut_path, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
        EXPECT_THROW(xarch::Reader::open(cut_path), xpcore::ParseError) << "cut=" << cut;
    }
}

TEST(BinaryArchive, TryLoadersReturnDiagnosticsInsteadOfThrowing) {
    const auto result = try_load_binary_archive_file(data_path("arch_corrupt_payload.arch"));
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].source, data_path("arch_corrupt_payload.arch"));
}

// ---------------------------------------------------------------------------
// Sniffing and format-agnostic loads

TEST(BinaryArchive, SniffRoutesBothFormats) {
    ScratchDir scratch;
    const std::string bin_path = scratch.path("set.arch");
    const std::string text_path = scratch.path("set.txt");
    save_binary_file(small_set(), bin_path);
    save_text_file(small_set(), text_path);
    EXPECT_TRUE(is_binary_file(bin_path));
    EXPECT_FALSE(is_binary_file(text_path));
    EXPECT_FALSE(is_binary_file(scratch.path("missing.arch")));

    const auto from_binary = try_load_set_file_any(bin_path);
    const auto from_text = try_load_set_file_any(text_path);
    ASSERT_TRUE(from_binary.ok());
    ASSERT_TRUE(from_text.ok());
    EXPECT_EQ(set_text(*from_binary.set), set_text(*from_text.set));
}

TEST(BinaryArchive, GoldenGoodFileLoadsAndMatchesItsTextTwin) {
    const auto binary = try_load_archive_file_any(data_path("arch_good.arch"));
    ASSERT_TRUE(binary.ok());
    const auto text = try_load_archive_file_any(data_path("arch_good.txt"));
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(archive_text(*binary.archive), archive_text(*text.archive));
}

}  // namespace

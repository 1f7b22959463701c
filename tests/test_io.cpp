// Tests for the experiment-set text format: round trips, strictness rules,
// and the structured diagnostics every rejection must carry.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "measure/io.hpp"
#include "xpcore/error.hpp"
#include "xpcore/rng.hpp"

namespace {

using namespace measure;

TEST(Io, RoundTrip) {
    ExperimentSet set({"p", "n"});
    set.add({8.0, 1024.0}, {1.25, 1.5, 1.125});
    set.add({16.0, 1024.0}, {2.5});
    std::stringstream buffer;
    save_text(set, buffer);
    const auto loaded = load_text(buffer);
    ASSERT_EQ(loaded.parameter_names(), set.parameter_names());
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.measurements()[0].point, (Coordinate{8.0, 1024.0}));
    EXPECT_EQ(loaded.measurements()[0].values, (std::vector<double>{1.25, 1.5, 1.125}));
    EXPECT_EQ(loaded.measurements()[1].values, (std::vector<double>{2.5}));
}

TEST(Io, RoundTripPreservesPrecision) {
    ExperimentSet set({"x"});
    set.add({3.0}, {0.1234567890123456789, 1e-17});
    std::stringstream buffer;
    save_text(set, buffer);
    const auto loaded = load_text(buffer);
    EXPECT_DOUBLE_EQ(loaded.measurements()[0].values[0], 0.1234567890123456789);
    EXPECT_DOUBLE_EQ(loaded.measurements()[0].values[1], 1e-17);
}

TEST(Io, IgnoresCommentsAndBlankLines) {
    std::stringstream in("# heading\n\nparams: p\n# a data comment\n2 : 1.5\n\n4 : 2.5\n");
    const auto set = load_text(in);
    EXPECT_EQ(set.size(), 2u);
}

TEST(Io, AcceptsIndentedCommentsAndWhitespaceLines) {
    std::stringstream in("params: p\n   # indented comment\n2 : 1.5\n   \t\n4 : 2.5\n");
    const auto set = load_text(in);
    EXPECT_EQ(set.size(), 2u);
}

TEST(Io, AcceptsLeadingAndTrailingBlanksOnDataRows) {
    std::stringstream in("params: p\n  2 : 1.5   \n\t4 : 2.5\t\n");
    const auto set = load_text(in);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.measurements()[1].point, (Coordinate{4.0}));
}

TEST(Io, AcceptsExplicitPlusSign) {
    std::stringstream in("params: p\n+2 : +1.5 +3e2\n");
    const auto set = load_text(in);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set.measurements()[0].point, (Coordinate{2.0}));
    EXPECT_EQ(set.measurements()[0].values, (std::vector<double>{1.5, 300.0}));
}

// ---------------------------------------------------------------------------
// CRLF (Windows-saved) files. The seed parser choked on the '\r' left on
// "blank" lines and treated it as a data row missing its ':' separator.

TEST(Io, CrlfDataLinesLoad) {
    std::stringstream in("params: p\r\n2 : 1.5\r\n4 : 2.5\r\n");
    const auto set = load_text(in);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.measurements()[0].values, (std::vector<double>{1.5}));
}

TEST(Io, CrlfBlankAndCommentLinesIgnored) {
    // A bare "\r\n" line used to throw "missing ':' separator".
    std::stringstream in("# saved on Windows\r\n\r\nparams: p\r\n\r\n2 : 1.5\r\n\r\n4 : 2.5\r\n");
    const auto set = load_text(in);
    EXPECT_EQ(set.size(), 2u);
}

TEST(Io, CrlfRoundTripsBitExact) {
    std::stringstream in("params: p\r\n2 : 0.1234567890123456789\r\n");
    const auto set = load_text(in);
    std::stringstream lf_in("params: p\n2 : 0.1234567890123456789\n");
    const auto lf_set = load_text(lf_in);
    ASSERT_EQ(set.size(), lf_set.size());
    EXPECT_EQ(set.measurements()[0].point, lf_set.measurements()[0].point);
    EXPECT_EQ(set.measurements()[0].values, lf_set.measurements()[0].values);
}

// ---------------------------------------------------------------------------
// Structured diagnostics: every rejection names source, line, and column.

TEST(Io, MissingHeaderIsParseErrorWithLocation) {
    std::stringstream in("2 : 1.5\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ParseError";
    } catch (const xpcore::ParseError& e) {
        EXPECT_EQ(e.source(), "<stream>");
        EXPECT_EQ(e.line(), 1u);
        EXPECT_NE(std::string(e.what()).find("params:"), std::string::npos);
    }
}

TEST(Io, EmptyInputIsParseError) {
    std::stringstream in("");
    EXPECT_THROW(load_text(in), xpcore::ParseError);
}

TEST(Io, HeaderWithoutParametersIsValidationError) {
    std::stringstream in("params:\n2 : 1.5\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ValidationError";
    } catch (const xpcore::ValidationError& e) {
        EXPECT_EQ(e.line(), 1u);
        EXPECT_NE(std::string(e.what()).find("parameters"), std::string::npos);
    }
}

TEST(Io, MissingColonIsParseError) {
    std::stringstream in("params: p\n2 1.5\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ParseError";
    } catch (const xpcore::ParseError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find(":"), std::string::npos);
    }
}

TEST(Io, ArityMismatchIsValidationError) {
    std::stringstream in("params: p n\n2 : 1.5\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ValidationError";
    } catch (const xpcore::ValidationError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("arity"), std::string::npos);
    }
}

TEST(Io, MalformedNumberIsParseErrorWithColumn) {
    std::stringstream in("params: p\n2 : 1.5 4x7\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ParseError";
    } catch (const xpcore::ParseError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_EQ(e.column(), 9u);  // "4x7" starts at column 9
        EXPECT_NE(std::string(e.what()).find("4x7"), std::string::npos);
    }
}

TEST(Io, NoRepetitionsIsValidationError) {
    std::stringstream in("params: p\n2 :\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ValidationError";
    } catch (const xpcore::ValidationError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("repetition"), std::string::npos);
    }
}

TEST(Io, NanValueIsValidationError) {
    std::stringstream in("params: p\n2 : nan\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ValidationError";
    } catch (const xpcore::ValidationError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_EQ(e.column(), 5u);
        EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
    }
}

TEST(Io, InfCoordinateIsValidationError) {
    std::stringstream in("params: p\ninf : 1.5\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ValidationError";
    } catch (const xpcore::ValidationError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_EQ(e.column(), 1u);
    }
}

TEST(Io, OverflowingValueIsValidationError) {
    std::stringstream in("params: p\n2 : 1e999\n");
    try {
        load_text(in);
        FAIL() << "expected xpcore::ValidationError";
    } catch (const xpcore::ValidationError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_EQ(e.column(), 5u);
        EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
    }
}

TEST(Io, ErrorMessageCarriesSourceLineAndColumn) {
    std::stringstream in("params: p\n2 : 1.0\nbroken-line\n");
    try {
        load_text(in, "myfile.txt");
        FAIL() << "expected xpcore::Error";
    } catch (const xpcore::Error& e) {
        EXPECT_EQ(e.source(), "myfile.txt");
        EXPECT_EQ(e.line(), 3u);
        EXPECT_NE(std::string(e.what()).find("myfile.txt:3:"), std::string::npos);
    }
}

// Legacy interface contract: everything still derives from runtime_error.
TEST(Io, StructuredErrorsAreRuntimeErrors) {
    std::stringstream in("params: p\n2 1.5\n");
    EXPECT_THROW(load_text(in), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Non-throwing batch ingestion.

TEST(Io, TryLoadOkOnCleanInput) {
    std::stringstream in("params: p\n2 : 1.5\n4 : 2.5\n");
    const auto result = try_load_text(in);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.diagnostics.empty());
    EXPECT_EQ(result.set->size(), 2u);
}

TEST(Io, TryLoadCollectsAllRowDiagnostics) {
    std::stringstream in("params: p\n2 : 1.5\nbad row\n4 : nan\n8 : 3.5\n16 32 : 1\n");
    const auto result = try_load_text(in, "batch.txt");
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.diagnostics.size(), 3u);
    EXPECT_EQ(result.diagnostics[0].line, 3u);
    EXPECT_EQ(result.diagnostics[1].line, 4u);
    EXPECT_EQ(result.diagnostics[2].line, 6u);
    for (const auto& diagnostic : result.diagnostics) {
        EXPECT_EQ(diagnostic.source, "batch.txt");
        EXPECT_FALSE(diagnostic.message.empty());
    }
}

TEST(Io, TryLoadNeverReturnsPartialSets) {
    // All-or-nothing: one bad row poisons the whole set so data cannot be
    // silently dropped.
    std::stringstream in("params: p\n2 : 1.5\nbad row\n");
    const auto result = try_load_text(in);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.set.has_value());
}

TEST(Io, TryLoadHeaderFailureYieldsSingleDiagnostic) {
    std::stringstream in("not-a-header\n2 : 1.5\n");
    const auto result = try_load_text(in);
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].line, 1u);
}

TEST(Io, TryLoadMissingFileYieldsDiagnostic) {
    const auto result = try_load_text_file("/nonexistent/path/file.txt");
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].source, "/nonexistent/path/file.txt");
    EXPECT_NE(result.diagnostics[0].message.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden corpus of known-bad (and known-good) files under tests/data/.

struct CorpusCase {
    const char* file;
    std::size_t line;     ///< expected diagnostic line (0 = don't check)
    std::size_t column;   ///< expected diagnostic column (0 = don't check)
    const char* message;  ///< substring the diagnostic must contain
};

// gtest puts the printed parameter into every listed test name. Its default
// byte dump would include the address of `file`, which differs per process
// under ASLR, so the test names would change on every build. The name
// already carries the file, so print the expected line:column.
void PrintTo(const CorpusCase& c, std::ostream* os) {
    *os << c.line << ':' << c.column;
}

class IoBadCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(IoBadCorpus, RejectsWithStructuredDiagnostic) {
    const auto& c = GetParam();
    const std::string path = std::string(XPDNN_TEST_DATA_DIR) + "/" + c.file;
    const auto result = try_load_text_file(path);
    ASSERT_FALSE(result.ok()) << path << " unexpectedly loaded";
    ASSERT_FALSE(result.diagnostics.empty());
    const auto& diagnostic = result.diagnostics.front();
    EXPECT_EQ(diagnostic.source, path);
    if (c.line > 0) EXPECT_EQ(diagnostic.line, c.line) << diagnostic.format();
    if (c.column > 0) EXPECT_EQ(diagnostic.column, c.column) << diagnostic.format();
    EXPECT_NE(diagnostic.message.find(c.message), std::string::npos) << diagnostic.format();
    // The throwing interface must agree with the collecting one.
    EXPECT_THROW(load_text_file(path), xpcore::Error);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, IoBadCorpus,
    ::testing::Values(CorpusCase{"bad_no_header.txt", 1, 1, "params:"},
                      CorpusCase{"bad_empty_header.txt", 1, 1, "parameters"},
                      CorpusCase{"bad_missing_colon.txt", 2, 1, "':' separator"},
                      CorpusCase{"bad_malformed_number.txt", 2, 1, "malformed numeric"},
                      CorpusCase{"bad_arity.txt", 2, 1, "arity"},
                      CorpusCase{"bad_no_values.txt", 2, 3, "repetition"},
                      CorpusCase{"bad_nan.txt", 2, 5, "non-finite"},
                      CorpusCase{"bad_inf.txt", 3, 5, "non-finite"},
                      CorpusCase{"bad_overflow.txt", 2, 5, "out of range"}),
    [](const auto& info) {
        std::string name = info.param.file;
        name = name.substr(0, name.find('.'));
        return name;
    });

TEST(IoGoodCorpus, CrlfFixtureLoads) {
    const std::string path = std::string(XPDNN_TEST_DATA_DIR) + "/good_crlf.txt";
    const auto set = load_text_file(path);
    EXPECT_EQ(set.size(), 3u);
    EXPECT_EQ(set.parameter_names(), (std::vector<std::string>{"p", "n"}));
}

/// Property: arbitrary generated experiment sets survive a round trip.
class IoRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(IoRoundTripProperty, RandomSetsAreStable) {
    xpcore::Rng rng(GetParam());
    const std::size_t params = 1 + GetParam() % 3;
    std::vector<std::string> names;
    for (std::size_t l = 0; l < params; ++l) names.push_back("p" + std::to_string(l));
    ExperimentSet set(names);
    const std::size_t points = 1 + static_cast<std::size_t>(rng.uniform_int(1, 20));
    for (std::size_t i = 0; i < points; ++i) {
        Coordinate point(params);
        for (auto& x : point) x = std::round(rng.uniform(1, 1e6));
        std::vector<double> values(1 + static_cast<std::size_t>(rng.uniform_int(0, 4)));
        for (auto& v : values) v = rng.uniform(1e-9, 1e9);
        set.add(std::move(point), std::move(values));
    }

    std::stringstream buffer;
    save_text(set, buffer);
    const auto loaded = load_text(buffer);
    ASSERT_EQ(loaded.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(loaded.measurements()[i].point, set.measurements()[i].point);
        EXPECT_EQ(loaded.measurements()[i].values, set.measurements()[i].values);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripProperty, ::testing::Range(1, 11));

TEST(Io, FileRoundTrip) {
    ExperimentSet set({"p"});
    set.add({2.0}, {1.0, 2.0});
    const std::string path = ::testing::TempDir() + "/xpdnn_io_test.txt";
    save_text_file(set, path);
    const auto loaded = load_text_file(path);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.parameter_names(), std::vector<std::string>{"p"});
}

TEST(Io, MissingFileThrows) {
    EXPECT_THROW(load_text_file("/nonexistent/path/file.txt"), std::runtime_error);
}

}  // namespace

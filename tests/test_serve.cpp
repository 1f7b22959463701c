// Tests for the xpdnnd modeling daemon (src/serve): protocol decoding,
// verb round trips, byte-identity of daemon reports with the CLI's
// --report=json output, queue backpressure, per-request deadlines,
// graceful drain under load, and cross-worker determinism.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "measure/binary.hpp"
#include "measure/io.hpp"
#include "noise/injector.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "xpcore/error.hpp"
#include "xpcore/rng.hpp"

namespace {

/// The linear test problem f(p) = 2 + 3p, exact repetitions — regression
/// models it instantly and reproducibly.
std::string linear_measurements_text() {
    std::string text = "params: p\n";
    for (const int p : {4, 8, 16, 32, 64}) {
        const std::string v = std::to_string(2 + 3 * p);
        text += std::to_string(p) + " : " + v + " " + v + " " + v + "\n";
    }
    return text;
}

/// The same text with '\n' escaped for embedding in a JSON string literal.
std::string escaped(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

std::string model_request(const std::string& task, const std::string& modeler,
                          const std::string& id = "") {
    std::string request = "{\"verb\": \"model\"";
    if (!id.empty()) request += ", \"id\": " + id;
    request += ", \"modeler\": \"" + modeler + "\", \"task\": \"" + task +
               "\", \"timings\": false, \"measurements\": \"" +
               escaped(linear_measurements_text()) + "\"}";
    return request;
}

bool is_ok(const std::string& response) {
    return response.rfind("{\"ok\": true", 0) == 0;
}

/// The "code" of a failure envelope, or "" for a success response.
std::string error_code(const std::string& response) {
    const serve::JsonValue document = serve::parse_json(response);
    const serve::JsonValue* error = document.find("error");
    if (error == nullptr) return "";
    const serve::JsonValue* code = error->find("code");
    return code != nullptr ? code->string_value : "";
}

serve::ServerConfig fast_config() {
    serve::ServerConfig config;
    config.workers = 2;
    config.options.use_cache = false;  // hermetic: no cache files
    return config;
}

// ---- protocol decoding ------------------------------------------------------

TEST(ServeProtocol, ParsesFieldsAndDefaults) {
    const serve::Request request = serve::parse_request(
        "{\"verb\": \"model\", \"id\": 7, \"modeler\": \"dnn\", \"task\": \"k\", "
        "\"measurements\": \"m\", \"alternatives\": 2, \"timings\": false, "
        "\"deadline_ms\": 250}");
    EXPECT_EQ(request.verb, "model");
    EXPECT_EQ(request.id_json, "7");
    EXPECT_EQ(request.modeler, "dnn");
    EXPECT_EQ(request.task, "k");
    EXPECT_EQ(request.measurements, "m");
    EXPECT_EQ(request.alternatives, 2u);
    EXPECT_FALSE(request.include_timings);
    EXPECT_EQ(request.deadline_ms, 250);

    const serve::Request defaults = serve::parse_request("{\"verb\": \"ping\"}");
    EXPECT_EQ(defaults.modeler, "adaptive");
    EXPECT_TRUE(defaults.include_timings);
    EXPECT_EQ(defaults.deadline_ms, -1);
    EXPECT_EQ(defaults.id_json, "");
}

TEST(ServeProtocol, IdScalarIsEchoedVerbatim) {
    EXPECT_EQ(serve::parse_request("{\"verb\": \"ping\", \"id\": \"a b\"}").id_json,
              "\"a b\"");
    EXPECT_EQ(serve::parse_request("{\"verb\": \"ping\", \"id\": 1.5}").id_json, "1.5");
    EXPECT_EQ(serve::parse_request("{\"verb\": \"ping\", \"id\": true}").id_json, "true");
    EXPECT_THROW(serve::parse_request("{\"verb\": \"ping\", \"id\": [1]}"),
                 xpcore::ValidationError);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
    EXPECT_THROW(serve::parse_request("not json"), xpcore::ParseError);
    EXPECT_THROW(serve::parse_request("[1, 2]"), xpcore::ValidationError);
    EXPECT_THROW(serve::parse_request("{}"), xpcore::ValidationError);        // no verb
    EXPECT_THROW(serve::parse_request("{\"verb\": \"x\", \"bogus\": 1}"),
                 xpcore::ValidationError);                                    // unknown field
    EXPECT_THROW(serve::parse_request("{\"verb\": 1}"), xpcore::ValidationError);
    EXPECT_THROW(serve::parse_request("{\"verb\": \"predict\", \"point\": [\"a\"]}"),
                 xpcore::ValidationError);
    EXPECT_THROW(serve::parse_request("{\"verb\": \"sleep\", \"ms\": -1}"),
                 xpcore::ValidationError);
}

TEST(ServeProtocol, ErrorEnvelopeShape) {
    const std::string response =
        serve::error_response(serve::ErrorCode::Overloaded, "queue full", "42");
    EXPECT_EQ(response,
              "{\"ok\": false, \"id\": 42, \"error\": {\"code\": \"overloaded\", "
              "\"message\": \"queue full\"}}");
    const std::string anonymous =
        serve::error_response(serve::ErrorCode::ParseError, "bad", "");
    EXPECT_EQ(anonymous.find("\"id\""), std::string::npos);
}

// ---- verb round trips -------------------------------------------------------

TEST(Serve, PingAndModelersRoundTrip) {
    serve::Server server(fast_config());
    serve::Client client(server.bound_port());

    const std::string pong = client.request("{\"verb\": \"ping\", \"id\": 1}", 10'000);
    EXPECT_TRUE(is_ok(pong)) << pong;
    EXPECT_NE(pong.find("\"id\": 1"), std::string::npos);
    EXPECT_NE(pong.find("\"protocol\": 1"), std::string::npos);

    const std::string modelers = client.request("{\"verb\": \"modelers\"}", 10'000);
    EXPECT_TRUE(is_ok(modelers)) << modelers;
    for (const char* name : {"adaptive", "regression", "dnn", "ensemble", "batch", "noise"}) {
        EXPECT_NE(modelers.find("\"name\": \"" + std::string(name) + "\""),
                  std::string::npos)
            << modelers;
    }
}

TEST(Serve, ModelThenPredictFromCachedReport) {
    serve::Server server(fast_config());
    serve::Client client(server.bound_port());

    const std::string modeled =
        client.request(model_request("kernelA", "regression", "\"m1\""), 30'000);
    ASSERT_TRUE(is_ok(modeled)) << modeled;
    EXPECT_NE(modeled.find("\"id\": \"m1\""), std::string::npos);
    EXPECT_NE(modeled.find("\"schema\": \"xpdnn.report\""), std::string::npos);

    const std::string predicted = client.request(
        "{\"verb\": \"predict\", \"task\": \"kernelA\", \"point\": [128]}", 10'000);
    ASSERT_TRUE(is_ok(predicted)) << predicted;
    // f(128) = 2 + 3 * 128 = 386, recovered exactly by the regression path.
    EXPECT_NE(predicted.find("\"prediction\": 386"), std::string::npos) << predicted;
}

TEST(Serve, ConcurrentPredictRoundTripsAllSucceed) {
    // Two connections x 250 predict round trips against one cached task:
    // every reply is ok and the server counts no failed request.
    serve::Server server(fast_config());
    {
        serve::Client client(server.bound_port());
        const std::string modeled = client.request(model_request("hot", "regression"), 30'000);
        ASSERT_TRUE(is_ok(modeled)) << modeled;
    }
    std::vector<std::size_t> failures(2, 0);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < failures.size(); ++c) {
        clients.emplace_back([&, c] {
            try {
                serve::Client client(server.bound_port());
                for (int i = 0; i < 250; ++i) {
                    const std::string reply = client.request(
                        "{\"verb\": \"predict\", \"task\": \"hot\", \"point\": [128]}",
                        30'000);
                    if (!is_ok(reply)) ++failures[c];
                }
            } catch (const std::exception&) {
                ++failures[c];
            }
        });
    }
    for (auto& thread : clients) thread.join();
    EXPECT_EQ(failures, std::vector<std::size_t>(2, 0));
    EXPECT_EQ(server.stats().requests_failed, 0u);
}

TEST(Serve, ErrorEnvelopes) {
    serve::ServerConfig config = fast_config();
    config.workers = 1;
    serve::Server server(config);
    serve::Client client(server.bound_port());

    EXPECT_EQ(error_code(client.request("{\"verb\": \"frobnicate\"}", 10'000)),
              "unknown_verb");
    EXPECT_EQ(error_code(client.request("this is not json", 10'000)), "parse_error");
    EXPECT_EQ(error_code(client.request("{\"verb\": \"ping\", \"bogus\": 1}", 10'000)),
              "bad_request");
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"model\", \"measurements\": \"m\", \"modeler\": \"nope\"}",
                  10'000)),
              "unknown_modeler");
    EXPECT_EQ(error_code(client.request("{\"verb\": \"model\"}", 10'000)),
              "validation_error");
    // Undecodable measurement text: the diagnostic's line:column locates
    // the bad token inside the submitted document.
    const std::string bad_measurements = client.request(
        "{\"verb\": \"model\", \"modeler\": \"regression\", "
        "\"measurements\": \"params: p\\n4 : oops\\n\"}",
        10'000);
    EXPECT_EQ(error_code(bad_measurements), "parse_error");
    EXPECT_NE(bad_measurements.find("<measurements>:2"), std::string::npos)
        << bad_measurements;
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"predict\", \"task\": \"never\", \"point\": [1]}", 10'000)),
              "unknown_task");

    // Arity mismatch against a cached 1-parameter model.
    ASSERT_TRUE(is_ok(client.request(model_request("t", "regression"), 30'000)));
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"predict\", \"task\": \"t\", \"point\": [1, 2]}", 10'000)),
              "validation_error");
}

// ---- byte-identity with the CLI ---------------------------------------------

TEST(Serve, ReportIsByteIdenticalToCliReportJson) {
    // Same measurements through both front ends. Timings are wall-clock and
    // can never agree, so both sides zero them: --no-timings on the CLI,
    // "timings": false on the wire. Everything else — schema, config hash,
    // noise, model, formatting — must agree to the byte.
    const std::string path = ::testing::TempDir() + "/xpdnn_serve_identity_" +
                             std::to_string(::getpid()) + ".txt";
    std::ofstream(path) << linear_measurements_text();

    std::vector<std::string> argv_strings = {"xpdnn",           "model",
                                             path,              "--modeler=regression",
                                             "--report=json",   "--no-timings"};
    std::vector<const char*> argv;
    for (const auto& s : argv_strings) argv.push_back(s.c_str());
    std::ostringstream cli_out, cli_err;
    ASSERT_EQ(cli::run(static_cast<int>(argv.size()), argv.data(), cli_out, cli_err), 0)
        << cli_err.str();
    std::string cli_report = cli_out.str();
    ASSERT_FALSE(cli_report.empty());
    ASSERT_EQ(cli_report.back(), '\n');
    cli_report.pop_back();

    serve::ServerConfig config;
    config.workers = 1;
    config.options = modeling::Options{};  // == Options::from_args with no flags
    serve::Server server(config);
    serve::Client client(server.bound_port());
    const std::string response =
        client.request("{\"verb\": \"model\", \"modeler\": \"regression\", "
                       "\"timings\": false, \"measurements\": \"" +
                           escaped(linear_measurements_text()) + "\"}",
                       30'000);
    ASSERT_TRUE(is_ok(response)) << response;

    // "report" is the response's final key; strip the envelope around it.
    const std::string marker = "\"report\": ";
    const std::size_t at = response.find(marker);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(response.back(), '}');
    const std::string daemon_report =
        response.substr(at + marker.size(), response.size() - at - marker.size() - 1);

    EXPECT_EQ(daemon_report, cli_report);
    std::filesystem::remove(path);
}

// ---- archive-backed modeling and streaming ingestion ------------------------

/// Extract the byte-exact report document from a model/ingest response
/// ("report" is always the final key).
std::string report_of(const std::string& response) {
    const std::string marker = "\"report\": ";
    const std::size_t at = response.find(marker);
    if (at == std::string::npos || response.empty() || response.back() != '}') return "";
    return response.substr(at + marker.size(), response.size() - at - marker.size() - 1);
}

/// A fresh per-test scratch directory (removed on destruction).
struct ServeScratchDir {
    std::filesystem::path path;
    ServeScratchDir() {
        static int counter = 0;
        path = std::filesystem::path(::testing::TempDir()) /
               ("xpdnn_serve_arch_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        std::filesystem::create_directories(path);
    }
    ~ServeScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

TEST(Serve, ModelFromArchivePathMatchesInlineText) {
    ServeScratchDir scratch;
    const std::string arch = (scratch.path / "linear.arch").string();
    {
        std::istringstream stream(linear_measurements_text());
        measure::ExperimentSet set = measure::load_text(stream, "<linear>");
        measure::save_binary_file(set, arch);
    }

    serve::ServerConfig config = fast_config();
    config.workers = 1;
    serve::Server server(config);
    serve::Client client(server.bound_port());

    const std::string inline_response =
        client.request(model_request("", "regression"), 30'000);
    ASSERT_TRUE(is_ok(inline_response)) << inline_response;
    const std::string archive_response = client.request(
        "{\"verb\": \"model\", \"modeler\": \"regression\", \"timings\": false, "
        "\"archive\": " + serve::json_quote(arch) + "}",
        30'000);
    ASSERT_TRUE(is_ok(archive_response)) << archive_response;

    // The mmap-backed load must feed the modeler the same bytes the inline
    // text path does: the reports agree exactly.
    EXPECT_EQ(report_of(archive_response), report_of(inline_response));

    // A multi-kernel archive requires kernel/metric to select the entry.
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"model\", \"archive\": " + serve::json_quote(arch) +
                      ", \"kernel\": \"nope\", \"metric\": \"time\"}",
                  30'000)),
              "validation_error");  // single-set file opened as multi-kernel
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"model\", \"archive\": " +
                      serve::json_quote((scratch.path / "missing.arch").string()) + "}",
                  10'000)),
              "validation_error");
}

TEST(Serve, IngestCreatesAppendsRepairsAndRemodels) {
    ServeScratchDir scratch;
    const std::string arch = (scratch.path / "live.arch").string();
    const std::string batch = escaped(linear_measurements_text());

    serve::ServerConfig config = fast_config();
    config.workers = 1;
    serve::Server server(config);
    serve::Client client(server.bound_port());

    // First batch creates the archive; no remodel requested.
    const std::string created = client.request(
        "{\"verb\": \"ingest\", \"archive\": " + serve::json_quote(arch) +
            ", \"kernel\": \"lin\", \"metric\": \"time\", \"remodel\": false, "
            "\"measurements\": \"" + batch + "\"}",
        30'000);
    ASSERT_TRUE(is_ok(created)) << created;
    EXPECT_NE(created.find("\"status\": \"created\""), std::string::npos) << created;
    EXPECT_NE(created.find("\"appended\": 5"), std::string::npos) << created;
    EXPECT_NE(created.find("\"total\": 5"), std::string::npos) << created;
    EXPECT_EQ(report_of(created), "");

    // Second batch appends and re-models the touched entry; the report
    // covers both batches (10 coordinate rows), is cached under the task,
    // and "predict" serves from it.
    const std::string appended = client.request(
        "{\"verb\": \"ingest\", \"archive\": " + serve::json_quote(arch) +
            ", \"kernel\": \"lin\", \"metric\": \"time\", \"task\": \"lin\", "
            "\"modeler\": \"regression\", \"timings\": false, "
            "\"measurements\": \"" + batch + "\"}",
        30'000);
    ASSERT_TRUE(is_ok(appended)) << appended;
    EXPECT_NE(appended.find("\"status\": \"appended\""), std::string::npos) << appended;
    EXPECT_NE(appended.find("\"total\": 10"), std::string::npos) << appended;
    EXPECT_NE(report_of(appended).find("\"schema\": \"xpdnn.report\""), std::string::npos)
        << appended;
    const std::string predicted = client.request(
        "{\"verb\": \"predict\", \"task\": \"lin\", \"point\": [128]}", 10'000);
    ASSERT_TRUE(is_ok(predicted)) << predicted;
    EXPECT_NE(predicted.find("\"prediction\": 386"), std::string::npos) << predicted;

    // Clobber the archive: the next ingest moves the corrupt file aside
    // and starts fresh instead of failing.
    std::ofstream(arch, std::ios::trunc) << "garbage";
    const std::string repaired = client.request(
        "{\"verb\": \"ingest\", \"archive\": " + serve::json_quote(arch) +
            ", \"kernel\": \"lin\", \"metric\": \"time\", \"remodel\": false, "
            "\"measurements\": \"" + batch + "\"}",
        30'000);
    ASSERT_TRUE(is_ok(repaired)) << repaired;
    EXPECT_NE(repaired.find("\"status\": \"repaired\""), std::string::npos) << repaired;
    EXPECT_NE(repaired.find("\"total\": 5"), std::string::npos) << repaired;
    EXPECT_TRUE(std::filesystem::exists(arch + ".corrupt"));
}

TEST(Serve, IngestAndArchiveValidationErrors) {
    ServeScratchDir scratch;
    serve::ServerConfig config = fast_config();
    config.workers = 1;
    serve::Server server(config);
    serve::Client client(server.bound_port());

    EXPECT_EQ(error_code(client.request("{\"verb\": \"ingest\"}", 10'000)),
              "validation_error");  // no archive
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"ingest\", \"archive\": \"/tmp/x.arch\"}", 10'000)),
              "validation_error");  // no measurements
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"ingest\", \"archive\": \"/tmp/x.arch\", "
                  "\"kernel\": \"k\", \"measurements\": \"params: p\\n1 : 2\\n\"}",
                  10'000)),
              "validation_error");  // kernel without metric
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"model\", \"measurements\": \"m\", "
                  "\"archive\": \"/tmp/x.arch\"}",
                  10'000)),
              "validation_error");  // mutually exclusive sources
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"model\", \"pretrain_noise\": \"made_up\", "
                  "\"modeler\": \"regression\", \"measurements\": \"" +
                      escaped(linear_measurements_text()) + "\"}",
                  10'000)),
              "validation_error");  // unknown noise family
}

TEST(Serve, PretrainNoiseSelectsSessionVariant) {
    serve::ServerConfig config = fast_config();
    config.workers = 1;
    serve::Server server(config);
    serve::Client client(server.bound_port());

    // The server default mix ("uniform") routes to the base session; any
    // other registered mix materializes a worker-local variant. Both must
    // serve the request, and for a regression-modeled task the report is
    // identical either way up to the config hash (the mix joins the
    // fingerprint by design, but only steers the classifier).
    const auto redact_hash = [](std::string report) {
        const std::string key = "\"config_hash\": \"";
        const std::size_t at = report.find(key);
        if (at == std::string::npos) return report;
        const std::size_t end = report.find('"', at + key.size());
        return report.replace(at + key.size(), end - (at + key.size()), "X");
    };
    const std::string base = client.request(
        "{\"verb\": \"model\", \"modeler\": \"regression\", \"timings\": false, "
        "\"pretrain_noise\": \"uniform\", \"measurements\": \"" +
            escaped(linear_measurements_text()) + "\"}",
        30'000);
    ASSERT_TRUE(is_ok(base)) << base;
    const std::string variant = client.request(
        "{\"verb\": \"model\", \"modeler\": \"regression\", \"timings\": false, "
        "\"pretrain_noise\": \"gaussian,lognormal\", \"measurements\": \"" +
            escaped(linear_measurements_text()) + "\"}",
        30'000);
    ASSERT_TRUE(is_ok(variant)) << variant;
    EXPECT_NE(report_of(base), report_of(variant));  // fingerprints differ
    EXPECT_EQ(redact_hash(report_of(base)), redact_hash(report_of(variant)));
}

// ---- backpressure, deadlines, drain ----------------------------------------

TEST(Serve, QueueFullYieldsOverloaded) {
    serve::ServerConfig config = fast_config();
    config.workers = 1;
    config.queue_capacity = 1;
    serve::Server server(config);
    serve::Client client(server.bound_port());

    // Pipeline four requests. The worker grabs one sleep, the 1-slot queue
    // holds one more, the rest must be refused immediately with
    // "overloaded" — correlated by id, since responses interleave.
    for (int id = 1; id <= 3; ++id) {
        client.send("{\"verb\": \"sleep\", \"ms\": 300, \"id\": " + std::to_string(id) + "}");
    }
    client.send("{\"verb\": \"ping\", \"id\": 4}");

    int ok = 0;
    int overloaded = 0;
    for (int i = 0; i < 4; ++i) {
        const std::string response = client.read_response(30'000);
        if (is_ok(response)) {
            ++ok;
        } else {
            EXPECT_EQ(error_code(response), "overloaded") << response;
            ++overloaded;
        }
    }
    // How many sleeps the worker manages to pop before the queue check is
    // scheduling-dependent, but at least one request must be refused and at
    // least the in-flight one must complete.
    EXPECT_GE(overloaded, 1);
    EXPECT_GE(ok, 1);
    EXPECT_EQ(ok + overloaded, 4);
    EXPECT_EQ(server.stats().rejected_overload, static_cast<std::uint64_t>(overloaded));
}

TEST(Serve, QueueWaitPastDeadlineIsRejected) {
    serve::ServerConfig config = fast_config();
    config.workers = 1;
    config.default_deadline_ms = 100;
    serve::Server server(config);
    serve::Client client(server.bound_port());

    // The sleep overrides its own deadline upward, so only the queued ping
    // — stuck behind 400 ms of work with a 100 ms default — expires.
    client.send("{\"verb\": \"sleep\", \"ms\": 400, \"id\": \"work\", \"deadline_ms\": 10000}");
    client.send("{\"verb\": \"ping\", \"id\": \"late\"}");

    int expired = 0;
    for (int i = 0; i < 2; ++i) {
        const std::string response = client.read_response(30'000);
        if (!is_ok(response)) {
            EXPECT_EQ(error_code(response), "deadline_exceeded") << response;
            EXPECT_NE(response.find("\"id\": \"late\""), std::string::npos) << response;
            ++expired;
        }
    }
    EXPECT_EQ(expired, 1);
    EXPECT_EQ(server.stats().rejected_deadline, 1u);
}

TEST(Serve, GracefulDrainFinishesInFlightWork) {
    serve::ServerConfig config = fast_config();
    config.workers = 1;
    serve::Server server(config);
    const std::uint16_t port = server.bound_port();
    serve::Client client(port);

    client.send("{\"verb\": \"sleep\", \"ms\": 300, \"id\": \"inflight\"}");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.request_stop();  // what the SIGTERM handler calls

    // The in-flight request still completes and its response is flushed.
    const std::string response = client.read_response(30'000);
    EXPECT_TRUE(is_ok(response)) << response;
    EXPECT_NE(response.find("\"id\": \"inflight\""), std::string::npos);

    server.wait();
    EXPECT_TRUE(server.stopping());
    // The listener is gone: new connections are refused.
    EXPECT_THROW(serve::Client{port}, std::runtime_error);
}

TEST(Serve, ShutdownVerbDrains) {
    serve::Server server(fast_config());
    serve::Client client(server.bound_port());
    const std::string response = client.request("{\"verb\": \"shutdown\"}", 10'000);
    EXPECT_TRUE(is_ok(response)) << response;
    server.wait();  // must return: the verb triggered the drain
    EXPECT_TRUE(server.stopping());
}

// ---- determinism across workers and request order ---------------------------

TEST(Serve, ConcurrentClientsGetIdenticalReports) {
    // Noisy data + the DNN path, served by two workers with their own
    // sessions: the post-pretrain snapshot/restore must make every response
    // byte-identical no matter which worker answers or in what order, and
    // the two sessions warming the same cache dir concurrently exercises
    // the atomic pretrain store.
    const std::string cache_dir = ::testing::TempDir() + "/xpdnn_serve_cache_" +
                                  std::to_string(::getpid());
    std::filesystem::create_directories(cache_dir);
    ::setenv("XPDNN_CACHE_DIR", cache_dir.c_str(), 1);

    xpcore::Rng rng(3);
    noise::Injector injector(0.10, rng);
    measure::ExperimentSet set({"p"});
    for (double p : {4.0, 8.0, 16.0, 32.0, 64.0}) {
        set.add({p}, injector.repetitions(2.0 + 3.0 * p, 5));
    }
    std::ostringstream text;
    measure::save_text(set, text);

    serve::ServerConfig config;
    config.workers = 2;
    config.options.net_profile = "test-tiny";
    config.options.net.hidden = {32, 16};
    config.options.net.pretrain_samples_per_class = 40;
    config.options.net.pretrain_epochs = 1;
    config.options.net.adapt_samples_per_class = 40;
    serve::Server server(config);

    const std::string request = "{\"verb\": \"model\", \"modeler\": \"dnn\", "
                                "\"timings\": false, \"measurements\": \"" +
                                escaped(text.str()) + "\"}";
    std::vector<std::string> responses(4);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < responses.size(); ++i) {
        clients.emplace_back([&, i] {
            serve::Client client(server.bound_port());
            responses[i] = client.request(request, 120'000);
        });
    }
    for (auto& thread : clients) thread.join();

    for (const std::string& response : responses) {
        ASSERT_TRUE(is_ok(response)) << response;
        EXPECT_EQ(response, responses.front());
    }

    ::unsetenv("XPDNN_CACHE_DIR");
    std::filesystem::remove_all(cache_dir);
}

// ---- CLI front ends ---------------------------------------------------------

TEST(Serve, CliRequestVerbTalksToDaemon) {
    serve::Server server(fast_config());
    std::vector<std::string> argv_strings = {
        "xpdnn", "request", "--port=" + std::to_string(server.bound_port()),
        "{\"verb\": \"ping\"}"};
    std::vector<const char*> argv;
    for (const auto& s : argv_strings) argv.push_back(s.c_str());
    std::ostringstream out, err;
    ASSERT_EQ(cli::run(static_cast<int>(argv.size()), argv.data(), out, err), 0)
        << err.str();
    EXPECT_NE(out.str().find("\"server\": \"xpdnnd\""), std::string::npos) << out.str();
}

TEST(Serve, CliServeVerbRunsAndDrains) {
    // --drain-after-ms exercises the daemon entry point (flag parsing,
    // listening banner, drain, stats line) without process signalling.
    std::vector<std::string> argv_strings = {"xpdnn",     "serve",
                                             "--port=0",  "--workers=1",
                                             "--no-warm", "--drain-after-ms=200"};
    std::vector<const char*> argv;
    for (const auto& s : argv_strings) argv.push_back(s.c_str());
    std::ostringstream out, err;
    ASSERT_EQ(cli::run(static_cast<int>(argv.size()), argv.data(), out, err), 0)
        << err.str();
    EXPECT_NE(out.str().find("xpdnnd listening on 127.0.0.1:"), std::string::npos);
    EXPECT_NE(out.str().find("xpdnnd drained:"), std::string::npos);
}

// ---- persistent report store ------------------------------------------------

serve::ServerConfig stored_config(const ServeScratchDir& scratch) {
    serve::ServerConfig config = fast_config();
    config.workers = 1;
    config.store_dir = (scratch.path / "reports").string();
    return config;
}

/// The one blob file of a single-task store directory.
std::string only_blob(const std::string& dir) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("xpdnn_report_", 0) == 0 &&
            name.size() > 5 && name.substr(name.size() - 5) == ".blob") {
            return entry.path().string();
        }
    }
    return "";
}

TEST(Serve, PredictSurvivesRestartByteIdentically) {
    ServeScratchDir scratch;
    const std::vector<std::string> tasks = {"t1", "t2", "t3"};
    std::vector<std::string> reports, predictions;
    {
        serve::Server server(stored_config(scratch));
        serve::Client client(server.bound_port());
        for (const auto& task : tasks) {
            const std::string modeled =
                client.request(model_request(task, "regression"), 30'000);
            ASSERT_TRUE(is_ok(modeled)) << modeled;
            reports.push_back(report_of(modeled));
            const std::string predicted = client.request(
                "{\"verb\": \"predict\", \"task\": \"" + task + "\", \"point\": [128]}",
                10'000);
            ASSERT_TRUE(is_ok(predicted)) << predicted;
            predictions.push_back(predicted);
        }
        // The same drain SIGTERM takes (request_stop is the signal hook).
        server.stop();
    }

    // A fresh daemon over the same --store serves predict from the
    // write-through blobs, byte-identically — memory cache starts empty,
    // the re-parsed model evaluates to the same %.17g text.
    serve::Server restarted(stored_config(scratch));
    serve::Client client(restarted.bound_port());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const std::string predicted = client.request(
            "{\"verb\": \"predict\", \"task\": \"" + tasks[i] + "\", \"point\": [128]}",
            10'000);
        EXPECT_EQ(predicted, predictions[i]);
        // The store verb hands back the stored report bytes unchanged.
        const std::string fetched = client.request(
            "{\"verb\": \"store\", \"task\": \"" + tasks[i] + "\"}", 10'000);
        ASSERT_TRUE(is_ok(fetched)) << fetched;
        EXPECT_EQ(report_of(fetched), reports[i]);
    }
}

TEST(Serve, StoreVerbStatsEvictAndErrors) {
    ServeScratchDir scratch;
    serve::Server server(stored_config(scratch));
    serve::Client client(server.bound_port());

    ASSERT_TRUE(is_ok(client.request(model_request("lin", "regression"), 30'000)));
    const std::string stats = client.request("{\"verb\": \"store\"}", 10'000);
    ASSERT_TRUE(is_ok(stats)) << stats;
    EXPECT_NE(stats.find("\"entries\": 1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"puts\": 1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"put_failures\": 0"), std::string::npos) << stats;

    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"store\", \"task\": \"never-modeled\"}", 10'000)),
              "unknown_task");

    // Evicting to zero drops the blobs AND the memory cache: predict
    // misses afterwards instead of serving a zombie entry.
    const std::string evicted =
        client.request("{\"verb\": \"store\", \"evict\": 0}", 10'000);
    ASSERT_TRUE(is_ok(evicted)) << evicted;
    EXPECT_NE(evicted.find("\"evicted\": 1"), std::string::npos) << evicted;
    EXPECT_NE(evicted.find("\"entries\": 0"), std::string::npos) << evicted;
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"predict\", \"task\": \"lin\", \"point\": [128]}", 10'000)),
              "unknown_task");
}

TEST(Serve, StoreVerbWithoutStoreIsValidationError) {
    serve::Server server(fast_config());
    serve::Client client(server.bound_port());
    const std::string response = client.request("{\"verb\": \"store\"}", 10'000);
    EXPECT_EQ(error_code(response), "validation_error");
    EXPECT_NE(response.find("--store"), std::string::npos) << response;
}

TEST(Serve, CorruptStoreBlobIsRepairedNotFatal) {
    ServeScratchDir scratch;
    const serve::ServerConfig config = stored_config(scratch);
    {
        serve::Server server(config);
        serve::Client client(server.bound_port());
        ASSERT_TRUE(is_ok(client.request(model_request("lin", "regression"), 30'000)));
        server.stop();
    }
    const std::string blob = only_blob(config.store_dir);
    ASSERT_FALSE(blob.empty());
    {
        // Damage a payload byte; the header still decodes.
        std::fstream file(blob, std::ios::in | std::ios::out | std::ios::binary);
        file.seekp(80);
        file.put('\xff');
    }

    serve::Server restarted(config);
    serve::Client client(restarted.bound_port());
    // The corrupt blob is a quarantined miss, not a crash or a wrong answer.
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"predict\", \"task\": \"lin\", \"point\": [128]}", 10'000)),
              "unknown_task");
    EXPECT_TRUE(std::filesystem::exists(blob + ".corrupt"));
    // Re-modeling repairs the slot; predict works again.
    ASSERT_TRUE(is_ok(client.request(model_request("lin", "regression"), 30'000)));
    const std::string predicted = client.request(
        "{\"verb\": \"predict\", \"task\": \"lin\", \"point\": [128]}", 10'000);
    ASSERT_TRUE(is_ok(predicted)) << predicted;
    EXPECT_NE(predicted.find("\"prediction\": 386"), std::string::npos) << predicted;
}

TEST(Serve, StoreCapacityEvictsOldestAcrossRestart) {
    ServeScratchDir scratch;
    serve::ServerConfig config = stored_config(scratch);
    config.store_capacity = 1;
    {
        serve::Server server(config);
        serve::Client client(server.bound_port());
        ASSERT_TRUE(is_ok(client.request(model_request("old", "regression"), 30'000)));
        ASSERT_TRUE(is_ok(client.request(model_request("new", "regression"), 30'000)));
        server.stop();
    }
    serve::Server restarted(config);
    serve::Client client(restarted.bound_port());
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"predict\", \"task\": \"old\", \"point\": [128]}", 10'000)),
              "unknown_task");
    EXPECT_TRUE(is_ok(client.request(
        "{\"verb\": \"predict\", \"task\": \"new\", \"point\": [128]}", 10'000)));
}

TEST(Serve, CompactVerbMergesIngestSections) {
    ServeScratchDir scratch;
    const std::string arch = (scratch.path / "live.arch").string();
    const std::string batch = escaped(linear_measurements_text());
    serve::ServerConfig config = fast_config();
    config.workers = 1;
    serve::Server server(config);
    serve::Client client(server.bound_port());

    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(is_ok(client.request(
            "{\"verb\": \"ingest\", \"archive\": " + serve::json_quote(arch) +
                ", \"kernel\": \"lin\", \"metric\": \"time\", \"remodel\": false, "
                "\"measurements\": \"" + batch + "\"}",
            30'000)));
    }
    const std::string compacted = client.request(
        "{\"verb\": \"compact\", \"archive\": " + serve::json_quote(arch) + "}", 30'000);
    ASSERT_TRUE(is_ok(compacted)) << compacted;
    EXPECT_NE(compacted.find("\"sections_before\": 3"), std::string::npos) << compacted;
    EXPECT_NE(compacted.find("\"sections_after\": 1"), std::string::npos) << compacted;
    EXPECT_NE(compacted.find("\"measurements\": 15"), std::string::npos) << compacted;

    // The compacted archive still models (content untouched).
    ASSERT_TRUE(is_ok(client.request(
        "{\"verb\": \"model\", \"modeler\": \"regression\", \"timings\": false, "
        "\"archive\": " + serve::json_quote(arch) +
        ", \"kernel\": \"lin\", \"metric\": \"time\"}",
        30'000)));

    EXPECT_EQ(error_code(client.request("{\"verb\": \"compact\"}", 10'000)),
              "validation_error");
    EXPECT_EQ(error_code(client.request(
                  "{\"verb\": \"compact\", \"archive\": " +
                      serve::json_quote((scratch.path / "missing.arch").string()) + "}",
                  10'000)),
              "validation_error");
}

}  // namespace

// daemon-mixed: an in-process serve::Server (2 workers, persistent report
// store, serial compute pool) driven open-loop over two loopback
// connections by a seeded schedule of predict, model and ingest requests.

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <thread>

#include "casestudy/casestudy.hpp"
#include "measure/binary.hpp"
#include "modeling/report.hpp"
#include "modeling/session.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "xpcore/archive.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/store.hpp"
#include "xpcore/thread_pool.hpp"

namespace bench {

namespace {

// Offered load. Models arrive in slots spread evenly over the window, each
// normally finished before the next starts: one model per slot, kernels in
// seeded rounds over all 30 relevant kernels (every run models the same
// mix), except every kPairEvery-th slot, which holds two FASTEST
// pressure_solver models at once. A pair occupies both workers, so the
// predicts arriving meanwhile (~5% of them) queue behind it. One predict
// falls at a seeded random time into each equal stretch of the window, so
// every run puts the same number behind the pairs. Ingests arrive at fixed
// points of the single-model slots, where one worker is always free, so
// their latency is the commit's own.
constexpr double kModelRate = 3.0;         ///< single-model slots per second
constexpr std::size_t kPairEvery = 8;      ///< one slot in this many is a pair
constexpr const char* kPairKernel = "pressure_solver";
constexpr std::size_t kIngestsPerSlot = 2;  ///< per single-model slot
constexpr double kPredictRate = 200.0;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kPremodeled = 6;   ///< predict targets modeled before the window
constexpr std::size_t kReplayed = 8;     ///< model requests replayed in the traced run
// Ingest batches large enough that a request is mostly parse and commit
// work (~1 MB archive by the end of a 20 s window) rather than thread
// wake-ups, which on a busy virtualized host swing by milliseconds.
constexpr std::size_t kBatchPoints = 128;
constexpr std::size_t kBatchReps = 5;
constexpr int kResponseTimeoutMs = 60'000;
constexpr auto kSpinLead = std::chrono::microseconds(500);

enum class Verb { Model, Predict, Ingest };

struct Planned {
    Verb verb = Verb::Predict;
    double due_ms = 0.0;        ///< offset from the window start
    std::string line;           ///< the request line
    std::size_t input = 0;      ///< model: model input; predict: target (premodeled)
    measure::Coordinate point;  ///< predict
    std::string batch_text;     ///< ingest
};

struct Observed {
    std::string response;
    Clock::time_point received;
    double lag_ms = 0.0;
    bool answered = false;
};

std::string model_line(long id, const TaskInput& input) {
    return "{\"verb\": \"model\", \"id\": " + std::to_string(id) +
           ", \"task\": " + serve::json_quote(input.label) +
           ", \"measurements\": " + serve::json_quote(input.text) + "}";
}

/// The "report" member of a model response: the envelope puts it last.
std::string report_slice(const std::string& response) {
    const std::string key = ", \"report\": ";
    const std::size_t pos = response.find(key);
    if (pos == std::string::npos || response.size() < pos + key.size() + 1) return "";
    return response.substr(pos + key.size(), response.size() - pos - key.size() - 1);
}

long response_id(const std::string& response) {
    const std::size_t pos = response.find("\"id\": ");
    if (pos == std::string::npos) return -1;
    return std::strtol(response.c_str() + pos + 6, nullptr, 10);
}

/// The 30 performance-relevant kernels of the three case studies.
struct KernelRef {
    const casestudy::CaseStudy* study;
    const casestudy::KernelSpec* kernel;
};

/// Measurements of `draw` of kernel `index`. The draws come from fixed
/// streams, not from the seed: with one P+ point per kernel, ~80 models are
/// too few for a median P+ error that does not swing with the noise of each
/// draw. The seed orders the kernels and draws every predict and ingest.
TaskInput kernel_input(const std::vector<KernelRef>& kernels, std::size_t index,
                       std::size_t draw, const std::string& label) {
    const KernelRef& ref = kernels[index];
    xpcore::Rng rng(0x5eed1000u + 1009u * index + draw);
    const measure::ExperimentSet set = ref.study->generate_modeling(*ref.kernel, rng);
    return make_input(label, set, ref.kernel->truth, {ref.study->evaluation_point});
}

/// One ingest batch: kBatchPoints points x kBatchReps repetitions of a
/// two-parameter stream kernel.
std::string ingest_batch(xpcore::Rng& rng) {
    measure::ExperimentSet set({"p", "n"});
    for (std::size_t k = 0; k < kBatchPoints; ++k) {
        const double p = static_cast<double>(2u << (k % 8));
        const double n = 1000.0 * static_cast<double>(1 + k / 8) + rng.uniform_int(0, 99);
        const double truth = 0.5 + 1e-4 * n * std::log2(p);
        std::vector<double> values;
        for (std::size_t r = 0; r < kBatchReps; ++r) {
            values.push_back(truth * (1.0 + rng.uniform(-0.05, 0.05)));
        }
        set.add({p, n}, std::move(values));
    }
    return to_text(set);
}

struct Daemon {
    std::unique_ptr<serve::Server> server;
    double setup_s = 0.0;
};

/// Cold start in an empty cache dir: pretrain once into the private cache
/// (what a first `xpdnn model` leaves behind), bind, and wait for the first
/// ping answer, which a worker gives only after its warm start. Both workers
/// load the cached network: a session that pretrained itself adapts from a
/// different RNG position than one that loaded the cache, so a daemon whose
/// first worker pretrains answers differently depending on the worker.
Daemon cold_start(const std::string& dir) {
    use_cache_dir(dir + "/cache");
    serve::ServerConfig config;
    config.workers = kWorkers;
    config.warm_start = true;
    config.store_dir = dir + "/store";
    const auto start = Clock::now();
    {
        modeling::Session session{config.options};
        Span span("dnn.pretrain");
        session.classifier();
    }
    Daemon daemon;
    daemon.server = std::make_unique<serve::Server>(config);
    serve::Client probe(daemon.server->bound_port());
    const std::string pong = probe.request("{\"verb\": \"ping\"}", 120'000);
    if (pong.rfind("{\"ok\": true", 0) != 0) throw std::runtime_error("ping failed: " + pong);
    daemon.setup_s = ms_between(start, Clock::now()) / 1000.0;
    return daemon;
}

/// Send every planned request of one connection at its due time. The
/// sender sleeps until kSpinLead before the due time and spins the rest: a
/// sleeping thread on a virtualized host wakes a varying fraction of a
/// millisecond late, and since latency counts from the due time, that lag
/// would read as daemon latency.
void send_all(serve::Client& client, const std::vector<Planned>& plan,
              const std::vector<std::size_t>& mine, std::vector<Observed>& observed,
              Clock::time_point window_start) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // this thread only
    for (const std::size_t index : mine) {
        const auto due =
            window_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(plan[index].due_ms));
        std::this_thread::sleep_until(due - kSpinLead);
        while (Clock::now() < due) {
        }
        observed[index].lag_ms = std::max(0.0, ms_between(due, Clock::now()));
        client.send(plan[index].line);
    }
}

/// Read the responses of one connection, matched to requests by id.
void read_all(serve::Client& client, std::size_t expected, std::vector<Observed>& observed) {
    for (std::size_t n = 0; n < expected; ++n) {
        std::string response = client.read_response(kResponseTimeoutMs);
        const auto now = Clock::now();
        const long id = response_id(response);
        if (id < 0 || static_cast<std::size_t>(id) >= observed.size()) continue;
        Observed& slot = observed[static_cast<std::size_t>(id)];
        slot.response = std::move(response);
        slot.received = now;
        slot.answered = true;
    }
}

}  // namespace

int run_daemon(const Args& args) {
    xpcore::ThreadPool::reset_global(0);  // serial compute pool: IO + workers + load fit 4 cores
    if (args.trace) Tracer::instance().enable();
    Daemon daemon = cold_start(args.dir);
    if (args.setup_only) {
        daemon.server->stop();
        std::cout << "{\"setup_s\": " << daemon.setup_s << "}" << std::endl;
        return 0;
    }
    serve::Server& server = *daemon.server;
    const SloLimits limits = slo_limits(args.workload);
    const std::string archive = args.dir + "/ingest.arch";

    // Inputs, all from the seed.
    const std::vector<casestudy::CaseStudy> studies = casestudy::all_case_studies();
    std::vector<KernelRef> kernels;
    for (const auto& study : studies) {
        for (const auto* kernel : study.relevant_kernels()) kernels.push_back({&study, kernel});
    }
    xpcore::Rng rng(args.seed);
    std::vector<TaskInput> premodeled;
    std::vector<std::size_t> draws(kernels.size(), 0);  // next draw per kernel
    for (std::size_t k = 0; k < kPremodeled; ++k) {
        const std::size_t index = k * kernels.size() / kPremodeled;
        const KernelRef& ref = kernels[index];
        premodeled.push_back(kernel_input(kernels, index, draws[index]++,
                                          "pre/" + ref.study->application + "/" +
                                              ref.kernel->name));
    }

    const auto count = [&](double rate) {
        return std::max<std::size_t>(1, static_cast<std::size_t>(rate * args.seconds + 0.5));
    };
    std::vector<Planned> plan;
    std::vector<TaskInput> model_inputs;
    const auto add_model = [&](std::size_t index, double due_ms, const std::string& tag) {
        Planned request;
        request.verb = Verb::Model;
        request.due_ms = due_ms;
        const KernelRef& ref = kernels[index];
        model_inputs.push_back(
            kernel_input(kernels, index, draws[index]++,
                         ref.study->application + "/" + ref.kernel->name + "#" + tag));
        request.input = model_inputs.size() - 1;
        plan.push_back(std::move(request));
    };
    std::vector<std::size_t> order;  // single-slot kernels, in seeded rounds
    const std::size_t singles = count(kModelRate);
    while (order.size() < singles) {
        std::vector<std::size_t> round(kernels.size());
        for (std::size_t k = 0; k < round.size(); ++k) round[k] = k;
        rng.shuffle(round);
        order.insert(order.end(), round.begin(), round.end());
    }
    const std::size_t pair_kernel = static_cast<std::size_t>(
        std::find_if(kernels.begin(), kernels.end(),
                     [](const KernelRef& ref) { return ref.kernel->name == kPairKernel; }) -
        kernels.begin());
    const std::size_t pairs = std::max<std::size_t>(1, singles / (kPairEvery - 1));
    const std::size_t slots = singles + pairs;
    const double slot_ms = args.seconds * 1000.0 / static_cast<double>(slots);
    for (std::size_t slot = 0, single = 0; slot < slots; ++slot) {
        const double due_ms = static_cast<double>(slot) * slot_ms;
        if (slot % kPairEvery == kPairEvery / 2 || single == singles) {
            add_model(pair_kernel, due_ms, std::to_string(slot) + "a");
            add_model(pair_kernel, due_ms, std::to_string(slot) + "b");
            continue;
        }
        add_model(order[single], due_ms, std::to_string(slot));
        ++single;
        for (std::size_t k = 1; k <= kIngestsPerSlot; ++k) {
            Planned request;
            request.verb = Verb::Ingest;
            request.due_ms = due_ms + slot_ms * static_cast<double>(k) /
                                          static_cast<double>(kIngestsPerSlot + 1);
            request.batch_text = ingest_batch(rng);
            plan.push_back(std::move(request));
        }
    }
    const std::size_t predicts = count(kPredictRate);
    const double predict_period_ms = args.seconds * 1000.0 / static_cast<double>(predicts);
    for (std::size_t i = 0; i < predicts; ++i) {
        Planned request;
        request.due_ms = (static_cast<double>(i) + rng.uniform(0.0, 1.0)) * predict_period_ms;
        request.input = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kPremodeled) - 1));
        const auto& points = premodeled[request.input].predict_points;
        request.point = points[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(points.size()) - 1))];
        plan.push_back(std::move(request));
    }
    std::stable_sort(plan.begin(), plan.end(),
              [](const Planned& a, const Planned& b) { return a.due_ms < b.due_ms; });
    for (std::size_t id = 0; id < plan.size(); ++id) {
        Planned& request = plan[id];
        const std::string prefix = "{\"id\": " + std::to_string(id);
        if (request.verb == Verb::Model) {
            request.line = model_line(static_cast<long>(id), model_inputs[request.input]);
        } else if (request.verb == Verb::Predict) {
            std::string point;
            for (const double x : request.point) {
                point += (point.empty() ? "" : ", ") + format_number(x);
            }
            request.line = prefix + ", \"verb\": \"predict\", \"task\": " +
                           serve::json_quote(premodeled[request.input].label) +
                           ", \"point\": [" + point + "]}";
        } else {
            request.line = prefix + ", \"verb\": \"ingest\", \"archive\": " +
                           serve::json_quote(archive) +
                           ", \"kernel\": \"stream\", \"metric\": \"time\", \"remodel\": false"
                           ", \"measurements\": " + serve::json_quote(request.batch_text) + "}";
        }
    }

    Tally tally;
    Quality quality;
    std::vector<std::string> premodeled_reports(kPremodeled);
    std::vector<std::unique_ptr<serve::Client>> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
        clients.push_back(std::make_unique<serve::Client>(server.bound_port()));
    }

    // Warm-up (not timed): model the predict targets, pipelined.
    for (std::size_t k = 0; k < kPremodeled; ++k) {
        clients[k % kConnections]->send(model_line(static_cast<long>(k), premodeled[k]));
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
        for (std::size_t k = c; k < kPremodeled; k += kConnections) {
            const std::string response = clients[c]->read_response(kResponseTimeoutMs);
            const long id = response_id(response);
            const bool ok = response.rfind("{\"ok\": true", 0) == 0 && id >= 0 &&
                            static_cast<std::size_t>(id) < kPremodeled;
            tally.record(ok, 0.0, limits.task_ms,
                         "warm-up model failed: " + response.substr(0, 200));
            if (ok) premodeled_reports[static_cast<std::size_t>(id)] = report_slice(response);
        }
    }

    // The open-loop window: one sender and one reader per connection.
    std::vector<Observed> observed(plan.size());
    std::vector<std::vector<std::size_t>> mine(kConnections);
    for (std::size_t id = 0; id < plan.size(); ++id) mine[id % kConnections].push_back(id);
    std::vector<std::string> thread_errors(2 * kConnections);
    const auto window_start = Clock::now() + std::chrono::milliseconds(20);
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                try {
                    send_all(*clients[c], plan, mine[c], observed, window_start);
                } catch (const std::exception& error) {
                    thread_errors[2 * c] = error.what();
                }
            });
            threads.emplace_back([&, c] {
                try {
                    read_all(*clients[c], mine[c].size(), observed);
                } catch (const std::exception& error) {
                    thread_errors[2 * c + 1] = error.what();
                }
            });
        }
        for (std::thread& thread : threads) thread.join();
    }
    for (const std::string& error : thread_errors) {
        tally.check(error.empty(), "connection: " + error);
    }
    server.stop();

    // Outputs and latencies.
    std::vector<double> model_ms, predict_ms, ingest_ms, lag_ms, service_ms, wait_ms;
    std::vector<std::string> model_reports(model_inputs.size());
    std::uint64_t appended_values = 0, appended_measurements = 0, rejected = 0;
    std::size_t regression_runs = 0, dnn_wins = 0, models_ok = 0;
    for (std::size_t id = 0; id < plan.size(); ++id) {
        const Planned& request = plan[id];
        const Observed& seen = observed[id];
        lag_ms.push_back(seen.lag_ms);
        const double limit = request.verb == Verb::Model     ? limits.task_ms
                             : request.verb == Verb::Predict ? limits.predict_ms
                                                             : limits.ingest_ms;
        const std::string what = "request " + std::to_string(id) + ": ";
        if (!seen.answered) {
            tally.record(false, 0.0, limit, what + "no response");
            continue;
        }
        const double ms = ms_between(window_start, seen.received) - request.due_ms;
        try {
            const serve::JsonValue response = serve::parse_json(seen.response, "<response>");
            const serve::JsonValue* ok = response.find("ok");
            if (ok == nullptr || !ok->bool_value) {
                const serve::JsonValue* error = response.find("error");
                const serve::JsonValue* code = error ? error->find("code") : nullptr;
                if (code && (code->string_value == "overloaded" ||
                             code->string_value == "deadline_exceeded")) {
                    ++rejected;
                }
                tally.record(false, ms, limit, what + seen.response.substr(0, 200));
                continue;
            }
            bool good = true;
            if (request.verb == Verb::Model) {
                const std::string json = report_slice(seen.response);
                const modeling::Report report = modeling::report_from_json(json);
                good = modeling::to_json(report) == json;
                model_reports[request.input] = json;
                quality.add(report.selected.model, model_inputs[request.input]);
                model_ms.push_back(ms);
                service_ms.push_back(report.timings.total_seconds * 1000.0);
                wait_ms.push_back(ms - service_ms.back());
                regression_runs += report.used_regression ? 1 : 0;
                dnn_wins += report.winner == "dnn" ? 1 : 0;
                ++models_ok;
            } else if (request.verb == Verb::Predict) {
                const pmnf::Model model =
                    modeling::report_from_json(premodeled_reports[request.input])
                        .selected.model;
                const serve::JsonValue* value = response.find("prediction");
                good = value != nullptr && same_value(value->number_value,
                                                      model.evaluate(request.point));
                predict_ms.push_back(ms);
            } else {
                const serve::JsonValue* appended = response.find("appended");
                good = appended != nullptr &&
                       appended->number_value == static_cast<double>(kBatchPoints);
                appended_measurements += kBatchPoints;
                appended_values += kBatchPoints * kBatchReps;
                ingest_ms.push_back(ms);
            }
            tally.record(good, ms, limit, what + "wrong output");
        } catch (const std::exception& error) {
            tally.record(false, ms, limit, what + error.what());
        }
    }

    // The archive re-opens with full verification and holds every value.
    try {
        const xpcore::archive::Reader reader = xpcore::archive::Reader::open(archive, true);
        std::uint64_t values = 0;
        for (std::size_t s = 0; s < reader.section_count(); ++s) {
            values += reader.section(s).values.size();
        }
        tally.check(values == appended_values &&
                        reader.total_measurements() == appended_measurements,
                    "ingest archive holds " + std::to_string(values) + " values, expected " +
                        std::to_string(appended_values));
    } catch (const std::exception& error) {
        tally.check(false, std::string("ingest archive: ") + error.what());
    }

    Metrics metrics;
    std::string tables;
    const double models = static_cast<double>(std::max<std::size_t>(models_ok, 1));
    if (!args.trace) {
        metrics["setup_s"] = daemon.setup_s;
        // Sustainable model rate of the worker pool: workers / mean service.
        metrics["tasks_per_s"] = static_cast<double>(kWorkers) * 1000.0 /
                                 std::max(mean_of(service_ms), 1e-9);
        metrics["task_p50_ms"] = percentile(model_ms, 0.50);
        metrics["task_p90_ms"] = percentile(model_ms, 0.90);
        metrics["lead_acc"] = quality.lead_acc();
        metrics["pplus_err_pct"] = quality.pplus_err_pct();
        metrics["predict_p50_ms"] = percentile(predict_ms, 0.50);
        metrics["predict_p99_ms"] = percentile(predict_ms, 0.99);
        metrics["ingest_p50_ms"] = percentile(ingest_ms, 0.50);
        metrics["slo_ratio"] = static_cast<double>(tally.within_slo) /
                               static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1));
        metrics["peak_rss_mb"] = peak_rss_mb();
        return finish(args, tally, metrics, modeling::Options{}.net_profile, tables);
    }

    // Traced run: the layer calls behind each verb, replayed beside the
    // (already finished) load so they do not perturb it.
    for (std::size_t id = 0; id < plan.size(); ++id) {
        const Planned& request = plan[id];
        const long task = static_cast<long>(id);
        {
            Span span("serve.parse_request", task);
            (void)serve::parse_request(request.line);
        }
        if (request.verb == Verb::Predict) continue;
        const std::string& text = request.verb == Verb::Model
                                      ? model_inputs[request.input].text
                                      : request.batch_text;
        Span span("measure.text_parse", task);
        (void)parse_text(text);
    }
    const std::string replica_archive = args.dir + "/replica.arch";
    for (std::size_t id = 0; id < plan.size(); ++id) {
        if (plan[id].verb != Verb::Ingest) continue;
        const measure::ExperimentSet batch = parse_text(plan[id].batch_text);
        Span span("measure.append", static_cast<long>(id));
        measure::append_binary_file(replica_archive, "stream", "time", batch);
    }
    {
        xpcore::store::Config config;
        config.dir = args.dir + "/replica_store";
        config.prefix = "replica";
        xpcore::store::Store store(std::move(config));
        for (std::size_t i = 0; i < model_reports.size(); ++i) {
            if (model_reports[i].empty()) continue;
            Span span("xpcore.store_put", static_cast<long>(i));
            store.put(model_inputs[i].label, model_reports[i]);
        }
        for (std::size_t i = 0; i < model_reports.size(); ++i) {
            if (model_reports[i].empty()) continue;
            std::optional<std::string> loaded;
            {
                Span span("xpcore.store_get", static_cast<long>(i));
                loaded = store.load(model_inputs[i].label);
            }
            tally.check(loaded && *loaded == model_reports[i], "store replica lost a report");
        }
    }

    modeling::Session session{modeling::Options{}};
    classifier_spans(session.options());
    Metrics counts;
    std::vector<double> reference_ms, replay_ms;
    std::size_t shapes = 0;
    const std::size_t replayed = std::min(kReplayed, model_inputs.size());
    for (std::size_t i = 0; i < replayed; ++i) {
        const TaskInput& input = model_inputs[i];
        const long task = static_cast<long>(plan.size() + i);
        const auto t0 = Clock::now();
        const modeling::Report reference = session.run("adaptive", parse_text(input.text));
        reference_ms.push_back(ms_between(t0, Clock::now()));
        const Replay replay = replay_task(session, "adaptive", input.text, 0, task);
        replay_ms.push_back(replay.task_ms);
        shapes += replay.shapes;
        tally.check(same_selection(replay.report, reference),
                    input.label + ": replay selected another model than Session::run");
        tally.check(replay.finalists_match,
                    input.label + ": regression finalist copy drifted from the program");
        if (!model_reports[i].empty()) {
            tally.check(same_selection(replay.report,
                                       modeling::report_from_json(model_reports[i])),
                        input.label + ": replay selected another model than the daemon");
        }
        adapt_replica(session, input.text, args.seed * 7919 + i, task, counts);
    }

    const std::vector<SpanRecord> spans = Tracer::instance().spans();
    const TaskSelfTimes trees = span_metrics(spans, reference_ms, replay_ms, metrics, tally);
    const std::map<std::string, NameTotal> names = totals_by_name(spans);
    if (replayed > 0) {
        const double train_ms = names.at("nn.train").total_ms;
        const double n = static_cast<double>(replayed);
        metrics["dnn.gen_samples"] = counts["dnn.gen_samples"] / n;
        metrics["nn.train_steps"] = counts["nn.train_steps"] / n;
        metrics["regression.shapes"] = static_cast<double>(shapes) / n;
        metrics["xpcore.gemm_gflops"] = counts["nn.train_flops"] / (train_ms * 1e6);
        metrics["xpcore.pool_speedup"] = names.at("nn.train_serial").total_ms / train_ms;
    }
    metrics["xpcore.pool_threads"] = static_cast<double>(xpcore::ThreadPool::global().size());
    metrics["measure.archive_mb"] =
        static_cast<double>(std::filesystem::file_size(replica_archive)) / 1e6;
    metrics["serve.model_service_ms"] = mean_of(service_ms);
    metrics["serve.model_wait_ms"] = mean_of(wait_ms);
    metrics["serve.rejected"] = static_cast<double>(rejected);
    metrics["bench.gen_lag_ms"] = percentile(lag_ms, 0.99);
    metrics["adaptive.regression_share"] = static_cast<double>(regression_runs) / models;
    metrics["adaptive.dnn_win_share"] = static_cast<double>(dnn_wins) / models;
    std::size_t report_bytes = 0;
    for (const std::string& json : model_reports) report_bytes += json.size();
    metrics["modeling.report_bytes"] = static_cast<double>(report_bytes) / models;
    zero_fill_layers(metrics);
    tables = format_tables(trees, names);
    if (!args.out.empty()) {
        make_dirs(args.out);
        Tracer::instance().write_jsonl(args.out + "/" + args.workload + "-seed" +
                                       std::to_string(args.seed) + ".trace.jsonl");
    }
    return finish(args, tally, metrics, session.options().net_profile, tables);
}

}  // namespace bench

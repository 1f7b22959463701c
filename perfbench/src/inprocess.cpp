// adaptive-synth and regression-grid: Fig. 3-style synthetic tasks modeled
// one at a time through Session::run and serialized with modeling::to_json,
// as `xpdnn model` does, in one closed loop.

#include <algorithm>
#include <iostream>
#include <memory>

#include "eval/task.hpp"
#include "modeling/report.hpp"
#include "modeling/session.hpp"
#include "noise/estimator.hpp"
#include "replay.hpp"
#include "speed.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/thread_pool.hpp"

namespace bench {

namespace {

struct Plan {
    std::string modeler;
    std::vector<std::size_t> parameters;
    std::vector<double> noise_levels;
    std::size_t per_cell = 0;     ///< tasks per cell of the smallest m
    std::size_t largest_m_weight = 1;  ///< cells of the largest m hold this many times more
    std::size_t alternatives = 0;
};

Plan plan_for(const Args& args) {
    Plan plan;
    if (args.workload == "adaptive-synth") {
        plan = {"adaptive", {1, 2, 3}, {0.02, 0.10, 0.50, 1.00}, 10, 1, 0};
    } else {
        // m = 3 tasks cost ~10x the m = 2 ones; two thirds of the tasks are
        // m = 3 so the latency percentiles sit inside one mode.
        plan = {"regression", {2, 3}, {0.02, 0.05, 0.10}, 40, 2, 2};
    }
    if (args.tasks > 0) plan.per_cell = args.tasks;
    return plan;
}

TaskInput synthetic_input(std::size_t parameters, double noise, xpcore::Rng& rng,
                          std::string label) {
    eval::TaskConfig config;
    config.parameters = parameters;
    config.noise = noise;
    const eval::SyntheticTask task = eval::make_task(config, rng);
    return make_input(std::move(label), task.experiments, task.truth, task.eval_points);
}

/// Stream of the task inputs; see make_pool.
constexpr std::uint64_t kInputSeed = 0x5eed0000u;

/// The cells' tasks in rounds. A round holds the same share of every cell
/// (one task of each smaller-m cell, largest_m_weight of each largest-m
/// cell), so a run that stops anywhere models the planned mix to within one
/// round. The tasks themselves are fixed draws, the same in every run: a
/// seeded draw of half of each cell moved the quality medians by 20-30% and
/// the latency percentiles by up to ~20% between seeds. The seed orders the
/// rounds and the tasks inside each.
std::vector<TaskInput> make_pool(const Plan& plan, std::uint64_t seed) {
    xpcore::Rng inputs(kInputSeed);
    std::vector<std::vector<TaskInput>> rounds(plan.per_cell);
    for (const std::size_t m : plan.parameters) {
        const std::size_t weight = m == plan.parameters.back() ? plan.largest_m_weight : 1;
        for (const double noise : plan.noise_levels) {
            xpcore::Rng cell_rng = inputs.split();
            for (std::size_t k = 0; k < plan.per_cell * weight; ++k) {
                rounds[k / weight].push_back(synthetic_input(
                    m, noise, cell_rng,
                    "m" + std::to_string(m) + "-n" + std::to_string(noise) + "-" +
                        std::to_string(k)));
            }
        }
    }
    xpcore::Rng order(seed);
    order.shuffle(rounds);
    std::vector<TaskInput> pool;
    for (auto& round : rounds) {
        order.shuffle(round);
        for (auto& input : round) pool.push_back(std::move(input));
    }
    return pool;
}

struct Ready {
    std::unique_ptr<modeling::Session> session;
    double setup_s = 0.0;
};

/// Cold start in an empty cache dir: Session construction, the pretrained
/// classifier (cold pretraining and GEMM autotune) on the adaptive path,
/// and one fixed warm-up task that builds whatever the first task would
/// otherwise build lazily.
Ready cold_setup(const Plan& plan, const std::string& cache_dir) {
    use_cache_dir(cache_dir);
    xpcore::Rng warm_rng(2021);
    const TaskInput warm = synthetic_input(plan.parameters.back(), 0.05, warm_rng, "warm-up");
    const auto start = Clock::now();
    Ready ready;
    ready.session = std::make_unique<modeling::Session>(modeling::Options{});
    if (plan.modeler == "adaptive") {
        Span span("dnn.pretrain");
        ready.session->classifier();
    }
    modeling::Context context;
    context.alternatives = plan.alternatives;
    const modeling::Report report =
        ready.session->run(plan.modeler, parse_text(warm.text), context);
    (void)modeling::to_json(report);
    ready.setup_s = ms_between(start, Clock::now()) / 1000.0;
    return ready;
}

/// Time `op` five times back to back and keep the fastest, so a momentary
/// stall of a shared host does not set a microsecond reading.
template <typename Op>
double best_of_five_ms(Op&& op) {
    double best = 0.0;
    for (int i = 0; i < 5; ++i) {
        const auto start = Clock::now();
        op();
        const double ms = ms_between(start, Clock::now());
        if (i == 0 || ms < best) best = ms;
    }
    return best;
}

/// Share of the window for each steady-state phase (predict, then ingest).
constexpr double kSteadyShare = 0.05;
/// Sample buffer of a steady-state phase, allocated and written in full up
/// front so peak_rss_mb does not depend on how many calls fit the phase.
constexpr std::size_t kSteadySamples = std::size_t{1} << 18;

/// Steady-state latency of a microsecond operation, scaled to host speed.
/// `op(k)` runs on every item k in a fixed order, round after round, for
/// `seconds` after one untimed round, and every call is timed. A `reference`
/// pass runs before the first round and after each round; a round's samples
/// are scaled by its nominal_ms / (the faster of the passes around it), so a
/// sample reads as the call's time on the host state in which nominal_ms was
/// measured (see speed.hpp). Unscaled, the medians of these 5-70 us calls
/// moved by 25-80% between runs.
template <typename Op>
std::vector<double> steady_samples(std::size_t items, double seconds,
                                   const SpeedReference& reference, Op&& op) {
    std::vector<double> samples(kSteadySamples, 0.0);
    if (items == 0) return {};
    volatile double sink = 0.0;
    const auto time_reference = [&] {
        const auto start = Clock::now();
        sink = reference.run();
        return ms_between(start, Clock::now());
    };
    for (std::size_t k = 0; k < items; ++k) op(k);
    double before = time_reference();
    std::size_t n = 0;
    const auto until = Clock::now() + std::chrono::duration<double>(seconds);
    while (n + items <= samples.size() && Clock::now() < until) {
        const std::size_t first = n;
        for (std::size_t k = 0; k < items; ++k) {
            const auto start = Clock::now();
            op(k);
            samples[n++] = ms_between(start, Clock::now());
        }
        const double after = time_reference();
        const double scale = reference.nominal_ms / std::min(before, after);
        for (std::size_t s = first; s < n; ++s) samples[s] *= scale;
        before = after;
    }
    samples.resize(n);
    return samples;
}

/// Each call's median over the rounds of steady_samples (`items` samples a
/// round), then the q-quantile over the calls. The tail is then the calls
/// that are slow in every round, not the rounds the host disturbed: pooled
/// over all samples, predict_p99_ms moved by ~20% between runs, and as the
/// median of each round's p99 by ~15% on regression-grid.
double call_percentile(const std::vector<double>& samples, std::size_t items, double q) {
    const std::size_t rounds = items > 0 ? samples.size() / items : 0;
    std::vector<double> per_call, times(rounds);
    for (std::size_t k = 0; rounds > 0 && k < items; ++k) {
        for (std::size_t r = 0; r < rounds; ++r) times[r] = samples[r * items + k];
        per_call.push_back(percentile(times, 0.5));
    }
    return percentile(per_call, q);
}

/// One task: text in, Report JSON out.
struct TaskRun {
    modeling::Report report;
    std::string json;
    double task_ms = 0.0;
    double ingest_ms = 0.0;
};

TaskRun run_task(modeling::Session& session, const Plan& plan, const TaskInput& input) {
    TaskRun run;
    run.ingest_ms = best_of_five_ms([&] { (void)parse_text(input.text); });
    const auto start = Clock::now();
    const measure::ExperimentSet set = parse_text(input.text);
    modeling::Context context;
    context.alternatives = plan.alternatives;
    run.report = session.run(plan.modeler, set, context);
    run.json = modeling::to_json(run.report);
    const auto done = Clock::now();
    run.task_ms = ms_between(start, done);
    return run;
}

}  // namespace

int run_inprocess(const Args& args) {
    const Plan plan = plan_for(args);
    if (args.trace) Tracer::instance().enable();
    const std::vector<TaskInput> pool = make_pool(plan, args.seed);
    const std::string cache_dir = args.dir + "/cache";
    Ready ready = cold_setup(plan, cache_dir);
    if (args.setup_only) {
        std::cout << "{\"setup_s\": " << ready.setup_s << "}" << std::endl;
        return 0;
    }
    modeling::Session& session = *ready.session;
    const SloLimits limits = slo_limits(args.workload);
    const std::size_t round_size = pool.size() / plan.per_cell;

    Tally tally;
    Quality quality;
    Metrics metrics;
    std::vector<double> task_ms, replay_ms;
    std::vector<std::string> first_reports(pool.size());
    std::size_t regression_runs = 0, dnn_wins = 0, report_bytes = 0, shapes = 0;
    Metrics counts;

    // Untraced, the end of the window goes to the steady-state predict and
    // ingest phases.
    const double task_seconds = args.seconds * (args.trace ? 1.0 : 1.0 - 2 * kSteadyShare);
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(task_seconds);
    std::size_t done = 0;
    for (std::size_t i = 0;; ++i) {
        const bool first_pass = i < pool.size();
        // Untraced: every task runs once, then the pool cycles until the
        // deadline. Traced: one round, then the deadline.
        const bool may_stop = i >= (args.trace ? round_size : pool.size());
        if (may_stop && Clock::now() >= deadline) break;
        const TaskInput& input = pool[i % pool.size()];
        const long id = static_cast<long>(i);
        try {
            const TaskRun run = run_task(session, plan, input);
            ++done;
            task_ms.push_back(run.task_ms);
            tally.record(true, run.task_ms, limits.task_ms);
            tally.record(true, run.ingest_ms, limits.ingest_ms);
            tally.check(modeling::to_json(modeling::report_from_json(run.json)) == run.json,
                        input.label + ": report does not round-trip");
            regression_runs += run.report.used_regression ? 1 : 0;
            dnn_wins += run.report.winner == "dnn" ? 1 : 0;
            report_bytes += run.json.size();
            if (first_pass) {
                quality.add(run.report.selected.model, input);
                first_reports[i] = run.json;
            }

            if (!args.trace) {
                // `xpdnn predict` on the returned report: parse, evaluate.
                for (const auto& point : input.predict_points) {
                    double value = 0.0;
                    const double ms = best_of_five_ms([&] {
                        value = modeling::model_from_json_document(run.json).evaluate(point);
                    });
                    tally.record(same_value(value, run.report.selected.model.evaluate(point)),
                                 ms, limits.predict_ms, input.label + ": predict mismatch");
                }
                continue;
            }

            const Replay replay = replay_task(session, plan.modeler, input.text,
                                              plan.alternatives, id);
            replay_ms.push_back(replay.task_ms);
            shapes += replay.shapes;
            tally.check(same_selection(replay.report, run.report),
                        input.label + ": replay selected another model than Session::run");
            tally.check(replay.finalists_match,
                        input.label + ": regression finalist copy drifted from the program");
            if (plan.modeler == "adaptive") {
                adapt_replica(session, input.text, args.seed * 7919 + i, id, counts);
            } else {
                const measure::ExperimentSet set = parse_text(input.text);
                Span span("noise.estimate", id);
                (void)noise::estimate_noise(set);
            }
        } catch (const std::exception& error) {
            tally.record(false, 0.0, 0.0, input.label + ": " + error.what());
        }
    }
    const double elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    const double tasks = static_cast<double>(std::max<std::size_t>(done, 1));

    std::string tables;
    if (!args.trace) {
        // The steady-state phases visit the pool in label order, so every
        // seed times the same calls in the same order.
        std::vector<std::size_t> by_label;
        for (std::size_t k = 0; k < pool.size(); ++k) {
            if (!first_reports[k].empty()) by_label.push_back(k);
        }
        std::sort(by_label.begin(), by_label.end(), [&](std::size_t a, std::size_t b) {
            return pool[a].label < pool[b].label;
        });
        std::vector<std::pair<std::size_t, std::size_t>> predicts;  // (task, point)
        for (const std::size_t k : by_label) {
            for (std::size_t p = 0; p < pool[k].predict_points.size(); ++p) {
                predicts.emplace_back(k, p);
            }
        }
        volatile double sink = 0.0;
        const std::vector<double> predict_ms = steady_samples(
            predicts.size(), args.seconds * kSteadyShare, json_reference(), [&](std::size_t n) {
                const auto [k, p] = predicts[n];
                sink = modeling::model_from_json_document(first_reports[k])
                           .evaluate(pool[k].predict_points[p]);
            });
        const std::vector<double> ingest_ms = steady_samples(
            by_label.size(), args.seconds * kSteadyShare, text_reference(), [&](std::size_t n) {
                sink = static_cast<double>(parse_text(pool[by_label[n]].text).size());
            });
        (void)sink;

        metrics["setup_s"] = ready.setup_s;
        metrics["tasks_per_s"] = static_cast<double>(done) / elapsed_s;
        metrics["task_p50_ms"] = percentile(task_ms, 0.50);
        metrics["task_p90_ms"] = percentile(task_ms, 0.90);
        metrics["lead_acc"] = quality.lead_acc();
        metrics["pplus_err_pct"] = quality.pplus_err_pct();
        metrics["predict_p50_ms"] = call_percentile(predict_ms, predicts.size(), 0.50);
        metrics["predict_p99_ms"] = call_percentile(predict_ms, predicts.size(), 0.99);
        metrics["ingest_p50_ms"] = call_percentile(ingest_ms, by_label.size(), 0.50);
        metrics["slo_ratio"] = static_cast<double>(tally.within_slo) /
                               static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1));
        metrics["peak_rss_mb"] = peak_rss_mb();
    } else {
        if (plan.modeler == "adaptive") classifier_spans(session.options());
        const std::vector<SpanRecord> spans = Tracer::instance().spans();
        const TaskSelfTimes trees = span_metrics(spans, task_ms, replay_ms, metrics, tally);
        const std::map<std::string, NameTotal> names = totals_by_name(spans);
        if (plan.modeler == "adaptive") {
            const double replicas = static_cast<double>(names.at("nn.train").count);
            const double train_ms = names.at("nn.train").total_ms;
            metrics["dnn.gen_samples"] = counts["dnn.gen_samples"] / replicas;
            metrics["nn.train_steps"] = counts["nn.train_steps"] / replicas;
            metrics["xpcore.gemm_gflops"] = counts["nn.train_flops"] / (train_ms * 1e6);
            metrics["xpcore.pool_speedup"] =
                names.at("nn.train_serial").total_ms / train_ms;
        }
        metrics["xpcore.pool_threads"] = static_cast<double>(xpcore::ThreadPool::global().size());
        metrics["regression.shapes"] = static_cast<double>(shapes) / tasks;
        metrics["adaptive.regression_share"] = static_cast<double>(regression_runs) / tasks;
        metrics["adaptive.dnn_win_share"] = static_cast<double>(dnn_wins) / tasks;
        metrics["modeling.report_bytes"] = static_cast<double>(report_bytes) / tasks;
        zero_fill_layers(metrics);
        tables = format_tables(trees, names);
        if (!args.out.empty()) {
            make_dirs(args.out);
            Tracer::instance().write_jsonl(args.out + "/" + args.workload + "-seed" +
                                           std::to_string(args.seed) + ".trace.jsonl");
        }
    }
    return finish(args, tally, metrics, session.options().net_profile, tables);
}

}  // namespace bench

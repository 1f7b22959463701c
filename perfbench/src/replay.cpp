#include "replay.hpp"

#include <algorithm>
#include <cmath>

#include "dnn/preprocess.hpp"
#include "dnn/training_data.hpp"
#include "measure/aggregation.hpp"
#include "noise/estimator.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "pmnf/exponents.hpp"
#include "pmnf/serialize.hpp"
#include "regression/modeler.hpp"
#include "regression/search.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/thread_pool.hpp"

namespace bench {

namespace {

modeling::ReportEntry entry(const regression::ModelResult& result) {
    return {result.model, result.cv_smape, result.fit_smape};
}

/// The regression modeler's per-parameter finalists, rebuilt from the
/// public search API (RegressionModeler keeps its own copy private).
/// replay_task checks that they reproduce RegressionModeler::model's
/// selection, so regression.shapes cannot silently drift from the program's
/// finalist policy.
std::vector<std::vector<pmnf::TermClass>> regression_finalists(
    const measure::ExperimentSet& set, const regression::RegressionModeler::Config& config) {
    std::vector<std::vector<pmnf::TermClass>> finalists(set.parameter_count());
    for (std::size_t l = 0; l < set.parameter_count(); ++l) {
        const auto line = set.best_line(l);
        if (!line) continue;
        const auto ranked = regression::rank_single_parameter(
            line->xs(), measure::aggregate_line(*line, config.aggregation), config.max_folds);
        for (std::size_t k = 0; k < config.top_k && k < ranked.size(); ++k) {
            finalists[l].push_back(ranked[k].cls);
        }
        const pmnf::TermClass constant{};
        if (std::find(finalists[l].begin(), finalists[l].end(), constant) == finalists[l].end()) {
            finalists[l].push_back(constant);
        }
    }
    return finalists;
}

std::size_t shape_count(const std::vector<std::vector<pmnf::TermClass>>& choices) {
    return regression::build_combinations(choices).size();
}

}  // namespace

Replay replay_task(modeling::Session& session, const std::string& modeler,
                   const std::string& text, std::size_t alternatives, long id) {
    Replay out;
    modeling::Report& report = out.report;
    const modeling::Options& options = session.options();
    std::vector<std::vector<pmnf::TermClass>> dnn_candidates;
    bool regression_ran = false;
    regression::ModelResult regression_best;
    measure::ExperimentSet set;
    {
        Span root("bench.task", id);
        {
            Span span("measure.text_parse", id);
            set = parse_text(text);
        }
        {
            Span span("modeling.noise_summary", id);
            report.noise = modeling::summarize_noise(set);
        }
        const regression::RegressionModeler baseline(options.regression);
        if (modeler == "regression") {
            regression::ModelResult best;
            {
                Span span("regression.model", id);
                best = baseline.model(set);
            }
            regression_ran = true;
            regression_best = best;
            report.winner = "regression";
            report.used_regression = true;
            report.selected = entry(best);
            if (alternatives > 0) {
                std::vector<regression::ModelResult> ranked;
                {
                    Span span("regression.alternatives", id);
                    ranked = baseline.model_alternatives(set, alternatives + 1);
                }
                for (std::size_t i = 1; i < ranked.size(); ++i) {
                    report.alternatives.push_back(entry(ranked[i]));
                }
            }
        } else {
            dnn::DnnModeler& dnn = session.classifier();
            double estimate = 0.0;
            {
                Span span("noise.estimate", id);
                estimate = noise::estimate_noise(set);
            }
            const bool run_regression =
                estimate < options.thresholds.threshold_for(set.parameter_count());
            dnn::TaskProperties properties;
            {
                Span span("dnn.task_properties", id);
                properties = dnn::TaskProperties::from_experiment(set);
            }
            {
                Span span("dnn.adapt", id);
                dnn.adapt(properties);
            }
            {
                Span span("dnn.classify", id);
                dnn_candidates = dnn.candidate_classes(set);
            }
            regression::ModelResult dnn_result;
            {
                Span span("regression.select", id);
                dnn_result = regression::select_best_combination(
                    set, dnn_candidates, dnn.config().max_folds, dnn.config().aggregation);
            }
            report.used_dnn = true;
            report.winner = "dnn";
            report.selected = entry(dnn_result);
            if (run_regression) {
                regression::ModelResult regression_result;
                {
                    Span span("regression.model", id);
                    regression_result = baseline.model(set);
                }
                regression_ran = true;
                regression_best = regression_result;
                report.used_regression = true;
                Span span("adaptive.arbitrate", id);
                if (!(dnn_result.cv_smape < regression_result.cv_smape)) {
                    report.winner = "regression";
                    report.selected = entry(regression_result);
                }
            }
        }
        report.modeler = modeler;
        report.config_hash = session.config_hash();
        report.has_model = true;
        {
            Span span("modeling.restore", id);
            session.restore_pretrained();
        }
        {
            Span span("modeling.to_json", id);
            (void)modeling::to_json(report);
        }
        out.task_ms = root.close();
    }
    // Counted outside the task span: the shapes each search fitted.
    if (!dnn_candidates.empty()) out.shapes += shape_count(dnn_candidates);
    if (regression_ran) {
        const auto finalists = regression_finalists(set, options.regression);
        const regression::ModelResult check = regression::select_best_combination(
            set, finalists, options.regression.max_folds, options.regression.aggregation);
        out.finalists_match = same_value(check.cv_smape, regression_best.cv_smape) &&
                              pmnf::to_json(check.model) == pmnf::to_json(regression_best.model);
        const std::size_t searches = modeler == "regression" && alternatives > 0 ? 2 : 1;
        out.shapes += searches * shape_count(finalists);
    }
    return out;
}

bool same_selection(const modeling::Report& replay, const modeling::Report& reference) {
    return replay.winner == reference.winner &&
           replay.used_regression == reference.used_regression &&
           replay.used_dnn == reference.used_dnn &&
           same_value(replay.selected.cv_smape, reference.selected.cv_smape) &&
           pmnf::to_json(replay.selected.model) == pmnf::to_json(reference.selected.model) &&
           replay.alternatives.size() == reference.alternatives.size();
}

void adapt_replica(modeling::Session& session, const std::string& text, std::uint64_t seed,
                   long id, Metrics& counts) {
    const measure::ExperimentSet set = parse_text(text);
    dnn::DnnModeler& dnn = session.classifier();
    const dnn::DnnConfig& config = dnn.config();
    const dnn::TaskProperties task = dnn::TaskProperties::from_experiment(set);

    // The generator configuration DnnModeler::adapt derives from the task.
    dnn::GeneratorConfig gen;
    gen.samples_per_class = config.adapt_samples_per_class;
    gen.noise_min = task.noise_min;
    gen.noise_max = std::max(task.noise_max, task.noise_min + 1e-6);
    gen.max_repetitions = task.repetitions;
    gen.random_repetitions = task.repetitions > 1;
    gen.sequence_pool = task.sequences;
    gen.noise_families = {task.noise_family};

    xpcore::Rng rng(seed);
    nn::Dataset data;
    {
        Span span("dnn.gen", id);
        data = dnn::generate_training_data(gen, rng);
    }
    nn::AdaMax::Config opt_config;
    opt_config.learning_rate = config.learning_rate;
    const nn::Trainer::Config train_config{config.adapt_epochs, config.batch_size, true};
    for (const bool serial : {false, true}) {
        nn::Network network = dnn.snapshot_state().pretrained;
        nn::AdaMax optimizer(opt_config);
        nn::Trainer trainer(network, optimizer, train_config);
        xpcore::Rng train_rng(seed + 1);
        if (serial) {
            xpcore::SerialGuard guard;
            Span span("nn.train_serial", id);
            trainer.fit(data, train_rng);
        } else {
            Span span("nn.train", id);
            trainer.fit(data, train_rng);
        }
    }

    const double samples = static_cast<double>(data.size());
    const double epochs = static_cast<double>(config.adapt_epochs);
    const double batch = static_cast<double>(config.batch_size);
    // Forward, input-gradient and weight-gradient GEMMs: 3 x 2 flops per
    // multiply-add of every dense layer, per sample and epoch.
    std::vector<std::size_t> widths = {dnn::kInputNeurons};
    widths.insert(widths.end(), config.hidden.begin(), config.hidden.end());
    widths.push_back(pmnf::class_count());
    double macs = 0.0;
    for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
        macs += static_cast<double>(widths[i] * widths[i + 1]);
    }
    counts["dnn.gen_samples"] += samples;
    counts["nn.train_steps"] += std::ceil(samples / batch) * epochs;
    counts["nn.train_flops"] += 6.0 * macs * samples * epochs;
}

void classifier_spans(const modeling::Options& options) {
    modeling::Session warm(options);
    Span span("dnn.cache_load");
    warm.classifier();
}

TaskSelfTimes span_metrics(const std::vector<SpanRecord>& spans,
                           const std::vector<double>& run_ms,
                           const std::vector<double>& replay_ms, Metrics& metrics,
                           Tally& tally) {
    const std::map<std::string, NameTotal> names = totals_by_name(spans);
    for (const MetricSpec& spec : per_layer_metrics()) {
        const std::string name = spec.name;
        const std::size_t cut = name.rfind('_');
        const auto found = names.find(name.substr(0, cut));
        if (found == names.end()) continue;
        const double mean_ms = found->second.total_ms / static_cast<double>(found->second.count);
        const std::string suffix = name.substr(cut + 1);
        if (suffix == "ms") metrics[name] = mean_ms;
        if (suffix == "us") metrics[name] = mean_ms * 1000.0;
        if (suffix == "s") metrics[name] = mean_ms / 1000.0;
    }
    const TaskSelfTimes trees = task_self_times(spans, "bench.task");
    if (trees.tasks > 0) {
        const double per = 1.0 / static_cast<double>(trees.tasks);
        metrics["bench.replay_task_ms"] = trees.task_ms * per;
        for (const auto& [layer, ms] : trees.layer_ms) metrics[layer + ".self_ms"] = ms * per;
        const auto found = trees.layer_ms.find("bench");
        const double unattributed = found == trees.layer_ms.end() ? 0.0 : found->second;
        tally.check(unattributed <= kMaxUnattributed * trees.task_ms,
                    "replayed tasks spend " + format_number(unattributed / trees.task_ms) +
                        " of their time outside every layer span");
    }
    // Per-task ratios: a task's run and replay are back to back, so a slow
    // stretch of the host scales both.
    if (!run_ms.empty() && run_ms.size() == replay_ms.size()) {
        std::vector<double> ratios;
        for (std::size_t i = 0; i < run_ms.size(); ++i) ratios.push_back(replay_ms[i] / run_ms[i]);
        const double overhead = percentile(ratios, 0.5);
        metrics["bench.trace_overhead"] = overhead;
        tally.check(std::fabs(overhead - 1.0) <= kReplaySpread,
                    "replayed task time is " + format_number(overhead) +
                        "x the Session::run time: the layer split no longer covers the task");
    }
    return trees;
}

void zero_fill_layers(Metrics& metrics) {
    for (const MetricSpec& spec : per_layer_metrics()) metrics.emplace(spec.name, 0.0);
}

}  // namespace bench

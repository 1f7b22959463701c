#pragma once

/// \file replay.hpp
/// The traced replay of one modeling task and the replicas recorded beside
/// it, shared by the in-process and daemon workloads.
///
/// The replay makes the same public calls, in the same order, that
/// modeling's RegressionAdapter / AdaptiveAdapter (and
/// adaptive::AdaptiveModeler inside it) make for Session::run, with a span
/// around each; it must select the same model. The replicas time what the
/// replay cannot split: dnn::DnnModeler::adapt is one public call, so the
/// replica regenerates its training data and retrains a copy of the
/// pretrained network for one epoch, pooled and under xpcore::SerialGuard.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "modeling/report.hpp"
#include "modeling/session.hpp"
#include "trace.hpp"

namespace bench {

struct Replay {
    modeling::Report report;
    std::size_t shapes = 0;  ///< candidate shapes fitted (build_combinations)
    double task_ms = 0.0;    ///< duration of the "bench.task" root span
    /// The benchmark's copy of the regression finalist policy reproduced
    /// RegressionModeler::model's selection (true when regression did not run).
    bool finalists_match = true;
};

/// Replay `modeler` ("adaptive" or "regression") on measurement `text` under
/// a "bench.task" root span with task id `id`.
Replay replay_task(modeling::Session& session, const std::string& modeler,
                   const std::string& text, std::size_t alternatives, long id);

/// True when the replay selected exactly the model `reference` holds.
bool same_selection(const modeling::Report& replay, const modeling::Report& reference);

/// Beside-the-task replicas of an adaptive task: "dnn.gen", "nn.train" and
/// "nn.train_serial" spans. Adds dnn.gen_samples, nn.train_steps and the
/// computed GEMM flops to `counts`.
void adapt_replica(modeling::Session& session, const std::string& text, std::uint64_t seed,
                   long id, Metrics& counts);

/// Time a pretrained-network load from the (already filled) cache in a
/// fresh Session ("dnn.cache_load").
void classifier_spans(const modeling::Options& options);

/// Share of the replayed task time that may fall outside every layer span
/// (the benchmark's own glue, "bench.self_ms").
constexpr double kMaxUnattributed = 0.02;
/// How far the median ratio of replayed to Session::run time over the
/// tasks may stray from 1 ("bench.trace_overhead" - 1).
constexpr double kReplaySpread = 0.25;

/// Derive per-layer metrics from the recorded spans: mean duration per call
/// for every "<span>_ms" metric, per-task layer self times of the
/// "bench.task" trees, and bench.trace_overhead, the median over tasks of
/// replay time `replay_ms[i]` / untraced Session::run time `run_ms[i]`.
/// Two checks go into `tally`: the time no layer span covers stays under
/// kMaxUnattributed of the replayed time, and bench.trace_overhead stays
/// within kReplaySpread of 1, so the layer split adds up to what the
/// program spends. Returns the task trees' self times for the tables.
TaskSelfTimes span_metrics(const std::vector<SpanRecord>& spans,
                           const std::vector<double>& run_ms,
                           const std::vector<double>& replay_ms, Metrics& metrics,
                           Tally& tally);

/// Fill every per-layer metric not yet set with 0 (layer not exercised).
void zero_fill_layers(Metrics& metrics);

}  // namespace bench

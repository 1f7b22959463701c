#pragma once

/// \file common.hpp
/// Shared pieces of the benchmark binary: command-line arguments, the
/// metric catalogue, the operation tally, model-quality scoring, latency
/// statistics, and the result document.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure/experiment.hpp"
#include "pmnf/model.hpp"

namespace bench {

struct Args {
    std::string workload;     ///< adaptive-synth | regression-grid | daemon-mixed
    std::uint64_t seed = 1;   ///< input seed (the program never sees it)
    double seconds = 10.0;    ///< measurement window
    bool trace = false;       ///< per-layer (traced) run instead of end-to-end
    bool setup_only = false;  ///< cold set-up, print its time, exit
    std::size_t tasks = 0;    ///< tasks per cell override (0 = workload default)
    std::string dir;          ///< private scratch dir (cache, store, archive)
    std::string out;          ///< where the result document and trace go
};

/// name -> value; units come from the catalogue.
using Metrics = std::map<std::string, double>;

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// Every end-to-end metric, emitted by every workload's untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric, emitted by every workload's traced run (0 where
/// the workload does not exercise the layer).
const std::vector<MetricSpec>& per_layer_metrics();

/// Per-operation latency limits behind slo_ratio (ms).
struct SloLimits {
    double task_ms;
    double predict_ms;
    double ingest_ms;
};
SloLimits slo_limits(const std::string& workload);

/// Attempted / failed operations plus the first few failure messages.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t within_slo = 0;
    std::vector<std::string> messages;

    /// Count one operation; `ok` false records `what` as a failure.
    void record(bool ok, double ms, double limit_ms, const std::string& what = "");
    /// Count a failed output check that is not an operation of its own.
    void check(bool ok, const std::string& what);
};

/// One modeling input as the program receives it, plus the ground truth
/// the benchmark scores the returned model against.
struct TaskInput {
    std::string label;
    std::string text;  ///< measurement text format (measure/io.hpp)
    pmnf::Model truth;
    std::size_t parameters = 0;
    std::vector<measure::Coordinate> eval_points;  ///< P+ extrapolation points
    std::vector<double> eval_truths;
    std::vector<measure::Coordinate> predict_points;  ///< P+ then measured points
};

/// Build a TaskInput from an experiment set and its truth.
TaskInput make_input(std::string label, const measure::ExperimentSet& set,
                     const pmnf::Model& truth, std::vector<measure::Coordinate> eval_points);

/// Fig. 3 scoring: lead-exponent bucket 1/4 and the median relative error
/// at the P+ points.
struct Quality {
    std::size_t hits = 0;
    std::size_t total = 0;
    std::vector<double> errors_pct;

    void add(const pmnf::Model& model, const TaskInput& input);
    double lead_acc() const;
    double pplus_err_pct() const;
};

/// Linear-interpolation percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> xs, double q);
double mean_of(const std::vector<double>& xs);

/// Exact equality that also accepts two NaNs.
bool same_value(double a, double b);

/// Measurement text of a set, and the set parsed back from such text
/// (measure::load_text, as `xpdnn model` reads a file).
std::string to_text(const measure::ExperimentSet& set);
measure::ExperimentSet parse_text(const std::string& text);

/// A double with all its digits (%.17g).
std::string format_number(double value);

/// Peak resident set size of this process.
double peak_rss_mb();

/// Create `path` (and parents); throws on failure.
void make_dirs(const std::string& path);

/// Point XPDNN_CACHE_DIR at `dir` (created) for the pretrain and GEMM-tune
/// caches of this process.
void use_cache_dir(const std::string& dir);

/// Write the result document (provenance, metrics, failures) to
/// `<args.out>/<workload>-seed<seed>-trace<t>.json` and print the final
/// result line on stdout. Returns the process exit code.
int finish(const Args& args, const Tally& tally, const Metrics& metrics,
           const std::string& net_profile, const std::string& tables);

}  // namespace bench

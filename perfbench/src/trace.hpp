#pragma once

/// \file trace.hpp
/// In-memory span tracer for the benchmark.
///
/// Spans are recorded by the benchmark around its own calls into the
/// layers' public APIs (the program itself is not instrumented). A span
/// carries its name ("<layer>.<call>"), start and end (microseconds since
/// the tracer was enabled), the index of the span that was open on the same
/// thread when it began (its parent), and the task id it belongs to. Spans
/// stay in memory until write_jsonl() at exit. With tracing disabled a Span
/// costs one relaxed load.

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two time points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    long parent = -1;  ///< index into the span list; -1 for a root
    long task = -1;    ///< task id; -1 outside any task

    double ms() const { return (end_us - start_us) / 1000.0; }
    /// The layer: the name up to the first '.'.
    std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
public:
    static Tracer& instance();

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void enable();

    /// Open a span on the calling thread; returns its index.
    long begin(const std::string& name, long task);
    /// Close the span opened by begin(); returns its duration in ms.
    double end(long index);

    /// Snapshot of every recorded span.
    std::vector<SpanRecord> spans() const;

    /// One JSON object per line: name, layer, start_us, end_us, parent, task.
    void write_jsonl(const std::string& path) const;

private:
    std::atomic<bool> enabled_{false};
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/// RAII span. No-op unless the tracer is enabled.
class Span {
public:
    Span(const std::string& name, long task = -1);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// End the span now (idempotent); returns its duration in ms (0 when
    /// tracing is off).
    double close();

private:
    long index_ = -1;
    double ms_ = 0.0;
};

/// Per-name aggregates over a span list.
struct NameTotal {
    std::size_t count = 0;
    double total_ms = 0.0;
};
std::map<std::string, NameTotal> totals_by_name(const std::vector<SpanRecord>& spans);

/// Self time of every span (duration minus the durations of its direct
/// children), indexed like `spans`.
std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans);

/// Layer self times inside the span trees rooted at spans named `root`
/// (the replayed tasks). Per task they add up to the root's duration by
/// construction; the root's own layer holds the time no child span covers.
struct TaskSelfTimes {
    std::size_t tasks = 0;
    double task_ms = 0.0;                  ///< summed root durations
    std::map<std::string, double> layer_ms;  ///< summed self time per layer
};
TaskSelfTimes task_self_times(const std::vector<SpanRecord>& spans, const std::string& root);

/// Human-readable tables: layer self time per replayed task, then every
/// span name with its count and time.
std::string format_tables(const TaskSelfTimes& tasks,
                          const std::map<std::string, NameTotal>& names);

}  // namespace bench

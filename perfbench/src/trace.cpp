#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace bench {

namespace {

/// Index of the innermost open span on this thread (parent of the next).
thread_local std::vector<long> open_stack;

}  // namespace

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

void Tracer::enable() {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch_ = Clock::now();
    enabled_.store(true, std::memory_order_relaxed);
}

long Tracer::begin(const std::string& name, long task) {
    const long parent = open_stack.empty() ? -1 : open_stack.back();
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord record;
    record.name = name;
    record.parent = parent;
    record.task = task;
    record.start_us =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
    spans_.push_back(std::move(record));
    const long index = static_cast<long>(spans_.size()) - 1;
    open_stack.push_back(index);
    return index;
}

double Tracer::end(long index) {
    const auto now = Clock::now();
    if (!open_stack.empty() && open_stack.back() == index) open_stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord& record = spans_.at(static_cast<std::size_t>(index));
    record.end_us = std::chrono::duration<double, std::micro>(now - epoch_).count();
    return record.ms();
}

std::vector<SpanRecord> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[512];
    for (const SpanRecord& s : spans_) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"layer\": \"%s\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f, \"parent\": %ld, \"task\": %ld}\n",
                      s.name.c_str(), s.layer().c_str(), s.start_us, s.end_us, s.parent,
                      s.task);
        out << buf;
    }
}

Span::Span(const std::string& name, long task) {
    Tracer& tracer = Tracer::instance();
    if (tracer.enabled()) index_ = tracer.begin(name, task);
}

double Span::close() {
    if (index_ >= 0) {
        ms_ = Tracer::instance().end(index_);
        index_ = -1;
    }
    return ms_;
}

std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans) {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
    for (const SpanRecord& s : spans) {
        if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
    }
    return self;
}

std::map<std::string, NameTotal> totals_by_name(const std::vector<SpanRecord>& spans) {
    std::map<std::string, NameTotal> totals;
    for (const SpanRecord& s : spans) {
        NameTotal& total = totals[s.name];
        ++total.count;
        total.total_ms += s.ms();
    }
    return totals;
}

TaskSelfTimes task_self_times(const std::vector<SpanRecord>& spans, const std::string& root) {
    TaskSelfTimes out;
    const std::vector<double> self = self_times_ms(spans);
    // Parents are recorded before their children, so one forward pass
    // resolves every span's root.
    std::vector<long> root_of(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        root_of[i] = spans[i].parent < 0 ? static_cast<long>(i)
                                         : root_of[static_cast<std::size_t>(spans[i].parent)];
        if (spans[static_cast<std::size_t>(root_of[i])].name != root) continue;
        out.layer_ms[spans[i].layer()] += self[i];
        if (spans[i].parent < 0) {
            ++out.tasks;
            out.task_ms += spans[i].ms();
        }
    }
    return out;
}

std::string format_tables(const TaskSelfTimes& tasks,
                          const std::map<std::string, NameTotal>& names) {
    const double per = tasks.tasks > 0 ? 1.0 / static_cast<double>(tasks.tasks) : 0.0;
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "self time inside %zu replayed tasks\n%-12s %14s %7s\n",
                  tasks.tasks, "layer", "self_ms/task", "share");
    out += buf;
    for (const auto& [layer, ms] : tasks.layer_ms) {
        std::snprintf(buf, sizeof(buf), "%-12s %14.4f %6.1f%%\n", layer.c_str(), ms * per,
                      tasks.task_ms > 0 ? 100.0 * ms / tasks.task_ms : 0.0);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%-12s %14.4f\n\n", "task", tasks.task_ms * per);
    out += buf;
    std::snprintf(buf, sizeof(buf), "%-26s %8s %12s %12s\n", "span", "count", "total_ms",
                  "mean_ms");
    out += buf;
    for (const auto& [name, total] : names) {
        std::snprintf(buf, sizeof(buf), "%-26s %8zu %12.3f %12.4f\n", name.c_str(), total.count,
                      total.total_ms, total.total_ms / static_cast<double>(total.count));
        out += buf;
    }
    return out;
}

}  // namespace bench

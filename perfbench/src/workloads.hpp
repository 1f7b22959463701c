#pragma once

/// \file workloads.hpp
/// The benchmark's workloads. Each returns the process exit code after
/// printing the result line (or, with Args::setup_only, the set-up time).

#include "common.hpp"

namespace bench {

/// adaptive-synth and regression-grid: Session::run on generated tasks.
int run_inprocess(const Args& args);

/// daemon-mixed: an in-process serve::Server driven open-loop.
int run_daemon(const Args& args);

}  // namespace bench

// xpbench: the end-to-end benchmark binary. One workload per process:
//
//   xpbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR [--out DIR]
//           [--setup-only] [--tasks K]
//
// DIR is a private scratch directory (pretrain and GEMM-tune caches, report
// store, ingest archive) that must be empty; --out receives the result
// document and, with --trace 1, the span trace. perfbench/run.py builds
// this binary, samples set-up in extra --setup-only processes and prints
// the result line.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& problem) {
    std::cerr << "xpbench: " << problem
              << "\nusage: xpbench --workload adaptive-synth|regression-grid|daemon-mixed"
                 " --seed N --seconds S --trace 0|1 --dir DIR [--out DIR] [--setup-only]"
                 " [--tasks K]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    bench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) return usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--tasks") {
            args.tasks = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--dir") {
            args.dir = value;
        } else if (flag == "--out") {
            args.out = value;
        } else {
            return usage("unknown flag " + flag);
        }
    }
    if (args.dir.empty()) return usage("--dir is required");
    if (!(args.seconds > 0)) return usage("--seconds must be positive");
    if (!args.setup_only) {
        // The measured run always uses the compiled-default GEMM blocking:
        // the autotune probe picks a different blocking from process to
        // process (moving adaptive task time by ~10% and peak RSS by up to
        // 30 MB), so only the --setup-only samples pay and time the probe.
        setenv("XPDNN_GEMM_TUNE", "off", 1);
    }
    try {
        if (args.workload == "adaptive-synth" || args.workload == "regression-grid") {
            return bench::run_inprocess(args);
        }
        if (args.workload == "daemon-mixed") return bench::run_daemon(args);
    } catch (const std::exception& error) {
        std::cerr << "xpbench: " << error.what() << "\n";
        return 1;
    }
    return usage("unknown workload '" + args.workload + "'");
}

#include "cli/commands.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "measure/archive.hpp"
#include "measure/binary.hpp"
#include "measure/io.hpp"
#include "modeling/modeler.hpp"
#include "modeling/report.hpp"
#include "modeling/session.hpp"
#include "noise/estimator.hpp"
#include "noise/model.hpp"
#include "pmnf/serialize.hpp"
#include "xpcore/cli.hpp"
#include "xpcore/error.hpp"
#include "xpcore/parse.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/store.hpp"
#include "xpcore/table.hpp"

namespace cli {

namespace {

constexpr const char* kUsage = R"(xpdnn - noise-resilient empirical performance modeling

usage:
  xpdnn model <measurements.txt|.arch> [--modeler=adaptive|regression|dnn|...]
        [--aggregation=median|mean|minimum] [--alternatives=N]
        [--eval=x1,x2,...] [--json] [--report=json] [--net=tiny|fast|paper]
        [--seed=S]
        [--ensemble=N]   (dnn modeler only: N-member committee)
        [--simplify]     (drop terms irrelevant at the largest point)
        [--noise-aware]  (adaptive modeler: arbitrate the noise family and
          scale the regression cut-off for heavy-tailed families)
        [--pretrain-noise=f1,f2,...]   (noise families mixed into
          pretraining, e.g. uniform,gaussian,lognormal,mixture)
  xpdnn model-all <archive.txt|.arch> [--group-tolerance=T] [--net=...] [--seed=S]
        [--report=json] [--no-timings]
  xpdnn modelers       (list the registered modeling paths)
  xpdnn noise <measurements.txt|.arch> [--report=json]
  xpdnn convert <input> <output> [--to=text|binary]   (lossless text<->binary
        measurement conversion; direction defaults to the opposite of the
        input, shape (set vs multi-kernel archive) is auto-detected)
  xpdnn ingest <archive.arch> <batch.txt|.arch> [--kernel=K --metric=M]
        [--model] [--report=json]   (append a measurement batch to a live
        binary archive — created when absent, repaired when corrupt — and,
        with --model, re-model the touched experiment incrementally; a
        multi-kernel archive batch ingests every entry, or just the one
        --kernel/--metric selects)
  xpdnn compact <archive.arch>   (merge a live archive's append-only section
        log into one section per (kernel, metric); the measurement content —
        and hence every text materialization — is byte-identical before and
        after, only the section count shrinks)
  xpdnn store <dir> [--evict=N] [--prefix=P]   (inspect an on-disk durable
        store: entry/byte counts and repair tally; --evict=N keeps only the
        N newest entries. --prefix defaults to the daemon report store,
        "xpdnn_report"; the pretrain cache uses "xpdnn_pretrained", the
        GEMM autotuner "gemm_tune")
  xpdnn predict <model.json|report.json> x1 [x2 ...]
  xpdnn simulate <kripke|fastest|relearn> [kernel] --out=<file> [--seed=S]
        [--all-kernels]   (emit a multi-kernel archive for model-all)
        [--noise=<family[:level]|level>]   (override the injected noise:
          family is uniform|gaussian|lognormal|mixture; "gaussian:0.2" pins
          every point to 20% gaussian noise, a bare family keeps the study's
          published level distribution, a bare level keeps uniform)
  xpdnn serve [--port=N] [--workers=N] [--queue=N] [--deadline-ms=N]
        [--no-warm] [--net=...] [--seed=S] [--store=DIR]
        [--store-capacity=N]   (run the xpdnnd daemon; --store persists
        every modeled task's report so predict survives a restart)
  xpdnn request --port=N '<json>'   (send one daemon request, print the reply)
  xpdnn help

`model` and `model-all` also accept --no-timings (zero the report's
wall-clock block, for byte-reproducible --report=json output).

measurement file format (see measure/io.hpp):
  params: p n
  8 1024 : 1.23 1.25 1.22

Every measurement input (model, model-all, noise, ingest batches) may be
either the text format above or an "xpdnn.arch" binary archive (see
docs/FILE_FORMATS.md "Binary archive v1"); the format is sniffed from the
file content, never the extension.
)";

/// One coordinate value. Locale-independent and strict: trailing garbage
/// ("1.5abc") and non-finite values are rejected, with the offending token
/// in the diagnostic.
double parse_coordinate(const std::string& item) {
    double value = 0.0;
    if (!xpcore::parse_double(item, value)) {
        xpcore::Diagnostic diagnostic;
        diagnostic.source = "<point>";
        diagnostic.message = "malformed coordinate '" + item + "'";
        throw xpcore::ValidationError(std::move(diagnostic));
    }
    return value;
}

std::vector<double> parse_point(const std::string& spec) {
    std::vector<double> point;
    std::stringstream stream(spec);
    std::string item;
    while (std::getline(stream, item, ',')) point.push_back(parse_coordinate(item));
    return point;
}

void print_result(const modeling::ReportEntry& result, const measure::ExperimentSet& set,
                  const char* label, bool as_json, bool simplify, std::ostream& out) {
    pmnf::Model model = result.model;
    if (simplify && !set.empty()) {
        // Drop terms that are numerically irrelevant at the largest
        // measured configuration.
        measure::Coordinate reference(set.parameter_count(), 0.0);
        for (const auto& m : set.measurements()) {
            for (std::size_t l = 0; l < reference.size(); ++l) {
                reference[l] = std::max(reference[l], m.point[l]);
            }
        }
        model = model.simplified(reference);
    }
    if (as_json) {
        out << pmnf::to_json(model) << "\n";
    } else {
        out << label << ": " << model.to_string(set.parameter_names())
            << "   [cv-smape " << xpcore::Table::num(result.cv_smape) << "%, fit-smape "
            << xpcore::Table::num(result.fit_smape) << "%]\n";
    }
}

/// Print every structured diagnostic of a failed load, one per line.
template <typename Result>
int report_load_failure(const Result& result, const char* command, std::ostream& err) {
    for (const auto& diagnostic : result.diagnostics) {
        err << "xpdnn " << command << ": " << diagnostic.format() << "\n";
    }
    return 2;
}

int cmd_model(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 2) {
        err << "xpdnn model: missing measurement file\n";
        return 1;
    }
    auto loaded = measure::try_load_set_file_any(args.positionals()[1]);
    if (!loaded.ok()) return report_load_failure(loaded, "model", err);
    const auto set = std::move(*loaded.set);

    std::string modeler_name = args.get("modeler", "adaptive");
    if (!modeling::is_registered(modeler_name)) {
        err << "xpdnn model: unknown --modeler '" << modeler_name << "'\n";
        return 1;
    }
    const auto alternatives = static_cast<std::size_t>(args.get_int("alternatives", 0));
    const bool as_json = args.get_bool("json", false);
    const bool as_report = args.get("report", "") == "json";
    const bool simplify = args.get_bool("simplify", false);

    modeling::Session session(modeling::Options::from_args(args));
    // An N-member committee is its own registered path; `--modeler=dnn
    // --ensemble=N` is the backward-compatible spelling.
    if (modeler_name == "dnn" && session.options().ensemble_members > 1) {
        modeler_name = "ensemble";
    }

    if (!as_json && !as_report) {
        out << "measurements: " << set.size() << " points, "
            << set.parameter_count() << " parameter(s)\n";
        out << "estimated noise: " << xpcore::Table::num(noise::estimate_noise(set) * 100, 1)
            << "%\n";
    }

    modeling::Context context;
    context.alternatives = alternatives;
    modeling::Report report = session.run(modeler_name, set, context);
    // Timings are wall-clock and never reproducible; --no-timings zeroes
    // them so --report=json output is byte-comparable across runs (and
    // against the daemon's "timings": false responses).
    if (args.get_bool("no-timings", false)) report.timings = modeling::Timings{};

    if (as_report) {
        out << modeling::to_json(report) << "\n";
    } else if (report.has_model) {
        print_result(report.selected, set, "model", as_json, simplify, out);
        for (const auto& alternative : report.alternatives) {
            print_result(alternative, set, "alternative", as_json, simplify, out);
        }
        if (!as_json && modeler_name == "adaptive") {
            out << "selected path: " << report.winner << " (regression "
                << (report.used_regression ? "competed" : "switched off") << ")\n";
        }
    }

    if (args.has("eval")) {
        if (!report.has_model) {
            err << "xpdnn model: --modeler=" << modeler_name << " produces no model\n";
            return 1;
        }
        const auto point = parse_point(args.get("eval", ""));
        if (point.size() != set.parameter_count()) {
            err << "xpdnn model: --eval expects " << set.parameter_count() << " coordinates\n";
            return 1;
        }
        out << "prediction at (" << args.get("eval", "")
            << "): " << report.selected.model.evaluate(point) << "\n";
    }
    return 0;
}

int cmd_model_all(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 2) {
        err << "xpdnn model-all: missing archive file\n";
        return 1;
    }
    auto loaded = measure::try_load_archive_file_any(args.positionals()[1]);
    if (!loaded.ok()) return report_load_failure(loaded, "model-all", err);
    const auto archive = std::move(*loaded.archive);
    if (archive.empty()) {
        err << "xpdnn model-all: archive has no entries\n";
        return 1;
    }
    const bool as_report = args.get("report", "") == "json";

    modeling::Session session(modeling::Options::from_args(args));
    std::vector<modeling::Session::Task> tasks;
    for (const auto& entry : archive.entries()) {
        tasks.push_back({entry.kernel + "/" + entry.metric, entry.experiments});
    }
    auto batch = session.run_batch(tasks);

    if (as_report) {
        // Same contract as `model`: --no-timings makes the JSON byte-comparable.
        const bool no_timings = args.get_bool("no-timings", false);
        for (auto& report : batch.reports) {
            if (no_timings) report.timings = modeling::Timings{};
            out << modeling::to_json(report) << "\n";
        }
        return 0;
    }
    xpcore::Table table({"kernel", "noise %", "path", "cv-smape %", "model"});
    for (const auto& report : batch.reports) {
        table.add_row({report.task, xpcore::Table::num(report.noise.estimate * 100, 1),
                       report.winner, xpcore::Table::num(report.selected.cv_smape),
                       report.selected.model.to_string(archive.parameter_names())});
    }
    out << table.to_string();
    out << batch.reports.size() << " kernels modeled with " << batch.adaptations
        << " domain adaptation(s)\n";
    return 0;
}

int cmd_modelers(std::ostream& out) {
    // Capabilities come from throw-away instances; expensive state is lazy,
    // so listing stays cheap.
    modeling::Session session(modeling::Options{});
    xpcore::Table table({"name", "kind", "paths", "alternatives"});
    for (const auto& name : modeling::registered_modelers()) {
        const auto modeler = modeling::create_modeler(name, session);
        const auto caps = modeler->capabilities();
        std::string paths;
        if (caps.uses_regression) paths = "regression";
        if (caps.uses_dnn) paths += paths.empty() ? "dnn" : "+dnn";
        if (paths.empty()) paths = "-";
        table.add_row({name,
                       caps.produces_model ? (caps.batch ? "batch" : "model") : "diagnostic",
                       paths, caps.alternatives ? "yes" : "no"});
    }
    out << table.to_string();
    return 0;
}

int cmd_noise(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 2) {
        err << "xpdnn noise: missing measurement file\n";
        return 1;
    }
    auto loaded = measure::try_load_set_file_any(args.positionals()[1]);
    if (!loaded.ok()) return report_load_failure(loaded, "noise", err);
    const auto set = std::move(*loaded.set);

    modeling::Session session(modeling::Options::from_args(args));
    const auto report = session.run("noise", set);
    if (args.get("report", "") == "json") {
        out << modeling::to_json(report) << "\n";
        return 0;
    }
    out << "points:          " << set.size() << "\n";
    out << "noise estimate:  " << xpcore::Table::num(report.noise.estimate * 100) << "%\n";
    out << "per-point noise: min " << xpcore::Table::num(report.noise.min * 100) << "%, max "
        << xpcore::Table::num(report.noise.max * 100) << "%, mean "
        << xpcore::Table::num(report.noise.mean * 100) << "%, median "
        << xpcore::Table::num(report.noise.median * 100) << "%\n";
    out << "noise family:    " << report.noise.family << " (level "
        << xpcore::Table::num(report.noise.family_level * 100) << "%, score "
        << xpcore::Table::num(report.noise.detection_score) << ")\n";
    return 0;
}

int cmd_predict(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 3) {
        err << "xpdnn predict: usage: xpdnn predict <model.json> x1 [x2 ...]\n";
        return 1;
    }
    std::ifstream in(args.positionals()[1]);
    if (!in) {
        err << "xpdnn predict: cannot open " << args.positionals()[1] << "\n";
        return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    // Accepts both a bare pmnf model document and a full report document.
    const pmnf::Model model =
        modeling::model_from_json_document(buffer.str(), args.positionals()[1]);

    std::vector<double> point;
    for (std::size_t i = 2; i < args.positionals().size(); ++i) {
        point.push_back(parse_coordinate(args.positionals()[i]));
    }
    out << model.evaluate(point) << "\n";
    return 0;
}

int cmd_simulate(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 2) {
        err << "xpdnn simulate: missing application (kripke|fastest|relearn)\n";
        return 1;
    }
    const std::string app = args.positionals()[1];
    casestudy::CaseStudy study;
    if (app == "kripke") {
        study = casestudy::kripke();
    } else if (app == "fastest") {
        study = casestudy::fastest();
    } else if (app == "relearn") {
        study = casestudy::relearn();
    } else {
        err << "xpdnn simulate: unknown application '" << app << "'\n";
        return 1;
    }

    if (args.has("noise")) {
        const std::string spec_text = args.get("noise", "");
        const noise::NoiseSpec spec = noise::parse_noise_spec(spec_text, "--noise");
        study.noise.family = spec.family;
        // A spec that names a level ("0.2", "gaussian:0.2") pins every point
        // to it; a bare family name keeps the study's published level
        // distribution and only swaps the distribution shape.
        if (!noise::is_registered_family(spec_text)) {
            study.noise.min = spec.level;
            study.noise.max = spec.level;
            study.noise.skew = 1.0;
        }
    }

    if (args.get_bool("all-kernels", false)) {
        xpcore::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 2021)));
        const auto archive = study.generate_archive(rng);
        const std::string path = args.get("out", "");
        if (path.empty()) {
            measure::save_archive(archive, out);
        } else {
            measure::save_archive_file(archive, path);
            out << "wrote archive with " << archive.size() << " kernels of "
                << study.application << " to " << path << "\n";
        }
        return 0;
    }

    const casestudy::KernelSpec* kernel = &study.kernels.front();
    if (args.positionals().size() >= 3) {
        kernel = nullptr;
        for (const auto& k : study.kernels) {
            if (k.name == args.positionals()[2]) kernel = &k;
        }
        if (kernel == nullptr) {
            err << "xpdnn simulate: unknown kernel '" << args.positionals()[2] << "' (have:";
            for (const auto& k : study.kernels) err << " " << k.name;
            err << ")\n";
            return 1;
        }
    }

    xpcore::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 2021)));
    const auto set = study.generate_modeling(*kernel, rng);
    const std::string path = args.get("out", "");
    if (path.empty()) {
        measure::save_text(set, out);
    } else {
        measure::save_text_file(set, path);
        out << "wrote " << set.size() << " measurements of " << study.application << "/"
            << kernel->name << " to " << path << "\n";
    }
    return 0;
}

/// True when a text measurement file is a multi-kernel archive (has a
/// "kernel:" header line) rather than a single set. Shape, unlike format,
/// cannot be sniffed from magic bytes in the text case.
bool text_is_archive(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const auto pos = line.find_first_not_of(" \t\r");
        if (pos == std::string::npos) continue;
        if (line.compare(pos, 7, "kernel:") == 0) return true;
    }
    return false;
}

int cmd_convert(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 3) {
        err << "xpdnn convert: usage: xpdnn convert <input> <output> [--to=text|binary]\n";
        return 1;
    }
    const std::string in_path = args.positionals()[1];
    const std::string out_path = args.positionals()[2];
    const bool in_binary = measure::is_binary_file(in_path);
    const std::string to = args.get("to", in_binary ? "text" : "binary");
    if (to != "text" && to != "binary") {
        err << "xpdnn convert: --to must be 'text' or 'binary', got '" << to << "'\n";
        return 1;
    }

    bool is_archive_shape = false;
    if (in_binary) {
        try {
            is_archive_shape = (xpcore::archive::Reader::open(in_path).flags() &
                                xpcore::archive::kFlagSingleSet) == 0;
        } catch (const xpcore::Error& e) {
            err << "xpdnn convert: " << e.diagnostic().format() << "\n";
            return 2;
        }
    } else {
        is_archive_shape = text_is_archive(in_path);
    }

    if (is_archive_shape) {
        auto loaded = measure::try_load_archive_file_any(in_path);
        if (!loaded.ok()) return report_load_failure(loaded, "convert", err);
        std::size_t total = 0;
        for (const auto& entry : loaded.archive->entries()) total += entry.experiments.size();
        if (to == "binary") {
            measure::save_binary_file(*loaded.archive, out_path);
        } else {
            measure::save_archive_file(*loaded.archive, out_path);
        }
        out << "converted archive to " << to << ": " << out_path << " ("
            << loaded.archive->size() << " entries, " << total << " measurements)\n";
    } else {
        auto loaded = measure::try_load_set_file_any(in_path);
        if (!loaded.ok()) return report_load_failure(loaded, "convert", err);
        if (to == "binary") {
            measure::save_binary_file(*loaded.set, out_path);
        } else {
            measure::save_text_file(*loaded.set, out_path);
        }
        out << "converted measurements to " << to << ": " << out_path << " ("
            << loaded.set->size() << " measurements)\n";
    }
    return 0;
}

int cmd_ingest(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 3) {
        err << "xpdnn ingest: usage: xpdnn ingest <archive.arch> <batch.txt|.arch> "
               "[--kernel=K --metric=M] [--model]\n";
        return 1;
    }
    const std::string archive_path = args.positionals()[1];
    const std::string batch_path = args.positionals()[2];
    std::string kernel = args.get("kernel", "");
    std::string metric = args.get("metric", "");
    if (kernel.empty() != metric.empty()) {
        err << "xpdnn ingest: --kernel and --metric must be given together\n";
        return 1;
    }
    const bool do_model = args.get_bool("model", false);

    // Sniff the batch shape like cmd_convert: a multi-kernel archive batch
    // (either format) ingests every entry — or just the one the selector
    // names — while a single-set batch lands under --kernel/--metric (or the
    // single-set flag when none is given).
    bool batch_is_archive = false;
    if (measure::is_binary_file(batch_path)) {
        try {
            batch_is_archive = (xpcore::archive::Reader::open(batch_path).flags() &
                                xpcore::archive::kFlagSingleSet) == 0;
        } catch (const xpcore::Error& e) {
            err << "xpdnn ingest: " << e.diagnostic().format() << "\n";
            return 2;
        }
    } else {
        batch_is_archive = text_is_archive(batch_path);
    }

    // ValidationError (parameter or shape mismatch against a healthy archive)
    // propagates to the top-level handler: exit 2, like every bad input.
    measure::AppendResult appended{xpcore::archive::Writer::OpenStatus::Created, 0, 0};
    if (batch_is_archive) {
        auto loaded = measure::try_load_archive_file_any(batch_path);
        if (!loaded.ok()) return report_load_failure(loaded, "ingest", err);
        if (!kernel.empty()) {
            const auto* entry = loaded.archive->find(kernel, metric);
            if (entry == nullptr || entry->experiments.empty()) {
                err << "xpdnn ingest: batch has no measurements for '" << kernel << "/"
                    << metric << "'\n";
                return 1;
            }
            appended = measure::append_binary_file(archive_path, kernel, metric,
                                                   entry->experiments);
        } else {
            const auto& entries = loaded.archive->entries();
            std::size_t nonempty = 0;
            for (const auto& entry : entries) nonempty += entry.experiments.empty() ? 0 : 1;
            if (nonempty == 0) {
                err << "xpdnn ingest: batch file has no measurements\n";
                return 1;
            }
            if (do_model && nonempty > 1) {
                err << "xpdnn ingest: --model on a multi-kernel batch needs --kernel and "
                       "--metric\n";
                return 1;
            }
            bool first = true;
            for (const auto& entry : entries) {
                if (entry.experiments.empty()) continue;
                // Let a lone entry stand in for the selector so --model works
                // on single-entry archive batches too.
                if (nonempty == 1) {
                    kernel = entry.kernel;
                    metric = entry.metric;
                }
                const auto result = measure::append_binary_file(archive_path, entry.kernel,
                                                                entry.metric, entry.experiments);
                if (first) appended.status = result.status;
                first = false;
                appended.appended += result.appended;
                appended.total = result.total;
            }
        }
    } else {
        auto loaded = measure::try_load_set_file_any(batch_path);
        if (!loaded.ok()) return report_load_failure(loaded, "ingest", err);
        const auto batch = std::move(*loaded.set);
        if (batch.empty()) {
            err << "xpdnn ingest: batch file has no measurements\n";
            return 1;
        }
        appended = kernel.empty()
                       ? measure::append_binary_set_file(archive_path, batch)
                       : measure::append_binary_file(archive_path, kernel, metric, batch);
    }
    const char* status = appended.status == xpcore::archive::Writer::OpenStatus::Created
                             ? "created"
                         : appended.status == xpcore::archive::Writer::OpenStatus::Repaired
                             ? "repaired (corrupt file moved aside)"
                             : "appended";
    const bool as_report = args.get("report", "") == "json";
    if (!(do_model && as_report)) {
        out << "ingest: " << status << " " << archive_path << " (+" << appended.appended
            << " measurements, " << appended.total << " total)\n";
    }
    if (!do_model) return 0;

    // Incremental re-model of the touched experiment only.
    std::string modeler_name = args.get("modeler", "adaptive");
    if (!modeling::is_registered(modeler_name)) {
        err << "xpdnn ingest: unknown --modeler '" << modeler_name << "'\n";
        return 1;
    }
    measure::ExperimentSet task_set;
    if (kernel.empty()) {
        task_set = measure::load_binary_set_file(archive_path);
    } else {
        const auto archive = measure::load_binary_archive_file(archive_path);
        const auto* entry = archive.find(kernel, metric);
        if (entry == nullptr) {
            err << "xpdnn ingest: entry '" << kernel << "/" << metric
                << "' missing after append\n";
            return 2;
        }
        task_set = entry->experiments;
    }
    modeling::Session session(modeling::Options::from_args(args));
    if (modeler_name == "dnn" && session.options().ensemble_members > 1) {
        modeler_name = "ensemble";
    }
    modeling::Report report = session.run(modeler_name, task_set);
    if (args.get_bool("no-timings", false)) report.timings = modeling::Timings{};
    if (as_report) {
        out << modeling::to_json(report) << "\n";
    } else if (report.has_model) {
        print_result(report.selected, task_set, "model", false, false, out);
    }
    return 0;
}

int cmd_compact(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 2) {
        err << "xpdnn compact: usage: xpdnn compact <archive.arch>\n";
        return 1;
    }
    const std::string path = args.positionals()[1];
    if (!measure::is_binary_file(path)) {
        err << "xpdnn compact: " << path << " is not an xpdnn.arch binary archive\n";
        return 2;
    }
    const measure::CompactResult result = measure::compact_binary_file(path);
    char fingerprint[24];
    std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                  static_cast<unsigned long long>(result.content_fingerprint));
    out << "compact: " << path << ": " << result.sections_before << " section(s) -> "
        << result.sections_after << " (" << result.measurements
        << " measurements, content " << fingerprint << ")\n";
    return 0;
}

int cmd_store(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    if (args.positionals().size() < 2) {
        err << "xpdnn store: usage: xpdnn store <dir> [--evict=N] [--prefix=P]\n";
        return 1;
    }
    xpcore::store::Config config;
    config.dir = args.positionals()[1];
    config.prefix = args.get("prefix", "xpdnn_report");
    xpcore::store::Store store(config);
    if (args.has("evict")) {
        const long keep = args.get_int("evict", 0);
        if (keep < 0) {
            err << "xpdnn store: --evict must be a non-negative entry count\n";
            return 1;
        }
        const std::size_t evicted = store.evict(static_cast<std::size_t>(keep));
        out << "store: evicted " << evicted << " entr"
            << (evicted == 1 ? "y" : "ies") << "\n";
    }
    const xpcore::store::Stats stats = store.stats();
    out << "store: " << config.dir << " (prefix " << config.prefix << "): "
        << stats.entries << " entr" << (stats.entries == 1 ? "y" : "ies") << ", "
        << stats.payload_bytes << " payload byte(s), " << stats.repairs
        << " corrupt blob(s) quarantined\n";
    return 0;
}

int cmd_request(const xpcore::CliArgs& args, std::ostream& out, std::ostream& err) {
    const long port = args.get_int("port", 0);
    if (port <= 0 || port > 65535) {
        err << "xpdnn request: --port=N is required\n";
        return 1;
    }
    if (args.positionals().size() < 2) {
        err << "xpdnn request: usage: xpdnn request --port=N '<json>'\n";
        return 1;
    }
    const int timeout_ms = static_cast<int>(args.get_int("timeout-ms", 30'000));
    serve::Client client(static_cast<std::uint16_t>(port), timeout_ms);
    out << client.request(args.positionals()[1], timeout_ms) << "\n";
    return 0;
}

}  // namespace

int run(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
    if (argc < 2) {
        err << kUsage;
        return 1;
    }
    const std::string command = argv[1];
    // Re-parse with the subcommand as positional[0] stripped off naturally:
    // CliArgs skips argv[0], so the subcommand becomes positionals()[0].
    const xpcore::CliArgs args(argc, argv);
    try {
        if (command == "model") return cmd_model(args, out, err);
        if (command == "model-all") return cmd_model_all(args, out, err);
        if (command == "modelers") return cmd_modelers(out);
        if (command == "noise") return cmd_noise(args, out, err);
        if (command == "predict") return cmd_predict(args, out, err);
        if (command == "convert") return cmd_convert(args, out, err);
        if (command == "ingest") return cmd_ingest(args, out, err);
        if (command == "compact") return cmd_compact(args, out, err);
        if (command == "store") return cmd_store(args, out, err);
        if (command == "simulate") return cmd_simulate(args, out, err);
        if (command == "serve") return serve::daemon_main(args, out, err);
        if (command == "request") return cmd_request(args, out, err);
        if (command == "help" || command == "--help") {
            out << kUsage;
            return 0;
        }
        err << "xpdnn: unknown command '" << command << "'\n\n" << kUsage;
        return 1;
    } catch (const std::exception& e) {
        err << "xpdnn " << command << ": " << e.what() << "\n";
        return 2;
    }
}

}  // namespace cli

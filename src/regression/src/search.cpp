#include "regression/search.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "factor_table.hpp"
#include "xpcore/metrics.hpp"
#include "xpcore/stats.hpp"
#include "xpcore/thread_pool.hpp"

namespace regression {

std::vector<RankedCandidate> rank_single_parameter(std::span<const double> xs,
                                                   std::span<const double> ys,
                                                   std::size_t max_folds) {
    if (xs.size() != ys.size() || xs.size() < 2) {
        throw std::invalid_argument("rank_single_parameter: need >= 2 (x, y) pairs");
    }
    std::vector<measure::Coordinate> points;
    points.reserve(xs.size());
    for (double x : xs) points.push_back({x});

    // Every class is evaluated once per point up front; the pool only reads
    // the table.
    const auto classes = pmnf::exponent_set();
    detail::FactorTable table(points);
    std::vector<detail::TableShape> shapes(classes.size());
    for (std::size_t i = 0; i < classes.size(); ++i) {
        if (!classes[i].is_constant()) shapes[i].terms.push_back({table.column({0, classes[i]})});
    }

    // The 43 hypotheses are independent; score them across the pool. Each
    // index writes its own slot, so the result is order-deterministic.
    std::vector<RankedCandidate> ranked(classes.size());
    xpcore::parallel_for(
        xpcore::ThreadPool::global(), classes.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                ranked[i] = {classes[i], detail::cv_smape(shapes[i], table, ys, max_folds)};
            }
        },
        /*grain=*/8);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const RankedCandidate& a, const RankedCandidate& b) {
                         if (a.cv_smape != b.cv_smape) return a.cv_smape < b.cv_smape;
                         // Tie-break toward the simpler explanation, mirroring
                         // the PMNF prior's bias-variance reasoning.
                         return a.cls.effective_exponent() < b.cls.effective_exponent();
                     });
    return ranked;
}

std::vector<std::vector<std::vector<std::size_t>>> set_partitions(std::size_t m) {
    std::vector<std::vector<std::vector<std::size_t>>> result;
    std::vector<std::vector<std::size_t>> current;

    // Classic recursive scheme: element k joins an existing block or opens
    // a new one. Deterministic order; Bell(3) = 5, Bell(4) = 15.
    auto recurse = [&](auto&& self, std::size_t k) -> void {
        if (k == m) {
            result.push_back(current);
            return;
        }
        // Index-based iteration: the recursion below grows `current`, which
        // can reallocate and would invalidate references into it.
        const std::size_t blocks = current.size();
        for (std::size_t b = 0; b < blocks; ++b) {
            current[b].push_back(k);
            self(self, k + 1);
            current[b].pop_back();
        }
        current.push_back({k});
        self(self, k + 1);
        current.pop_back();
    };
    recurse(recurse, 0);
    return result;
}

namespace {

/// Canonical key for duplicate pruning of shapes.
std::vector<std::vector<std::pair<std::size_t, std::size_t>>> shape_key(
    const CandidateShape& shape) {
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> key;
    for (const auto& term : shape.terms) {
        std::vector<std::pair<std::size_t, std::size_t>> factors;
        for (const auto& f : term) factors.emplace_back(f.parameter, pmnf::class_index(f.cls));
        std::sort(factors.begin(), factors.end());
        key.push_back(std::move(factors));
    }
    std::sort(key.begin(), key.end());
    return key;
}

}  // namespace

std::vector<CandidateShape> build_combinations(
    std::span<const std::vector<pmnf::TermClass>> per_parameter_choices) {
    const std::size_t m = per_parameter_choices.size();
    const auto partitions = set_partitions(m);

    std::vector<CandidateShape> shapes;
    std::set<std::vector<std::vector<std::pair<std::size_t, std::size_t>>>> seen;

    // Enumerate the cross product of per-parameter choices.
    std::vector<std::size_t> choice(m, 0);
    for (;;) {
        for (const auto& partition : partitions) {
            CandidateShape shape;
            for (const auto& block : partition) {
                std::vector<pmnf::TermFactor> factors;
                for (std::size_t param : block) {
                    const auto& cls = per_parameter_choices[param][choice[param]];
                    // Constant factors contribute nothing to a product.
                    if (!cls.is_constant()) factors.push_back({param, cls});
                }
                if (!factors.empty()) shape.terms.push_back(std::move(factors));
            }
            if (seen.insert(shape_key(shape)).second) shapes.push_back(std::move(shape));
        }
        // Advance the mixed-radix counter over the choices.
        std::size_t l = 0;
        while (l < m && ++choice[l] == per_parameter_choices[l].size()) {
            choice[l] = 0;
            ++l;
        }
        if (l == m) break;
    }
    return shapes;
}

std::vector<ModelResult> rank_combinations(
    const measure::ExperimentSet& set,
    std::span<const std::vector<pmnf::TermClass>> per_parameter_choices, std::size_t keep,
    std::size_t max_folds, measure::Aggregation aggregation) {
    if (per_parameter_choices.size() != set.parameter_count()) {
        throw std::invalid_argument("rank_combinations: choice arity mismatch");
    }
    for (const auto& choices : per_parameter_choices) {
        if (choices.empty()) {
            throw std::invalid_argument("rank_combinations: empty choice set");
        }
    }

    std::vector<measure::Coordinate> points;
    points.reserve(set.size());
    for (const auto& m : set.measurements()) points.push_back(m.point);
    const std::vector<double> values = measure::aggregate_all(set, aggregation);

    // Every factor of every shape is evaluated once per point up front, so
    // the folds, the final fits and the predictions below only read the
    // table.
    const auto shapes = build_combinations(per_parameter_choices);
    detail::FactorTable table(points);
    std::vector<detail::TableShape> indexed;
    indexed.reserve(shapes.size());
    for (const auto& shape : shapes) indexed.push_back(detail::index_shape(shape, table));

    struct Scored {
        double cv_smape;
        std::size_t coefficients;
        std::size_t shape;
    };
    // Cross-validating the candidate shapes fans out over independent
    // hypothesis combinations — the dominant cost of model selection for
    // multi-parameter sets. Slot-indexed writes keep the ranking (and the
    // stable_sort tie-breaks below) identical for any thread count.
    std::vector<Scored> scored(shapes.size());
    xpcore::parallel_for(
        xpcore::ThreadPool::global(), shapes.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                scored[i] = {detail::cv_smape(indexed[i], table, values, max_folds),
                             shapes[i].coefficient_count(), i};
            }
        },
        /*grain=*/4);
    std::stable_sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
        if (a.cv_smape != b.cv_smape) return a.cv_smape < b.cv_smape;
        // Equal CV score: prefer the simpler shape (fewer coefficients).
        return a.coefficients < b.coefficients;
    });

    std::vector<double> predicted(points.size());
    std::vector<ModelResult> ranked;
    for (const auto& entry : scored) {
        if (ranked.size() >= keep) break;
        const auto& shape = indexed[entry.shape];
        const auto coefficients = detail::fit_rows(shape, table, values, {});
        if (!coefficients) continue;  // degenerate shape: skip, try the next one
        for (std::size_t i = 0; i < points.size(); ++i) {
            predicted[i] = detail::predict(shape, table, *coefficients, i);
        }
        ModelResult result;
        result.model = detail::to_model(shapes[entry.shape], *coefficients);
        result.cv_smape = entry.cv_smape;
        result.fit_smape = xpcore::smape(predicted, values);
        ranked.push_back(std::move(result));
    }
    if (ranked.empty()) {
        // Every shape failed (degenerate data): fall back to the constant.
        ModelResult fallback;
        fallback.model = pmnf::Model::constant_model(xpcore::median(values));
        fallback.cv_smape = fallback.fit_smape = model_smape(fallback.model, points, values);
        ranked.push_back(std::move(fallback));
    }
    return ranked;
}

ModelResult select_best_combination(
    const measure::ExperimentSet& set,
    std::span<const std::vector<pmnf::TermClass>> per_parameter_choices,
    std::size_t max_folds, measure::Aggregation aggregation) {
    return rank_combinations(set, per_parameter_choices, 1, max_folds, aggregation).front();
}

}  // namespace regression

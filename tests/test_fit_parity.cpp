// Bit-identity of the table-driven hypothesis search (label: parity).
//
// The regression search evaluates every (parameter, term class) factor once
// per point and reads the values back for each fold, fit and prediction.
// This suite keeps the pointwise implementation it replaced as a test-local
// reference and pins, on seeded random inputs, that CV scores, fitted
// coefficients and whole rankings are the same doubles bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "measure/aggregation.hpp"
#include "pmnf/exponents.hpp"
#include "pmnf/serialize.hpp"
#include "regression/search.hpp"
#include "xpcore/linalg.hpp"
#include "xpcore/metrics.hpp"
#include "xpcore/rng.hpp"
#include "xpcore/stats.hpp"

namespace {

using namespace regression;
using measure::Coordinate;

// ---------------------------------------------------------------------------
// Reference: pointwise evaluation, every factor recomputed for every row.

double reference_term_value(const std::vector<pmnf::TermFactor>& factors,
                            std::span<const double> point) {
    double product = 1.0;
    for (const auto& factor : factors) product *= factor.cls.evaluate(point[factor.parameter]);
    return product;
}

std::optional<pmnf::Model> reference_fit_shape(const CandidateShape& shape,
                                               std::span<const Coordinate> points,
                                               std::span<const double> values) {
    const std::size_t rows = points.size();
    const std::size_t cols = shape.coefficient_count();
    if (rows < cols) return std::nullopt;
    xpcore::MatrixD a(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        a(r, 0) = 1.0;
        for (std::size_t t = 0; t < shape.terms.size(); ++t) {
            const double v = reference_term_value(shape.terms[t], points[r]);
            if (!std::isfinite(v)) return std::nullopt;
            a(r, t + 1) = v;
        }
    }
    std::vector<double> scale(cols, 1.0);
    for (std::size_t c = 0; c < cols; ++c) {
        double max_mag = 0.0;
        for (std::size_t r = 0; r < rows; ++r) max_mag = std::max(max_mag, std::abs(a(r, c)));
        if (max_mag > 0.0) {
            scale[c] = max_mag;
            for (std::size_t r = 0; r < rows; ++r) a(r, c) /= max_mag;
        }
    }
    const auto solution = xpcore::least_squares(a, values);
    if (!solution) return std::nullopt;
    std::vector<pmnf::CompoundTerm> terms;
    for (std::size_t t = 0; t < shape.terms.size(); ++t) {
        const double coeff = (*solution)[t + 1] / scale[t + 1];
        if (!std::isfinite(coeff)) return std::nullopt;
        terms.push_back({coeff, shape.terms[t]});
    }
    const double constant = (*solution)[0] / scale[0];
    if (!std::isfinite(constant)) return std::nullopt;
    return pmnf::Model(constant, std::move(terms));
}

double reference_cv_smape(const CandidateShape& shape, std::span<const Coordinate> points,
                          std::span<const double> values, std::size_t max_folds = 25) {
    const std::size_t n = points.size();
    if (n <= shape.coefficient_count()) return 200.0;
    const std::size_t folds = std::min(max_folds, n);
    double sum = 0.0;
    std::size_t counted = 0;
    for (std::size_t fold = 0; fold < folds; ++fold) {
        std::vector<Coordinate> train_points;
        std::vector<double> train_values;
        for (std::size_t i = 0; i < n; ++i) {
            if (i % folds == fold) continue;
            train_points.push_back(points[i]);
            train_values.push_back(values[i]);
        }
        const auto fitted = reference_fit_shape(shape, train_points, train_values);
        for (std::size_t i = 0; i < n; ++i) {
            if (i % folds != fold) continue;
            if (fitted) {
                const double pred = fitted->evaluate(points[i]);
                const double denom = (std::abs(values[i]) + std::abs(pred)) / 2.0;
                if (denom == 0.0) continue;
                sum += xpcore::smape_term(pred, values[i]);
                ++counted;
            } else {
                sum += 200.0;
                ++counted;
            }
        }
    }
    if (counted == 0) return 0.0;
    return sum / static_cast<double>(counted);
}

/// The pre-table rank_combinations, serial.
std::vector<ModelResult> reference_rank(const measure::ExperimentSet& set,
                                        const std::vector<std::vector<pmnf::TermClass>>& choices,
                                        std::size_t keep, std::size_t max_folds) {
    std::vector<Coordinate> points;
    for (const auto& m : set.measurements()) points.push_back(m.point);
    const auto values = measure::aggregate_all(set, measure::Aggregation::Median);
    const auto shapes = build_combinations(choices);
    std::vector<std::pair<double, std::size_t>> scored;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        scored.emplace_back(reference_cv_smape(shapes[i], points, values, max_folds), i);
    }
    std::stable_sort(scored.begin(), scored.end(), [&](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first < b.first;
        return shapes[a.second].coefficient_count() < shapes[b.second].coefficient_count();
    });
    std::vector<ModelResult> ranked;
    for (const auto& [cv, index] : scored) {
        if (ranked.size() >= keep) break;
        const auto fitted = reference_fit_shape(shapes[index], points, values);
        if (!fitted) continue;
        ranked.push_back({*fitted, cv, model_smape(*fitted, points, values)});
    }
    if (ranked.empty()) {
        ModelResult fallback;
        fallback.model = pmnf::Model::constant_model(xpcore::median(values));
        fallback.cv_smape = fallback.fit_smape = model_smape(fallback.model, points, values);
        ranked.push_back(fallback);
    }
    return ranked;
}

// ---------------------------------------------------------------------------
// Comparison helpers and seeded inputs.

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_model(const pmnf::Model& actual, const pmnf::Model& expected,
                       const std::string& where) {
    EXPECT_EQ(bits(actual.constant()), bits(expected.constant())) << where;
    ASSERT_EQ(actual.terms().size(), expected.terms().size()) << where;
    for (std::size_t t = 0; t < actual.terms().size(); ++t) {
        EXPECT_EQ(bits(actual.terms()[t].coefficient), bits(expected.terms()[t].coefficient))
            << where << " term " << t;
    }
    EXPECT_EQ(pmnf::to_json(actual), pmnf::to_json(expected)) << where;
}

void expect_same_fit(const CandidateShape& shape, std::span<const Coordinate> points,
                     std::span<const double> values, std::size_t max_folds,
                     const std::string& where) {
    EXPECT_EQ(bits(cross_validated_smape(shape, points, values, max_folds)),
              bits(reference_cv_smape(shape, points, values, max_folds)))
        << where;
    const auto actual = fit_shape(shape, points, values);
    const auto expected = reference_fit_shape(shape, points, values);
    ASSERT_EQ(actual.has_value(), expected.has_value()) << where;
    if (actual) expect_same_model(*actual, *expected, where);
}

pmnf::TermClass random_class(xpcore::Rng& rng) {
    const auto classes = pmnf::exponent_set();
    for (;;) {
        const auto& cls = rng.pick(classes);
        if (!cls.is_constant()) return cls;
    }
}

/// 1-3 terms; each term a product over a random non-empty parameter subset.
CandidateShape random_shape(xpcore::Rng& rng, std::size_t m) {
    CandidateShape shape;
    const auto terms = rng.uniform_int(1, 3);
    for (std::int64_t t = 0; t < terms; ++t) {
        std::vector<pmnf::TermFactor> factors;
        for (std::size_t l = 0; l < m; ++l) {
            if (rng.chance(0.6)) factors.push_back({l, random_class(rng)});
        }
        if (factors.empty()) factors.push_back({0, random_class(rng)});
        shape.terms.push_back(std::move(factors));
    }
    return shape;
}

std::vector<Coordinate> random_points(xpcore::Rng& rng, std::size_t m, std::size_t n) {
    std::vector<Coordinate> points(n, Coordinate(m));
    for (auto& point : points) {
        for (auto& x : point) x = rng.uniform(1.0, 1000.0);
    }
    return points;
}

std::vector<double> noisy_values(xpcore::Rng& rng, const CandidateShape& truth,
                                 std::span<const Coordinate> points) {
    std::vector<double> values;
    const double constant = rng.uniform(-5.0, 50.0);
    for (const auto& point : points) {
        double v = constant;
        for (const auto& term : truth.terms) v += 0.01 * reference_term_value(term, point);
        values.push_back(v * (1.0 + rng.uniform(-0.1, 0.1)));
    }
    return values;
}

TEST(FitParity, RandomShapesLeaveOneOutAndKFold) {
    xpcore::Rng rng(2024);
    for (int trial = 0; trial < 120; ++trial) {
        const std::size_t m = 1 + static_cast<std::size_t>(trial % 3);
        // Leave-one-out below the fold cap, 25-fold above it, and a 3-fold
        // split with uneven fold sizes.
        const std::size_t n = trial % 4 == 0 ? 125 : 5 + static_cast<std::size_t>(trial % 17);
        const std::size_t max_folds = trial % 5 == 0 ? 3 : 25;
        const auto points = random_points(rng, m, n);
        const auto truth = random_shape(rng, m);
        const auto values = noisy_values(rng, truth, points);
        const auto shape = rng.chance(0.5) ? truth : random_shape(rng, m);
        expect_same_fit(shape, points, values, max_folds,
                        "trial " + std::to_string(trial) + " m=" + std::to_string(m) +
                            " n=" + std::to_string(n));
    }
}

TEST(FitParity, UnderdeterminedShapesScoreWorst) {
    xpcore::Rng rng(7);
    const auto points = random_points(rng, 2, 5);
    const std::vector<double> values = {1.0, 2.0, 3.0, 5.0, 8.0};
    CandidateShape shape;
    for (int t = 0; t < 5; ++t) shape.terms.push_back({{t % 2u, random_class(rng)}});
    // 6 coefficients on 5 points: nothing can be left out, nothing fits.
    ASSERT_EQ(cross_validated_smape(shape, points, values), 200.0);
    expect_same_fit(shape, points, values, 25, "n <= coefficients");
    // 4 coefficients: 2-fold training splits of 2-3 rows never fit, while
    // leave-one-out trains on exactly 4.
    shape.terms.resize(3);
    ASSERT_EQ(cross_validated_smape(shape, points, values, 2), 200.0);
    expect_same_fit(shape, points, values, 2, "every fold under-determined");
    expect_same_fit(shape, points, values, 25, "square leave-one-out folds");
}

TEST(FitParity, NonFiniteTermsFailFoldFits) {
    // x^3 at 1e110 overflows to inf: every fold that trains on that point
    // fails, and the fold that holds it out predicts from a finite fit.
    std::vector<Coordinate> points;
    std::vector<double> values;
    for (double x : {2.0, 4.0, 8.0, 16.0, 1e110, 32.0, 64.0}) {
        points.push_back({x, 3.0});
        values.push_back(1.0 + 0.5 * std::min(x, 100.0));
    }
    CandidateShape cubic;
    cubic.terms.push_back({{0, {pmnf::Rational(3), 0}}});
    CandidateShape compound;
    compound.terms.push_back({{1, {pmnf::Rational(1, 2), 0}}, {0, {pmnf::Rational(3), 0}}});
    compound.terms.push_back({{0, {pmnf::Rational(0), 1}}});
    for (std::size_t folds : {25u, 3u}) {
        expect_same_fit(cubic, points, values, folds, "cubic, folds " + std::to_string(folds));
        expect_same_fit(compound, points, values, folds,
                        "compound, folds " + std::to_string(folds));
    }
    EXPECT_FALSE(fit_shape(cubic, points, values).has_value());
}

TEST(FitParity, BothZeroHeldOutPairsAreSkippedIdentically) {
    xpcore::Rng rng(11);
    const auto points = random_points(rng, 2, 9);
    CandidateShape shape;
    shape.terms.push_back({{0, {pmnf::Rational(1), 0}}, {1, {pmnf::Rational(0), 1}}});
    const std::vector<double> zeros(points.size(), 0.0);
    expect_same_fit(shape, points, zeros, 25, "all zero");
    EXPECT_EQ(cross_validated_smape(shape, points, zeros), 0.0);
    std::vector<double> mixed = noisy_values(rng, shape, points);
    for (std::size_t i = 0; i < mixed.size(); i += 2) mixed[i] = 0.0;
    expect_same_fit(shape, points, mixed, 25, "half zero");
    expect_same_fit(shape, points, mixed, 4, "half zero, 4 folds");

    // A constant fit predicts exactly 0 where the training values cancel, so
    // the held-out zeros at rows 0 and 7 are both-zero pairs, left out of
    // the average between nonzero ones.
    const std::vector<double> cancelling = {0.0, 3.0, -3.0, 5.0, -5.0, 7.0, -7.0, 0.0};
    const auto line = random_points(rng, 1, cancelling.size());
    expect_same_fit(CandidateShape{}, line, cancelling, 25, "cancelling constant");
}

measure::ExperimentSet random_grid_set(xpcore::Rng& rng, std::size_t m) {
    std::vector<std::string> names;
    for (std::size_t l = 0; l < m; ++l) names.push_back("x" + std::to_string(l + 1));
    measure::ExperimentSet set(names);
    const auto truth = random_shape(rng, m);
    const std::vector<double> axis = {4.0, 8.0, 16.0, 32.0, 64.0};
    std::vector<std::size_t> index(m, 0);
    for (;;) {
        Coordinate point;
        for (std::size_t l = 0; l < m; ++l) point.push_back(axis[index[l]]);
        double v = 3.0;
        for (const auto& term : truth.terms) v += 0.2 * reference_term_value(term, point);
        std::vector<double> reps;
        for (int r = 0; r < 5; ++r) reps.push_back(v * (1.0 + rng.uniform(-0.05, 0.05)));
        set.add(point, reps);
        std::size_t l = 0;
        while (l < m && ++index[l] == axis.size()) index[l++] = 0;
        if (l == m) break;
    }
    return set;
}

TEST(FitParity, RankCombinationsMatchesPointwiseRanking) {
    xpcore::Rng rng(99);
    for (int trial = 0; trial < 9; ++trial) {
        const std::size_t m = 1 + static_cast<std::size_t>(trial % 3);
        const auto set = random_grid_set(rng, m);
        std::vector<std::vector<pmnf::TermClass>> choices(m);
        for (auto& per_parameter : choices) {
            for (int k = 0; k < 3; ++k) per_parameter.push_back(random_class(rng));
            per_parameter.push_back(pmnf::TermClass{});
        }
        for (std::size_t max_folds : {25u, 7u}) {
            const auto actual = rank_combinations(set, choices, 4, max_folds);
            const auto expected = reference_rank(set, choices, 4, max_folds);
            const std::string where =
                "trial " + std::to_string(trial) + " folds " + std::to_string(max_folds);
            ASSERT_EQ(actual.size(), expected.size()) << where;
            for (std::size_t r = 0; r < actual.size(); ++r) {
                EXPECT_EQ(bits(actual[r].cv_smape), bits(expected[r].cv_smape)) << where;
                EXPECT_EQ(bits(actual[r].fit_smape), bits(expected[r].fit_smape)) << where;
                expect_same_model(actual[r].model, expected[r].model,
                                  where + " rank " + std::to_string(r));
            }
        }
    }
}

TEST(FitParity, RankSingleParameterMatchesPointwiseScores) {
    xpcore::Rng rng(5);
    for (int trial = 0; trial < 6; ++trial) {
        std::vector<double> xs;
        for (double x = 2.0; xs.size() < 5 + static_cast<std::size_t>(trial); x *= 2.0) {
            xs.push_back(x);
        }
        std::vector<double> ys;
        const auto truth = random_class(rng);
        for (double x : xs) {
            ys.push_back((2.0 + truth.evaluate(x)) * (1.0 + rng.uniform(-0.1, 0.1)));
        }
        std::vector<Coordinate> points;
        for (double x : xs) points.push_back({x});

        const auto ranked = rank_single_parameter(xs, ys);
        ASSERT_EQ(ranked.size(), pmnf::class_count());
        for (const auto& candidate : ranked) {
            CandidateShape shape;
            if (!candidate.cls.is_constant()) shape.terms.push_back({{0, candidate.cls}});
            EXPECT_EQ(bits(candidate.cv_smape), bits(reference_cv_smape(shape, points, ys)))
                << candidate.cls.to_string();
        }
    }
}

}  // namespace

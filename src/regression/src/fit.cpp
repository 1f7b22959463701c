#include "regression/fit.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "factor_table.hpp"
#include "xpcore/linalg.hpp"
#include "xpcore/metrics.hpp"

namespace regression {

namespace detail {

std::size_t FactorTable::column(const pmnf::TermFactor& factor) {
    const auto found = std::find(factors_.begin(), factors_.end(), factor);
    if (found != factors_.end()) return static_cast<std::size_t>(found - factors_.begin());
    factors_.push_back(factor);
    const std::size_t begin = values_.size();
    values_.resize(begin + points_.size());
    for (std::size_t row = 0; row < points_.size(); ++row) {
        assert(factor.parameter < points_[row].size());
        values_[begin + row] = factor.cls.evaluate(points_[row][factor.parameter]);
    }
    return factors_.size() - 1;
}

TableShape index_shape(const CandidateShape& shape, FactorTable& table) {
    TableShape indexed;
    indexed.terms.reserve(shape.terms.size());
    for (const auto& term : shape.terms) {
        std::vector<std::size_t> columns;
        columns.reserve(term.size());
        for (const auto& factor : term) columns.push_back(table.column(factor));
        indexed.terms.push_back(std::move(columns));
    }
    return indexed;
}

std::optional<std::vector<double>> fit_rows(const TableShape& shape, const FactorTable& table,
                                            std::span<const double> values, Split split) {
    const std::size_t n = table.rows();
    const std::size_t held_out =
        split.held_out < std::min(split.folds, n) ? (n - 1 - split.held_out) / split.folds + 1 : 0;
    const std::size_t rows = n - held_out;
    const std::size_t cols = shape.coefficient_count();
    if (rows < cols) return std::nullopt;  // under-determined

    // Design matrix: column 0 is the constant, one column per term.
    xpcore::MatrixD a(rows, cols);
    std::vector<double> b(rows);
    std::size_t row = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % split.folds == split.held_out) continue;
        a(row, 0) = 1.0;
        for (std::size_t t = 0; t < shape.terms.size(); ++t) {
            double v = 1.0;
            for (const std::size_t column : shape.terms[t]) v *= table.value(column, i);
            if (!std::isfinite(v)) return std::nullopt;
            a(row, t + 1) = v;
        }
        b[row++] = values[i];
    }

    // Column scaling for conditioning: term values span many orders of
    // magnitude (x^3 at x = 32768), which would wreck the normal equations.
    std::vector<double> scale(cols, 1.0);
    for (std::size_t c = 0; c < cols; ++c) {
        double max_mag = 0.0;
        for (std::size_t r = 0; r < rows; ++r) max_mag = std::max(max_mag, std::abs(a(r, c)));
        if (max_mag > 0.0) {
            scale[c] = max_mag;
            for (std::size_t r = 0; r < rows; ++r) a(r, c) /= max_mag;
        }
    }

    auto solution = xpcore::least_squares(a, b);
    if (!solution) return std::nullopt;
    for (std::size_t c = 0; c < cols; ++c) {
        (*solution)[c] /= scale[c];
        if (!std::isfinite((*solution)[c])) return std::nullopt;
    }
    return solution;
}

double predict(const TableShape& shape, const FactorTable& table,
               std::span<const double> coefficients, std::size_t row) {
    double sum = coefficients[0];
    for (std::size_t t = 0; t < shape.terms.size(); ++t) {
        double product = coefficients[t + 1];
        for (const std::size_t column : shape.terms[t]) product *= table.value(column, row);
        sum += product;
    }
    return sum;
}

pmnf::Model to_model(const CandidateShape& shape, std::span<const double> coefficients) {
    std::vector<pmnf::CompoundTerm> terms;
    terms.reserve(shape.terms.size());
    for (std::size_t t = 0; t < shape.terms.size(); ++t) {
        terms.push_back({coefficients[t + 1], shape.terms[t]});
    }
    return pmnf::Model(coefficients[0], std::move(terms));
}

double cv_smape(const TableShape& shape, const FactorTable& table,
                std::span<const double> values, std::size_t max_folds) {
    const std::size_t n = table.rows();
    if (n <= shape.coefficient_count()) return 200.0;  // cannot leave anything out

    const std::size_t folds = std::min(max_folds, n);
    double sum = 0.0;
    std::size_t counted = 0;

    for (std::size_t fold = 0; fold < folds; ++fold) {
        const auto coefficients = fit_rows(shape, table, values, {folds, fold});
        for (std::size_t i = fold; i < n; i += folds) {
            if (coefficients) {
                const double pred = predict(shape, table, *coefficients, i);
                const double denom = (std::abs(values[i]) + std::abs(pred)) / 2.0;
                if (denom == 0.0) continue;  // both zero: perfect, uncounted
                sum += xpcore::smape_term(pred, values[i]);
                ++counted;
            } else {
                // A failed training fit scores the worst possible error for
                // every held-out point — explicitly, not via a sign-flipped
                // prediction, which would rate a held-out value of 0 as a
                // perfect prediction and let degenerate hypotheses win.
                sum += 200.0;
                ++counted;
            }
        }
    }
    if (counted == 0) return 0.0;
    return sum / static_cast<double>(counted);
}

}  // namespace detail

std::optional<pmnf::Model> fit_shape(const CandidateShape& shape,
                                     std::span<const measure::Coordinate> points,
                                     std::span<const double> values) {
    if (values.size() != points.size()) return std::nullopt;
    detail::FactorTable table(points);
    const auto coefficients =
        detail::fit_rows(detail::index_shape(shape, table), table, values, {});
    if (!coefficients) return std::nullopt;
    return detail::to_model(shape, *coefficients);
}

double model_smape(const pmnf::Model& model, std::span<const measure::Coordinate> points,
                   std::span<const double> values) {
    std::vector<double> predicted(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) predicted[i] = model.evaluate(points[i]);
    return xpcore::smape(predicted, values);
}

double cross_validated_smape(const CandidateShape& shape,
                             std::span<const measure::Coordinate> points,
                             std::span<const double> values, std::size_t max_folds) {
    detail::FactorTable table(points);
    return detail::cv_smape(detail::index_shape(shape, table), table, values, max_folds);
}

}  // namespace regression

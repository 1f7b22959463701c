#pragma once

/// \file factor_table.hpp
/// The factor-value table of one hypothesis search (private to the library).
///
/// Ranking candidate shapes fits the same few (parameter, term class)
/// factors again and again: every training row of every fold of every
/// shape. The table evaluates each distinct factor once per point, before
/// any fit runs; the CV folds, the final fits and the held-out predictions
/// then only read it. A table is built on the stack of the search that owns
/// it and is read-only while the pool works on it, so concurrent searches
/// share nothing.
///
/// Results are bit-identical to evaluating the factors pointwise: design
/// matrix entries are formed as 1.0 * f1 * f2 ... and predictions as
/// constant + sum (coefficient * f1 * f2 ...), in the factor order that
/// pmnf::CompoundTerm::evaluate uses.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "measure/experiment.hpp"
#include "pmnf/model.hpp"
#include "regression/fit.hpp"

namespace regression::detail {

/// Column-major values of distinct factors at every point of one search.
class FactorTable {
public:
    explicit FactorTable(std::span<const measure::Coordinate> points) : points_(points) {}

    std::size_t rows() const { return points_.size(); }

    /// Column of `factor`, evaluated at every point on first use.
    std::size_t column(const pmnf::TermFactor& factor);

    double value(std::size_t column, std::size_t row) const {
        return values_[column * points_.size() + row];
    }

private:
    std::span<const measure::Coordinate> points_;
    std::vector<pmnf::TermFactor> factors_;  ///< factor of each column
    std::vector<double> values_;
};

/// A candidate shape whose factors are table columns, in factor order.
struct TableShape {
    std::vector<std::vector<std::size_t>> terms;

    std::size_t coefficient_count() const { return terms.size() + 1; }
};

/// Register every factor of `shape` with the table.
TableShape index_shape(const CandidateShape& shape, FactorTable& table);

/// The rows a fit trains on: every row except those with
/// row % folds == held_out. The default holds nothing out.
struct Split {
    std::size_t folds = 1;
    std::size_t held_out = 1;
};

/// Least-squares coefficients of `shape` fitted on the training rows of
/// `split` (values indexed by row): the constant first, then one per term.
/// nullopt exactly when fit_shape would fail on those rows.
std::optional<std::vector<double>> fit_rows(const TableShape& shape, const FactorTable& table,
                                            std::span<const double> values, Split split);

/// The fitted shape's prediction at table row `row`.
double predict(const TableShape& shape, const FactorTable& table,
               std::span<const double> coefficients, std::size_t row);

/// The model of `shape` with fitted `coefficients` (as fit_rows returns them).
pmnf::Model to_model(const CandidateShape& shape, std::span<const double> coefficients);

/// cross_validated_smape over the table rows.
double cv_smape(const TableShape& shape, const FactorTable& table,
                std::span<const double> values, std::size_t max_folds);

}  // namespace regression::detail

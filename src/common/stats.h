// Summary statistics used throughout evaluation: running moments, quantiles,
// and regression-quality metrics live here so that every bench reports
// numbers computed the same way.
#pragma once

#include <cstddef>
#include <vector>

namespace phoebe {

/// \brief Online mean/variance accumulator (Welford).
class RunningStats {
 public:
  void Add(double x);
  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Quantile of a sample via linear interpolation between order statistics.
/// `q` in [0, 1]. The input need not be sorted. Returns 0 for empty input.
double Quantile(std::vector<double> values, double q);

/// Median convenience wrapper.
double Median(std::vector<double> values);

/// Coefficient of determination R^2 = 1 - SS_res / SS_tot.
/// Returns 0 when the target has zero variance.
double RSquared(const std::vector<double>& y_true, const std::vector<double>& y_pred);

/// Pearson correlation coefficient; 0 when either side has zero variance.
double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y);

/// QError(y, yhat) = max(y/yhat, yhat/y), the symmetric ratio error used for
/// cardinality/runtime estimates (Moerkotte et al.). Values are clamped below
/// by `eps` to keep the ratio finite.
double QError(double y_true, double y_pred, double eps = 1e-9);

}  // namespace phoebe

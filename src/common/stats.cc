#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace phoebe {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  PHOEBE_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double RSquared(const std::vector<double>& y_true, const std::vector<double>& y_pred) {
  PHOEBE_CHECK(y_true.size() == y_pred.size());
  if (y_true.empty()) return 0.0;
  double mean = 0.0;
  for (double y : y_true) mean += y;
  mean /= static_cast<double>(y_true.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    double r = y_true[i] - y_pred[i];
    double t = y_true[i] - mean;
    ss_res += r * r;
    ss_tot += t * t;
  }
  if (ss_tot <= 0.0) return 0.0;
  return 1.0 - ss_res / ss_tot;
}

double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y) {
  PHOEBE_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(y.size());
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double QError(double y_true, double y_pred, double eps) {
  double a = std::max(std::abs(y_true), eps);
  double b = std::max(std::abs(y_pred), eps);
  return std::max(a / b, b / a);
}

}  // namespace phoebe

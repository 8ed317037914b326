// Dense feature matrices and supervised datasets for the ML substrate.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace phoebe::ml {

/// \brief Row-major dense matrix of feature values with named columns.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;
  explicit FeatureMatrix(std::vector<std::string> feature_names)
      : names_(std::move(feature_names)) {}

  size_t num_rows() const { return names_.empty() ? 0 : data_.size() / names_.size(); }
  size_t num_features() const { return names_.size(); }
  const std::vector<std::string>& feature_names() const { return names_; }

  /// Append one row; must have exactly num_features() values.
  void AddRow(std::span<const double> row);

  /// Drop all rows but keep the column names and the underlying row storage —
  /// the reuse hook for per-worker featurization scratch (see core/engine.h
  /// DecideScratch): repeated JobMatrixInto fills stop allocating once the
  /// matrix has seen its widest job.
  void ClearRows() { data_.clear(); }

  std::span<const double> Row(size_t i) const;
  double At(size_t row, size_t col) const { return data_[row * names_.size() + col]; }
  void Set(size_t row, size_t col, double v) { data_[row * names_.size() + col] = v; }

 private:
  std::vector<std::string> names_;
  std::vector<double> data_;
};

/// \brief Features plus regression target.
struct Dataset {
  FeatureMatrix x;
  std::vector<double> y;

  size_t size() const { return y.size(); }
  Status Validate() const;

  /// Subset by row indices.
  Dataset Subset(const std::vector<size_t>& rows) const;
};

}  // namespace phoebe::ml

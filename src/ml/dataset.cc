#include "ml/dataset.h"

#include "common/strings.h"

namespace phoebe::ml {

void FeatureMatrix::AddRow(std::span<const double> row) {
  PHOEBE_CHECK(row.size() == names_.size());
  data_.insert(data_.end(), row.begin(), row.end());
}

std::span<const double> FeatureMatrix::Row(size_t i) const {
  PHOEBE_CHECK(i < num_rows());
  return {data_.data() + i * names_.size(), names_.size()};
}

Status Dataset::Validate() const {
  if (x.num_rows() != y.size()) {
    return Status::InvalidArgument(StrFormat("feature rows (%zu) != targets (%zu)",
                                             x.num_rows(), y.size()));
  }
  if (x.num_features() == 0 && !y.empty()) {
    return Status::InvalidArgument("dataset has rows but no features");
  }
  return Status::OK();
}

Dataset Dataset::Subset(const std::vector<size_t>& rows) const {
  Dataset out;
  out.x = FeatureMatrix(x.feature_names());
  out.y.reserve(rows.size());
  for (size_t r : rows) {
    out.x.AddRow(x.Row(r));
    out.y.push_back(y[r]);
  }
  return out;
}

}  // namespace phoebe::ml

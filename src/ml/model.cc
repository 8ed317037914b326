#include "ml/model.h"

#include <numeric>

namespace phoebe::ml {

std::vector<double> Regressor::PredictBatch(const FeatureMatrix& x) const {
  std::vector<size_t> rows(x.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::vector<double> out;
  PredictRowsInto(x, rows, &out);
  return out;
}

void Regressor::PredictRowsInto(const FeatureMatrix& x, std::span<const size_t> rows,
                                std::vector<double>* out) const {
  out->resize(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) (*out)[k] = Predict(x.Row(rows[k]));
}

}  // namespace phoebe::ml

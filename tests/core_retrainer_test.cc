// Tests for the retrain policy's validation and solver node-selection parity
// (the best-first MILP option shares this file for build economy). The
// policy's triggers — bootstrap, accuracy, age — are exercised through
// LifecycleDriver in lifecycle_test.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/retrainer.h"
#include "solver/milp.h"

namespace phoebe::core {
namespace {

TEST(RetrainPolicyTest, Validation) {
  EXPECT_TRUE(RetrainPolicy{}.Validate().ok());
  RetrainPolicy p;
  p.max_age_days = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = RetrainPolicy{};
  p.min_exec_r2 = 2.0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(RetrainPolicyTest, ValidationRejectsBadWindows) {
  RetrainPolicy p;
  p.train_window_days = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = RetrainPolicy{};
  p.min_history_days = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = RetrainPolicy{};
  p.min_exec_r2 = -2.0;  // below the R^2 floor of -1
  EXPECT_FALSE(p.Validate().ok());
  // The boundary values are all legal.
  p = RetrainPolicy{};
  p.min_exec_r2 = -1.0;
  p.max_age_days = 1;
  p.train_window_days = 1;
  p.min_history_days = 1;
  EXPECT_TRUE(p.Validate().ok());
}

// ---------- MILP node-selection parity ----------

TEST(NodeSelectionTest, BestFirstMatchesDepthFirstOptimum) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 10));
    solver::Model m;
    solver::LinearExpr w, v;
    for (int i = 0; i < n; ++i) {
      int var = m.AddBinary();
      w.Add(var, rng.Uniform(1, 10));
      v.Add(var, rng.Uniform(1, 20));
    }
    m.AddConstraint(std::move(w), solver::Sense::kLe, rng.Uniform(5, 25));
    m.SetObjective(std::move(v), true);

    solver::MilpOptions dfs;
    solver::MilpOptions bfs;
    bfs.node_selection = solver::NodeSelection::kBestFirst;
    auto a = solver::SolveMilp(m, dfs);
    auto b = solver::SolveMilp(m, bfs);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->objective, b->objective, 1e-6);
    EXPECT_TRUE(a->optimal);
    EXPECT_TRUE(b->optimal);
  }
}

}  // namespace
}  // namespace phoebe::core

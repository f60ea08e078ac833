// Tests for input validation: documented preconditions turn into typed
// exceptions with actionable messages (failure injection for the public
// entry points).
#include <gtest/gtest.h>

#include "cluster/est_cluster.hpp"
#include "graph/generators.hpp"
#include "graph/validation.hpp"
#include "hopset/hopset.hpp"
#include "hopset/weighted_hopset.hpp"
#include "sssp/weighted_bfs.hpp"

namespace parsh {
namespace {

Graph fractional_graph() {
  return Graph::from_edges(3, {{0, 1, 1.5}, {1, 2, 2.0}});
}

TEST(Validation, IntegerWeightCheckAcceptsAndRejects) {
  EXPECT_NO_THROW(require_integer_weights(make_grid(3, 3), "t"));
  EXPECT_NO_THROW(
      require_integer_weights(with_uniform_weights(make_grid(3, 3), 1, 9, 1), "t"));
  EXPECT_THROW(require_integer_weights(fractional_graph(), "t"), InvalidGraphError);
  // Sub-unit weights are rejected too (paper normalises to >= 1).
  EXPECT_THROW(
      require_integer_weights(Graph::from_edges(2, {{0, 1, 0.25}}), "t"),
      InvalidGraphError);
}

TEST(Validation, PositiveWeightCheck) {
  EXPECT_NO_THROW(require_positive_weights(fractional_graph(), "t"));
}

TEST(Validation, VertexRangeCheck) {
  const Graph g = make_path(5);
  EXPECT_NO_THROW(require_vertex(g, 4, "t"));
  EXPECT_THROW(require_vertex(g, 5, "t"), std::out_of_range);
}

TEST(Validation, EstClusterRejectsFractionalWeightsAndBadBeta) {
  EXPECT_THROW(est_cluster(fractional_graph(), 0.5, 1), InvalidGraphError);
  EXPECT_THROW(est_cluster(make_path(4), 0.0, 1), std::invalid_argument);
  EXPECT_THROW(est_cluster(make_path(4), -1.0, 1), std::invalid_argument);
}

TEST(Validation, WeightedBfsRejectsFractionalWeightsAndBadSource) {
  EXPECT_THROW(weighted_bfs(fractional_graph(), 0), InvalidGraphError);
  EXPECT_THROW(weighted_bfs(make_path(4), 9), std::out_of_range);
}

TEST(Validation, BuildHopsetRejectsBadInputs) {
  EXPECT_THROW(build_hopset(fractional_graph(), HopsetParams{}), InvalidGraphError);
  HopsetParams bad_delta;
  bad_delta.delta = 1.0;  // must be > 1 (Section 4)
  EXPECT_THROW(build_hopset(make_path(4), bad_delta), std::invalid_argument);
  HopsetParams bad_eps;
  bad_eps.epsilon = 0.0;
  EXPECT_THROW(build_hopset(make_path(4), bad_eps), std::invalid_argument);
}

TEST(Validation, WeightedHopsetAcceptsFractionalButRejectsNonPositive) {
  // The Section 5 pipeline rounds internally — fractional weights are
  // its job to handle.
  EXPECT_NO_THROW(build_weighted_hopset(fractional_graph(), WeightedHopsetParams{}));
}

TEST(Validation, ErrorMessagesNameTheCaller) {
  try {
    est_cluster(fractional_graph(), 0.5, 1);
    FAIL() << "expected throw";
  } catch (const InvalidGraphError& e) {
    EXPECT_NE(std::string(e.what()).find("est_cluster"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("integer"), std::string::npos);
  }
}

}  // namespace
}  // namespace parsh

// Differential tests: TimeFrameOracle's push/pop/commit frame repair must
// be bit-identical to from-scratch computeTimeFrames() under randomized
// tentative-edge batches — on the built-in circuits, on seeded random DFGs,
// with unit and multi-cycle latency models, and across nesting depths.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "sched/timeframe.hpp"
#include "sched/timeframe_oracle.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

using Edge = TimeFrameOracle::Edge;

std::vector<Graph> allCircuits() {
  std::vector<Graph> out;
  for (const auto& entry : circuits::paperCircuits()) out.push_back(entry.build());
  out.push_back(circuits::cordic());
  out.push_back(circuits::diffeq());
  out.push_back(circuits::fir8());
  return out;
}

/// All live edges of a batch stack, flattened for the reference computation.
std::vector<Edge> flatten(const std::vector<std::vector<Edge>>& stack) {
  std::vector<Edge> all;
  for (const auto& batch : stack) all.insert(all.end(), batch.begin(), batch.end());
  return all;
}

void expectFramesMatch(const Graph& g, TimeFrameOracle& oracle,
                       const std::vector<std::vector<Edge>>& stack, int steps,
                       const LatencyModel& model, const std::string& what) {
  const TimeFrames ref = computeTimeFrames(g, steps, flatten(stack), model);
  // feasible() must agree before any lazy ALAP flush happens.
  ASSERT_EQ(oracle.feasible(), ref.feasible(g)) << what;
  for (NodeId n = 0; n < g.size(); ++n)
    ASSERT_EQ(oracle.asap(n), ref.asap[n]) << what << ": asap of '" << g.node(n).name << "'";
  // ALAP reads flush the lazy backward repair of every open batch — at any
  // depth.
  const TimeFrames tf = oracle.frames();
  for (NodeId n = 0; n < g.size(); ++n)
    ASSERT_EQ(tf.alap[n], ref.alap[n]) << what << ": alap of '" << g.node(n).name << "'";
  ASSERT_EQ(oracle.firstInfeasible(), ref.firstInfeasible(g)) << what;
}

/// Random acyclic extra edges between scheduled nodes: sources precede
/// targets in the cached topological order.
std::vector<Edge> randomBatch(const Graph& g, std::mt19937_64& rng, int count) {
  const std::vector<NodeId> ops = g.scheduledNodes();
  std::vector<std::uint32_t> pos(g.size());
  const std::span<const NodeId> order = g.topoOrderView();
  for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::vector<Edge> batch;
  if (ops.size() < 2) return batch;
  std::uniform_int_distribution<std::size_t> pick(0, ops.size() - 1);
  for (int i = 0; i < count; ++i) {
    NodeId a = ops[pick(rng)];
    NodeId b = ops[pick(rng)];
    if (a == b) continue;
    if (pos[a] > pos[b]) std::swap(a, b);
    batch.emplace_back(a, b);
  }
  return batch;
}

TEST(TimeFrameOracle, InitialFramesMatchFromScratch) {
  for (const Graph& g : allCircuits()) {
    const int steps = criticalPathLength(g) + 3;
    TimeFrameOracle oracle(g, steps);
    expectFramesMatch(g, oracle, {}, steps, LatencyModel::unit(), g.name());
  }
}

TEST(TimeFrameOracle, PushPopCommitMatchesFromScratchOnCircuits) {
  for (const Graph& g : allCircuits()) {
    const int steps = criticalPathLength(g) + 2;
    std::mt19937_64 rng(7);
    TimeFrameOracle oracle(g, steps);
    std::vector<std::vector<Edge>> stack;

    for (int round = 0; round < 8; ++round) {
      std::vector<Edge> batch = randomBatch(g, rng, 2);
      oracle.push(batch);
      stack.push_back(batch);
      expectFramesMatch(g, oracle, stack, steps, LatencyModel::unit(),
                        g.name() + " push round " + std::to_string(round));
      if (round % 2 == 0) {
        oracle.pop();
        stack.pop_back();
        expectFramesMatch(g, oracle, stack, steps, LatencyModel::unit(),
                          g.name() + " pop round " + std::to_string(round));
      } else if (oracle.depth() == 1 && oracle.feasible()) {
        oracle.commit();  // keep; the flattened stack keeps carrying it
      } else {
        oracle.pop();
        stack.pop_back();
      }
    }
  }
}

TEST(TimeFrameOracle, StackedBatchesOnRandomDfgs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = randomLayeredDfg(3 + static_cast<int>(seed % 5), 4, seed);
    const int steps = criticalPathLength(g) + 2;
    std::mt19937_64 rng(seed * 97);
    TimeFrameOracle oracle(g, steps);
    std::vector<std::vector<Edge>> stack;

    // Push three nested batches, verifying ASAP at every depth, then
    // unwind and verify the exact restore at each level.
    for (int depth = 0; depth < 3; ++depth) {
      std::vector<Edge> batch = randomBatch(g, rng, 3);
      oracle.push(batch);
      stack.push_back(std::move(batch));
      expectFramesMatch(g, oracle, stack, steps, LatencyModel::unit(),
                        "seed " + std::to_string(seed) + " depth " + std::to_string(depth));
    }
    while (oracle.depth() > 0) {
      oracle.pop();
      stack.pop_back();
      expectFramesMatch(g, oracle, stack, steps, LatencyModel::unit(),
                        "seed " + std::to_string(seed) + " unwind to depth " +
                            std::to_string(stack.size()));
    }
  }
}

TEST(TimeFrameOracle, MultiCycleLatencyModelMatches) {
  const LatencyModel model = LatencyModel::multiCycleMultiplier(3);
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const Graph g = randomLayeredDfg(5, 4, seed);
    // Generous budget: multi-cycle multipliers stretch the critical path.
    const int steps = criticalPathLength(g) * 3 + 4;
    std::mt19937_64 rng(seed);
    TimeFrameOracle oracle(g, steps, model);
    std::vector<std::vector<Edge>> stack;
    for (int round = 0; round < 5; ++round) {
      std::vector<Edge> batch = randomBatch(g, rng, 2);
      oracle.push(batch);
      stack.push_back(batch);
      expectFramesMatch(g, oracle, stack, steps, model,
                        "multi-cycle seed " + std::to_string(seed));
      oracle.pop();
      stack.pop_back();
      expectFramesMatch(g, oracle, stack, steps, model,
                        "multi-cycle seed " + std::to_string(seed) + " after pop");
    }
  }
}

TEST(TimeFrameOracle, ProbeFeasibilityMatchesFromScratch) {
  // Probe batches may stop repairing early, but the feasibility verdict
  // must still equal the from-scratch answer, and pop must restore exactly.
  for (std::uint64_t seed = 40; seed < 52; ++seed) {
    const Graph g = randomLayeredDfg(5, 4, seed);
    const int steps = criticalPathLength(g) + 1;  // tight: rejections likely
    std::mt19937_64 rng(seed);
    TimeFrameOracle oracle(g, steps);
    for (int round = 0; round < 12; ++round) {
      const std::vector<Edge> batch = randomBatch(g, rng, 3);
      oracle.push(batch, /*probe=*/true);
      ASSERT_EQ(oracle.feasible(), computeTimeFrames(g, steps, batch).feasible(g))
          << "seed " << seed << " round " << round;
      oracle.pop();
      expectFramesMatch(g, oracle, {}, steps, LatencyModel::unit(),
                        "probe restore seed " + std::to_string(seed));
    }
  }
}

TEST(TimeFrameOracle, SourceLaterThanTargetInIdOrder) {
  // Mirror of timeframe.cpp's regression: the batch edge runs against node
  // id order, so the repair worklist must revisit instead of reading stale
  // values.
  Graph g("regress");
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId early = g.addOp(OpKind::Add, {a, b}, "early");
  const NodeId late = g.addOp(OpKind::CmpGt, {a, b}, "late");
  const NodeId sink = g.addOp(OpKind::Add, {early, b}, "sink");
  g.addOutput(sink, "out");
  g.addOutput(late, "flag");

  TimeFrameOracle oracle(g, 4);
  const std::vector<Edge> batch{{late, early}};
  oracle.push(batch);
  EXPECT_EQ(oracle.asap(early), 2);
  EXPECT_EQ(oracle.asap(sink), 3);
  expectFramesMatch(g, oracle, {batch}, 4, LatencyModel::unit(), "late-source edge");
  oracle.pop();
  EXPECT_EQ(oracle.asap(early), 1);
}

TEST(TimeFrameOracle, AlapFlushUndoAttributionAcrossStackedBatches) {
  // Regression: reading ALAP with two batches open flushes the backward
  // repair over the FULL live edge set; the undo must be attributed so
  // that popping only the inner batch restores exactly the outer batch's
  // fixed point (an inner-batch-induced tightening logged into the outer
  // batch's undo would survive the pop as a stale ALAP).
  for (std::uint64_t seed = 60; seed < 72; ++seed) {
    const Graph g = randomLayeredDfg(5, 4, seed);
    const int steps = criticalPathLength(g) + 2;
    std::mt19937_64 rng(seed * 131);
    TimeFrameOracle oracle(g, steps);

    std::vector<Edge> a = randomBatch(g, rng, 2);
    std::vector<Edge> b = randomBatch(g, rng, 2);
    oracle.push(a);
    oracle.push(b);
    // Flush ONLY at full depth (no intermediate reads): the repair runs
    // against a+b, which is the attribution-hostile schedule.
    (void)oracle.frames();
    oracle.pop();  // drop b
    expectFramesMatch(g, oracle, {{a}}, steps, LatencyModel::unit(),
                      "inner-pop seed " + std::to_string(seed));
    oracle.pop();  // drop a
    expectFramesMatch(g, oracle, {}, steps, LatencyModel::unit(),
                      "outer-pop seed " + std::to_string(seed));
  }
}

TEST(TimeFrameOracle, CyclicBatchThrowsAndRestores) {
  const Graph g = circuits::dealer();
  const int steps = criticalPathLength(g) + 2;
  TimeFrameOracle oracle(g, steps);
  const TimeFrames before = oracle.frames();

  const std::vector<NodeId> ops = g.scheduledNodes();
  ASSERT_GE(ops.size(), 2u);
  const std::vector<Edge> cyclic{{ops[0], ops[1]}, {ops[1], ops[0]}};
  EXPECT_THROW(oracle.push(cyclic), SynthesisError);

  // The failed push must leave no trace.
  EXPECT_EQ(oracle.depth(), 0u);
  const TimeFrames after = oracle.frames();
  EXPECT_EQ(before.asap, after.asap);
  EXPECT_EQ(before.alap, after.alap);
}

TEST(TimeFrameOracle, CommitRequiresSingleBatchAndPopMatchesPush) {
  const Graph g = circuits::absdiff();
  const int steps = criticalPathLength(g) + 1;
  TimeFrameOracle oracle(g, steps);
  EXPECT_THROW(oracle.pop(), SynthesisError);
  oracle.push({});
  oracle.push({});
  EXPECT_THROW(oracle.commit(), SynthesisError);  // depth 2
  oracle.pop();
  oracle.commit();
  EXPECT_EQ(oracle.depth(), 0u);
}

TEST(TimeFrameOracle, MatchesTentativeEdgeSemanticsOfTheTransform) {
  // The paper's Figure 1 example: at 2 steps the comparison cannot precede
  // the subtractions; at 3 steps it can.
  const Graph g = circuits::absdiff();
  const NodeId cmp = *g.findByName("a_gt_b");
  const std::vector<Edge> edges{{cmp, *g.findByName("a_minus_b")},
                                {cmp, *g.findByName("b_minus_a")}};
  TimeFrameOracle atTwo(g, 2);
  atTwo.push(edges);
  EXPECT_FALSE(atTwo.feasible());
  TimeFrameOracle atThree(g, 3);
  atThree.push(edges);
  EXPECT_TRUE(atThree.feasible());
  atThree.commit();
  expectFramesMatch(g, atThree, {edges}, 3, LatencyModel::unit(), "absdiff @3");
}

}  // namespace
}  // namespace pmsched

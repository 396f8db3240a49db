// Differential tests for the event-driven list scheduler: every pass must
// equal the scan-based oracle in tests/list_scheduler_oracle.hpp — the same
// schedule, the same `blockedOn` and the same message — and
// scheduleMinUnits() must equal the minimizeResources-then-listSchedule
// pair it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "circuits/circuits.hpp"
#include "list_scheduler_oracle.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/power_transform.hpp"
#include "sched/shared_gating.hpp"
#include "server/service.hpp"
#include "support/random_dfg.hpp"

namespace pmsched {
namespace {

/// Shortest step budget with non-empty frames under `model`.
int criticalPath(const Graph& g, const LatencyModel& model) {
  const int loose = static_cast<int>(g.size()) * 4 + 4;
  const TimeFrames tf = computeTimeFrames(g, loose, {}, model);
  int cp = 1;
  for (NodeId n = 0; n < g.size(); ++n)
    if (isScheduled(g.kind(n))) cp = std::max(cp, tf.asap[n] + model.latencyOf(g.kind(n)) - 1);
  return cp;
}

std::vector<int> stepsOf(const Graph& g, const Schedule& s) {
  std::vector<int> out;
  for (NodeId n = 0; n < g.size(); ++n) out.push_back(isScheduled(g.kind(n)) ? s.stepOf(n) : 0);
  return out;
}

struct Tally {
  int passes = 0;
  int successes = 0;
  int resourceBlocked = 0;
  int ranOut = 0;
  int emptyFrame = 0;
};

void expectSamePass(const Graph& g, int steps, const ResourceVector& limits, int ii,
                    const LatencyModel& model, const std::string& what, Tally& tally) {
  const ListScheduleResult got = listSchedule(g, steps, limits, ii, model);
  const ListScheduleResult want = oracle::listSchedule(g, steps, limits, ii, model);
  ++tally.passes;
  ASSERT_EQ(got.schedule.has_value(), want.schedule.has_value()) << what << ": " << want.message;
  EXPECT_EQ(got.blockedOn, want.blockedOn) << what;
  EXPECT_EQ(got.message, want.message) << what;
  if (want.schedule) {
    ++tally.successes;
    EXPECT_EQ(stepsOf(g, *got.schedule), stepsOf(g, *want.schedule)) << what;
  } else if (want.message.rfind("resource-blocked", 0) == 0) {
    ++tally.resourceBlocked;
  } else if (want.message.rfind("ran out of steps", 0) == 0) {
    ++tally.ranOut;
  } else {
    ++tally.emptyFrame;
  }
}

void expectSameMinUnits(const Graph& g, int steps, int ii, const LatencyModel& model,
                        const std::string& what) {
  std::string wantError;
  ResourceVector wantUnits;
  try {
    wantUnits = oracle::minimizeResources(g, steps, ii, model);
  } catch (const InfeasibleError& e) {
    wantError = e.what();
  }
  if (!wantError.empty()) {
    try {
      (void)scheduleMinUnits(g, steps, ii, model);
      ADD_FAILURE() << what << ": scheduleMinUnits succeeded, oracle threw " << wantError;
    } catch (const InfeasibleError& e) {
      EXPECT_EQ(std::string(e.what()), wantError) << what;
    }
    return;
  }
  EXPECT_EQ(minimizeResources(g, steps, UnitCosts::defaults(), ii, model), wantUnits) << what;
  const MinUnitsSchedule got = scheduleMinUnits(g, steps, ii, model);
  EXPECT_EQ(got.units, wantUnits) << what;
  const ListScheduleResult want = oracle::listSchedule(g, steps, wantUnits, ii, model);
  ASSERT_TRUE(want.schedule.has_value()) << what << ": " << want.message;
  EXPECT_EQ(stepsOf(g, got.schedule), stepsOf(g, *want.schedule)) << what;
}

/// Uniform limits 1..3, a quarter of each class's operations, and unlimited.
std::vector<ResourceVector> limitLadder(const Graph& g) {
  std::vector<ResourceVector> ladder;
  for (const int k : {1, 2, 3}) {
    ResourceVector r;
    r.count.fill(k);
    ladder.push_back(r);
  }
  std::array<int, kNumUnitClasses> ops{};
  for (NodeId n = 0; n < g.size(); ++n)
    if (isScheduled(g.kind(n))) ++ops[unitIndex(resourceClassOf(g.kind(n)))];
  ResourceVector mixed;
  for (std::size_t i = 0; i < kNumUnitClasses; ++i) mixed.count[i] = ops[i] / 4 + 1;
  ladder.push_back(mixed);
  ladder.push_back(ResourceVector::unlimited());
  return ladder;
}

/// `g` plus seeded forward control edges between arbitrary nodes, so some
/// start or end at transparent ones (which the scheduler relays through
/// data operands only).
Graph withRandomControlEdges(const Graph& g, std::uint64_t seed) {
  Graph out = g.clone();
  const std::vector<NodeId> order = g.topoOrder();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, order.size() - 1);
  for (std::size_t k = 0; k < order.size() / 8; ++k) {
    std::size_t a = pick(rng);
    std::size_t b = pick(rng);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    out.addControlEdge(order[a], order[b]);
  }
  return out;
}

/// The plain graph, its power-managed version (control edges from the
/// transform and shared gating) at `steps` under `model`, and a version
/// with random control edges.
std::vector<Graph> variants(const Graph& g, int steps, const LatencyModel& model) {
  std::vector<Graph> out{g};
  PowerManagedDesign design = applyPowerManagement(g, steps, MuxOrdering::OutputFirst, model);
  if (model.isUnit()) (void)applySharedGating(design);
  out.push_back(std::move(design.graph));
  out.push_back(withRandomControlEdges(g, static_cast<std::uint64_t>(steps)));
  return out;
}

/// Adders chained into their consumers' step (zero cycles). Frames then let
/// a consumer start in its producer's step while the scheduler waits a
/// step, the one way a pass runs out of steps instead of blocking at an
/// operation's ALAP.
LatencyModel chainedAdders() {
  LatencyModel m = LatencyModel::unit();
  m.cycles[unitIndex(ResourceClass::Adder)] = 0;
  return m;
}

std::string modelName(const LatencyModel& m) {
  if (m.isUnit()) return "unit";
  return m == chainedAdders() ? "chained-add" : "mul2";
}

void sweep(int layers, std::uint64_t seed, const std::vector<int>& slacks,
           const std::vector<LatencyModel>& models, Tally& tally) {
  const Graph g = randomLayeredDfg(layers, 6, seed);
  for (const LatencyModel& model : models) {
    const int cp = criticalPath(g, model);
    for (const int slack : slacks) {
      const int steps = cp + slack;
      const std::vector<Graph> vs = variants(g, steps, model);
      for (const Graph& v : vs) {
        const std::string graph = std::to_string(layers) + "x6:" + std::to_string(seed) +
                                  " variant " + std::to_string(&v - &vs.front()) + " model " +
                                  modelName(model) + " steps ";
        // One step short of the critical path: some frame is empty.
        if (cp > 1)
          expectSamePass(v, cp - 1, ResourceVector::unlimited(), 0, model,
                         graph + std::to_string(cp - 1), tally);
        for (const int ii : {0, std::max(1, steps / 2), 1}) {
          const std::string what = graph + std::to_string(steps) + " ii " + std::to_string(ii);
          for (const ResourceVector& limits : limitLadder(v))
            expectSamePass(v, steps, limits, ii, model, what + " limits " + limits.toString(),
                           tally);
          expectSameMinUnits(v, steps, ii, model, what);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

std::vector<int> allSlacks() {
  std::vector<int> s;
  for (int k = 0; k <= 16; ++k) s.push_back(k);
  return s;
}

const std::vector<LatencyModel> kModels{LatencyModel::unit(),
                                        LatencyModel::multiCycleMultiplier(2)};
// The chained model needs many growth rounds, each an O(steps x nodes)
// oracle pass, so it runs at small and mid sizes only.
const std::vector<LatencyModel> kModelsWithChained{
    LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2), chainedAdders()};

TEST(ListSchedulerDifferential, SmallGraphsEveryBudget) {
  Tally tally;
  for (const int layers : {8, 16, 32})
    for (const std::uint64_t seed : {1u, 2u, 3u})
      sweep(layers, seed, allSlacks(), kModelsWithChained, tally);
  EXPECT_GT(tally.successes, 0);
  EXPECT_GT(tally.resourceBlocked, 0);
  EXPECT_GT(tally.ranOut, 0);
  EXPECT_GT(tally.emptyFrame, 0);
}

TEST(ListSchedulerDifferential, MidGraphsEveryBudget) {
  Tally tally;
  sweep(64, 4, allSlacks(), kModelsWithChained, tally);
  EXPECT_GT(tally.successes, 0);
  EXPECT_GT(tally.resourceBlocked, 0);
  EXPECT_GT(tally.ranOut, 0);
}

TEST(ListSchedulerDifferential, LargeGraphsSampledBudgets) {
  Tally tally;
  sweep(128, 5, {0, 5, 16}, kModels, tally);
  sweep(256, 6, {0, 16}, kModels, tally);
  EXPECT_GT(tally.successes, 0);
  EXPECT_GT(tally.resourceBlocked, 0);
}

TEST(ListSchedulerDifferential, PaperCircuitsAtTableBudgets) {
  Tally tally;
  for (const auto& c : circuits::paperCircuits()) {
    const Graph g = c.build();
    for (const int steps : circuits::tableIISteps(c.name)) {
      for (const Graph& v : variants(g, steps, LatencyModel::unit())) {
        for (const ResourceVector& limits : limitLadder(v))
          expectSamePass(v, steps, limits, 0, LatencyModel::unit(), c.name, tally);
        expectSameMinUnits(v, steps, 0, LatencyModel::unit(), c.name);
      }
    }
  }
  EXPECT_GT(tally.successes, 0);
}

TEST(ListSchedulerDifferential, RepeatedOperandCountsTwice) {
  // x*x lists x twice as an operand and twice as a consumer; the product
  // must wait for x exactly once, then be released.
  Graph g("square");
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId x = g.addOp(OpKind::Add, {a, b}, "x");
  const NodeId sq = g.addOp(OpKind::Mul, {x, x}, "sq");
  const NodeId w = g.addWire(sq, 1, "w");
  const NodeId y = g.addOp(OpKind::Add, {w, w}, "y");
  g.addOutput(y, "out");
  Tally tally;
  for (const LatencyModel& model : {LatencyModel::unit(), LatencyModel::multiCycleMultiplier(2)})
    for (int steps = 1; steps <= 6; ++steps)
      for (const ResourceVector& limits : limitLadder(g))
        expectSamePass(g, steps, limits, 0, model, "square", tally);
  const ListScheduleResult r = listSchedule(g, 3, ResourceVector::unlimited());
  ASSERT_TRUE(r.schedule.has_value()) << r.message;
  EXPECT_EQ(r.schedule->stepOf(x), 1);
  EXPECT_EQ(r.schedule->stepOf(sq), 2);
  EXPECT_EQ(r.schedule->stepOf(y), 3);
}

TEST(ListSchedulerDifferential, FoldedMultiCycleBeyondInterval) {
  // A multi-cycle multiplier folded at ii < latency revisits its own slot,
  // and the fit check reads the slot before either increment, so usage can
  // pass the limit: rescheduling on the required units is then a real pass.
  // scheduleMinUnits must still equal the pair.
  Graph g("mac");
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId c = g.addInput("c");
  const NodeId m = g.addOp(OpKind::Mul, {a, b}, "m");
  const NodeId s = g.addOp(OpKind::Add, {m, c}, "s");
  const NodeId t = g.addOp(OpKind::Add, {a, c}, "t");
  g.addOutput(g.addOp(OpKind::Sub, {s, t}, "d"), "out");
  std::vector<Graph> graphs{g};
  for (const std::uint64_t seed : {7u, 8u, 9u}) graphs.push_back(randomLayeredDfg(6, 4, seed));
  for (const Graph& v : graphs) {
    for (const int cycles : {2, 3, 4}) {
      const LatencyModel model = LatencyModel::multiCycleMultiplier(cycles);
      const int cp = criticalPath(v, model);
      for (int ii = 1; ii < cycles; ++ii)
        for (int slack = 0; slack <= 4; ++slack)
          expectSameMinUnits(v, cp + slack, ii, model, v.name() + " ii " + std::to_string(ii));
    }
  }
  const MinUnitsSchedule folded =
      scheduleMinUnits(g, criticalPath(g, LatencyModel::multiCycleMultiplier(2)), 1,
                       LatencyModel::multiCycleMultiplier(2));
  EXPECT_EQ(folded.units.of(ResourceClass::Multiplier), 2);
}

TEST(ListSchedulerDifferential, StepBucketsMatchScan) {
  const Graph g = randomLayeredDfg(32, 6, 11);
  const int steps = criticalPathLength(g) + 3;
  const MinUnitsSchedule s = scheduleMinUnits(g, steps);
  const StepBuckets byStep = s.schedule.nodesByStep(g);
  for (int step = 1; step <= steps; ++step) {
    std::vector<NodeId> scan;
    for (NodeId n = 0; n < g.size(); ++n)
      if (isScheduled(g.kind(n)) && s.schedule.stepOf(n) == step) scan.push_back(n);
    const std::span<const NodeId> got = byStep.step(step);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), scan) << "step " << step;
  }
}

TEST(ListSchedulerDifferential, KnownControllerFaultKeepsItsMessage) {
  // `pmsched --circuit vender --steps 5 --ordering input`: the shared-gating
  // fault surfaces in controller synthesis, after scheduling, with the same
  // bytes as before the scheduler was rebuilt.
  DesignJob job;
  job.graph = circuits::vender();
  job.steps = 5;
  job.ordering = MuxOrdering::InputFirst;
  try {
    (void)runDesignJob(job);
    ADD_FAILURE() << "vender @5 input ordering succeeded";
  } catch (const SynthesisError& e) {
    EXPECT_EQ(std::string(e.what()),
              "controller: condition on 'c4' (step 2) not resolved before load of 'a_b' "
              "(step 2)");
  }
}

}  // namespace
}  // namespace pmsched

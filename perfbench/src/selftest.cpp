// Self-test of the output checker: every check must accept the program's
// real output and reject a mutated copy of it.
//
//   python3 perfbench/run.py --selftest
//
// Exit 0 when every mutation is rejected and every clean output accepted.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cdfg/analysis.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "server/protocol.hpp"
#include "support/diagnostics.hpp"
#include "support/random_dfg.hpp"
#include "support/strings.hpp"

using namespace pmsched;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Run the checks that see `out` and report whether one of them found a
/// problem whose text contains `mark`.
bool rejected(const DesignJob& job, const DesignOutcome& out, const std::string& what,
              const std::string& mark = "") {
  Problems p;
  (void)checkDesign(job, out, 7, what, p);
  for (const std::string& s : p) {
    if (s.find(mark) == std::string::npos) continue;
    std::printf("      (%s)\n", s.c_str());
    return true;
  }
  return false;
}

/// A scheduled node with a scheduled data operand, for the precedence
/// mutation.
bool findProducerPair(const Graph& g, NodeId& op, NodeId& producer) {
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n))) continue;
    for (const NodeId p : g.fanins(n))
      if (isScheduled(g.kind(p))) {
        op = n;
        producer = p;
        return true;
      }
  }
  return false;
}

}  // namespace

int main() {
  // A design with per-mux and shared gating, control edges and registers.
  Graph g = randomLayeredDfg(32, 6, 3);
  const DesignJob job{g, criticalPathLength(g) + 6};
  const DesignOutcome good = runDesignJob(job);
  expect(good.summary.managed > 0 && good.design.graph.controlEdgeCount() > 0,
         "fixture has managed muxes and control edges");
  {
    Problems p;
    (void)checkDesign(job, good, 7, "clean", p);
    for (const std::string& s : p) std::printf("      (%s)\n", s.c_str());
    expect(p.empty(), "clean design passes every check");
  }

  // Schedule: an operation moved into its producer's step.
  {
    DesignOutcome bad = good;
    NodeId op = 0;
    NodeId producer = 0;
    expect(findProducerPair(bad.design.graph, op, producer), "found a producer/consumer pair");
    bad.schedule.place(op, bad.schedule.stepOf(producer));
    expect(rejected(job, bad, "op moved before its producer"), "rejects an op placed with its producer");
  }

  // Schedule/controller: a control edge dropped and its target moved into
  // the select's step (the shape of the known fault).
  {
    DesignOutcome bad = good;
    Graph& dg = bad.design.graph;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    for (NodeId n = 0; n < dg.size() && from == kInvalidNode; ++n)
      for (const NodeId s : dg.controlSuccessors(n))
        if (isScheduled(dg.kind(n)) && isScheduled(dg.kind(s))) {
          from = n;
          to = s;
          break;
        }
    expect(from != kInvalidNode, "found a control edge between scheduled ops");
    Graph copy = dg;
    copy.clearControlEdges();
    for (NodeId n = 0; n < dg.size(); ++n)
      for (const NodeId s : dg.controlSuccessors(n))
        if (!(n == from && s == to)) copy.addControlEdge(n, s);
    dg = std::move(copy);
    bad.schedule.place(to, bad.schedule.stepOf(from));
    for (LoadAction& load : bad.controller.loads)
      if (load.value == to) load.step = bad.schedule.stepOf(from);
    expect(rejected(job, bad, "control edge dropped", "reads the status of"),
           "rejects a dropped control edge (load before its select is captured)");
  }

  // Binding: two operations of one class in one step on one unit.
  {
    DesignOutcome bad = good;
    const Graph& dg = bad.design.graph;
    bool done = false;
    for (NodeId a = 0; a < dg.size() && !done; ++a)
      for (NodeId b = a + 1; b < dg.size() && !done; ++b)
        if (isScheduled(dg.kind(a)) && resourceClassOf(dg.kind(a)) == resourceClassOf(dg.kind(b)) &&
            bad.schedule.stepOf(a) == bad.schedule.stepOf(b)) {
          bad.binding.unitOf[b] = bad.binding.unitOf[a];
          done = true;
        }
    expect(done, "found two same-class ops in one step");
    expect(rejected(job, bad, "unit shared in one step"), "rejects a unit shared within a step");
  }

  // Binding: two live values with overlapping lifetimes in one register.
  {
    DesignOutcome bad = good;
    const Graph& dg = bad.design.graph;
    bool done = false;
    for (NodeId a = 0; a < dg.size() && !done; ++a)
      for (NodeId b = a + 1; b < dg.size() && !done; ++b)
        if (bad.binding.registerOf[a] >= 0 && bad.binding.registerOf[b] >= 0 &&
            bad.binding.registerOf[a] != bad.binding.registerOf[b] &&
            bad.schedule.stepOf(a) == bad.schedule.stepOf(b)) {
          bad.binding.registerOf[b] = bad.binding.registerOf[a];
          done = true;
        }
    expect(done, "found two values written in one step");
    expect(rejected(job, bad, "register shared by live values"), "rejects overlapping register lifetimes");
  }

  // Gating soundness: a value an output needs loaded under FALSE.
  {
    DesignOutcome bad = good;
    bool done = false;
    for (LoadAction& load : bad.controller.loads)
      if (!done && bad.design.graph.kind(load.value) != OpKind::Mux && !load.isGated()) {
        for (const NodeId f : bad.design.graph.fanouts(load.value))
          if (bad.design.graph.kind(f) == OpKind::Output) {
            load.condition = GateDnf{};
            done = true;
          }
      }
    expect(done, "found an ungated load that feeds an output");
    expect(rejected(job, bad, "needed load gated off"), "rejects gating off a needed value");
  }

  // Activation: one probability perturbed by 1/64.
  {
    DesignOutcome bad = good;
    bool done = false;
    for (NodeId n = 0; n < bad.design.graph.size() && !done; ++n)
      if (isScheduled(bad.design.graph.kind(n)) && !dnfIsTrue(bad.activation.condition[n])) {
        bad.activation.probability[n] = bad.activation.probability[n] + Rational(1, 64);
        done = true;
      }
    expect(done, "found a gated node");
    expect(rejected(job, bad, "probability perturbed"), "rejects a perturbed probability");
  }

  // Power: the reported reduction off by 0.01 points.
  {
    DesignOutcome bad = good;
    bad.summary.reductionPercent = fixed(std::stod(good.summary.reductionPercent) + 0.01, 2);
    expect(rejected(job, bad, "reduction perturbed"), "rejects a perturbed reduction percentage");
  }

  // Served bytes: exact, cache_hit-flipped, and one flipped byte.
  {
    const std::string result = designResultJson(good, false);
    const std::string served = makeResultResponse("7", result);
    expect(servedMatches(served, "7", result), "accepts the in-process bytes");
    expect(servedMatches(makeResultResponse("7", designResultJson(good, true)), "7", result),
           "accepts the same bytes with cache_hit true");
    std::string flipped = served;
    flipped[flipped.size() / 2] ^= 0x01;
    expect(!servedMatches(flipped, "7", result), "rejects one flipped byte");
  }

  // Explore: a clean sweep passes; a dominated point on the front and a
  // front point that differs from the one-shot run are both rejected.
  {
    ExploreRequest req;
    req.graph = randomLayeredDfg(16, 6, 3);
    req.span = 8;
    const ExploreResult res = exploreDesignSpace(req);
    Problems clean;
    (void)checkExplore(req, res, "clean sweep", clean);
    for (const std::string& s : clean) std::printf("      (%s)\n", s.c_str());
    expect(clean.empty() && !res.front.empty(), "clean sweep passes");

    ExploreResult dominated = res;
    ExplorePoint extra = res.front.front();
    extra.steps = res.maxSteps + 1;
    dominated.front.push_back(extra);
    Problems p1;
    (void)checkExplore(req, dominated, "dominated point", p1);
    expect(!p1.empty(), "rejects a dominated front point");

    ExploreResult differs = res;
    differs.front.back().summary.units = "{}";
    Problems p2;
    (void)checkExplore(req, differs, "altered point", p2);
    expect(!p2.empty(), "rejects a front point unlike the one-shot run");
  }

  // Failure accounting: only the known fault is accepted.
  expect(failureKind(SynthesisError("controller: condition on 'c' (step 3) not resolved before "
                                    "load of 'x' (step 2)")) == kKnownFault,
         "classifies the known fault");
  expect(failureKind(InfeasibleError("no schedule")) != kKnownFault,
         "classifies any other failure as unexpected");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "selftest passed" : "selftest FAILED", failures);
  return failures == 0 ? 0 : 1;
}

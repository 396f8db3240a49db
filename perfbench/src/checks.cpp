#include "checks.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>
#include <string_view>

#include "cdfg/interpreter.hpp"
#include "common.hpp"
#include "server/protocol.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace pmsched;

namespace {

/// Input vectors per design for the gating-soundness check.
constexpr int kGatingVectors = 4;

std::string nameOf(const Graph& g, NodeId n) { return g.node(n).name; }

/// Control step after which each node's value is available; transparent
/// nodes (inputs, constants, wires, outputs) relay their latest predecessor.
std::vector<int> readySteps(const Graph& g, const Schedule& s) {
  std::vector<int> ready(g.size(), 0);
  for (const NodeId n : g.topoOrder()) {
    int r = 0;
    for (const NodeId p : g.fanins(n)) r = std::max(r, ready[p]);
    for (const NodeId p : g.controlPredecessors(n)) r = std::max(r, ready[p]);
    ready[n] = isScheduled(g.kind(n)) ? s.stepOf(n) : r;
  }
  return ready;
}

bool literalHolds(const GateLiteral& lit, const std::vector<std::int64_t>& vals) {
  return (vals.at(lit.select) != 0) == lit.value;
}

bool dnfHolds(const GateDnf& dnf, const std::vector<std::int64_t>& vals) {
  for (const GateTerm& term : dnf) {
    bool all = true;
    for (const GateLiteral& lit : term) all = all && literalHolds(lit, vals);
    if (all) return true;
  }
  return false;
}

/// Satisfying share of all assignments to the DNF's support, under
/// independent fair-coin selects. Exact (count / 2^k) for k <= kExactSupport.
struct Probability {
  bool exact = false;
  std::int64_t count = 0;  ///< satisfying assignments (exact only)
  unsigned support = 0;
  double value = 0;
};

Probability fairCoinProbability(const GateDnf& dnf, std::uint64_t seed) {
  std::vector<NodeId> selects;
  for (const GateTerm& term : dnf)
    for (const GateLiteral& lit : term) selects.push_back(lit.select);
  std::sort(selects.begin(), selects.end());
  selects.erase(std::unique(selects.begin(), selects.end()), selects.end());
  const auto indexOf = [&selects](NodeId s) {
    return static_cast<std::size_t>(std::lower_bound(selects.begin(), selects.end(), s) -
                                     selects.begin());
  };
  Probability p;
  p.support = static_cast<unsigned>(selects.size());
  if (p.support <= kExactSupport) {
    // Each term as (care mask, required values) over the support bits.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> terms;
    for (const GateTerm& term : dnf) {
      std::uint32_t mask = 0;
      std::uint32_t want = 0;
      bool contradictory = false;
      for (const GateLiteral& lit : term) {
        const std::uint32_t bit = 1U << indexOf(lit.select);
        const std::uint32_t v = lit.value ? bit : 0;
        if ((mask & bit) != 0 && (want & bit) != v) contradictory = true;
        mask |= bit;
        want |= v;
      }
      if (!contradictory) terms.emplace_back(mask, want);
    }
    const std::uint32_t total = 1U << p.support;
    for (std::uint32_t a = 0; a < total; ++a) {
      for (const auto& [mask, want] : terms) {
        if ((a & mask) == want) {
          ++p.count;
          break;
        }
      }
    }
    p.exact = true;
    p.value = static_cast<double>(p.count) / static_cast<double>(total);
    return p;
  }
  Rng rng(seed);
  std::vector<char> bit(selects.size());
  std::int64_t hits = 0;
  for (unsigned i = 0; i < kSamples; ++i) {
    for (char& b : bit) b = rng.coin() ? 1 : 0;
    for (const GateTerm& term : dnf) {
      bool all = true;
      for (const GateLiteral& lit : term) all = all && (bit[indexOf(lit.select)] != 0) == lit.value;
      if (all) {
        ++hits;
        break;
      }
    }
  }
  p.value = static_cast<double>(hits) / kSamples;
  return p;
}

}  // namespace

double paperWeight(OpKind kind) {
  // Paper §V: MUX 1, COMP 4, + 3, - 3, * 20; logic 1 and shifter 2 are the
  // model's extension classes.
  switch (resourceClassOf(kind)) {
    case ResourceClass::Mux: return 1;
    case ResourceClass::Comparator: return 4;
    case ResourceClass::Adder: return 3;
    case ResourceClass::Subtractor: return 3;
    case ResourceClass::Multiplier: return 20;
    case ResourceClass::Logic: return 1;
    case ResourceClass::Shifter: return 2;
    case ResourceClass::None: return 0;
  }
  return 0;
}

double fullPowerOf(const Graph& g) {
  double full = 0;
  for (NodeId n = 0; n < g.size(); ++n) full += paperWeight(g.kind(n));
  return full;
}

void checkSchedule(const DesignOutcome& out, int steps, const std::string& label,
                   Problems& problems) {
  const Graph& g = out.design.graph;
  const Schedule& s = out.schedule;
  if (s.steps() != steps) {
    problems.push_back(label + ": schedule has " + std::to_string(s.steps()) +
                       " steps, budget " + std::to_string(steps));
    return;
  }
  std::vector<int> ready(g.size(), 0);
  std::vector<std::array<int, kNumUnitClasses>> use(static_cast<std::size_t>(steps) + 1);
  for (const NodeId n : g.topoOrder()) {
    int r = 0;
    for (const NodeId p : g.fanins(n)) r = std::max(r, ready[p]);
    for (const NodeId p : g.controlPredecessors(n)) r = std::max(r, ready[p]);
    if (!isScheduled(g.kind(n))) {
      ready[n] = r;
      continue;
    }
    const int st = s.stepOf(n);
    if (st < 1 || st > steps) {
      problems.push_back(label + ": '" + nameOf(g, n) + "' at step " + std::to_string(st) +
                         " outside [1, " + std::to_string(steps) + "]");
      return;
    }
    if (st <= r)
      problems.push_back(label + ": '" + nameOf(g, n) + "' at step " + std::to_string(st) +
                         " but a data/control predecessor finishes in step " +
                         std::to_string(r));
    ready[n] = st;
    ++use[static_cast<std::size_t>(st)][unitIndex(resourceClassOf(g.kind(n)))];
  }
  for (int st = 1; st <= steps; ++st)
    for (std::size_t c = 0; c < kNumUnitClasses; ++c)
      if (use[static_cast<std::size_t>(st)][c] > out.units.count[c])
        problems.push_back(label + ": step " + std::to_string(st) + " uses " +
                           std::to_string(use[static_cast<std::size_t>(st)][c]) + " " +
                           std::string(resourceName(kUnitClasses[c])) + " units, minimized " +
                           std::to_string(out.units.count[c]));
}

void checkBinding(const DesignOutcome& out, const std::string& label, Problems& problems) {
  const Graph& g = out.design.graph;
  const Schedule& s = out.schedule;
  const Binding& b = out.binding;
  if (b.unitOf.size() != g.size() || b.registerOf.size() != g.size()) {
    problems.push_back(label + ": binding tables do not cover the graph");
    return;
  }
  std::map<std::pair<int, int>, NodeId> busy;  // (unit, step) -> operation
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n))) continue;
    const int u = b.unitOf[n];
    if (u < 0 || static_cast<std::size_t>(u) >= b.units.size()) {
      problems.push_back(label + ": '" + nameOf(g, n) + "' is bound to no unit");
      continue;
    }
    if (b.units[static_cast<std::size_t>(u)].cls != resourceClassOf(g.kind(n)))
      problems.push_back(label + ": '" + nameOf(g, n) + "' bound to a unit of another class");
    const auto [it, fresh] = busy.emplace(std::make_pair(u, s.stepOf(n)), n);
    if (!fresh)
      problems.push_back(label + ": unit " + std::to_string(u) + " runs '" +
                         nameOf(g, it->second) + "' and '" + nameOf(g, n) + "' in step " +
                         std::to_string(s.stepOf(n)));
  }
  for (const ResourceClass rc : kUnitClasses)
    if (b.unitCount(rc) > out.units.of(rc))
      problems.push_back(label + ": more " + std::string(resourceName(rc)) +
                         " units bound than minimized");

  // Register lifetimes: a value is written at the end of its step and read
  // until its last consumer's step (outputs hold it to the last step); uses
  // through wires count at the wire consumer.
  const std::vector<int> ready = readySteps(g, s);
  std::map<int, std::vector<std::pair<int, int>>> lives;  // register -> (write, lastRead)
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(g.kind(n))) continue;
    int lastRead = -1;
    std::vector<NodeId> stack{n};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId f : g.fanouts(v)) {
        if (g.kind(f) == OpKind::Wire) stack.push_back(f);
        else lastRead = std::max(lastRead, g.kind(f) == OpKind::Output ? s.steps() : s.stepOf(f));
      }
    }
    if (lastRead < 0) continue;  // dead value
    const int r = b.registerOf[n];
    if (r < 0 || static_cast<std::size_t>(r) >= b.registers.size()) {
      problems.push_back(label + ": live value '" + nameOf(g, n) + "' has no register");
      continue;
    }
    if (b.registers[static_cast<std::size_t>(r)].width < g.node(n).width)
      problems.push_back(label + ": '" + nameOf(g, n) + "' wider than its register");
    lives[r].emplace_back(ready[n], lastRead);
  }
  for (auto& [reg, spans] : lives) {
    std::sort(spans.begin(), spans.end());
    int heldUntil = 0;
    for (const auto& [write, lastRead] : spans) {
      if (write < heldUntil)
        problems.push_back(label + ": register " + std::to_string(reg) +
                           " overwritten in step " + std::to_string(write) +
                           " while a value is live to step " + std::to_string(heldUntil));
      heldUntil = std::max(heldUntil, lastRead);
    }
  }
}

void checkGating(const DesignOutcome& out, std::uint64_t seed, const std::string& label,
                 Problems& problems) {
  const Graph& g = out.design.graph;
  const Schedule& s = out.schedule;
  const std::vector<NodeId> order = g.topoOrder();

  std::vector<int> loadsOf(g.size(), 0);
  for (const LoadAction& load : out.controller.loads) {
    ++loadsOf.at(load.value);
    for (const GateTerm& term : load.condition)
      for (const GateLiteral& lit : term)
        if (isScheduled(g.kind(lit.select)) && s.stepOf(lit.select) >= load.step)
          problems.push_back(label + ": load of '" + nameOf(g, load.value) + "' in step " +
                             std::to_string(load.step) + " reads the status of '" +
                             nameOf(g, lit.select) + "' captured in step " +
                             std::to_string(s.stepOf(lit.select)));
  }
  for (NodeId n = 0; n < g.size(); ++n)
    if (isScheduled(g.kind(n)) && out.binding.registerOf[n] >= 0 && loadsOf[n] != 1)
      problems.push_back(label + ": registered value '" + nameOf(g, n) + "' has " +
                         std::to_string(loadsOf[n]) + " load actions");

  Rng rng(seed);
  for (int v = 0; v < kGatingVectors; ++v) {
    std::map<std::string, std::int64_t> inputs;
    for (NodeId n = 0; n < g.size(); ++n)
      if (g.kind(n) == OpKind::Input)
        inputs[g.node(n).name] =
            truncateToWidth(static_cast<std::int64_t>(rng.next()), g.node(n).width);
    const std::vector<std::int64_t> vals = evaluateNodes(g, inputs);

    // What the outputs need under these select values: a mux needs its
    // select and only the chosen data input.
    std::vector<char> needed(g.size(), 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId n = *it;
      if (g.kind(n) == OpKind::Output) needed[n] = 1;
      if (!needed[n]) continue;
      const auto ops = g.fanins(n);
      if (g.kind(n) == OpKind::Mux) {
        needed[ops[0]] = 1;
        needed[vals[ops[0]] != 0 ? ops[1] : ops[2]] = 1;
      } else {
        for (const NodeId p : ops) needed[p] = 1;
      }
    }
    for (const LoadAction& load : out.controller.loads) {
      if (needed[load.value] && !dnfHolds(load.condition, vals)) {
        problems.push_back(label + ": '" + nameOf(g, load.value) +
                           "' is needed for an output but its load condition is false (vector " +
                           std::to_string(v) + ")");
        return;
      }
    }
  }
}

double checkPower(const DesignJob& job, const DesignOutcome& out, std::uint64_t seed,
                  const std::string& label, Problems& problems) {
  const Graph& g = out.design.graph;
  const ActivationResult& a = out.activation;
  if (a.probability.size() != g.size() || a.condition.size() != g.size() ||
      a.errorBar.size() != g.size() || g.size() != job.graph.size()) {
    problems.push_back(label + ": activation tables do not cover the graph");
    return 0;
  }
  std::map<GateDnf, Probability> memo;
  double full = 0;
  double expected = 0;
  for (NodeId n = 0; n < g.size(); ++n) {
    if (!isScheduled(job.graph.kind(n))) continue;
    const double w = paperWeight(job.graph.kind(n));
    full += w;
    if (a.errorBar[n] != 0)
      problems.push_back(label + ": probability of '" + nameOf(g, n) + "' is an estimate");
    auto it = memo.find(a.condition[n]);
    if (it == memo.end())
      it = memo.emplace(a.condition[n], fairCoinProbability(a.condition[n], seed ^ n)).first;
    const Probability& p = it->second;
    const Rational& claimed = a.probability[n];
    if (p.exact) {
      if (!(claimed == Rational(p.count, std::int64_t{1} << p.support)))
        problems.push_back(label + ": P('" + nameOf(g, n) + "') = " +
                           std::to_string(claimed.toDouble()) + ", enumeration gives " +
                           std::to_string(p.value));
      expected += w * p.value;
    } else {
      const double tol = kSampleSigmas * std::sqrt(0.25 / kSamples);
      if (std::abs(claimed.toDouble() - p.value) > tol)
        problems.push_back(label + ": P('" + nameOf(g, n) + "') = " +
                           std::to_string(claimed.toDouble()) + ", sampling gives " +
                           std::to_string(p.value) + " over " + std::to_string(p.support) +
                           " selects");
      expected += w * claimed.toDouble();
    }
  }
  const OpPowerModel model = OpPowerModel::paperWeights();
  const double eps = 1e-9 * std::max(1.0, full);
  if (std::abs(a.fullPower(model) - full) > eps)
    problems.push_back(label + ": full power " + std::to_string(a.fullPower(model)) +
                       ", recomputed " + std::to_string(full));
  if (std::abs(a.expectedPower(model) - expected) > eps)
    problems.push_back(label + ": expected power " + std::to_string(a.expectedPower(model)) +
                       ", recomputed " + std::to_string(expected));
  const double reduction = full > 0 ? 100.0 * (full - expected) / full : 0.0;
  double reported = -1;
  try {
    reported = std::stod(out.summary.reductionPercent);
  } catch (const std::exception&) {
  }
  if (std::abs(reported - reduction) > 0.005 + 1e-9)
    problems.push_back(label + ": reduction " + out.summary.reductionPercent +
                       "%, recomputed " + std::to_string(reduction) + "%");
  return full - expected;
}

double checkDesign(const DesignJob& job, const DesignOutcome& out, std::uint64_t seed,
                   const std::string& label, Problems& problems) {
  if (out.summary.degraded) problems.push_back(label + ": degraded (" + out.summary.degradeReason + ")");
  try {
    checkSchedule(out, job.steps, label, problems);
    checkBinding(out, label, problems);
    checkGating(out, seed, label, problems);
    return checkPower(job, out, seed, label, problems);
  } catch (const std::exception& e) {
    problems.push_back(label + ": check could not run: " + e.what());
    return 0;
  }
}

double checkExplore(const ExploreRequest& req, const ExploreResult& res, const std::string& label,
                    Problems& problems) {
  if (res.degraded) problems.push_back(label + ": sweep degraded (" + res.degradeReason + ")");
  if (res.stats.pointsSwept != res.maxSteps - res.minSteps + 1)
    problems.push_back(label + ": swept " + std::to_string(res.stats.pointsSwept) +
                       " points of [" + std::to_string(res.minSteps) + ", " +
                       std::to_string(res.maxSteps) + "]");
  const auto dominates = [](const ExplorePoint& a, const ExplorePoint& b) {
    return a.steps <= b.steps && a.power >= b.power && a.area <= b.area &&
           (a.steps < b.steps || a.power > b.power || a.area < b.area);
  };
  for (std::size_t i = 0; i < res.front.size(); ++i)
    for (std::size_t j = 0; j < res.front.size(); ++j)
      if (i != j && dominates(res.front[i], res.front[j]))
        problems.push_back(label + ": front point at " + std::to_string(res.front[i].steps) +
                           " steps dominates the one at " + std::to_string(res.front[j].steps));

  const double full = fullPowerOf(req.graph);
  double saved = 0;
  for (const ExplorePoint& p : res.front) {
    const std::string at = label + " @" + std::to_string(p.steps);
    try {
      const DesignOutcome one = runDesignJob(
          DesignJob{req.graph.clone(), p.steps, req.ordering, req.optimal, req.shared});
      if (!sameSummary(p.summary, one.summary))
        problems.push_back(at + ": front point differs from the one-shot run");
      if (p.power != one.activation.reductionPercent(OpPowerModel::paperWeights()) ||
          p.area != UnitCosts::defaults().costOf(one.units))
        problems.push_back(at + ": front power/area differ from the one-shot run");
    } catch (const std::exception& e) {
      problems.push_back(at + ": one-shot run failed: " + e.what());
    }
    saved += full * p.power / 100.0;
  }
  for (const ExploreSkip& s : res.skipped) {
    const std::string at = label + " @" + std::to_string(s.steps);
    if (s.kind != kKnownFault) {
      problems.push_back(at + ": point skipped as " + s.kind + ": " + s.note);
      continue;
    }
    try {
      (void)runDesignJob(
          DesignJob{req.graph.clone(), s.steps, req.ordering, req.optimal, req.shared});
      problems.push_back(at + ": skipped as synthesis, but the one-shot run succeeds");
    } catch (const std::exception& e) {
      if (failureKind(e) != kKnownFault)
        problems.push_back(at + ": skipped as synthesis, one-shot fails otherwise: " + e.what());
    }
  }
  return saved;
}

bool servedMatches(const std::string& served, const std::string& idJson,
                   const std::string& resultJson) {
  // The envelope around an empty payload gives the bytes before and after it.
  const std::string envelope = makeResultResponse(idJson, "");
  const std::size_t cut = envelope.rfind(':') + 1;
  const std::string_view head(envelope.data(), cut);
  const std::string_view tail(envelope.data() + cut, envelope.size() - cut);
  std::string_view body(served);
  if (body.size() < head.size() + tail.size() || !body.starts_with(head) || !body.ends_with(tail))
    return false;
  body = body.substr(head.size(), body.size() - head.size() - tail.size());

  // The payload must equal resultJson, except that cache_hit may read true.
  static constexpr std::string_view kHitFalse = "\"cache_hit\":false";
  static constexpr std::string_view kHitTrue = "\"cache_hit\":true";
  const std::string_view want(resultJson);
  const std::size_t at = want.find(kHitFalse);
  if (at == std::string_view::npos || body.size() < at) return body == want;
  if (body.substr(0, at) != want.substr(0, at)) return false;
  body.remove_prefix(at);
  if (body.starts_with(kHitFalse)) body.remove_prefix(kHitFalse.size());
  else if (body.starts_with(kHitTrue)) body.remove_prefix(kHitTrue.size());
  else return false;
  return body == want.substr(at + kHitFalse.size());
}

}  // namespace perfbench

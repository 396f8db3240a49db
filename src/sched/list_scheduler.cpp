#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <string>

namespace pmsched {

namespace {

/// Stable sort of `nodes` by `key[node]`, for keys in [0, maxKey].
void countingSortBy(std::vector<NodeId>& nodes, const std::vector<int>& key, int maxKey,
                    std::vector<NodeId>& scratch) {
  std::vector<std::uint32_t> start(static_cast<std::size_t>(maxKey) + 2, 0);
  for (const NodeId n : nodes) ++start[static_cast<std::size_t>(key[n]) + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  scratch.resize(nodes.size());
  for (const NodeId n : nodes) scratch[start[static_cast<std::size_t>(key[n])]++] = n;
  nodes.swap(scratch);
}

/// One list-scheduling problem: a graph, a step budget, a folding interval
/// and a latency model. Everything that does not depend on the unit limits
/// — time frames, priorities, and the predecessor counts left once the
/// graph's sources have resolved — is built once here, so the growth rounds
/// of the resource search rerun only the limit-dependent part, in reused
/// buffers.
///
/// A scheduled node becomes ready in the step after its last data or
/// control predecessor finishes. Transparent nodes (inputs, constants,
/// wires, outputs) relay their data operands' finish time and ignore control
/// predecessors. Every node counts its pending predecessors with the
/// multiplicity of the adjacency that decrements them (`x*x` lists `x` twice
/// on both sides); when the count reaches zero the node is released into the
/// bucket of its ready step.
class ListScheduler {
 public:
  ListScheduler(const Graph& g, int steps, int ii, const LatencyModel& model)
      : g_(g),
        steps_(steps),
        ii_(ii),
        model_(model),
        tf_(computeTimeFrames(g, steps, {}, model)),
        fanouts_(g.fanoutCsr()),
        ctrlSucc_(g.controlSuccCsr()) {
    const std::size_t n = g.size();
    cls_.resize(n);
    latency_.resize(n);
    std::vector<NodeId> byPriority;
    for (NodeId v = 0; v < n; ++v) {
      cls_[v] = resourceClassOf(g.kind(v));
      latency_[v] = model.latencyOf(g.kind(v));
      if (cls_[v] == ResourceClass::None) continue;
      ++opCount_[unitIndex(cls_[v])];
      byPriority.push_back(v);
    }
    if (const auto bad = tf_.firstInfeasible(g)) {
      infeasible_ = "no schedule in " + std::to_string(steps) + " steps: node '" +
                    g.node(*bad).name + "' has empty time frame";
      return;
    }

    // Priority: smallest ALAP, then smallest ASAP, then id — two stable
    // counting sorts of the id-ordered operations, least significant key
    // first. Feasible frames keep both keys within [1, steps + 1].
    std::vector<NodeId> scratch;
    countingSortBy(byPriority, tf_.asap, steps + 1, scratch);
    countingSortBy(byPriority, tf_.alap, steps + 1, scratch);
    opTotal_ = byPriority.size();
    rank_.assign(n, 0);
    for (std::uint32_t r = 0; r < byPriority.size(); ++r) rank_[byPriority[r]] = r;

    pending_.resize(n);
    time_.assign(n, 0);
    next_.resize(n);
    head_.assign(static_cast<std::size_t>(steps) + 2, kInvalidNode);
    std::vector<NodeId> sources;
    for (NodeId v = 0; v < n; ++v) {
      std::size_t preds = g.fanins(v).size();
      if (cls_[v] != ResourceClass::None) preds += g.controlPredecessors(v).size();
      pending_[v] = static_cast<std::uint32_t>(preds);
      if (preds == 0) sources.push_back(v);
    }
    for (const NodeId v : sources) {
      if (cls_[v] == ResourceClass::None) resolve(v, 0);
      else initialReady_.push_back(v);
    }
    collect(1, initialReady_);
    sortByPriority(initialReady_);
    pending0_ = pending_;
    time0_ = time_;
  }

  [[nodiscard]] const std::array<int, kNumUnitClasses>& opCount() const { return opCount_; }

  ListScheduleResult run(const ResourceVector& limits) {
    ListScheduleResult result;
    if (!infeasible_.empty()) {
      result.message = infeasible_;
      return result;
    }

    pending_ = pending0_;
    time_ = time0_;
    std::fill(head_.begin(), head_.end(), kInvalidNode);
    ready_ = initialReady_;
    // usage per step slot and class; folded modulo ii when pipelining.
    const int slots = ii_ > 0 ? ii_ : steps_;
    usage_.assign(static_cast<std::size_t>(slots) + 1, ResourceVector{});
    auto slotOf = [&](int step) { return ii_ > 0 ? (step - 1) % ii_ + 1 : step; };

    // Deferral bookkeeping: when the budget runs out, the class that was
    // actually starved (not the class of whichever op happened to remain)
    // is what the minimum-resource search must grow.
    std::array<int, kNumUnitClasses> deferrals{};

    Schedule sched(g_, steps_);
    std::size_t unplaced = opTotal_;
    for (int step = 1; step <= steps_ && unplaced > 0; ++step) {
      // The ready list stays in priority order: the nodes deferred so far
      // merged with the ones released into this step.
      arrivals_.clear();
      collect(step, arrivals_);
      if (!arrivals_.empty()) {
        sortByPriority(arrivals_);
        merged_.clear();
        std::merge(ready_.begin(), ready_.end(), arrivals_.begin(), arrivals_.end(),
                   std::back_inserter(merged_),
                   [&](NodeId a, NodeId b) { return rank_[a] < rank_[b]; });
        ready_.swap(merged_);
      }

      // Placing a node only releases nodes into later steps, so the ready
      // list compacts in place to the deferred nodes, in order.
      std::size_t kept = 0;
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        const NodeId n = ready_[i];
        const ResourceClass rc = cls_[n];
        const int latency = latency_[n];
        // The unit is busy for `latency` consecutive steps (folded when
        // pipelining); all of them must have a free instance.
        bool fits = step + latency - 1 <= steps_;
        for (int t = step; fits && t < step + latency; ++t)
          fits = usage_[static_cast<std::size_t>(slotOf(t))].of(rc) < limits.of(rc);
        if (fits) {
          for (int t = step; t < step + latency; ++t)
            ++usage_[static_cast<std::size_t>(slotOf(t))].of(rc);
          sched.place(n, step);
          time_[n] = step + latency - 1;
          --unplaced;
          resolve(n, step);
        } else {
          ++deferrals[unitIndex(rc)];
          if (tf_.alap[n] <= step) {
            // A zero-slack operation could not be placed: this resource class
            // is the bottleneck at the current limits.
            result.blockedOn = rc;
            result.message = "resource-blocked at step " + std::to_string(step) + ": node '" +
                             g_.node(n).name + "' needs a free " + std::string(resourceName(rc));
            return result;
          }
          ready_[kept++] = n;
        }
      }
      ready_.resize(kept);
    }

    if (unplaced > 0) {
      // Ran out of steps. Blame the class with the most resource deferrals —
      // the unplaced node itself may belong to a class that was never short
      // (it just waited on starved producers).
      NodeId worst = kInvalidNode;
      for (NodeId v = 0; v < g_.size(); ++v)
        if (cls_[v] != ResourceClass::None && !sched.isPlaced(v) &&
            (worst == kInvalidNode || tf_.alap[v] < tf_.alap[worst]))
          worst = v;
      result.blockedOn = cls_[worst];
      int most = 0;
      for (std::size_t i = 0; i < kNumUnitClasses; ++i) {
        if (deferrals[i] > most) {
          most = deferrals[i];
          result.blockedOn = kUnitClasses[i];
        }
      }
      result.message = "ran out of steps with " + std::to_string(unplaced) +
                       " operations unplaced (first: '" + g_.node(worst).name + "')";
      return result;
    }

    sched.validate(g_, model_);
    result.schedule = std::move(sched);
    return result;
  }

  /// Units a successful schedule of this problem actually occupies.
  [[nodiscard]] ResourceVector unitsRequired(const Schedule& s) const {
    return ii_ > 0 ? s.unitsRequiredModulo(g_, ii_, model_) : s.unitsRequired(g_, model_);
  }

 private:
  void sortByPriority(std::vector<NodeId>& nodes) const {
    std::sort(nodes.begin(), nodes.end(),
              [&](NodeId a, NodeId b) { return rank_[a] < rank_[b]; });
  }

  /// Append the nodes released into `step` to `out`.
  void collect(int step, std::vector<NodeId>& out) const {
    for (NodeId v = head_[static_cast<std::size_t>(step)]; v != kInvalidNode; v = next_[v])
      out.push_back(v);
  }

  /// `v`'s finish time (time_[v]) is final, during step `step`: hand it to
  /// every successor, relaying through transparent nodes as they resolve.
  void resolve(NodeId v, int step) {
    stack_.push_back(v);
    while (!stack_.empty()) {
      const NodeId u = stack_.back();
      stack_.pop_back();
      const int t = time_[u];
      for (const NodeId s : fanouts_.row(u)) arrive(s, t, step);
      for (const NodeId s : ctrlSucc_.row(u))
        if (cls_[s] != ResourceClass::None) arrive(s, t, step);
    }
  }

  void arrive(NodeId s, int t, int step) {
    time_[s] = std::max(time_[s], t);
    if (--pending_[s] != 0) return;
    if (cls_[s] == ResourceClass::None) {
      stack_.push_back(s);
      return;
    }
    // Ready in the step after its last predecessor finishes; a release
    // during step `step` is seen no earlier than the next step.
    const int ready = std::max(time_[s], step) + 1;
    if (ready > steps_) return;  // never ready: counted as unplaced
    next_[s] = head_[static_cast<std::size_t>(ready)];
    head_[static_cast<std::size_t>(ready)] = s;
  }

  const Graph& g_;
  int steps_;
  int ii_;
  const LatencyModel& model_;
  TimeFrames tf_;
  const CsrAdjacency& fanouts_;
  const CsrAdjacency& ctrlSucc_;
  std::string infeasible_;

  // Limit-independent, built once.
  std::vector<ResourceClass> cls_;
  std::vector<int> latency_;
  std::vector<std::uint32_t> rank_;
  std::array<int, kNumUnitClasses> opCount_{};
  std::size_t opTotal_ = 0;
  std::vector<std::uint32_t> pending0_;
  std::vector<int> time0_;
  std::vector<NodeId> initialReady_;

  // Per-run state, reused across runs. time_ is a node's finish step once
  // placed (transparent: its operands' latest), and before that the latest
  // finish among its resolved predecessors.
  std::vector<std::uint32_t> pending_;
  std::vector<int> time_;
  std::vector<NodeId> head_;  ///< per step: first node released into it
  std::vector<NodeId> next_;  ///< intrusive bucket links
  std::vector<NodeId> ready_;
  std::vector<NodeId> arrivals_;
  std::vector<NodeId> merged_;
  std::vector<NodeId> stack_;
  std::vector<ResourceVector> usage_;
};

/// Demand-driven growth from the usage lower bound: whichever class blocks
/// the schedule grows by one. A class never needs more units than it has
/// operations; when the blamed class is already saturated the demand signal
/// was indirect (a starved producer chain), so every unsaturated class grows
/// instead. Once every class is saturated the scheduler degenerates to ASAP
/// and must succeed whenever the frames are feasible. Returns the first
/// successful run, with `limits` left at the limits it ran under.
ListScheduleResult growLimits(ListScheduler& ls, int steps, int ii, ResourceVector& limits) {
  // Lower bound: ceil(opsPerClass / effectiveSteps) — with pipelining the
  // folded window has only `ii` slots.
  const int window = ii > 0 ? std::min(ii, steps) : steps;
  const std::array<int, kNumUnitClasses>& opCount = ls.opCount();
  for (std::size_t i = 0; i < kNumUnitClasses; ++i)
    limits.count[i] = (opCount[i] + window - 1) / window;

  for (;;) {
    ListScheduleResult r = ls.run(limits);
    if (r.schedule) return r;
    if (r.blockedOn == ResourceClass::None)
      throw InfeasibleError("minimizeResources: " + r.message);

    const std::size_t blocked = unitIndex(r.blockedOn);
    if (limits.count[blocked] < opCount[blocked]) {
      ++limits.count[blocked];
      continue;
    }
    bool grew = false;
    for (std::size_t i = 0; i < kNumUnitClasses; ++i) {
      if (limits.count[i] < opCount[i]) {
        ++limits.count[i];
        grew = true;
      }
    }
    if (!grew) throw InfeasibleError("minimizeResources (all classes saturated): " + r.message);
  }
}

}  // namespace

ListScheduleResult listSchedule(const Graph& g, int steps, const ResourceVector& limits,
                                int ii, const LatencyModel& model) {
  return ListScheduler(g, steps, ii, model).run(limits);
}

ResourceVector minimizeResources(const Graph& g, int steps, const UnitCosts& costs, int ii,
                                 const LatencyModel& model) {
  (void)costs;  // growth is demand-driven; costs kept in the API for callers
                // that want to compare vectors (see analysis::areaIncrease).
  ListScheduler ls(g, steps, ii, model);
  ResourceVector limits;
  const ListScheduleResult r = growLimits(ls, steps, ii, limits);
  // The scheduler may have used fewer units than the limits allow; report
  // what the schedule actually needs.
  return ls.unitsRequired(*r.schedule);
}

MinUnitsSchedule scheduleMinUnits(const Graph& g, int steps, int ii, const LatencyModel& model) {
  ListScheduler ls(g, steps, ii, model);
  ResourceVector limits;
  ListScheduleResult r = growLimits(ls, steps, ii, limits);
  MinUnitsSchedule out{ls.unitsRequired(*r.schedule), std::move(*r.schedule)};
  // Scheduling again on the required units repeats every decision of the
  // successful round when they fit within its limits: each placement kept
  // its slots' usage within the required units, and each deferral met a
  // slot already at its limit. Usage can pass a limit only when a
  // multi-cycle operation folds onto its own slot (latency > ii); then the
  // schedule on the required units is computed for real.
  if (!out.units.fitsWithin(limits)) {
    ListScheduleResult again = ls.run(out.units);
    if (!again.schedule) throw InfeasibleError(again.message);
    out.schedule = std::move(*again.schedule);
  }
  return out;
}

}  // namespace pmsched

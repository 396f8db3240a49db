#pragma once
// The scan-based list scheduler and minimum-resource search, kept as the
// differential oracle for the event-driven scheduler in
// src/sched/list_scheduler.cpp (tests/test_list_scheduler.cpp).
//
// Per control step it rescans every unplaced node for readiness and
// re-walks the whole topological order to refresh the availability of
// transparent nodes: O(steps x nodes) per pass, but short enough to check
// by reading. The product scheduler must reproduce its schedules,
// `blockedOn` and messages exactly.

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "sched/list_scheduler.hpp"

namespace pmsched::oracle {

// Sentinel availability for not-yet-placed scheduled nodes: larger than any
// reachable step so consumers are never considered ready prematurely.
inline constexpr int kNotReady = 1 << 20;

inline ListScheduleResult listSchedule(const Graph& g, int steps, const ResourceVector& limits,
                                       int ii = 0,
                                       const LatencyModel& model = LatencyModel::unit()) {
  ListScheduleResult result;

  const TimeFrames tf = computeTimeFrames(g, steps, {}, model);
  if (const auto bad = tf.firstInfeasible(g)) {
    result.message = "no schedule in " + std::to_string(steps) + " steps: node '" +
                     g.node(*bad).name + "' has empty time frame";
    return result;
  }

  Schedule sched(g, steps);
  const std::vector<NodeId> order = g.topoOrder();

  // avail[n] = step after which n's value exists; kNotReady until the
  // producing operation is placed (transparent chains propagate it).
  std::vector<int> avail(g.size(), 0);
  for (NodeId n = 0; n < g.size(); ++n)
    if (isScheduled(g.kind(n))) avail[n] = kNotReady;

  auto refreshTransparent = [&] {
    for (const NodeId n : order) {
      if (isScheduled(g.kind(n)) || g.fanins(n).empty()) continue;
      int ready = 0;
      for (const NodeId p : g.fanins(n)) ready = std::max(ready, avail[p]);
      avail[n] = std::min(ready, kNotReady);
    }
  };
  refreshTransparent();

  // usage per step slot and class; folded modulo ii when pipelining.
  const int slots = ii > 0 ? ii : steps;
  std::vector<ResourceVector> usage(static_cast<std::size_t>(slots) + 1);
  auto slotOf = [&](int step) { return ii > 0 ? (step - 1) % ii + 1 : step; };

  std::array<int, kNumUnitClasses> deferrals{};

  std::vector<NodeId> todo = g.scheduledNodes();
  std::vector<NodeId> ready;
  std::vector<char> placed(g.size(), 0);
  for (int step = 1; step <= steps && !todo.empty(); ++step) {
    ready.clear();
    for (const NodeId n : todo) {
      bool ok = true;
      for (const NodeId p : g.fanins(n))
        if (avail[p] >= step) ok = false;
      for (const NodeId p : g.controlPredecessors(n))
        if (avail[p] >= step) ok = false;
      if (ok) ready.push_back(n);
    }

    std::sort(ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
      if (tf.alap[a] != tf.alap[b]) return tf.alap[a] < tf.alap[b];
      if (tf.asap[a] != tf.asap[b]) return tf.asap[a] < tf.asap[b];
      return a < b;
    });

    bool placedAny = false;
    for (const NodeId n : ready) {
      const ResourceClass rc = resourceClassOf(g.kind(n));
      const int latency = model.latencyOf(g.kind(n));
      bool fits = step + latency - 1 <= steps;
      for (int t = step; fits && t < step + latency; ++t)
        fits = usage[static_cast<std::size_t>(slotOf(t))].of(rc) < limits.of(rc);
      if (fits) {
        for (int t = step; t < step + latency; ++t)
          ++usage[static_cast<std::size_t>(slotOf(t))].of(rc);
        sched.place(n, step);
        avail[n] = step + latency - 1;
        placedAny = true;
        placed[n] = 1;
      } else {
        ++deferrals[unitIndex(rc)];
        if (tf.alap[n] <= step) {
          result.blockedOn = rc;
          result.message = "resource-blocked at step " + std::to_string(step) + ": node '" +
                           g.node(n).name + "' needs a free " + std::string(resourceName(rc));
          return result;
        }
      }
    }
    if (placedAny) {
      todo.erase(std::remove_if(todo.begin(), todo.end(),
                                [&](NodeId n) { return placed[n] != 0; }),
                 todo.end());
      refreshTransparent();
    }
  }

  if (!todo.empty()) {
    const NodeId worst = *std::min_element(todo.begin(), todo.end(), [&](NodeId a, NodeId b) {
      return tf.alap[a] < tf.alap[b];
    });
    result.blockedOn = resourceClassOf(g.kind(worst));
    int most = 0;
    for (std::size_t i = 0; i < kNumUnitClasses; ++i) {
      if (deferrals[i] > most) {
        most = deferrals[i];
        result.blockedOn = kUnitClasses[i];
      }
    }
    result.message = "ran out of steps with " + std::to_string(todo.size()) +
                     " operations unplaced (first: '" + g.node(worst).name + "')";
    return result;
  }

  sched.validate(g, model);
  result.schedule = std::move(sched);
  return result;
}

inline ResourceVector minimizeResources(const Graph& g, int steps, int ii = 0,
                                        const LatencyModel& model = LatencyModel::unit()) {
  const int window = ii > 0 ? std::min(ii, steps) : steps;
  ResourceVector limits;
  std::array<int, kNumUnitClasses> opCount{};
  for (NodeId n = 0; n < g.size(); ++n) {
    const ResourceClass rc = resourceClassOf(g.kind(n));
    if (rc != ResourceClass::None) ++opCount[unitIndex(rc)];
  }
  for (std::size_t i = 0; i < kNumUnitClasses; ++i)
    limits.count[i] = (opCount[i] + window - 1) / window;

  for (;;) {
    ListScheduleResult r = oracle::listSchedule(g, steps, limits, ii, model);
    if (r.schedule) {
      return ii > 0 ? r.schedule->unitsRequiredModulo(g, ii, model)
                    : r.schedule->unitsRequired(g, model);
    }
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

}  // namespace pmsched::oracle

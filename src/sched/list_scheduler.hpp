#pragma once
// Resource-constrained list scheduling, standing in for HYPER's scheduler.
//
// Priority function: smallest ALAP first (least slack), then smallest
// ASAP, then node id for determinism. Handles the control edges the
// power-management transform inserts exactly like data precedence.
//
// The scheduler is event-driven: an operation enters the ready list in the
// step after its last data or control predecessor finishes, so a pass costs
// O(edges + ready-list work) rather than O(steps x nodes).

#include <optional>

#include "cdfg/graph.hpp"
#include "sched/resources.hpp"
#include "sched/schedule.hpp"
#include "sched/timeframe.hpp"

namespace pmsched {

/// Outcome of a list-scheduling attempt.
struct ListScheduleResult {
  std::optional<Schedule> schedule;  ///< empty on failure
  /// On failure: the resource class whose shortage blocked a zero-slack
  /// operation (useful to drive the minimum-resource search).
  ResourceClass blockedOn = ResourceClass::None;
  std::string message;
};

/// Schedule `g` into `steps` control steps using at most `limits` units per
/// class. Optionally fold resource usage modulo `ii` (pipelining with
/// initiation interval `ii`; 0 = no folding). Multi-cycle operations (per
/// `model`) occupy their unit for consecutive steps.
[[nodiscard]] ListScheduleResult listSchedule(const Graph& g, int steps,
                                              const ResourceVector& limits, int ii = 0,
                                              const LatencyModel& model = LatencyModel::unit());

/// Smallest-cost resource vector for which list scheduling succeeds at the
/// given step budget, found by demand-driven growth from the usage lower
/// bound. Throws InfeasibleError when even unlimited units fail (i.e. the
/// precedence constraints alone exceed the step budget).
[[nodiscard]] ResourceVector minimizeResources(const Graph& g, int steps,
                                               const UnitCosts& costs = UnitCosts::defaults(),
                                               int ii = 0,
                                               const LatencyModel& model = LatencyModel::unit());

/// Minimum units together with a schedule that uses exactly them.
struct MinUnitsSchedule {
  ResourceVector units;
  Schedule schedule;
};

/// minimizeResources() and listSchedule() on its result in one search: the
/// same units and the same schedule as that pair of calls, without the
/// extra pass. Throws InfeasibleError like minimizeResources().
[[nodiscard]] MinUnitsSchedule scheduleMinUnits(const Graph& g, int steps, int ii = 0,
                                                const LatencyModel& model = LatencyModel::unit());

}  // namespace pmsched

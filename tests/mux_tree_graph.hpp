#pragma once
// A condition-heavy test input: one full binary tree of muxes, `depth`
// levels deep. Every mux selects on its own comparison and every leaf is an
// add, so each node below the root carries its own path condition. The two
// leaves either side of the root's split share one multiply, which shared
// gating gives the OR of their two path conditions, so the classes also
// share terms: 2^(depth+1) - 1 condition classes in all once every gate
// fits, at critical path + depth steps.

#include <algorithm>
#include <string>
#include <vector>

#include "cdfg/graph.hpp"
#include "sched/condition.hpp"

namespace pmsched {

inline Graph muxTreeGraph(int depth) {
  Graph g("mux_tree_" + std::to_string(depth));
  const NodeId a = g.addInput("a");
  const NodeId b = g.addInput("b");
  const NodeId shared = g.addOp(OpKind::Mul, {a, b}, "m");
  const int leaves = 1 << depth;
  std::vector<NodeId> level;
  for (int k = 0; k < leaves; ++k) {
    const NodeId base = (k == leaves / 2 - 1 || k == leaves / 2) ? shared : a;
    const NodeId in = g.addInput("x" + std::to_string(k));
    level.push_back(g.addOp(OpKind::Add, {base, in}, "leaf" + std::to_string(k)));
  }
  for (int d = depth - 1; d >= 0; --d) {
    std::vector<NodeId> up;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      const std::string tag = std::to_string(d) + "_" + std::to_string(i / 2);
      const NodeId sel = g.addOp(OpKind::CmpGt, {g.addInput("s" + tag), a}, "c" + tag);
      up.push_back(g.addMux(sel, level[i], level[i + 1], "mux" + tag));
    }
    level = std::move(up);
  }
  g.addOutput(level[0], "out");
  return g;
}

/// Distinct non-trivial activation conditions (neither TRUE nor FALSE):
/// the condition classes the activation analysis builds one BDD each for.
inline std::size_t conditionClassCount(std::vector<GateDnf> conditions) {
  std::erase_if(conditions, [](const GateDnf& c) { return dnfIsTrue(c) || c.empty(); });
  std::sort(conditions.begin(), conditions.end());
  return static_cast<std::size_t>(std::unique(conditions.begin(), conditions.end()) -
                                  conditions.begin());
}

}  // namespace pmsched

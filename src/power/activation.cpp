#include "power/activation.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "support/run_budget.hpp"
#include "support/thread_pool.hpp"

namespace pmsched {

namespace {

/// Fewest nontrivial conditions for which the partitioned build is worth
/// spinning up the pool. Partitions trade away the shared manager's
/// cross-node cache (each rebuilds the subformulas it shares with other
/// partitions), so small condition sets are strictly better off
/// sequential; the threshold errs high.
constexpr std::size_t kMinConditionsForParallel = 64;

/// Snap a double in [0, 1] onto the 52-fractional-bit dyadic grid — every
/// such grid point is an exact Rational, and the snap moves the value by at
/// most 2^-53.
Rational quantizeProbability(double v) {
  constexpr std::int64_t kDen = std::int64_t{1} << 52;
  const double clamped = std::min(std::max(v, 0.0), 1.0);
  return Rational{static_cast<std::int64_t>(std::llround(clamped * static_cast<double>(kDen))),
                  kDen};
}

/// What one condition's analysis produced, exactly or degraded.
struct NodeOutcome {
  BddRef ref = kBddInvalid;  // kBddInvalid when no canonical handle exists
  Rational prob = Rational::zero();
  double error = 0;  // 0 = exact
  bool degraded = false;
};

/// Probability sandwich straight from the DNF, no BDD required: each
/// normalized term holds with probability exactly 2^-|term|, so the union
/// is at least the largest single term and at most the (clamped) sum. The
/// midpoint with half-width error bar is the last-resort estimate when the
/// budget refuses even the BDD build.
NodeOutcome dnfIntervalEstimate(const GateDnf& cond) {
  double lb = 0, ub = 0;
  for (const GateTerm& term : cond) {
    const double p = std::ldexp(1.0, -static_cast<int>(term.size()));
    lb = std::max(lb, p);
    ub += p;
  }
  ub = std::min(ub, 1.0);
  NodeOutcome out;
  out.prob = quantizeProbability((lb + ub) / 2.0);
  out.error = (ub - lb) / 2.0 + 0x1p-53;
  out.degraded = true;
  return out;
}

/// Build one condition in `mgr`, degrading per the robustness contract:
/// a node-cap trip mid-build yields the DNF interval estimate (no handle);
/// an exact probability past Rational's width yields the bounded-error
/// BDD estimate (handle kept). Never throws BudgetExceededError.
NodeOutcome buildCondition(BddManager& mgr, const GateDnf& cond) {
  NodeOutcome out;
  try {
    out.ref = mgr.fromDnf(cond);
  } catch (const BudgetExceededError&) {
    return dnfIntervalEstimate(cond);  // manager stays valid; handle refused
  }
  try {
    out.prob = mgr.probability(out.ref);
  } catch (const BudgetExceededError&) {
    const BddManager::ApproxProbability approx = mgr.probabilityApprox(out.ref);
    out.prob = quantizeProbability(approx.value);
    out.error = approx.error + 0x1p-53;
    out.degraded = true;
  }
  return out;
}

}  // namespace

ActivationResult analyzeActivation(const PowerManagedDesign& design, const RunBudget* budget) {
  const Graph& g = design.graph;

  ActivationResult result;
  result.condition = resolveActivationConditions(design);
  result.probability.assign(g.size(), Rational::one());
  result.bdds = std::make_shared<BddManager>();
  result.bdd.assign(g.size(), kBddTrue);
  result.errorBar.assign(g.size(), 0.0);
  result.averageExecuted.fill(Rational::zero());
  result.totalOps.fill(0);
  if (budget != nullptr && budget->bddNodeCap() != 0)
    result.bdds->setNodeLimit(budget->bddNodeCap());

  // Every condition BDD ends up in ONE manager, so the conditions of a
  // gated cone (which share muxes and therefore subformulas) share nodes,
  // and the per-node probability is a cache hit for every subgraph already
  // weighed for an earlier node.
  std::vector<NodeId> nontrivial;
  for (NodeId n = 0; n < g.size(); ++n) {
    const GateDnf& cond = result.condition[n];
    if (dnfIsTrue(cond)) {
      result.bdd[n] = kBddTrue;
    } else if (cond.empty()) {
      result.bdd[n] = kBddFalse;
      result.probability[n] = Rational::zero();
    } else {
      nontrivial.push_back(n);
    }
  }

  // Condition classes: nodes gated by the same cone carry *equal* DNFs, so
  // each distinct condition is analyzed once and the outcome fanned out to
  // every node in its class. Within one manager an equal DNF hash-conses to
  // the identical ref anyway, so the dedup changes no result — it removes
  // the redundant rebuild (and, partitioned, the redundant merge) work.
  std::vector<const GateDnf*> classCond;            // first occurrence, class order
  std::vector<int> classOfNode(nontrivial.size());  // parallel to `nontrivial`
  {
    std::map<GateDnf, int> index;
    for (std::size_t i = 0; i < nontrivial.size(); ++i) {
      const GateDnf& cond = result.condition[nontrivial[i]];
      const auto [it, fresh] = index.emplace(cond, static_cast<int>(classCond.size()));
      if (fresh) classCond.push_back(&cond);
      classOfNode[i] = it->second;
    }
  }

  std::vector<NodeOutcome> outs(classCond.size());
  const std::size_t threads = threadCount();
  const bool partitioned = threads > 1 && classCond.size() >= kMinConditionsForParallel;
  if (partitioned) {
    // Partitioned parallel build, in two passes. Pass 1 builds a shared
    // core — every term that occurs in more than one condition class, i.e.
    // the cross-partition common subconditions — directly in the final
    // manager; pass 2 has every partition import that core (a structural
    // copy under the shared variable order) and then build its share of
    // the classes on top, so the sharing the partition split forfeits is
    // recovered instead of re-derived per partition. The merge stays
    // canonical and thread-count independent:
    //  * all managers pre-register the SAME variable order — the first-use
    //    order a sequential fromDnf sweep in node id order would produce —
    //    so a class BDD is structurally identical no matter which
    //    partition built it (reordering may change an order mid-build;
    //    importFrom then falls back to its ite-based transfer, which is
    //    still exact — see PARALLELISM.md);
    //  * the merge walks classes in first-occurrence order, so the final
    //    manager's node numbering is a deterministic function of the
    //    conditions alone.
    // Probabilities are computed inside the partitions (exact dyadics are
    // manager-independent) where they parallelize.
    std::vector<NodeId> varOrder;
    {
      std::vector<char> seen(g.size(), 0);
      for (const NodeId n : nontrivial)
        for (const NodeId s : dnfSupport(result.condition[n]))
          if (!seen[s]) {
            seen[s] = 1;
            varOrder.push_back(s);
          }
    }
    result.bdds->registerVariables(varOrder);

    // Pass 1: the shared core, in deterministic first-occurrence order.
    std::vector<GateDnf> coreTerms;
    {
      std::map<GateTerm, int> occurrences;
      for (const GateDnf* cond : classCond)
        for (const GateTerm& term : *cond) ++occurrences[term];
      std::map<GateTerm, bool> emitted;
      for (const GateDnf* cond : classCond)
        for (const GateTerm& term : *cond)
          if (occurrences[term] >= 2 && !std::exchange(emitted[term], true))
            coreTerms.push_back(GateDnf{term});
    }
    std::vector<BddRef> coreRefs;
    try {
      for (const GateDnf& term : coreTerms) coreRefs.push_back(result.bdds->fromDnf(term));
    } catch (const BudgetExceededError&) {
      // The core is purely an optimization: partitions that cannot seed
      // from it simply rebuild what they need.
    }

    // Pass 2: partitions import the core, then build their classes.
    struct Partition {
      BddManager mgr;
      std::vector<NodeOutcome> out;  // parallel to its slice of the classes
    };
    const std::size_t parts = std::min(threads, classCond.size());
    std::vector<std::unique_ptr<Partition>> partition(parts);
    // Round-robin assignment: class c belongs to partition c % parts
    // (balances the deep conditions, which cluster at high node ids).
    // Degradation happens INSIDE the lambda — buildCondition never throws
    // a budget error, so nothing escapes parallelFor. The core manager is
    // only read (importFrom takes src const), so the concurrent seeding
    // imports are race-free.
    globalThreadPool().parallelFor(0, parts, 1, [&](std::size_t, std::size_t p) {
      auto part = std::make_unique<Partition>();
      part->mgr.registerVariables(varOrder);
      if (budget != nullptr && budget->bddNodeCap() != 0)
        part->mgr.setNodeLimit(budget->bddNodeCap());
      {
        std::vector<BddRef> coreMemo(result.bdds->nodeCount(), kBddInvalid);
        try {
          for (const BddRef r : coreRefs) (void)part->mgr.importFrom(*result.bdds, r, coreMemo);
        } catch (const BudgetExceededError&) {
          // Partition arena at its cap already: build unseeded; the class
          // builds degrade through buildCondition as usual.
        }
      }
      for (std::size_t c = p; c < classCond.size(); c += parts)
        part->out.push_back(budget != nullptr && budget->exhausted()
                                ? dnfIntervalEstimate(*classCond[c])
                                : buildCondition(part->mgr, *classCond[c]));
      partition[p] = std::move(part);
    });

    // Merge per class; core structure is already present in the final
    // manager, so the shared parts of every import are memo hits.
    std::vector<std::vector<BddRef>> memo(parts);
    for (std::size_t p = 0; p < parts; ++p)
      memo[p].assign(partition[p]->mgr.nodeCount(), kBddInvalid);
    for (std::size_t c = 0; c < classCond.size(); ++c) {
      const std::size_t p = c % parts;
      NodeOutcome out = partition[p]->out[c / parts];
      if (out.ref != kBddInvalid) {
        try {
          out.ref = result.bdds->importFrom(partition[p]->mgr, out.ref, memo[p]);
        } catch (const BudgetExceededError&) {
          out.ref = kBddInvalid;  // merge arena at its cap; keep the
          out.degraded = true;    // partition's (exact) probability
        }
      }
      outs[c] = out;
    }
  } else {
    for (std::size_t c = 0; c < classCond.size(); ++c)
      outs[c] = budget != nullptr && budget->exhausted()
                    ? dnfIntervalEstimate(*classCond[c])
                    : buildCondition(*result.bdds, *classCond[c]);
  }

  for (std::size_t i = 0; i < nontrivial.size(); ++i) {
    const NodeOutcome& out = outs[static_cast<std::size_t>(classOfNode[i])];
    const NodeId n = nontrivial[i];
    result.bdd[n] = out.ref;
    result.probability[n] = out.prob;
    result.errorBar[n] = out.error;
    result.degraded = result.degraded || out.degraded;
  }
  if (result.degraded && budget != nullptr)
    budget->noteDegraded("activation-analysis", BudgetKind::RationalWidth,
                         "some probabilities are bounded-error estimates (see errorBar)");

  for (NodeId n = 0; n < g.size(); ++n) {
    const ResourceClass rc = resourceClassOf(g.kind(n));
    if (rc == ResourceClass::None) continue;
    result.averageExecuted[unitIndex(rc)] += result.probability[n];
    ++result.totalOps[unitIndex(rc)];
  }
  return result;
}

double ActivationResult::expectedPower(const OpPowerModel& model) const {
  double p = 0;
  for (std::size_t i = 0; i < kNumUnitClasses; ++i)
    p += averageExecuted[i].toDouble() * model.weight[i];
  return p;
}

double ActivationResult::fullPower(const OpPowerModel& model) const {
  double p = 0;
  for (std::size_t i = 0; i < kNumUnitClasses; ++i)
    p += static_cast<double>(totalOps[i]) * model.weight[i];
  return p;
}

double ActivationResult::reductionPercent(const OpPowerModel& model) const {
  const double full = fullPower(model);
  if (full == 0) return 0;
  return (full - expectedPower(model)) / full * 100.0;
}

}  // namespace pmsched

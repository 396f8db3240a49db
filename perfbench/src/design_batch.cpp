// design-batch: in-process, closed loop, one request at a time on one
// thread. Each round runs runDesignJob over
//   * a fixed corpus of random layered graphs in five size strata from 16 to
//     256 layers, many small and few large (kStrata): the k-th graph of a
//     stratum is randomLayeredDfg(L, 6, kCorpusSeedBase + k) at a budget of
//     cp + k mod 17, and a quarter each use the input and savings orderings;
//   * the paper circuits at their Table II budgets under all three
//     orderings, and dealer/gcd/vender with the exact (optimal) search;
//   * the no-conditional controls (diffeq, ewf, fir8, arf) at seeded
//     budgets of cp+0..cp+16.
// The corpus is kept as generated. Designs that hit the known shared-gating
// fault fail in every round and are counted as failed; because the corpus
// does not depend on the seed, neither does the failed share. The seed
// draws the controls' budgets (no muxes, so no gating and no fault) and the
// order of the round.
// The strata are sized so that the p99 falls inside the 256-layer stratum
// (about its upper quartile) rather than on its slowest graph, and the
// round's total work averages over enough large graphs to be steady.

#include <cstdio>

#include "cdfg/analysis.hpp"
#include "checks.hpp"
#include "circuits/circuits.hpp"
#include "serve_client.hpp"
#include "support/random_dfg.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pmsched;

namespace {

struct Stratum {
  int layers;
  int count;
};
constexpr Stratum kStrata[] = {{16, 256}, {32, 128}, {64, 64}, {128, 32}, {256, 24}};
constexpr std::uint64_t kCorpusSeedBase = 1;
constexpr int kMaxSlack = 16;
constexpr unsigned kCheckThreads = 4;

struct DesignOp {
  std::string label;
  DesignJob job;
  bool fails = false;        ///< failed the warm-up with the known fault
  DesignSummary summary{};   ///< warm-up result, which every round must repeat
};

/// The round for `seed`, in its seeded order.
std::vector<DesignOp> makeRound(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  std::vector<DesignOp> ops;
  for (const circuits::NamedCircuit& c : circuits::paperCircuits()) {
    const bool exactFits = std::string(c.name) != "cordic";  // exact search caps at 24 muxes
    for (const int steps : circuits::tableIISteps(c.name)) {
      for (const MuxOrdering o :
           {MuxOrdering::OutputFirst, MuxOrdering::InputFirst, MuxOrdering::BySavings})
        ops.push_back({std::string(c.name) + " @" + std::to_string(steps) + " ordering " +
                           std::to_string(static_cast<int>(o)),
                       DesignJob{c.build(), steps, o}});
      if (exactFits)
        ops.push_back({std::string(c.name) + " optimal @" + std::to_string(steps),
                       DesignJob{c.build(), steps, MuxOrdering::OutputFirst, true}});
    }
  }
  for (Graph (*build)() : {circuits::diffeq, circuits::ewf, circuits::fir8, circuits::arf}) {
    Graph g = build();
    const int steps = criticalPathLength(g) + static_cast<int>(rng.below(kMaxSlack + 1));
    ops.push_back({g.name() + " @" + std::to_string(steps), DesignJob{std::move(g), steps}});
  }
  for (const Stratum& s : kStrata) {
    for (int k = 0; k < s.count; ++k) {
      const std::uint64_t gseed = kCorpusSeedBase + static_cast<std::uint64_t>(k);
      Graph g = randomLayeredDfg(s.layers, 6, gseed);
      const int steps = criticalPathLength(g) + k % (kMaxSlack + 1);
      const MuxOrdering o = k % 4 == 1   ? MuxOrdering::InputFirst
                            : k % 4 == 2 ? MuxOrdering::BySavings
                                         : MuxOrdering::OutputFirst;
      ops.push_back({"random " + std::to_string(s.layers) + "x6:" + std::to_string(gseed) + " @" +
                         std::to_string(steps) + " ordering " + std::to_string(static_cast<int>(o)),
                     DesignJob{std::move(g), steps, o}});
    }
  }
  shuffleWith(ops, rng);
  return ops;
}

/// The set-up's warm-up round: run every op once on this thread, keep its
/// summary, and mark the ops that fail with the known fault.
void warmUp(std::vector<DesignOp>& ops, RunResult& r) {
  for (DesignOp& op : ops) {
    try {
      op.summary = runDesignJob(op.job).summary;
    } catch (const std::exception& e) {
      const std::string kind = failureKind(e);
      if (kind == kKnownFault) op.fails = true;
      else r.problem(op.label + ": " + kind);
    }
  }
}

}  // namespace

RunResult runDesignBatch(const Options& o) {
  RunResult r;
  std::vector<double> setups;
  std::vector<DesignOp> ops;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    RunResult scratch;
    ops = makeRound(o.seed);
    warmUp(ops, scratch);
    setups.push_back(secondsBetween(t0, Clock::now()));
    if (i == 0) r.problems = scratch.problems;
  }

  if (o.trace) {
    LayerTrace t;
    std::vector<const DesignJob*> jobs;
    std::vector<char> expectFail;
    std::vector<ServedRequest> served;
    for (const DesignOp& op : ops) {
      jobs.push_back(&op.job);
      expectFail.push_back(op.fails ? 1 : 0);
    }
    stagedPass(jobs, expectFail, o.seconds, /*count=*/true, t, r);
    // The same requests served, against their in-process time and bytes.
    std::vector<double> compute;
    for (const DesignOp& op : ops) {
      ServedRequest req{designBody(op.job.graph, op.job.steps, op.job.ordering, op.job.optimal),
                        "", op.fails ? kKnownFault : ""};
      const Clock::time_point t0 = Clock::now();
      try {
        const DesignOutcome out = runDesignJob(op.job);
        compute.push_back(msBetween(t0, Clock::now()));
        req.resultJson = designResultJson(out, false);
      } catch (const std::exception&) {
        compute.push_back(msBetween(t0, Clock::now()));
      }
      served.push_back(std::move(req));
    }
    closedLoopPass(o.serverBin, o.runDir, served, compute, t, r);
    emitLayerMetrics(r, t);
    return r;
  }

  RoundFigures figures(0.99);
  const Clock::time_point start = Clock::now();
  do {
    std::vector<double> latency;
    std::int64_t successes = 0;
    const Clock::time_point roundStart = Clock::now();
    for (const DesignOp& op : ops) {
      ++r.attempted;
      const Clock::time_point t0 = Clock::now();
      try {
        const DesignOutcome out = runDesignJob(op.job);
        latency.push_back(msBetween(t0, Clock::now()));
        ++successes;
        if (op.fails) r.problem(op.label + ": succeeded, failed in the warm-up");
        if (!sameSummary(out.summary, op.summary))
          r.problem(op.label + ": summary differs between rounds");
      } catch (const std::exception& e) {
        latency.push_back(msBetween(t0, Clock::now()));
        r.fail(failureKind(e));
        if (!op.fails) r.problem(op.label + ": failed in a timed round only");
      }
    }
    figures.add(static_cast<double>(successes), secondsBetween(roundStart, Clock::now()), latency);
  } while (secondsBetween(start, Clock::now()) < o.seconds);
  const double rss = selfPeakRssMb();

  // Check every design of the round, recomputed off the timed path (its
  // summary equals the timed rounds', checked above).
  std::vector<double> saved(ops.size(), 0);
  std::vector<Problems> found(ops.size());
  parallelIndex(ops.size(), kCheckThreads, [&](std::size_t i) {
    const DesignOp& op = ops[i];
    if (op.fails) return;
    try {
      const DesignOutcome out = runDesignJob(op.job);
      saved[i] = checkDesign(op.job, out, o.seed ^ (i * 0x9E3779B97F4A7C15ULL), op.label, found[i]);
    } catch (const std::exception& e) {
      found[i].push_back(op.label + ": " + e.what());
    }
  });
  double roundSaved = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    roundSaved += saved[i];
    r.problems.insert(r.problems.end(), found[i].begin(), found[i].end());
  }

  figures.emit(r);
  r.metric("setup_s", median(setups), "s");
  r.metric("peak_rss_mb", rss, "MiB");
  r.metric("power_saved", roundSaved, "weight");
  std::printf("# design-batch: %zu ops per round, %zu rounds; ops_per_s and p50 are medians "
              "over rounds, tail = p99 of all %zu attempts\n",
              ops.size(), figures.opsPerS.size(), figures.latencyMs.size());
  return r;
}

}  // namespace perfbench

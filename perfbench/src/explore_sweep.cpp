// explore-sweep: in-process, closed loop, one thread. Each round runs
// exploreDesignSpace with a span of kSpan over a fixed corpus of random
// layered graphs (four size strata, 16 to 64 layers, many small and few
// large; the k-th graph of a stratum is randomLayeredDfg(L, 6,
// kCorpusSeedBase + k)) and the four paper circuits, in a seeded order.
// Sweep points that hit the known shared-gating fault are skipped as
// "synthesis" in every round and counted as failed; the corpus does not
// depend on the seed, so neither does the failed share. One operation is one
// sweep point; latency is per sweep, and the p90 falls inside the 64-layer
// stratum.

#include <cstdio>
#include <optional>
#include <string>

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
constexpr Stratum kStrata[] = {{16, 24}, {32, 24}, {48, 12}, {64, 12}};
constexpr std::uint64_t kCorpusSeedBase = 2001;
constexpr int kSpan = 16;
constexpr unsigned kCheckThreads = 4;

struct Sweep {
  std::string label;
  ExploreRequest req;
  std::string json{};  ///< warm-up result, which every round must repeat
};

ExploreRequest request(Graph g) {
  ExploreRequest req;
  req.graph = std::move(g);
  req.span = kSpan;
  return req;
}

/// The round for `seed`, in its seeded order.
std::vector<Sweep> makeRound(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x94D049BB133111EBULL);
  std::vector<Sweep> sweeps;
  for (const circuits::NamedCircuit& c : circuits::paperCircuits())
    sweeps.push_back({c.name, request(c.build())});
  for (const Stratum& st : kStrata) {
    for (int k = 0; k < st.count; ++k) {
      const std::uint64_t gseed = kCorpusSeedBase + static_cast<std::uint64_t>(k);
      sweeps.push_back({"random " + std::to_string(st.layers) + "x6:" + std::to_string(gseed),
                        request(randomLayeredDfg(st.layers, 6, gseed))});
    }
  }
  shuffleWith(sweeps, rng);
  return sweeps;
}

/// The set-up's warm-up round: sweep each graph once on this thread and
/// keep its document. A skip of any kind but the known fault is a problem.
void warmUp(std::vector<Sweep>& sweeps, RunResult& r) {
  for (Sweep& s : sweeps) {
    const ExploreResult res = exploreDesignSpace(s.req);
    s.json = renderExploreJson(res);
    for (const ExploreSkip& skip : res.skipped)
      if (skip.kind != kKnownFault) r.problem(s.label + ": skipped " + skip.kind);
  }
}

}  // namespace

RunResult runExploreSweep(const Options& o) {
  RunResult r;
  std::vector<double> setups;
  std::vector<Sweep> sweeps;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    RunResult scratch;
    sweeps = makeRound(o.seed);
    warmUp(sweeps, scratch);
    setups.push_back(secondsBetween(t0, Clock::now()));
    if (i == 0) r.problems = scratch.problems;
  }

  RoundFigures figures(0.90);
  std::vector<std::optional<ExploreResult>> last(sweeps.size());
  double swept = 0;  // points swept in the first round, the amortized ratio's base
  int rounds = 0;
  LayerTrace t;
  const double measureSeconds = o.trace ? o.seconds * 0.5 : o.seconds;
  const Clock::time_point start = Clock::now();
  do {
    std::vector<double> latency;
    std::int64_t points = 0;
    const Clock::time_point roundStart = Clock::now();
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      ExploreResult res = exploreDesignSpace(sweeps[i].req);
      latency.push_back(msBetween(t0, Clock::now()));
      r.attempted += res.stats.pointsSwept;
      points += res.stats.pointsSwept - static_cast<std::int64_t>(res.skipped.size());
      for (const ExploreSkip& s : res.skipped) r.fail(s.kind);
      if (rounds == 0) {
        t.fullRuns += res.stats.fullRuns;
        t.amortizedRuns += res.stats.amortizedRuns;
        t.pruned += res.stats.pruned;
        t.frontPoints += static_cast<double>(res.front.size());
        swept += res.stats.pointsSwept;
      }
      if (renderExploreJson(res) != sweeps[i].json)
        r.problem(sweeps[i].label + ": sweep differs between rounds");
      last[i] = std::move(res);
    }
    figures.add(static_cast<double>(points), secondsBetween(roundStart, Clock::now()), latency);
    ++rounds;
  } while (secondsBetween(start, Clock::now()) < measureSeconds);
  const double rss = selfPeakRssMb();

  if (o.trace) {
    t.amortizedRatio = swept > 0 ? (t.amortizedRuns + t.pruned) / swept : 0;
    // Stages on the sweep graphs at mid-span budgets (those that fail there
    // with the known fault only run runDesignJob).
    std::vector<DesignJob> jobs;
    std::vector<const DesignJob*> ptrs;
    std::vector<char> expectFail;
    for (const Sweep& s : sweeps)
      jobs.push_back(DesignJob{s.req.graph, criticalPathLength(s.req.graph) + kSpan / 2});
    for (const DesignJob& j : jobs) {
      ptrs.push_back(&j);
      bool fails = false;
      try {
        (void)runDesignJob(j);
      } catch (const std::exception& e) {
        fails = true;
        if (failureKind(e) != kKnownFault) r.problem("mid-span design: " + failureKind(e));
      }
      expectFail.push_back(fails ? 1 : 0);
    }
    stagedPass(ptrs, expectFail, o.seconds * 0.3, /*count=*/false, t, r);
    // The same sweeps served: in-process time vs served latency.
    std::vector<ServedRequest> served;
    std::vector<double> compute;
    for (const Sweep& s : sweeps) {
      const Clock::time_point t0 = Clock::now();
      const ExploreResult res = exploreDesignSpace(s.req);
      compute.push_back(msBetween(t0, Clock::now()));
      served.push_back(ServedRequest{exploreBody(s.req.graph, kSpan), renderExploreJson(res), ""});
    }
    closedLoopPass(o.serverBin, o.runDir, served, compute, t, r);
    emitLayerMetrics(r, t);
    return r;
  }

  std::vector<double> saved(sweeps.size(), 0);
  std::vector<Problems> found(sweeps.size());
  parallelIndex(sweeps.size(), kCheckThreads, [&](std::size_t i) {
    saved[i] = checkExplore(sweeps[i].req, *last[i], sweeps[i].label, found[i]);
  });
  double roundSaved = 0;
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    roundSaved += saved[i];
    r.problems.insert(r.problems.end(), found[i].begin(), found[i].end());
  }

  figures.emit(r);
  r.metric("setup_s", median(setups), "s");
  r.metric("peak_rss_mb", rss, "MiB");
  r.metric("power_saved", roundSaved, "weight");
  std::printf("# explore-sweep: %zu sweeps per round, %d rounds; ops_per_s and p50 are medians "
              "over rounds, tail = p90 of all %zu sweeps\n",
              sweeps.size(), rounds, figures.latencyMs.size());
  return r;
}

}  // namespace perfbench

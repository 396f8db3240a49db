#pragma once
// Shared pieces of the benchmark program: run options, the result record and
// its one-line JSON rendering, latency statistics, failure classification,
// and the staged (per-layer timed) copy of the design pipeline.

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/graph.hpp"
#include "server/service.hpp"
#include "support/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serverBin;  ///< the pmsched binary serve-mixed drives
  std::string runDir;     ///< scratch directory inside the checkout (sockets)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome: the last stdout line is render() of this.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failuresByKind;
  std::vector<Metric> metrics;
  /// Check violations; any entry makes the run incorrect.
  std::vector<std::string> problems;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void problem(const std::string& what) { problems.push_back(what); }
  /// Count one failed operation of `kind`; any kind but the known fault is
  /// also a check violation.
  void fail(const std::string& kind);
  [[nodiscard]] bool correct() const { return problems.empty(); }
  [[nodiscard]] std::string render() const;
};

/// The one failure kind the benchmark accepts: the controller-synthesis
/// fault of shared gating (an operation gated through an OR-condition is
/// scheduled before that condition's selects are resolved).
inline constexpr const char* kKnownFault = "synthesis";

/// "synthesis" for the known fault, "unexpected: <type>: <what>" otherwise.
[[nodiscard]] std::string failureKind(const std::exception& e);

/// Shuffle `v` with `rng` (Fisher-Yates).
template <class T>
void shuffleWith(std::vector<T>& v, pmsched::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Figures of a timed loop of whole rounds. Throughput and median are taken
/// per round, and the run reports the median over its rounds, so a short
/// slow or fast period of the machine moves one round rather than the run.
/// The tail is the `tailQ` percentile over every attempt of the run, which
/// leaves enough samples beyond it.
struct RoundFigures {
  explicit RoundFigures(double tailQuantile) : tailQ(tailQuantile) {}
  double tailQ;
  std::vector<double> opsPerS, p50Ms, latencyMs;
  /// One finished round: `done` successful operations in `seconds`, and the
  /// latency of every attempt.
  void add(double done, double seconds, const std::vector<double>& roundLatencyMs);
  /// ops_per_s, p50_ms and tail_ms.
  void emit(RunResult& r) const;
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double selfPeakRssMb();

/// The same graph with every node renamed (`prefix` + old name) and the
/// same node ids: an isomorph that canonicalizes identically but differs
/// byte for byte.
[[nodiscard]] pmsched::Graph renamedCopy(const pmsched::Graph& g, const std::string& prefix);

/// Time spent in each pipeline stage, in the order runDesignJob calls them.
struct StageTimes {
  double transform = 0;
  double shared = 0;
  double minResources = 0;
  double listSchedule = 0;
  double binding = 0;
  double activation = 0;
  double controller = 0;
  StageTimes& operator+=(const StageTimes& o);
};

/// runDesignJob (unbudgeted) called stage by stage through the library's
/// public stage functions, each timed into `t`. Its result must equal
/// runDesignJob's byte for byte; the traced runs check that.
[[nodiscard]] pmsched::DesignOutcome runStaged(const pmsched::DesignJob& job, StageTimes& t);

/// The server's result payload for an outcome (summary + design text).
[[nodiscard]] std::string designResultJson(const pmsched::DesignOutcome& out, bool cacheHit);

/// Field-by-field equality of two summaries.
[[nodiscard]] bool sameSummary(const pmsched::DesignSummary& a, const pmsched::DesignSummary& b);

/// Per-layer figures of a traced run. Fields a workload has no layer for
/// stay zero (design-batch and explore-sweep have no cache traffic to speak
/// of, only explore-sweep sweeps).
struct LayerTrace {
  StageTimes stageMs;  ///< mean per design
  double managedMuxes = 0, sharedGated = 0, slackRejects = 0;  ///< per round
  double muxYield = 0;  ///< managed muxes / muxes the transform considered
  double parseMs = 0, canonicalizeMs = 0;  ///< mean per request
  double computeMs = 0, waitMs = 0;        ///< served request split
  double cacheHits = 0, exactHits = 0, cacheMisses = 0, hitRatio = 0;
  double rejectedAdmission = 0, workerRestarts = 0, retries = 0;
  double maxRate = 0;  ///< highest offered rate meeting the served p99 limit
  double fullRuns = 0, amortizedRuns = 0, pruned = 0, frontPoints = 0;  ///< per round
  double amortizedRatio = 0;  ///< (amortized + pruned) / points swept
  /// Wall time of the stage-timed pipeline against untimed runDesignJob on
  /// the same designs, interleaved in one process so machine drift cancels.
  double overheadPct = 0;
};

/// Every per-layer metric of BENCHMARK.json, in one place.
void emitLayerMetrics(RunResult& r, const LayerTrace& t);

/// The traced design pass. For `seconds` (whole rounds, at least one) each
/// job runs through runDesignJob (timed whole) and runStaged (timed per
/// stage); the two must give the same bytes. loadGraphText and
/// canonicalizeGraph are timed on each job's graph text. Fills the stage,
/// design-counter, parse/canonicalize and overhead fields of `t`. Jobs
/// flagged in `expectFail` only run runDesignJob and must fail with the
/// known fault. With `count`, every runDesignJob call is an attempted
/// operation of `r`.
void stagedPass(const std::vector<const pmsched::DesignJob*>& jobs,
                const std::vector<char>& expectFail, double seconds, bool count, LayerTrace& t,
                RunResult& r);

/// Run `body` once per item index from `threads` threads, each inside its
/// own single-lane compute pool (the pipeline is per-thread state).
void parallelIndex(std::size_t count, unsigned threads, const std::function<void(std::size_t)>& body);

}  // namespace perfbench

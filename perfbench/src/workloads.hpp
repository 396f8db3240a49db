#pragma once
// The three workloads; each returns the run's result record.

#include "common.hpp"
#include "serve_client.hpp"

namespace perfbench {

[[nodiscard]] RunResult runDesignBatch(const Options& o);
[[nodiscard]] RunResult runServeMixed(const Options& o);
[[nodiscard]] RunResult runExploreSweep(const Options& o);

/// Setups timed per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Serve `reqs` from a fresh server, closed loop over one connection (each
/// request sent after the previous reply), and check every reply. Fills the
/// server counters of `t`, and splits the served latency into the mean
/// in-process time (`computeMs`, one entry per request) and the rest.
void closedLoopPass(const std::string& serverBin, const std::string& runDir,
                    const std::vector<ServedRequest>& reqs,
                    const std::vector<double>& computeMs, LayerTrace& t, RunResult& r);

}  // namespace perfbench

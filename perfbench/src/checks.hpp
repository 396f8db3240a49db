#pragma once
// Independent output checks. Each one recomputes a property of the
// program's output from first principles (the graph, the paper's fair-coin
// select model, the CDFG interpreter) instead of comparing against a stored
// copy of earlier output. Every check is deterministic in its inputs and
// seed, so it gives the same verdict on every run and at every thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "explore/explore.hpp"
#include "server/service.hpp"

namespace perfbench {

using Problems = std::vector<std::string>;

/// Every scheduled operation sits in [1, steps], strictly after each data
/// and control predecessor (wires, inputs and constants are transparent),
/// and per-step unit use stays within the minimized units.
void checkSchedule(const pmsched::DesignOutcome& out, int steps, const std::string& label,
                   Problems& problems);

/// No functional unit runs two operations in one step, every unit matches
/// its operations' class, and no register holds two values with overlapping
/// lifetimes (a value occupies its register from the end of its step to its
/// last read).
void checkBinding(const pmsched::DesignOutcome& out, const std::string& label,
                  Problems& problems);

/// Gating soundness on seeded random input vectors: evaluate the graph with
/// the interpreter, derive from the concrete select values which operations
/// an output needs, and require that no operation whose load condition is
/// false is needed. Also: every status bit a condition reads is captured in
/// an earlier step than the load.
void checkGating(const pmsched::DesignOutcome& out, std::uint64_t seed, const std::string& label,
                 Problems& problems);

/// Activation probabilities under independent fair-coin selects: exact
/// enumeration for supports of at most kExactSupport selects, seeded sampling
/// (kSamples draws, tolerance kSampleSigmas standard errors) above that.
/// Then the datapath power and the reduction percentage are recomputed from
/// those probabilities. Returns fullPower - expectedPower (paper weights).
inline constexpr unsigned kExactSupport = 16;
inline constexpr unsigned kSamples = 4096;
inline constexpr double kSampleSigmas = 5.0;
double checkPower(const pmsched::DesignJob& job, const pmsched::DesignOutcome& out,
                  std::uint64_t seed, const std::string& label, Problems& problems);

/// All of the above plus "not degraded" (no run budget is ever set).
/// Returns the power saved, as checkPower.
double checkDesign(const pmsched::DesignJob& job, const pmsched::DesignOutcome& out,
                   std::uint64_t seed, const std::string& label, Problems& problems);

/// Every front point equals the one-shot runDesignJob at its step budget,
/// no front point dominates another, and every skipped point is the known
/// fault (the one-shot run fails the same way). Returns the power saved
/// over the front (fullPower x reduction%, paper weights).
double checkExplore(const pmsched::ExploreRequest& req, const pmsched::ExploreResult& res,
                    const std::string& label, Problems& problems);

/// Paper weights per unit class, written out independently of the model.
[[nodiscard]] double paperWeight(pmsched::OpKind kind);
/// Datapath power with every operation executing (paper weights).
[[nodiscard]] double fullPowerOf(const pmsched::Graph& g);

/// A served response line equals the expected envelope around
/// `resultJson` (the in-process result, rendered with cache_hit false),
/// up to the cache_hit flag.
[[nodiscard]] bool servedMatches(const std::string& served, const std::string& idJson,
                                 const std::string& resultJson);

}  // namespace perfbench

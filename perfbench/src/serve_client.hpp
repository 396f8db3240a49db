#pragma once
// Client side of `pmsched --serve-socket`: the server child process and
// line-framed Unix-socket connections to it.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdfg/graph.hpp"
#include "sched/power_transform.hpp"

namespace perfbench {

/// One `pmsched --serve --serve-socket PATH ...` child. The destructor kills
/// and reaps it if stop() was not reached, so no run leaves a server behind.
class ServerProcess {
 public:
  /// `env` is the child's whole environment ("NAME=value" entries).
  ServerProcess(const std::string& bin, const std::string& socketPath,
                const std::vector<std::string>& extraArgs, const std::vector<std::string>& env);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Send `shutdown`, wait for the exit, and return the child's peak RSS in
  /// MiB. Throws if it does not exit cleanly within a few seconds.
  double stop();

  [[nodiscard]] const std::string& socketPath() const { return socketPath_; }

 private:
  pid_t pid_ = -1;
  std::string socketPath_;
};

/// A connected line-framed socket.
class LineConn {
 public:
  /// Connect to `path`, retrying while the server is still binding it for up
  /// to `retrySeconds`. Throws on failure.
  LineConn(const std::string& path, double retrySeconds);
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  /// Write `line` plus '\n' completely. Throws on a write error.
  void send(const std::string& line);
  /// Next response line (without '\n'); false on EOF or after `timeoutSeconds`.
  bool readLine(std::string& out, double timeoutSeconds);
  /// send() then readLine(); throws when no reply arrives.
  std::string call(const std::string& line, double timeoutSeconds = 60);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The current process environment without PMSCHED_* variables, plus `add`.
[[nodiscard]] std::vector<std::string> childEnvironment(const std::vector<std::string>& add);

/// The speculation calibration pinned for every served run (handoff ns,
/// repair ns/node): the auto-mode crossover is handoff / repair = 1500
/// nodes, between the 128-layer (~1036 nodes) and 192-layer (~1548 nodes)
/// random graphs, so the decision never depends on a measurement.
inline constexpr const char* kPinnedCalibration = "1500,1";

/// Start the server the way every workload runs it: 2 workers x `lanes`
/// pool lanes, the pinned calibration, a socket under `runDir`.
[[nodiscard]] std::unique_ptr<ServerProcess> startServer(const std::string& bin,
                                                         const std::string& runDir, int lanes);

/// One request the benchmark sends and what the in-process program gave
/// for it.
struct ServedRequest {
  std::string body;        ///< frame members after the id: "op":...,"graph":...}
  std::string resultJson;  ///< expected result payload (cache_hit false); empty if it fails
  std::string failKind;    ///< expected failure kind when resultJson is empty
};

[[nodiscard]] std::string designBody(const pmsched::Graph& g, int steps,
                                     pmsched::MuxOrdering ordering, bool optimal);
[[nodiscard]] std::string exploreBody(const pmsched::Graph& g, int span);
[[nodiscard]] std::string frameFor(const ServedRequest& req, std::int64_t id);

/// Classify one response line to `req` sent under `id`: "" when it is the
/// expected result (byte for byte, up to cache_hit), else a failure kind
/// ("synthesis" for the known fault, "admission" for a refusal, otherwise
/// "unexpected: ..."). Sets `cacheHit` from the response.
[[nodiscard]] std::string classifyReply(const ServedRequest& req, std::int64_t id,
                                        const std::string& line, bool& cacheHit);

/// The `stats` op's counters, flattened ("cache.hits", "supervision.retries", ...).
[[nodiscard]] std::map<std::string, double> serverStats(LineConn& conn);

}  // namespace perfbench

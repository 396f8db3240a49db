// serve-mixed: traffic from this one process over kConnections connections
// to `pmsched --serve-socket` (2 workers x 2 lanes, pinned calibration).
//
// The requests come from a fixed corpus: the k-th random graph of a stratum
// is randomLayeredDfg(L, 6, kCorpusSeedBase + k) at a budget of
// cp + k mod 17. It is kept as generated, so the requests that hit the
// known shared-gating fault fail in every round (each as a worker crash, a
// retry and a typed internal error) and are counted as failed; the seed
// draws only the order of the round, so the failed share does not depend
// on it. One round (the same requests in the same order every round):
//   * cold: the paper circuits at their Table II budgets, kColdSmallRandom
//     random 8-16-layer graphs and kColdPerLargeStratum graphs of each of
//     64/128/192/256 layers, each requested once. With the hot entries they
//     are 296 distinct designs; the 276 that do not fail outnumber the
//     default 256-entry cache, so most cold requests miss, are computed and
//     inserted again.
//   * hot: kHotSmall small and kHotPerLargeStratum x 4 large graphs, each
//     requested kHotExact times byte for byte (exact-memo hits) and once per
//     renamed variant (canonical-cache hits), spread evenly over the round
//     so the LRU keeps them resident.
// Phase A, an open loop, sends whole rounds at kFixedRate for kPhaseAShare
// of the run: p50 and p99 come from it. Phase B, a closed loop keeping
// kSaturationWindow requests outstanding per connection, runs whole rounds
// for the rest of the run: ops_per_s is its completed-request rate. The
// traced run also searches the highest offered rate that keeps the p99
// under kLatencyLimitMs (server.max_rps).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "cdfg/analysis.hpp"
#include "checks.hpp"
#include "circuits/circuits.hpp"
#include "serve_client.hpp"
#include "support/random_dfg.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pmsched;

namespace {

constexpr int kColdSmallRandom = 230;
constexpr int kLargeStrata[] = {64, 128, 192, 256};
constexpr int kColdPerLargeStratum = 10;
constexpr int kHotSmall = 8;
constexpr int kHotPerLargeStratum = 2;
constexpr int kHotExact = 3;
constexpr const char* kRenamePrefixes[] = {"a_", "b_"};
constexpr int kMaxSlack = 16;
constexpr std::uint64_t kCorpusSeedBase = 1001;
constexpr std::size_t kConnections = 4;
constexpr unsigned kOracleThreads = 4;

/// Phase A offered rate, requests/s: 0.4 x the reference server.max_rps
/// (median 202/s of traced runs on seeds 1-3 on the 4-vCPU reference
/// machine, see README.md). The queue is in use, and a machine period 1.5x
/// slower than the reference still leaves the server below the knee of the
/// p99 curve; at 0.5 x, two of five runs fell past it.
constexpr double kFixedRate = 80;
constexpr double kPhaseAShare = 0.6;        ///< share of the run phase A takes
constexpr std::size_t kSaturationWindow = 4;  ///< outstanding requests per connection, phase B
constexpr double kLatencyLimitMs = 250;     ///< p99 limit of the traced max-rate search
constexpr double kSearchStart = 0.9;        ///< first searched rate, share of capacity
constexpr double kSearchStepSeconds = 2;    ///< send time per searched rate
constexpr double kSearchGrow = 1.15;        ///< rate factor while no bracket is found
constexpr double kSearchResolution = 1.03;  ///< stop bisecting below this hi/lo ratio

struct Entry {
  std::string label;
  DesignJob job;
};

struct ServeInputs {
  std::vector<Entry> entries;
  std::vector<ServedRequest> reqs;  ///< parallel to entries
  std::vector<std::size_t> round;   ///< one round's request order
  std::vector<double> computeMs;    ///< in-process compute per entry (traced runs)
};

/// The k-th graph of a stratum of the corpus, at a budget of cp + k mod 17.
Entry corpusEntry(int layers, std::uint64_t gseed, int k) {
  Graph g = randomLayeredDfg(layers, 6, gseed);
  const int steps = criticalPathLength(g) + k % (kMaxSlack + 1);
  return {"random " + std::to_string(layers) + "x6:" + std::to_string(gseed) + " @" +
              std::to_string(steps),
          DesignJob{std::move(g), steps}};
}

/// The corpus, its request bodies, and one round in the order `seed` draws.
/// The expected replies are left to computeOracle.
ServeInputs makeInputs(std::uint64_t seed) {
  ServeInputs in;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL);
  // Cold.
  for (const circuits::NamedCircuit& c : circuits::paperCircuits())
    for (const int steps : circuits::tableIISteps(c.name))
      in.entries.push_back({std::string(c.name) + " @" + std::to_string(steps),
                            DesignJob{c.build(), steps}});
  for (int k = 0; k < kColdSmallRandom; ++k)
    in.entries.push_back(corpusEntry(8 + k % 9, kCorpusSeedBase + static_cast<std::uint64_t>(k), k));
  for (const int layers : kLargeStrata)
    for (int k = 0; k < kColdPerLargeStratum; ++k)
      in.entries.push_back(corpusEntry(layers, kCorpusSeedBase + static_cast<std::uint64_t>(k), k));
  const std::size_t coldCount = in.entries.size();
  // Hot originals, then their renamed variants.
  for (int k = 0; k < kHotSmall; ++k)
    in.entries.push_back(corpusEntry(
        8 + k % 9, kCorpusSeedBase + static_cast<std::uint64_t>(kColdSmallRandom + k), k));
  for (const int layers : kLargeStrata)
    for (int k = 0; k < kHotPerLargeStratum; ++k)
      in.entries.push_back(corpusEntry(
          layers, kCorpusSeedBase + static_cast<std::uint64_t>(kColdPerLargeStratum + k), k));
  const std::size_t hotEnd = in.entries.size();
  const std::size_t hotCount = hotEnd - coldCount;
  for (const char* prefix : kRenamePrefixes)
    for (std::size_t h = coldCount; h < hotEnd; ++h) {
      const Entry& hot = in.entries[h];
      Entry v{hot.label + " renamed " + prefix, hot.job};
      v.job.graph = renamedCopy(hot.job.graph, prefix);
      in.entries.push_back(std::move(v));
    }
  for (const Entry& e : in.entries)
    in.reqs.push_back(
        ServedRequest{designBody(e.job.graph, e.job.steps, e.job.ordering, e.job.optimal), "", ""});

  // One round: cold in a seeded order, the hot stream spread evenly over it.
  std::vector<std::size_t> cold(coldCount);
  for (std::size_t i = 0; i < coldCount; ++i) cold[i] = i;
  shuffleWith(cold, rng);
  std::vector<std::size_t> hotStream;
  // kHotExact + 2 passes over the hot graphs: passes 1 and 3 send the two
  // renamed variants, the others the original bytes.
  for (int rep = 0; rep < kHotExact + 2; ++rep) {
    std::vector<std::size_t> order(hotCount);
    for (std::size_t i = 0; i < hotCount; ++i) order[i] = i;
    shuffleWith(order, rng);
    for (const std::size_t h : order) {
      if (rep == 1) hotStream.push_back(hotEnd + h);
      else if (rep == 3) hotStream.push_back(hotEnd + hotCount + h);
      else hotStream.push_back(coldCount + h);
    }
  }
  const std::size_t n = cold.size() + hotStream.size();
  std::vector<std::size_t> round(n, SIZE_MAX);
  for (std::size_t k = 0; k < hotStream.size(); ++k)
    round[(2 * k + 1) * n / (2 * hotStream.size())] = hotStream[k];
  std::size_t next = 0;
  for (std::size_t& slot : round)
    if (slot == SIZE_MAX) slot = cold[next++];
  in.round = std::move(round);
  return in;
}

/// Run every entry in-process (kOracleThreads threads) and store its
/// expected reply: the result bytes, or the known fault. Any other failure
/// is a problem.
void computeOracle(ServeInputs& in, RunResult& r) {
  std::vector<std::string> kinds(in.entries.size());
  parallelIndex(in.entries.size(), kOracleThreads, [&](std::size_t i) {
    try {
      in.reqs[i].resultJson = designResultJson(runDesignJob(in.entries[i].job), false);
    } catch (const std::exception& ex) {
      kinds[i] = failureKind(ex);
    }
  });
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    in.reqs[i].failKind = kinds[i];
    if (!kinds[i].empty() && kinds[i] != kKnownFault)
      r.problem(in.entries[i].label + ": " + kinds[i]);
  }
}

struct Shot {
  std::size_t entry = 0;
  double latencyMs = -1;
  std::string kind;
  bool cacheHit = false;
};

struct LoopRun {
  std::vector<Shot> shots;
  double maxLagMs = 0;
};

using Conns = std::vector<std::unique_ptr<LineConn>>;

std::int64_t leadingId(const std::string& line) {
  static const std::string prefix = "{\"id\":";
  if (line.compare(0, prefix.size(), prefix) != 0) return -1;
  std::int64_t id = 0;
  const std::size_t end = std::min(line.size(), prefix.size() + 18);  // no overflow
  for (std::size_t i = prefix.size(); i < end && line[i] >= '0' && line[i] <= '9'; ++i)
    id = id * 10 + (line[i] - '0');
  return id;
}

/// Send `count` requests of the round sequence, from position `firstPos`,
/// at `rate` per second (request i is due at start + i / rate, whatever
/// happened before), round-robin over the connections, and wait for every
/// reply. Latency runs from the due time to the reply.
LoopRun openLoop(Conns& conns, const ServeInputs& in, std::size_t firstPos, std::size_t count,
                 double rate, std::int64_t idBase, RunResult& r) {
  LoopRun run;
  run.shots.resize(count);
  std::vector<Clock::time_point> due(count);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) / rate));
    run.shots[i].entry = in.round[(firstPos + i) % in.round.size()];
  }
  std::mutex problemsMutex;
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    receivers.emplace_back([&, c] {
      std::size_t expected = 0;
      for (std::size_t i = c; i < count; i += conns.size()) ++expected;
      std::string line;
      for (std::size_t got = 0; got < expected; ++got) {
        if (!conns[c]->readLine(line, 120)) {
          std::lock_guard<std::mutex> lock(problemsMutex);
          r.problem("serve: no reply within 120 s");
          return;
        }
        const Clock::time_point now = Clock::now();
        const std::int64_t id = leadingId(line);
        const std::int64_t i = id - idBase;
        if (id < 0 || i < 0 || static_cast<std::size_t>(i) >= count) {
          std::lock_guard<std::mutex> lock(problemsMutex);
          r.problem("serve: reply with an unknown id: " + line.substr(0, 80));
          continue;
        }
        Shot& shot = run.shots[static_cast<std::size_t>(i)];
        shot.latencyMs = msBetween(due[static_cast<std::size_t>(i)], now);
        shot.kind = classifyReply(in.reqs[shot.entry], id, line, shot.cacheHit);
      }
    });
  }
  try {
    for (std::size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_until(due[i]);
      run.maxLagMs = std::max(run.maxLagMs, msBetween(due[i], Clock::now()));
      conns[i % conns.size()]->send(frameFor(in.reqs[run.shots[i].entry],
                                             idBase + static_cast<std::int64_t>(i)));
    }
  } catch (...) {
    for (std::thread& t : receivers) t.join();
    throw;
  }
  for (std::thread& t : receivers) t.join();
  for (const Shot& s : run.shots)
    if (s.latencyMs < 0) r.problem("serve: a request got no reply");
  return run;
}

/// Whole rounds, closed loop: each connection keeps up to `window` of its
/// share of the requests outstanding and sends the next as a reply
/// arrives. Latency runs from the send. Used to warm the cache (window 1)
/// and to saturate the server (ops_per_s).
LoopRun closedLoop(Conns& conns, const ServeInputs& in, std::size_t rounds, std::size_t window,
                   std::int64_t idBase, RunResult& r) {
  const std::size_t count = rounds * in.round.size();
  LoopRun run;
  run.shots.resize(count);
  std::mutex problemsMutex;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<Clock::time_point> sent(count);
      std::size_t next = c;
      std::size_t outstanding = 0;
      std::string line;
      try {
        while (next < count || outstanding > 0) {
          while (next < count && outstanding < window) {
            Shot& shot = run.shots[next];
            shot.entry = in.round[next % in.round.size()];
            sent[next] = Clock::now();
            conns[c]->send(frameFor(in.reqs[shot.entry], idBase + static_cast<std::int64_t>(next)));
            next += conns.size();
            ++outstanding;
          }
          if (!conns[c]->readLine(line, 120)) throw std::runtime_error("no reply within 120 s");
          const Clock::time_point now = Clock::now();
          const std::int64_t i = leadingId(line) - idBase;
          if (i < 0 || static_cast<std::size_t>(i) >= count)
            throw std::runtime_error("reply with an unknown id: " + line.substr(0, 80));
          Shot& shot = run.shots[static_cast<std::size_t>(i)];
          shot.latencyMs = msBetween(sent[static_cast<std::size_t>(i)], now);
          shot.kind = classifyReply(in.reqs[shot.entry], leadingId(line), line, shot.cacheHit);
          --outstanding;
        }
      } catch (const std::exception& ex) {
        std::lock_guard<std::mutex> lock(problemsMutex);
        r.problem(std::string("serve (closed loop): ") + ex.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return run;
}

Conns connectAll(const ServerProcess& server) {
  Conns conns;
  for (std::size_t c = 0; c < kConnections; ++c)
    conns.push_back(std::make_unique<LineConn>(server.socketPath(), 10));
  (void)conns.front()->call(R"({"op":"ping","id":"ping"})");
  return conns;
}

/// Collect one loop's outcome: latencies, and (when `account`) the
/// attempted/failed counts. Returns whether any request was refused or
/// failed other than by the known fault.
bool tally(const LoopRun& run, bool account, std::vector<double>& latency, RunResult& r) {
  bool clean = true;
  for (const Shot& s : run.shots) {
    latency.push_back(s.latencyMs);
    if (account) ++r.attempted;
    if (s.kind.empty()) continue;
    if (account) r.fail(s.kind);
    else if (s.kind != kKnownFault && s.kind != "admission") r.problem("serve: " + s.kind);
    if (s.kind != kKnownFault) clean = false;
  }
  return clean;
}

void harvest(const std::map<std::string, double>& before, const std::map<std::string, double>& after,
             LayerTrace& t) {
  const auto delta = [&](const char* key) {
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
  };
  t.cacheHits = delta("cache.hits");
  t.exactHits = delta("cache.exact_hits");
  t.cacheMisses = delta("cache.misses");
  t.hitRatio = t.cacheHits + t.cacheMisses > 0 ? t.cacheHits / (t.cacheHits + t.cacheMisses) : 0;
  t.rejectedAdmission = delta("rejected_admission");
  t.workerRestarts = delta("supervision.worker_restarts");
  t.retries = delta("supervision.retries");
}

/// The highest offered rate whose p99 stays under kLatencyLimitMs with no
/// refusal, searched within `seconds`: steps of kSearchStepSeconds from
/// kSearchStart x the closed-loop capacity, up by kSearchGrow while steps
/// pass, down while they fail, bisecting once a passing and a failing rate
/// bracket the answer. Returns 0 when no step passed.
double searchMaxRate(Conns& conns, const ServeInputs& in, double seconds, std::int64_t& nextId,
                     RunResult& r) {
  const std::size_t n = in.round.size();
  const Clock::time_point start = Clock::now();
  (void)closedLoop(conns, in, 1, kSaturationWindow, nextId, r);
  nextId += static_cast<std::int64_t>(n);
  const double capacity = static_cast<double>(n) / secondsBetween(start, Clock::now());
  double lo = 0;
  double hi = 0;
  double rate = kSearchStart * capacity;
  std::size_t pos = 0;
  while (secondsBetween(start, Clock::now()) + kSearchStepSeconds < seconds) {
    if (lo > 0 && hi > 0 && hi / lo < kSearchResolution) break;
    const std::size_t count = static_cast<std::size_t>(rate * kSearchStepSeconds);
    const LoopRun step = openLoop(conns, in, pos, count, rate, nextId, r);
    nextId += static_cast<std::int64_t>(count);
    pos = (pos + count) % n;
    std::vector<double> stepLatency;
    const bool clean = tally(step, /*account=*/false, stepLatency, r);
    if (clean && percentile(stepLatency, 0.99) <= kLatencyLimitMs) lo = rate;
    else hi = rate;
    rate = hi == 0 ? lo * kSearchGrow : lo == 0 ? hi / kSearchGrow : std::sqrt(lo * hi);
  }
  std::printf("# serve-mixed: max rate %.1f/s under p99 %.0f ms (first failing %.1f/s)\n", lo,
              kLatencyLimitMs, hi);
  return lo;
}

}  // namespace

void closedLoopPass(const std::string& serverBin, const std::string& runDir,
                    const std::vector<ServedRequest>& reqs, const std::vector<double>& computeMs,
                    LayerTrace& t, RunResult& r) {
  const std::unique_ptr<ServerProcess> server = startServer(serverBin, runDir, 1);
  double compute = 0;
  double wait = 0;
  {
    LineConn conn(server->socketPath(), 10);
    (void)conn.call(R"({"op":"ping","id":"ping"})");
    const std::map<std::string, double> before = serverStats(conn);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::int64_t id = static_cast<std::int64_t>(i);
      const Clock::time_point t0 = Clock::now();
      const std::string line = conn.call(frameFor(reqs[i], id), 120);
      compute += computeMs[i];
      wait += msBetween(t0, Clock::now()) - computeMs[i];
      bool hit = false;
      const std::string kind = classifyReply(reqs[i], id, line, hit);
      if (kind != reqs[i].failKind) r.problem("served pass, request " + std::to_string(i) + ": " + kind);
    }
    harvest(before, serverStats(conn), t);
  }
  (void)server->stop();
  const double n = reqs.empty() ? 1.0 : static_cast<double>(reqs.size());
  t.computeMs = compute / n;
  t.waitMs = wait / n;
}

RunResult runServeMixed(const Options& o) {
  RunResult r;
  std::vector<double> setups;
  ServeInputs in;
  std::unique_ptr<ServerProcess> server;
  Conns conns;
  std::int64_t nextId = 0;
  const int repeats = o.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    conns.clear();
    if (server) (void)server->stop();
    server.reset();
    // Timed: input generation, server start to the first ping, warm-up.
    // The expected replies are computed once, off the clock.
    const Clock::time_point t0 = Clock::now();
    ServeInputs drawn = makeInputs(o.seed);
    const double generate = secondsBetween(t0, Clock::now());
    if (i == 0) computeOracle(drawn, r);
    else drawn.reqs = std::move(in.reqs);
    in = std::move(drawn);
    RunResult scratch;
    const Clock::time_point t1 = Clock::now();
    server = startServer(o.serverBin, o.runDir, 2);
    conns = connectAll(*server);
    for (const Shot& shot : closedLoop(conns, in, 1, 1, nextId, scratch).shots)
      if (shot.kind != in.reqs[shot.entry].failKind)
        scratch.problem("warm-up: " + in.entries[shot.entry].label + ": " + shot.kind);
    nextId += static_cast<std::int64_t>(in.round.size());
    setups.push_back(generate + secondsBetween(t1, Clock::now()));
    if (i == 0) r.problems.insert(r.problems.end(), scratch.problems.begin(), scratch.problems.end());
  }

  const std::size_t n = in.round.size();
  const std::size_t roundsA = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kFixedRate * o.seconds * kPhaseAShare / static_cast<double>(n))));
  LayerTrace t;
  std::map<std::string, double> before;
  if (o.trace) {
    // In-process compute of every distinct request on the server's lane
    // count, for the compute/wait split of the served tail.
    in.computeMs.assign(in.entries.size(), 0);
    ScopedComputePool lanes(2);
    for (std::size_t e = 0; e < in.entries.size(); ++e) {
      const Clock::time_point t0 = Clock::now();
      try {
        (void)runDesignJob(in.entries[e].job);
      } catch (const std::exception&) {
      }
      in.computeMs[e] = msBetween(t0, Clock::now());
    }
    before = serverStats(*conns.front());
  }

  // Phase A: whole rounds at the fixed rate.
  const LoopRun phaseA = openLoop(conns, in, 0, roundsA * n, kFixedRate, nextId, r);
  nextId += static_cast<std::int64_t>(roundsA * n);
  std::vector<double> latency;
  tally(phaseA, /*account=*/true, latency, r);
  const double p99 = percentile(latency, 0.99);
  std::size_t failing = 0;
  for (const ServedRequest& req : in.reqs) failing += req.failKind.empty() ? 0 : 1;
  std::printf("# serve-mixed: %zu requests per round over %zu distinct bodies, %zu of which fail "
              "(never cached)\n",
              n, in.reqs.size(), failing);
  std::printf("# serve-mixed: phase A %zu rounds at %.0f/s, p99 %.3f ms, generator lag max %.3f ms\n",
              roundsA, kFixedRate, p99, phaseA.maxLagMs);

  if (o.trace) {
    harvest(before, serverStats(*conns.front()), t);
    // Split the served p99 tail into in-process compute and the rest.
    std::vector<const Shot*> tail;
    for (const Shot& s : phaseA.shots)
      if (s.latencyMs >= p99) tail.push_back(&s);
    double c = 0;
    double w = 0;
    for (const Shot* s : tail) {
      const double compute = s->cacheHit ? 0
                             : s->kind == kKnownFault ? 2 * in.computeMs[s->entry]
                                                      : in.computeMs[s->entry];
      c += compute;
      w += s->latencyMs - compute;
    }
    t.computeMs = tail.empty() ? 0 : c / static_cast<double>(tail.size());
    t.waitMs = tail.empty() ? 0 : w / static_cast<double>(tail.size());
    t.maxRate = searchMaxRate(conns, in, o.seconds * (1 - kPhaseAShare), nextId, r);
    conns.clear();
    (void)server->stop();
    std::vector<const DesignJob*> jobs;
    std::vector<char> expectFail;
    for (std::size_t e = 0; e < in.entries.size(); ++e) {
      jobs.push_back(&in.entries[e].job);
      expectFail.push_back(in.reqs[e].failKind == kKnownFault ? 1 : 0);
    }
    stagedPass(jobs, expectFail, o.seconds * 0.5, /*count=*/false, t, r);
    emitLayerMetrics(r, t);
    return r;
  }

  // Phase B: saturation throughput, the median over whole rounds.
  std::vector<double> roundRates;
  std::vector<double> unused;
  const Clock::time_point startB = Clock::now();
  do {
    const Clock::time_point roundStart = Clock::now();
    const LoopRun round = closedLoop(conns, in, 1, kSaturationWindow, nextId, r);
    const double seconds = secondsBetween(roundStart, Clock::now());
    nextId += static_cast<std::int64_t>(n);
    tally(round, /*account=*/true, unused, r);
    double served = 0;
    for (const Shot& shot : round.shots) served += shot.kind.empty() ? 1 : 0;
    roundRates.push_back(served / seconds);
  } while (secondsBetween(startB, Clock::now()) < o.seconds * (1 - kPhaseAShare));
  const double throughput = median(roundRates);
  conns.clear();
  const double rss = server->stop();
  server.reset();

  // Check every distinct request in-process: the design itself, and that
  // the expected bytes the replies were compared against are reproducible.
  std::vector<double> saved(in.entries.size(), 0);
  std::vector<Problems> found(in.entries.size());
  parallelIndex(in.entries.size(), kOracleThreads, [&](std::size_t e) {
    const Entry& entry = in.entries[e];
    if (!in.reqs[e].failKind.empty()) return;
    try {
      const DesignOutcome out = runDesignJob(entry.job);
      if (designResultJson(out, false) != in.reqs[e].resultJson)
        found[e].push_back(entry.label + ": in-process result not reproducible");
      saved[e] = checkDesign(entry.job, out, o.seed ^ (e * 0x9E3779B97F4A7C15ULL), entry.label,
                             found[e]);
    } catch (const std::exception& ex) {
      found[e].push_back(entry.label + ": " + ex.what());
    }
  });
  for (const Problems& p : found) r.problems.insert(r.problems.end(), p.begin(), p.end());
  double roundSaved = 0;  // over the distinct requests of a round
  for (const double v : saved) roundSaved += v;

  r.metric("ops_per_s", throughput, "1/s");
  r.metric("p50_ms", median(latency), "ms");
  r.metric("tail_ms", p99, "ms");
  r.metric("setup_s", median(setups), "s");
  r.metric("peak_rss_mb", rss, "MiB");
  r.metric("power_saved", roundSaved, "weight");
  return r;
}

}  // namespace perfbench

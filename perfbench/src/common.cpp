#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>
#include <typeinfo>

#include "alloc/binding.hpp"
#include "cdfg/analysis.hpp"
#include "cdfg/textio.hpp"
#include "ctrl/controller.hpp"
#include "power/activation.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/shared_gating.hpp"
#include "server/protocol.hpp"
#include "support/diagnostics.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using namespace pmsched;

void RunResult::fail(const std::string& kind) {
  ++failed;
  ++failuresByKind[kind];
  if (kind != kKnownFault) problem("failed operation: " + kind);
}

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string RunResult::render() const {
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  std::ostringstream os;
  os << "{\"correct\": " << (correct() && finite ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    os << (first ? "" : ", ") << jsonString(m.name) << ": {\"value\": "
       << (std::isfinite(m.value) ? jsonNumber(m.value) : "null")
       << ", \"unit\": " << jsonString(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string failureKind(const std::exception& e) {
  const std::string what = e.what();
  if (dynamic_cast<const SynthesisError*>(&e) != nullptr &&
      what.find("not resolved before load") != std::string::npos)
    return kKnownFault;
  return "unexpected: " + std::string(typeid(e).name()) + ": " + what;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void RoundFigures::add(double done, double seconds, const std::vector<double>& roundLatencyMs) {
  opsPerS.push_back(seconds > 0 ? done / seconds : 0);
  p50Ms.push_back(median(roundLatencyMs));
  latencyMs.insert(latencyMs.end(), roundLatencyMs.begin(), roundLatencyMs.end());
}

void RoundFigures::emit(RunResult& r) const {
  r.metric("ops_per_s", median(opsPerS), "1/s");
  r.metric("p50_ms", median(p50Ms), "ms");
  r.metric("tail_ms", percentile(latencyMs, tailQ), "ms");
}

double selfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

Graph renamedCopy(const Graph& g, const std::string& prefix) {
  Graph r(g.name());
  for (NodeId n = 0; n < g.size(); ++n) {
    const Node& node = g.node(n);
    const std::string name = prefix + node.name;
    NodeId id = kInvalidNode;
    switch (node.kind) {
      case OpKind::Input: id = r.addInput(name, node.width); break;
      case OpKind::Const: id = r.addConst(node.constValue, node.width, name); break;
      case OpKind::Output: id = r.addOutput(node.operands.at(0), name); break;
      case OpKind::Wire: id = r.addWire(node.operands.at(0), node.shift, name); break;
      case OpKind::Mux:
        id = r.addMux(node.operands.at(0), node.operands.at(1), node.operands.at(2), name);
        break;
      default: id = r.addOp(node.kind, node.operands, name, node.width); break;
    }
    if (id != n) throw SynthesisError("renamedCopy: node ids diverged");
  }
  for (NodeId n = 0; n < g.size(); ++n)
    for (const NodeId s : g.controlSuccessors(n)) r.addControlEdge(n, s);
  return r;
}

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  transform += o.transform;
  shared += o.shared;
  minResources += o.minResources;
  listSchedule += o.listSchedule;
  binding += o.binding;
  activation += o.activation;
  controller += o.controller;
  return *this;
}

DesignOutcome runStaged(const DesignJob& job, StageTimes& t) {
  DesignOutcome out;
  Clock::time_point last = Clock::now();
  const auto lap = [&last](double& into) {
    const Clock::time_point now = Clock::now();
    into += msBetween(last, now);
    last = now;
  };
  out.design = job.optimal ? applyPowerManagementOptimal(job.graph, job.steps, 24, nullptr)
                           : applyPowerManagement(job.graph, job.steps, job.ordering,
                                                  LatencyModel::unit(), nullptr);
  lap(t.transform);
  if (job.shared)
    out.sharedGated = applySharedGating(out.design, nullptr, &out.sharedGatingSlackRejects);
  lap(t.shared);
  out.units = minimizeResources(out.design.graph, job.steps);
  lap(t.minResources);
  const ListScheduleResult scheduled = listSchedule(out.design.graph, job.steps, out.units);
  lap(t.listSchedule);
  if (!scheduled.schedule) throw InfeasibleError(scheduled.message);
  out.schedule = *scheduled.schedule;
  out.binding = bindDesign(out.design.graph, out.schedule);
  lap(t.binding);
  out.activation = analyzeActivation(out.design, nullptr);
  lap(t.activation);
  out.controller = synthesizeController(out.design, out.schedule, out.binding, out.activation);
  lap(t.controller);

  // The summary an unbudgeted runDesignJob builds.
  DesignSummary& s = out.summary;
  s.ops = countOps(job.graph).totalUnits();
  s.criticalPath = criticalPathLength(job.graph);
  s.steps = job.steps;
  s.managed = out.design.managedCount();
  s.sharedGated = out.sharedGated;
  s.units = out.units.toString();
  s.reductionPercent = fixed(out.activation.reductionPercent(OpPowerModel::paperWeights()), 2);
  s.degraded = out.design.degraded || out.activation.degraded;
  if (s.degraded)
    s.degradeReason =
        out.design.degradeReason.empty() ? "stage-local limit" : out.design.degradeReason;
  return out;
}

std::string designResultJson(const DesignOutcome& out, bool cacheHit) {
  return makeDesignResultJson(out.summary, saveGraphText(out.design.graph), cacheHit);
}

bool sameSummary(const DesignSummary& a, const DesignSummary& b) {
  return a.ops == b.ops && a.criticalPath == b.criticalPath && a.steps == b.steps &&
         a.managed == b.managed && a.sharedGated == b.sharedGated && a.units == b.units &&
         a.reductionPercent == b.reductionPercent && a.degraded == b.degraded &&
         a.degradeReason == b.degradeReason;
}

void parallelIndex(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        ScopedComputePool lanes(1);
        for (std::size_t i = next++; i < count; i = next++) body(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

void emitLayerMetrics(RunResult& r, const LayerTrace& t) {
  r.metric("sched.transform_ms", t.stageMs.transform, "ms");
  r.metric("sched.shared_gating_ms", t.stageMs.shared, "ms");
  r.metric("sched.min_resources_ms", t.stageMs.minResources, "ms");
  r.metric("sched.list_schedule_ms", t.stageMs.listSchedule, "ms");
  r.metric("alloc.binding_ms", t.stageMs.binding, "ms");
  r.metric("power.activation_ms", t.stageMs.activation, "ms");
  r.metric("ctrl.controller_ms", t.stageMs.controller, "ms");
  r.metric("sched.managed_muxes", t.managedMuxes, "count");
  r.metric("sched.shared_gated", t.sharedGated, "count");
  r.metric("sched.shared_slack_rejects", t.slackRejects, "count");
  r.metric("sched.mux_yield", t.muxYield, "ratio");
  r.metric("cdfg.parse_ms", t.parseMs, "ms");
  r.metric("cdfg.canonicalize_ms", t.canonicalizeMs, "ms");
  r.metric("server.compute_ms", t.computeMs, "ms");
  r.metric("server.wait_ms", t.waitMs, "ms");
  r.metric("server.cache_hits", t.cacheHits, "count");
  r.metric("server.exact_hits", t.exactHits, "count");
  r.metric("server.cache_misses", t.cacheMisses, "count");
  r.metric("server.hit_ratio", t.hitRatio, "ratio");
  r.metric("server.rejected_admission", t.rejectedAdmission, "count");
  r.metric("server.worker_restarts", t.workerRestarts, "count");
  r.metric("server.retries", t.retries, "count");
  r.metric("server.max_rps", t.maxRate, "1/s");
  r.metric("explore.full_runs", t.fullRuns, "count");
  r.metric("explore.amortized_runs", t.amortizedRuns, "count");
  r.metric("explore.pruned", t.pruned, "count");
  r.metric("explore.front_points", t.frontPoints, "count");
  r.metric("explore.amortized_ratio", t.amortizedRatio, "ratio");
  r.metric("trace.overhead_pct", t.overheadPct, "%");
}

void stagedPass(const std::vector<const DesignJob*>& jobs, const std::vector<char>& expectFail,
                double seconds, bool count, LayerTrace& t, RunResult& r) {
  std::vector<std::string> texts;
  for (const DesignJob* job : jobs) texts.push_back(saveGraphText(job->graph));
  StageTimes stages;
  double whole = 0;        // runDesignJob, untraced
  double tracedWhole = 0;  // runStaged, stage timers included
  double parse = 0;
  double canon = 0;
  std::int64_t designs = 0;
  std::int64_t requests = 0;
  double considered = 0;
  int rounds = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const DesignJob& job = *jobs[i];
      if (count) ++r.attempted;
      Clock::time_point t0 = Clock::now();
      if (expectFail[i]) {
        try {
          (void)runDesignJob(job);
          r.problem("staged pass: expected the known fault, design succeeded");
        } catch (const std::exception& e) {
          if (count) r.fail(failureKind(e));
          else if (failureKind(e) != kKnownFault) r.problem("staged pass: " + failureKind(e));
        }
        continue;
      }
      // Alternate which of the two runs first, so neither always finds the
      // other's warm state.
      StageTimes st;
      std::optional<DesignOutcome> staged;
      const auto traced = [&] {
        const Clock::time_point s0 = Clock::now();
        staged = runStaged(job, st);
        tracedWhole += msBetween(s0, Clock::now());
      };
      if (rounds % 2 == 1) traced();
      t0 = Clock::now();
      const DesignOutcome ref = runDesignJob(job);
      whole += msBetween(t0, Clock::now());
      if (rounds % 2 == 0) traced();
      stages += st;
      ++designs;
      if (rounds == 0) {
        if (designResultJson(*staged, false) != designResultJson(ref, false))
          r.problem("staged pass: stage-by-stage result differs from runDesignJob on design " +
                    std::to_string(i));
        t.managedMuxes += staged->design.managedCount();
        t.sharedGated += staged->sharedGated;
        t.slackRejects += staged->sharedGatingSlackRejects;
        considered += static_cast<double>(staged->design.muxes.size());
      }
      t0 = Clock::now();
      const Graph parsed = loadGraphText(texts[i]);
      const Clock::time_point t1 = Clock::now();
      (void)canonicalizeGraph(parsed);
      parse += msBetween(t0, t1);
      canon += msBetween(t1, Clock::now());
      ++requests;
    }
    ++rounds;
  } while (secondsBetween(start, Clock::now()) < seconds);

  const double n = designs > 0 ? static_cast<double>(designs) : 1.0;
  t.stageMs.transform = stages.transform / n;
  t.stageMs.shared = stages.shared / n;
  t.stageMs.minResources = stages.minResources / n;
  t.stageMs.listSchedule = stages.listSchedule / n;
  t.stageMs.binding = stages.binding / n;
  t.stageMs.activation = stages.activation / n;
  t.stageMs.controller = stages.controller / n;
  t.muxYield = considered > 0 ? t.managedMuxes / considered : 0;
  t.parseMs = requests > 0 ? parse / static_cast<double>(requests) : 0;
  t.canonicalizeMs = requests > 0 ? canon / static_cast<double>(requests) : 0;
  t.overheadPct = whole > 0 ? 100.0 * (tracedWhole - whole) / whole : 0;
}

}  // namespace perfbench

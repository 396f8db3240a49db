// perfbench: run one workload and print its result as the last stdout line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH_TO_PMSCHED --run-dir DIR
//
// Exit 0 whenever a result line was printed (its "correct" field carries
// the checks' verdict); 1 when the run could not be carried out, 2 on bad
// arguments.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << arg << " needs a value\n";
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--server") o.serverBin = value;
    else if (arg == "--run-dir") o.runDir = value;
    else {
      std::cerr << "perfbench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (!(o.seconds > 0) || o.serverBin.empty() || o.runDir.empty()) {
    std::cerr << "perfbench: --seconds, --server and --run-dir are required\n";
    return 2;
  }
  try {
    perfbench::RunResult r;
    if (o.workload == "design-batch") r = perfbench::runDesignBatch(o);
    else if (o.workload == "serve-mixed") r = perfbench::runServeMixed(o);
    else if (o.workload == "explore-sweep") r = perfbench::runExploreSweep(o);
    else {
      std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
      return 2;
    }
    std::printf("# attempted %lld, failed %lld; failures by kind:", static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
    for (const auto& [kind, n] : r.failuresByKind) std::printf(" [%s] %lld", kind.c_str(), static_cast<long long>(n));
    std::printf("\n");
    for (std::size_t i = 0; i < r.problems.size() && i < 20; ++i)
      std::fprintf(stderr, "check: %s\n", r.problems[i].c_str());
    if (r.problems.size() > 20)
      std::fprintf(stderr, "check: ... %zu problems in all\n", r.problems.size());
    std::printf("%s\n", r.render().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

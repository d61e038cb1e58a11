// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one benchmark workload and prints its metrics; the last line of
// stdout is the summary object {correct, attempted, failed, metrics}.
// Exits 1 on a safety violation (the summary still prints, with
// "correct": false) and 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const auto& n : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !(seconds >= 1.0)) return usage();

  perfbench::Report rep;
  const auto outcome =
      perfbench::run_workload(workload, seed, seconds, trace, rep);
  if (!outcome) return usage();
  rep.print(workload, seed, trace, outcome->safe, outcome->attempted,
            outcome->failed);
  return outcome->safe ? 0 : 1;
}

// hsbench: run one benchmark workload in this process and print its
// metrics, one per line with its unit, then the result as one JSON line.
//
//   hsbench --workload paper-1740 --seed 1 --seconds 10 --traced 0
//
// perfbench/run.py is the benchmark command; it builds this program and
// combines an untraced and a traced run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      seconds = std::atof(v);
    } else if (std::strcmp(k, "--traced") == 0) {
      opt.traced = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "hsbench: unknown argument %s\n", k);
      return 2;
    }
  }
  const perfbench::Spec* spec = perfbench::find_spec(workload);
  if (!spec || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: hsbench --workload NAME --seed N --seconds S"
                 " [--traced 0|1]\n");
    return 2;
  }
  const perfbench::Result r =
      perfbench::run_workload(perfbench::scaled(*spec, seconds), seed, opt);
  for (const auto* block : {&r.end_to_end, &r.per_layer}) {
    for (const perfbench::Metric& m : *block) {
      std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("%s\n", perfbench::to_json(r).c_str());
  return 0;
}

#pragma once
// Shared helpers for the figure-reproduction binaries.
//
// Every binary runs a reduced-scale configuration by default so that the
// whole bench suite completes in minutes on one core; pass --full to run
// the paper's exact scale (1740 nodes, 20 000 events, 1k-6k networks).

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "runner/experiment.hpp"

namespace hypersub::bench {

/// Peak resident set size of this process, in bytes. Linux reports
/// ru_maxrss in KiB; this is the high-water mark, so measuring a sweep
/// point after a bigger one reports the bigger one's peak — run sweeps
/// smallest-first (or one point per process) when the per-point value
/// matters.
inline std::size_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return std::size_t(ru.ru_maxrss) * 1024u;
}

/// Host facts every BENCH_*.json records so the sanity gates can decide
/// which checks are meaningful on this machine instead of guessing.
struct HostMeta {
  unsigned cores = 0;
  std::size_t total_ram_bytes = 0;
};

inline HostMeta host_meta() {
  HostMeta h;
  h.cores = std::thread::hardware_concurrency();
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page_size > 0) {
    h.total_ram_bytes = std::size_t(pages) * std::size_t(page_size);
  }
  return h;
}

/// Emit the shared "host" section (with trailing comma) into an open
/// BENCH_*.json being written with fprintf.
inline void write_host_json(FILE* f) {
  const HostMeta h = host_meta();
  std::fprintf(f, " \"host\": {\"cores\": %u, \"total_ram_bytes\": %zu},\n",
               h.cores, h.total_ram_bytes);
}

struct Scale {
  bool full = false;
  std::size_t nodes = 600;
  std::size_t events = 1200;
  std::size_t subs_per_node = 10;
  /// True when the user passed --nodes= / --subs-per-node= explicitly —
  /// sweeps with their own size axis (fig5) collapse to the given point
  /// instead of ignoring the override.
  bool nodes_set = false;
  bool subs_per_node_set = false;
  /// --fast-setup: install subscriptions through the oracle bulk path
  /// (equivalent zone contents, no simulated install storm) — the knob
  /// that makes 100k+ subscription runs practical.
  bool fast_setup = false;
  unsigned setup_threads = 1;  ///< --setup-threads=N: bulk-install workers
};

inline Scale parse_scale(int argc, char** argv) {
  Scale s;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      s.full = true;
      s.nodes = 1740;
      s.events = 20000;
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      s.nodes = std::size_t(std::atoll(argv[i] + 8));
      s.nodes_set = true;
    } else if (std::strncmp(argv[i], "--subs-per-node=", 16) == 0) {
      s.subs_per_node = std::size_t(std::atoll(argv[i] + 16));
      s.subs_per_node_set = true;
    } else if (std::strcmp(argv[i], "--fast-setup") == 0) {
      s.fast_setup = true;
    } else if (std::strncmp(argv[i], "--setup-threads=", 16) == 0) {
      s.setup_threads = unsigned(std::atoi(argv[i] + 16));
    } else if (std::strncmp(argv[i], "--events=", 9) == 0) {
      s.events = std::size_t(std::atoll(argv[i] + 9));
    }
  }
  return s;
}

inline runner::ExperimentConfig base_config(const Scale& s) {
  runner::ExperimentConfig cfg;
  cfg.nodes = s.nodes;
  cfg.events = s.events;
  cfg.subs_per_node = s.subs_per_node;
  cfg.fast_setup = s.fast_setup;
  cfg.setup_threads = s.setup_threads;
  return cfg;
}

inline void print_scale_banner(const Scale& s, const char* what) {
  std::printf(
      "[%s] %s scale: %zu nodes, %zu events, %zu subs/node"
      " (pass --full for the paper's 1740 nodes / 20000 events)\n\n",
      what, s.full ? "full" : "reduced", s.nodes, s.events, s.subs_per_node);
}

}  // namespace hypersub::bench

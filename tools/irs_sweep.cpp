// irs_sweep — run a named figure grid and stream its results as NDJSON:
// one result_json object per line, in run order (the format
// IRS_BENCH_NDJSON writes).
//
//   $ irs_sweep --fig fig05 --jobs 4 --ndjson fig05.ndjson
//
// Options:
//   --fig NAME       named grid (see --list)
//   --seeds N        seeds per data point       (bench_seeds(): env-aware)
//   --fast           trim the grid like IRS_BENCH_FAST
//   --ndjson PATH    output file                              (stdout)
//   --jobs N         sweep worker threads                     (sweep_jobs())
//   --list           print known grid names and sizes
//
// Exit: 0 on success; 1 when the output cannot be written; 64 on usage
// errors (unknown flag or grid, a malformed or non-positive number, an
// unknown IRS_ENGINE_QUEUE).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "src/exp/grids.h"
#include "src/exp/report.h"
#include "src/exp/sweep.h"
#include "src/sim/event_queue.h"

namespace {

using namespace irs;

constexpr int kExitUsage = 64;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --fig NAME [--seeds N] [--fast] [--ndjson PATH] "
               "[--jobs N]\n"
               "       %s --list [--seeds N] [--fast]\n",
               argv0, argv0);
  std::exit(kExitUsage);
}

/// The whole of `s` as a positive int, or exit 64 naming `flag`.
int parse_count(const char* flag, const char* s) {
  int v = 0;
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end || v <= 0) {
    std::fprintf(stderr, "error: bad %s '%s' (want a positive integer)\n",
                 flag, s);
    std::exit(kExitUsage);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    sim::default_queue_kind();  // every run's engine reads it
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  }
  std::string fig;
  std::string ndjson;  // empty = stdout
  exp::GridOptions gopt;
  int jobs = 0;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--fig") {
      fig = next();
    } else if (arg == "--seeds") {
      gopt.seeds = parse_count("--seeds", next());
    } else if (arg == "--fast") {
      gopt.fast = true;
    } else if (arg == "--ndjson") {
      ndjson = next();
    } else if (arg == "--jobs") {
      jobs = parse_count("--jobs", next());
    } else if (arg == "--list") {
      list = true;
    } else {
      usage(argv[0]);
    }
  }

  if (list) {
    for (const std::string& name : exp::figure_grid_names()) {
      std::printf("%-8s %zu runs\n", name.c_str(),
                  exp::figure_grid(name, gopt).size());
    }
    return 0;
  }
  if (fig.empty()) usage(argv[0]);
  const auto grid = exp::figure_grid(fig, gopt);
  if (grid.empty()) {
    std::fprintf(stderr, "error: unknown grid '%s' (see --list)\n",
                 fig.c_str());
    return kExitUsage;
  }

  std::ofstream file;
  if (!ndjson.empty()) {
    file.open(ndjson, std::ios::trunc);
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   ndjson.c_str());
      return 1;
    }
  }
  std::ostream& out = ndjson.empty() ? std::cout : file;
  exp::run_sweep(grid, exp::ndjson_consumer(out), jobs);
  std::fprintf(stderr, "irs_sweep: %s: %zu runs\n", fig.c_str(), grid.size());
  return out.good() ? 0 : 1;
}

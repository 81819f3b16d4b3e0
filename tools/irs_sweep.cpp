// irs_sweep — run a named grid (the one definition the figure's bench
// binary renders) and stream its results as NDJSON: one result_json object
// per line, in run order.
//
//   $ irs_sweep --fig fig05 --jobs 4 --ndjson fig05.ndjson
//
// Options:
//   --fig NAME       named grid (see --list)
//   --seeds N        seeds per data point       (bench_seeds(): env-aware)
//   --fast           the trimmed grid the bench binaries run under
//                    IRS_BENCH_FAST
//   --ndjson PATH    output file                              (stdout)
//   --jobs N         sweep worker threads                     (sweep_jobs())
//   --list           print known grid names and sizes
//
// Exit: 0 on success; 1 when the output cannot be written; 64 on usage
// errors (unknown flag or grid, a malformed or non-positive number in a
// flag or in IRS_BENCH_SEEDS/IRS_BENCH_JOBS, an unknown IRS_ENGINE_QUEUE).
#include <cstdio>
#include <cstdlib>
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

}  // namespace

int main(int argc, char** argv) {
  std::string fig;
  std::string ndjson;  // empty = stdout
  exp::GridOptions gopt;
  int jobs = 0;
  bool list = false;
  try {
    // Every run reads these, so a malformed value is an error even where
    // a flag overrides it.
    sim::default_queue_kind();
    exp::bench_seeds();
    exp::sweep_jobs();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--fig") {
        fig = next();
      } else if (arg == "--seeds") {
        gopt.seeds = exp::parse_number("--seeds", next(), 1);
      } else if (arg == "--fast") {
        gopt.fast = true;
      } else if (arg == "--ndjson") {
        ndjson = next();
      } else if (arg == "--jobs") {
        jobs = exp::parse_number("--jobs", next(), 1);
      } else if (arg == "--list") {
        list = true;
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
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

// mmprof: offline attribution report over a trace/metrics dump.
//
//   mmprof [--attr ATTR.csv] [--folded OUT.folded] [--top N]
//          [--clock-hz HZ] TRACE.csv
//
// TRACE.csv is the CSV twin run_experiment writes next to --trace-out
// (events round-trip losslessly through trace::parse_csv, including the
// causal `span:u=N` arg). The report has two halves:
//
//   - lock contention, folded from the kLock wait events: per-class
//     totals + log2 wait histograms, the top-N blocked-by table
//     (which span lost the most cycles to which lock class), and —
//     with --folded — flamegraph-ready `class;lock;site count` stacks;
//   - with --attr, the per-request latency decomposition the harness
//     exported (run_experiment --attr-out): aggregate shares plus the
//     exact bucket breakdown of the p50/p99 request.
//
// Exits 1 if any request's buckets fail to sum to its measured latency
// (the decomposition is exact on the virtual clock by construction, so
// a residual is a bug, not noise), if inputs are unreadable, or if
// --top / --clock-hz is not a number in range.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "profile/attribution.hpp"
#include "profile/contention.hpp"
#include "trace/export.hpp"

namespace {

using namespace hpmmap;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: mmprof [--attr ATTR.csv] [--folded OUT] [--top N]\n"
               "              [--clock-hz HZ] TRACE.csv\n"
               "  TRACE.csv    CSV trace dump (run_experiment --trace-out FILE writes\n"
               "               FILE.csv next to the Perfetto JSON)\n"
               "  --attr FILE  per-request latency decomposition (--attr-out dump)\n"
               "  --folded OUT write folded stacks (class;lock;site count) to OUT\n"
               "  --top N      rows in the blocked-by table (default 10)\n"
               "  --clock-hz F virtual clock for us conversions (default 2.3e9)\n");
  std::exit(2);
}

bool slurp(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "mmprof: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream body;
  body << f.rdbuf();
  out = body.str();
  return true;
}

} // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string attr_path;
  std::string folded_path;
  std::size_t top_n = 10;
  double clock_hz = 2.3e9;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--attr") && i + 1 < argc) {
      attr_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--folded") && i + 1 < argc) {
      folded_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--top") && i + 1 < argc) {
      top_n = static_cast<std::size_t>(parse_whole("--top", argv[++i], 1, SIZE_MAX));
    } else if (!std::strcmp(argv[i], "--clock-hz") && i + 1 < argc) {
      clock_hz = parse_positive("--clock-hz", argv[++i]);
    } else if (argv[i][0] == '-') {
      usage();
    } else if (trace_path.empty()) {
      trace_path = argv[i];
    } else {
      usage();
    }
  }
  if (trace_path.empty()) {
    usage();
  }

  std::string text;
  if (!slurp(trace_path, text)) {
    return 1;
  }
  const std::vector<trace::CsvEvent> events = trace::parse_csv(text);
  std::printf("mmprof: %zu events from %s\n", events.size(), trace_path.c_str());

  const profile::ContentionProfile contention = profile::fold(events, top_n);
  std::fputs(profile::render_contention(contention).c_str(), stdout);
  if (!folded_path.empty()) {
    const std::string stacks = profile::folded_stacks(contention);
    if (std::FILE* f = std::fopen(folded_path.c_str(), "w")) {
      std::fputs(stacks.c_str(), f);
      std::fclose(f);
      std::printf("wrote %zu folded stacks to %s\n", contention.folded.size(),
                  folded_path.c_str());
    } else {
      std::fprintf(stderr, "mmprof: cannot write %s\n", folded_path.c_str());
      return 1;
    }
  }

  if (!attr_path.empty()) {
    std::string attr_text;
    if (!slurp(attr_path, attr_text)) {
      return 1;
    }
    const profile::TrialAttribution trial =
        profile::from_records(profile::parse_attr_csv(attr_text));
    std::fputs(profile::render_report(trial, clock_hz).c_str(), stdout);
    if (trial.residual_errors != 0) {
      std::fprintf(stderr,
                   "mmprof: FAIL: %llu requests whose buckets do not sum to the measured "
                   "latency (decomposition must be exact on the virtual clock)\n",
                   static_cast<unsigned long long>(trial.residual_errors));
      return 1;
    }
  }
  return 0;
}

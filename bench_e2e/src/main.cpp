// hemo_e2e: end-to-end in situ benchmark of the hemoflow driver.
//
//   hemo_e2e --workload batch-large|insitu-steered|failover --seed N
//            --seconds S --trace 0|1 [--smoke] [--workdir DIR] [--rev REV]
//
// --trace 0 measures the workload with tracing off, taking set-up time
// as the median of several set-ups. --trace 1 measures it twice, untraced
// then traced (half the time each), and adds the tracing overhead, the
// share of step time no layer row explains and the copy roofline.
// The second-to-last stdout line is the run's provenance, the last line
// the result: {"correct", "attempted", "failed", "metrics"} with every
// metric the run measured; run.py reports the end-to-end or the
// per-layer ones that BENCHMARK.json names. metrics.json beside this
// program documents every metric.

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using e2e::Result;

void usage() {
  std::fprintf(stderr,
               "usage: hemo_e2e --workload batch-large|insitu-steered|"
               "failover --seed N --seconds S --trace 0|1 [--smoke] "
               "[--workdir DIR] [--rev REV]\n");
}

bool parse(int argc, char** argv, e2e::Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && hasValue) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && hasValue) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--workdir" && hasValue) {
      opt.workdir = argv[++i];
    } else if (a == "--rev" && hasValue) {
      opt.rev = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return opt.seconds > 0.0 &&
         (opt.workload == "batch-large" || opt.workload == "insitu-steered" ||
          opt.workload == "failover");
}

/// Set-ups timed in an untraced run; setup_s is their median. The short
/// set-ups of the 75k-site workloads (about 0.9 s) need more of them than
/// the 8 s set-up of batch-large to give a steady median.
int setupRepsFor(const std::string& workload) {
  return workload == "batch-large" ? 3 : 9;
}

Result runWorkload(const e2e::Options& opt, bool traced, int setupReps,
                   double seconds) {
  if (opt.workload == "batch-large") {
    return e2e::runBatchLarge(opt, traced, setupReps, seconds);
  }
  if (opt.workload == "insitu-steered") {
    return e2e::runInsituSteered(opt, traced, setupReps, seconds);
  }
  return e2e::runFailover(opt, traced, setupReps, seconds);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Print the provenance line and the result line with every metric the
/// run measured; run.py selects the ones the trace mode reports.
void emit(Result& r) {
  std::string metrics;
  for (auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.fail("metric " + name + " is not finite");
      m.value = 0.0;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += quote(name) + ": {\"value\": " + num +
               ", \"unit\": " + quote(m.unit) + "}";
  }
  std::string prov;
  for (const auto& [k, v] : r.provenance) {
    if (!prov.empty()) prov += ", ";
    prov += quote(k) + ": " + quote(v);
  }
  for (const auto& p : r.problems) {
    std::fprintf(stderr, "FAILED: %s\n", p.c_str());
  }
  std::printf("{\"provenance\": {%s}}\n", prov.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  try {
    if (!opt.trace) {
      Result r =
          runWorkload(opt, false, setupRepsFor(opt.workload), opt.seconds);
      emit(r);
      if (r.abandonedThreads) std::_Exit(0);
      return 0;
    }

    // Untraced first, traced second, on identical inputs; the per-layer
    // figures come from the traced pass.
    Result plain = runWorkload(opt, false, 1, opt.seconds / 2);
    if (plain.abandonedThreads) {
      emit(plain);
      std::_Exit(0);
    }
    Result r = runWorkload(opt, true, 1, opt.seconds / 2);
    r.correct = r.correct && plain.correct;
    r.attempted += plain.attempted;
    r.failed += plain.failed;
    r.problems.insert(r.problems.end(), plain.problems.begin(),
                      plain.problems.end());

    r.set("trace.overhead_ratio",
          plain.wallPerUnit > 0.0 ? r.wallPerUnit / plain.wallPerUnit : 0.0,
          "ratio");
    r.set("e2e.failed_ratio",
          r.attempted > 0 ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
          "ratio");

    // Copy roofline, measured after the workload so it cannot inflate the
    // workload's peak RSS. Each array is four times the last-level cache.
    const auto llc = e2e::llcBytes();
    const std::uint64_t probeBytes =
        llc > 0 ? 4 * llc : std::uint64_t{256} << 20;
    const auto probe = e2e::probeCopyBandwidth(probeBytes, 4);
    const double bytesPerSite = r.metrics["lb.bytes_per_site"].value;
    const double distMb = r.metrics["lb.dist_mb"].value;
    r.set("lb.copy_bw_gbs", probe.gbPerSecond, "GB/s");
    r.set("lb.copy_array_mb", static_cast<double>(probe.arrayBytes) / 1e6,
          "MB");
    r.set("lb.llc_mb", static_cast<double>(llc) / 1e6, "MB");
    r.set("lb.dist_over_llc",
          llc > 0 ? distMb * 1e6 / static_cast<double>(llc) : 0.0, "ratio");
    r.set("lb.roofline_fraction",
          probe.gbPerSecond > 0.0
              ? plain.metrics["mlups"].value * 1e6 * bytesPerSite /
                    (probe.gbPerSecond * 1e9)
              : 0.0,
          "ratio");

    emit(r);
    if (r.abandonedThreads) std::_Exit(0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hemo_e2e: %s\n", e.what());
    return 1;
  }
}

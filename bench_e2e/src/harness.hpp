#pragma once
/// \file harness.hpp
/// \brief Shared machinery of the end-to-end benchmark: options, the
/// benchmark-side span tracer, sample statistics, memory and cache probes,
/// and the result record every workload fills in.
///
/// Spans are timed by the benchmark around the public layer calls it makes,
/// never inside the library.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/driver.hpp"
#include "geometry/sparse_lattice.hpp"
#include "lb/solver.hpp"

namespace e2e {

/// Parsed command line. `seed` drives every generated input.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny geometry and few steps: exercises every code path and metric in
  /// seconds (the benchmark's own smoke tests).
  bool smoke = false;
  /// Scratch directory for checkpoints.
  std::string workdir = ".";
  /// Source revision recorded in the provenance line.
  std::string rev = "unknown";
};

// --- clocks and spans -------------------------------------------------------

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Summed duration of the spans around one layer call on one rank.
struct LayerTotal {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  double msPerCall() const {
    return calls > 0 ? seconds / static_cast<double>(calls) * 1e3 : 0.0;
  }
};

/// Benchmark-side span around one public layer call: measures the call's
/// wall time and, when given a LayerTotal, adds it there.
class Span {
 public:
  explicit Span(LayerTotal* into = nullptr)
      : into_(into), start_(nowSeconds()) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// End the span early; returns its duration in seconds.
  double stop();

 private:
  LayerTotal* into_;
  double start_;
  double seconds_ = -1.0;
};

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The highest percentile from {99.9, 99, 95, 90, 75, 50} that leaves at
/// least ten samples beyond it (0 when fewer than eleven samples exist).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tailOf(const std::vector<double>& v);

// --- machine and memory probes ----------------------------------------------

/// Hand memory freed by an earlier set-up back to the OS, so repeated
/// set-ups do not stack up in the peak RSS the last one reports.
void releaseFreedMemory();
/// Peak resident set (VmHWM) of this process in bytes.
std::uint64_t peakRssBytes();
/// Last-level cache size from sysconf (0 when the OS does not say).
std::uint64_t llcBytes();
int numCpus();

/// Copy-bandwidth probe: memcpy between two arrays of `bytes` each, best of
/// `reps`; bandwidth counts read + written bytes.
struct CopyProbe {
  std::uint64_t arrayBytes = 0;
  double gbPerSecond = 0.0;
};
CopyProbe probeCopyBandwidth(std::uint64_t bytes, int reps);

/// Compulsory memory traffic of one lattice update with these parameters,
/// in bytes per fluid site: the kernel's distribution reads and writes plus
/// the macroscopic fields it stores each step. Write-allocate traffic and
/// index arrays are excluded, so this is a lower bound.
double computedBytesPerSite(const hemo::lb::LbParams& params);

// --- results ----------------------------------------------------------------

/// One workload run: every metric the run measured (end-to-end and
/// per-layer alike; run.py selects what the trace mode reports), the
/// correctness tally, and string provenance.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< why `correct` went false

  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> provenance;
  /// Wall seconds per unit of work (a step, or a failover cycle); the
  /// traced/untraced ratio of this is trace.overhead_ratio.
  double wallPerUnit = 0.0;
  /// Threads of a stuck run are still alive: the process must exit
  /// without running destructors once the result is printed.
  bool abandonedThreads = false;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Record a correctness failure of `count` operations.
  void fail(const std::string& what, std::uint64_t count = 1) {
    correct = false;
    failed += count;
    problems.push_back(what);
  }
};

// --- layer counters read around the driver -----------------------------------

/// One rank's public layer timers and counters at an instant. Deltas of two
/// samples taken around a run of steps give that run's per-layer cost.
struct RankSample {
  double collide = 0.0;   ///< solver collide phase, thread CPU seconds
  double stream = 0.0;    ///< solver stream phase
  double comm = 0.0;      ///< solver halo phase (includes the wait)
  double recvWait = 0.0;  ///< wall seconds blocked on halo receives
  double overlap = 0.0;   ///< wall seconds of compute with halos in flight
  std::vector<double> stages;  ///< InSituPipeline::stageSeconds per stage
  std::uint64_t renders = 0;
  hemo::comm::TrafficCounters traffic;

  static RankSample take(hemo::core::SimulationDriver& driver,
                         hemo::comm::Communicator& comm);
  RankSample minus(const RankSample& before) const;
  /// Seconds of rank time the rows cover: solver phases, blocked halo
  /// wait and vis stages.
  double rowSeconds() const;
};

/// Solver, halo and vis per-layer metrics from every rank's window delta
/// (index = rank) over `steps` steps; `stageNames` labels the stages.
void addSolverLayers(Result& r, const std::vector<RankSample>& deltas,
                     std::uint64_t steps,
                     const std::vector<std::string>& stageNames);

/// Steps executed by rank 0 over a measured window: wall of each step and
/// whether it rendered.
struct StepLog {
  std::vector<double> wall;
  std::vector<bool> rendered;
  /// Median wall of rendering steps minus median of plain steps.
  double renderExtra() const;
};

/// Workload entry points. `traced` enables spans and the explicit layer
/// calls; `setupReps` builds the set-up this many times and reports the
/// median.
Result runBatchLarge(const Options& opt, bool traced, int setupReps,
                     double seconds);
Result runInsituSteered(const Options& opt, bool traced, int setupReps,
                        double seconds);
Result runFailover(const Options& opt, bool traced, int setupReps,
                   double seconds);

/// The aneurysm vessel every workload runs on.
hemo::geometry::SparseLattice makeVessel(double voxel);

/// Fluid-site updates per second in millions.
inline double mlups(std::uint64_t sites, std::uint64_t steps,
                    double seconds) {
  return seconds > 0.0 ? static_cast<double>(sites) *
                             static_cast<double>(steps) / seconds / 1e6
                       : 0.0;
}

/// Mix a seed with a stream tag into an independent 64-bit value
/// (splitmix64), so each generated input has its own stream.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/// Provenance common to every workload: machine, kernel and the
/// distribution working set relative to the last-level cache.
void recordProvenance(Result& r, const Options& opt,
                      const hemo::lb::LbParams& params, std::uint64_t sites,
                      int ranks);

}  // namespace e2e

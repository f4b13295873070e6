// Reproduces the **§II scaling claim** (paper ref [1]): "HemeLB ... can
// scale well to at least 32 thousand cores with more than 81 million
// lattice sites".
//
// At laptop scale the same experiment is: strong scaling (fixed lattice,
// growing rank count) and weak scaling (fixed sites/rank) of the sparse LB
// solver, with the parallel time reconstructed by the postal model from
// per-rank busy time and exact halo traffic (see core/perf_model.hpp —
// wall clock on a time-shared host measures contention, not scaling).

#include "common.hpp"
#include "telemetry/step_report.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hemobench;

struct ScalePoint {
  int ranks = 0;
  std::uint64_t sites = 0;
  double maxBusy = 0.0;
  double imbalance = 1.0;
  std::uint64_t haloBytesPerStep = 0;
  std::uint64_t haloMsgsPerStep = 0;
  double modeledSeconds = 0.0;
  /// Fraction of the halo window hidden behind the fused bulk sweep,
  /// averaged over ranks (overlap wall time vs residual receive wait).
  double commHidden = 0.0;
  /// Million site updates per modeled second.
  double mlups = 0.0;
  /// Total bytes sent during the measured phase, by comm::Traffic class.
  std::uint64_t classBytes[comm::kNumTrafficClasses] = {};
  /// Wait-state attribution of the measured phase (telemetry/waitstate.hpp):
  /// per-cause share of the classified blocked time, the cross-rank
  /// straggler vote and the classified/measured coverage fraction.
  double waitLateSenderPct = 0.0;
  double waitLateReceiverPct = 0.0;
  double waitCollectivePct = 0.0;
  std::int32_t waitStragglerRank = -1;
  double waitAttributed = 0.0;
};

ScalePoint measure(const geometry::SparseLattice& lattice, int ranks,
                   int steps, const lb::LbParams& params) {
  const auto part = kwayPartition(lattice, ranks);
  ScalePoint point;
  point.ranks = ranks;
  point.sites = lattice.numFluidSites();
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lattice, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(10);  // warm up (plans, caches)
    solver.resetTimers();
    comm.barrier();
    // Measure wait attribution over the timed phase only: drop the warmup
    // and barrier waits by snapping the recorder's window baseline here.
    auto* rankTel = telemetry::threadTelemetry();
    if (rankTel != nullptr) rankTel->waitState().window();
    const comm::TrafficCounters before = comm.counters();
    const auto sample =
        measurePhase(comm, [&] { solver.run(steps); });
    const comm::TrafficCounters after = comm.counters();
    std::uint64_t classDelta[comm::kNumTrafficClasses];
    for (int c = 0; c < comm::kNumTrafficClasses; ++c) {
      classDelta[c] =
          after.perClass[static_cast<std::size_t>(c)].bytesSent -
          before.perClass[static_cast<std::size_t>(c)].bytesSent;
    }
    const auto s = summarizePhase(comm, sample);
    const double overlap = comm.allreduceSum(solver.overlapTimer().total());
    const double wait = comm.allreduceSum(solver.recvWaitTimer().total());
    // Cross-rank wait attribution: every rank votes with its window delta
    // (one StepReport each), rank 0 aggregates via the same reduction the
    // driver uses for live telemetry.
    telemetry::StepReport waitLocal;
    waitLocal.collideSeconds = sample.busySeconds;  // busiest-rank fallback
    if (rankTel != nullptr) {
      const auto w = rankTel->waitState().window();
      waitLocal.waitLateSenderSeconds = w.lateSenderSeconds;
      waitLocal.waitLateReceiverSeconds = w.lateReceiverSeconds;
      waitLocal.waitCollectiveSeconds = w.collectiveSeconds;
      waitLocal.waitLateReceiverSlackSeconds = w.lateReceiverSlackSeconds;
      waitLocal.waitBlamedRank = w.topBlamedRank;
      waitLocal.waitBlamedSeconds = w.topBlamedSeconds;
      waitLocal.waitMeasuredSeconds = solver.recvWaitTimer().total();
    }
    const auto waitReports = comm.gather(waitLocal, 0);
    std::uint64_t classTotal[comm::kNumTrafficClasses];
    for (int c = 0; c < comm::kNumTrafficClasses; ++c) {
      classTotal[c] = comm.allreduceSum(classDelta[c]);
    }
    if (comm.rank() == 0) {
      point.maxBusy = s.maxBusy;
      point.imbalance = s.imbalance;
      point.haloBytesPerStep = s.totalBytes / static_cast<std::uint64_t>(steps);
      point.haloMsgsPerStep =
          s.totalMessages / static_cast<std::uint64_t>(steps);
      point.modeledSeconds = core::modeledParallelSeconds(
          {core::RankCost{s.maxBusy, s.maxRankMessages, s.maxRankBytes}});
      point.commHidden = overlap + wait > 0.0 ? overlap / (overlap + wait) : 0.0;
      point.mlups = point.modeledSeconds > 0.0
                        ? static_cast<double>(point.sites) *
                              static_cast<double>(steps) /
                              point.modeledSeconds / 1e6
                        : 0.0;
      for (int c = 0; c < comm::kNumTrafficClasses; ++c) {
        point.classBytes[c] = classTotal[c];
      }
      const auto agg = telemetry::aggregateStepReports(waitReports);
      const double classified = agg.waitClassifiedSeconds();
      if (classified > 0.0) {
        point.waitLateSenderPct =
            100.0 * agg.waitLateSenderSeconds / classified;
        point.waitLateReceiverPct =
            100.0 * agg.waitLateReceiverSeconds / classified;
        point.waitCollectivePct =
            100.0 * agg.waitCollectiveSeconds / classified;
      }
      point.waitStragglerRank = agg.waitStragglerRank;
      point.waitAttributed = agg.waitAttributedFraction;
    }
  });
  return point;
}

/// One JSON row per scale point, same fields for strong and weak scaling.
void addScaleRow(BenchReport& report, const char* series,
                 const ScalePoint& p, double speedup) {
  auto& row = report.addRow(std::string(series) + "/ranks=" +
                            std::to_string(p.ranks));
  row.set("series", std::string(series));
  row.set("kernel", std::string(flowParams().kernelName()));
  row.set("ranks", static_cast<std::uint64_t>(p.ranks));
  row.set("sites", p.sites);
  row.set("mlups", p.mlups);
  row.set("modeledSeconds", p.modeledSeconds);
  row.set("speedup", speedup);
  row.set("imbalance", p.imbalance);
  row.set("commHiddenFraction", p.commHidden);
  row.set("haloBytesPerStep", p.haloBytesPerStep);
  row.set("haloMsgsPerStep", p.haloMsgsPerStep);
  for (int c = 0; c < comm::kNumTrafficClasses; ++c) {
    row.set(std::string("bytes.") +
                comm::trafficName(static_cast<comm::Traffic>(c)),
            p.classBytes[c]);
  }
  row.set("wait.late_sender_pct", p.waitLateSenderPct);
  row.set("wait.late_receiver_pct", p.waitLateReceiverPct);
  row.set("wait.collective_pct", p.waitCollectivePct);
  row.set("wait.straggler_rank", static_cast<double>(p.waitStragglerRank));
  row.set("wait.attributed", p.waitAttributed);
}

}  // namespace

int main() {
  using namespace hemobench;
  const int steps = 40;
  BenchReport report("scaling_lb");
  report.setParam("steps", static_cast<std::int64_t>(steps));
  report.setParam("strongGeometry", "aneurysm(voxel=0.1)");
  report.setParam("weakGeometry", "tube(voxel=0.12, length=3*ranks)");

  // --- strong scaling -----------------------------------------------------------
  const auto lattice = makeAneurysm(0.1);
  std::printf("strong-scaling workload: aneurysm vessel, %llu fluid sites, "
              "%d steps\n",
              static_cast<unsigned long long>(lattice.numFluidSites()),
              steps);
  printHeader("Strong scaling of the sparse LB solver (S2)");
  std::printf("%-7s %12s %12s %14s %14s %10s %10s %10s %9s %9s %7s %6s\n",
              "ranks", "mod.time s", "speedup", "halo KB/step", "msgs/step",
              "imbal", "eff", "hidden%", "late-snd%", "late-rcv%", "coll%",
              "strag");
  ScalePoint base;
  for (const int ranks : {1, 2, 4, 8, 16, 32}) {
    const auto p = measure(lattice, ranks, steps, flowParams());
    if (ranks == 1) base = p;
    const double speedup =
        p.modeledSeconds > 0.0 ? base.modeledSeconds / p.modeledSeconds : 0.0;
    std::printf("%-7d %12.4f %12.2f %14.1f %14llu %10.3f %9.0f%% %9.0f%% "
                "%8.0f%% %8.0f%% %6.0f%% %6d\n",
                ranks, p.modeledSeconds, speedup,
                static_cast<double>(p.haloBytesPerStep) / 1e3,
                static_cast<unsigned long long>(p.haloMsgsPerStep),
                p.imbalance, 100.0 * speedup / ranks, 100.0 * p.commHidden,
                p.waitLateSenderPct, p.waitLateReceiverPct,
                p.waitCollectivePct, p.waitStragglerRank);
    addScaleRow(report, "strong", p, speedup);
  }

  // --- weak scaling --------------------------------------------------------------
  // Hold sites/rank roughly constant by lengthening the tube with the rank
  // count.
  printHeader("Weak scaling of the sparse LB solver (S2)");
  std::printf("%-7s %12s %14s %14s %12s %10s\n", "ranks", "sites",
              "sites/rank", "mod.time s", "efficiency", "hidden%");
  double weakBase = 0.0;
  for (const int ranks : {1, 2, 4, 8}) {
    const auto tube = makeTube(0.12, 3.0 * ranks);
    const auto p = measure(tube, ranks, steps, flowParams());
    if (ranks == 1) weakBase = p.modeledSeconds;
    const double eff =
        p.modeledSeconds > 0.0 ? weakBase / p.modeledSeconds : 0.0;
    std::printf("%-7d %12llu %14llu %14.4f %11.0f%% %9.0f%%\n", ranks,
                static_cast<unsigned long long>(p.sites),
                static_cast<unsigned long long>(p.sites) /
                    static_cast<unsigned long long>(ranks),
                p.modeledSeconds, 100.0 * eff, 100.0 * p.commHidden);
    addScaleRow(report, "weak", p, eff);
  }
  std::printf("\nexpected shape: near-linear strong scaling while sites/rank "
              "stays large\n(halo surface << owned volume); weak efficiency "
              "stays high because halo\nbytes per rank are constant.\n");
  report.write();
  return 0;
}

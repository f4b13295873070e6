// batch-large: a closed batch run of the aneurysm vessel at ~600k fluid
// sites on four ranks with vis, serving and checkpoints off. The
// distributions (~180 MB) exceed the last-level cache, so the LB kernel,
// the halo exchange and the partitioner carry nearly all of the time.

#include "comm/runtime.hpp"
#include "core/preprocess.hpp"
#include "core/sentinel.hpp"
#include "harness.hpp"
#include "lb/domain_map.hpp"

namespace e2e {

namespace {

constexpr int kRanks = 4;
constexpr int kWarmupSteps = 3;

hemo::core::DriverConfig batchConfig() {
  hemo::core::DriverConfig cfg;
  cfg.lb.bodyForce = {1e-5, 0, 0};  // a developed flow, not a fluid at rest
  cfg.visEvery = 0;
  cfg.statusEvery = 0;
  cfg.computeWss = false;  // nothing renders, so nothing consumes WSS
  return cfg;
}

}  // namespace

Result runBatchLarge(const Options& opt, bool /*traced*/, int setupReps,
                     double seconds) {
  using namespace hemo;
  const double voxel = opt.smoke ? 0.2 : 0.035;
  Result r;
  std::vector<double> setupSeconds, voxelizeSeconds, partitionSeconds;
  partition::PartitionMetrics partMetrics;
  std::vector<double> stepWall;
  std::vector<RankSample> deltas(kRanks);
  std::uint64_t sites = 0, requested = 0, executed = 0;
  double loopWall = 0.0, distBytes = 0.0;
  bool stable = true;
  const auto cfg = batchConfig();

  for (int rep = 0; rep < setupReps; ++rep) {
    const bool last = rep + 1 == setupReps;
    releaseFreedMemory();
    const double t0 = nowSeconds();
    Span voxelizeSpan;  // geometry::voxelize
    const auto lattice = makeVessel(voxel);
    voxelizeSeconds.push_back(voxelizeSpan.stop());
    Span partitionSpan;  // core::preprocess
    const auto pre = core::preprocess(lattice, kRanks, {});
    partitionSeconds.push_back(partitionSpan.stop());
    sites = lattice.numFluidSites();
    partMetrics = pre.metrics;

    comm::Runtime rt(kRanks);
    rt.run([&](comm::Communicator& comm) {
      const bool root = comm.rank() == 0;
      lb::DomainMap domain(lattice, pre.partition, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      comm.barrier();
      if (root) setupSeconds.push_back(nowSeconds() - t0);
      if (!last) return;

      driver.run(kWarmupSteps);
      const auto before = RankSample::take(driver, comm);
      comm.barrier();
      const double start = nowSeconds();
      std::uint64_t myRequested = 0, myExecuted = 0;
      for (;;) {
        Span step;  // SimulationDriver::run(1)
        myExecuted += static_cast<std::uint64_t>(driver.run(1));
        ++myRequested;
        if (root) stepWall.push_back(step.stop());
        std::uint8_t more = root && nowSeconds() - start < seconds;
        comm.bcast(more, 0);
        if (more == 0) break;
      }
      const double wall = nowSeconds() - start;
      deltas[static_cast<std::size_t>(comm.rank())] =
          RankSample::take(driver, comm).minus(before);

      core::SentinelConfig scfg;
      scfg.checkEvery = 1;
      core::StabilitySentinel sentinel(scfg);
      const auto verdict = sentinel.check(comm, driver.solver().macro(),
                                          driver.solver().stepsDone());
      const auto owned = comm.allreduceSum<std::uint64_t>(domain.numOwned());
      if (root) {
        loopWall = wall;
        requested = myRequested;
        executed = myExecuted;
        stable = verdict.ok && verdict.finite;
        distBytes = 2.0 * static_cast<double>(owned) * lb::SolverD3Q19::kQ *
                    sizeof(double);
      }
    });
  }

  r.attempted = requested;
  if (executed != requested) {
    r.fail("steps executed " + std::to_string(executed) + " != requested " +
               std::to_string(requested),
           requested - executed);
  }
  if (!stable) r.fail("fields non-finite or outside the sentinel band");

  const double stepMs = median(stepWall) * 1e3;
  r.set("setup_s", median(setupSeconds), "s");
  r.set("mlups", mlups(sites, executed, loopWall), "MLUPS");
  r.set("step_ms_p50", stepMs, "ms");
  r.set("latency_ms_p50", stepMs, "ms");
  r.set("peak_rss_mb", static_cast<double>(peakRssBytes()) / 1e6, "MB");

  std::vector<double> stepMsAll;
  for (const double w : stepWall) stepMsAll.push_back(w * 1e3);
  const auto tail = tailOf(stepMsAll);
  r.set("e2e.latency_ms_tail", tail.value, "ms");
  r.set("e2e.latency_tail_pct", tail.percentile, "pct");
  r.set("e2e.latency_samples", static_cast<double>(tail.samples), "count");

  r.set("geometry.voxelize_s", median(voxelizeSeconds), "s");
  r.set("partition.partition_s", median(partitionSeconds), "s");
  r.set("partition.edge_cut", static_cast<double>(partMetrics.edgeCut),
        "count");
  r.set("partition.site_imbalance", partMetrics.imbalance, "ratio");
  addSolverLayers(r, deltas, executed, {});
  r.set("lb.dist_mb", distBytes / 1e6, "MB");
  r.set("lb.bytes_per_site", computedBytesPerSite(cfg.lb), "B");
  r.set("mem.rss_bytes_per_site",
        static_cast<double>(peakRssBytes()) / static_cast<double>(sites),
        "B");

  // Step wall on rank 0 not covered by the solver's own phase timers.
  r.set("trace.unaccounted_share",
        loopWall > 0.0 ? 1.0 - deltas[0].rowSeconds() / loopWall : 0.0,
        "ratio");
  r.wallPerUnit =
      executed > 0 ? loopWall / static_cast<double>(executed) : 0.0;
  recordProvenance(r, opt, cfg.lb, sites, kRanks);
  return r;
}

}  // namespace e2e

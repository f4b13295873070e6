// failover: the read side of the checkpoint layer. Each cycle runs the
// aneurysm vessel (~75k sites, four ranks) through ResilientRunner with
// buddy mirrors and disk checkpoints every 25 steps, kills one seeded
// non-zero rank at a seeded step, and lets the survivors agree, shrink,
// rebuild and restore. Cycles repeat for two thirds of the measured time;
// every cycle's final fields must match an uninterrupted run of the same
// inputs, which takes the other third and supplies the step times.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "comm/runtime.hpp"
#include "core/preprocess.hpp"
#include "core/recovery.hpp"
#include "harness.hpp"
#include "lb/buddy.hpp"
#include "lb/domain_map.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace hemo;

constexpr int kRanks = 4;
constexpr double kMatchTolerance = 1e-13;
/// A healthy cycle takes a few seconds; past this its ranks are stuck.
constexpr double kCycleDeadlineS = 30.0;

struct CycleShape {
  int steps = 100;
  int checkpointEvery = 25;
};

/// One cycle's fault, generated from the seed: which rank dies (never rank
/// 0) and at which step (always after the first checkpoint).
struct Fault {
  int victim = 1;
  int killStep = 30;
};

/// The seed picks each cycle's victim and checkpoint interval, and a start
/// offset into the interval; successive cycles step that offset by 7 (prime
/// to the interval), so every run of a few cycles replays a similar mix of
/// short and long tails whatever the seed.
Fault generateFault(std::uint64_t seed, int cycle, const CycleShape& shape) {
  const int every = shape.checkpointEvery;
  const int intervals = (shape.steps - 2) / every - 1;  // after the first
  const int base = static_cast<int>(
      Rng(mixSeed(seed, 99)).uniformInt(static_cast<std::uint64_t>(every)));
  Rng rng(mixSeed(seed, 100 + static_cast<std::uint64_t>(cycle)));
  Fault f;
  f.victim = 1 + static_cast<int>(rng.uniformInt(kRanks - 1));
  const int interval =
      1 + static_cast<int>(rng.uniformInt(static_cast<std::uint64_t>(
              std::max(1, intervals))));
  const int offset = (base + 7 * cycle) % every;
  f.killStep = std::min(interval * every + 2 + offset, shape.steps - 1);
  return f;
}

/// Final fields of a run, indexed by global site id.
struct Fields {
  std::vector<Vec3d> u;
  std::vector<double> rho;
  explicit Fields(std::uint64_t sites) : u(sites), rho(sites) {}

  void collect(const lb::DomainMap& domain, const lb::SolverD3Q19& solver) {
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      const auto g = static_cast<std::size_t>(domain.globalOf(l));
      u[g] = solver.macro().u[l];
      rho[g] = solver.macro().rho[l];
    }
  }

  double maxDiff(const Fields& o) const {
    double worst = 0.0;
    for (std::size_t g = 0; g < u.size(); ++g) {
      worst = std::max(worst, (u[g] - o.u[g]).norm());
      worst = std::max(worst, std::abs(rho[g] - o.rho[g]));
    }
    return worst;
  }
};

/// One faulted cycle's outputs, shared with the thread that runs it.
struct CycleRun {
  Fields fields;
  RankSample finalDriver;
  core::ResilientRunner::Result result;
  std::promise<void> done;
  explicit CycleRun(std::uint64_t sites) : fields(sites) {}
};

core::DriverConfig failoverConfig(const CycleShape& shape) {
  core::DriverConfig cfg;
  cfg.lb.bodyForce = {1e-5, 0, 0};
  cfg.lb.computeStress = true;  // the default computeWss consumes it
  cfg.checkpointEvery = shape.checkpointEvery;
  return cfg;
}

}  // namespace

Result runFailover(const Options& opt, bool /*traced*/, int setupReps,
                   double seconds) {
  const double voxel = opt.smoke ? 0.2 : 0.07;
  CycleShape shape;
  if (opt.smoke) shape = {30, 10};
  const std::string refDir = opt.workdir + "/failover_ref";
  const std::string cycleDir = opt.workdir + "/failover_cycle";
  Result r;
  std::vector<double> setupSeconds, voxelizeSeconds, partitionSeconds;
  partition::PartitionMetrics partMetrics;
  StepLog refLog;
  std::vector<RankSample> refDeltas(kRanks);
  std::vector<std::string> stageNames;
  std::unique_ptr<geometry::SparseLattice> lattice;
  std::unique_ptr<Fields> reference;
  const auto cfgBase = failoverConfig(shape);

  for (int rep = 0; rep < setupReps; ++rep) {
    const bool last = rep + 1 == setupReps;
    releaseFreedMemory();
    std::filesystem::remove_all(refDir);
    std::filesystem::create_directories(refDir);
    const double t0 = nowSeconds();
    Span voxelizeSpan;  // geometry::voxelize
    lattice = std::make_unique<geometry::SparseLattice>(makeVessel(voxel));
    voxelizeSeconds.push_back(voxelizeSpan.stop());
    Span partitionSpan;  // core::preprocess
    const auto pre = core::preprocess(*lattice, kRanks, {});
    partitionSeconds.push_back(partitionSpan.stop());
    partMetrics = pre.metrics;
    reference = std::make_unique<Fields>(lattice->numFluidSites());

    // The uninterrupted reference: same inputs and cadences, stepped one
    // step at a time so its step times are this workload's step_ms.
    lb::BuddyStore buddy;
    auto cfg = cfgBase;
    cfg.checkpointDir = refDir;
    cfg.buddy.store = &buddy;
    comm::Runtime rt(kRanks);
    rt.run([&](comm::Communicator& comm) {
      const bool root = comm.rank() == 0;
      lb::DomainMap domain(*lattice, pre.partition, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      comm.barrier();
      if (root) setupSeconds.push_back(nowSeconds() - t0);
      if (!last) return;
      // The fields are compared at the cycle length; stepping goes on for
      // a third of the measured time so the step times have a window of
      // their own.
      const auto before = RankSample::take(driver, comm);
      const double start = nowSeconds();
      for (int s = 1;; ++s) {
        const auto rendersBefore = driver.renderStage().rendersDone();
        Span step;  // SimulationDriver::run(1)
        driver.run(1);
        if (root) {
          refLog.wall.push_back(step.stop());
          refLog.rendered.push_back(driver.renderStage().rendersDone() !=
                                    rendersBefore);
        }
        if (s == shape.steps) reference->collect(domain, driver.solver());
        std::uint8_t more =
            root && (s < shape.steps || nowSeconds() - start < seconds / 3);
        comm.bcast(more, 0);
        if (more == 0) break;
      }
      refDeltas[static_cast<std::size_t>(comm.rank())] =
          RankSample::take(driver, comm).minus(before);
      if (root) {
        for (std::size_t i = 0; i < driver.pipeline().numStages(); ++i) {
          stageNames.emplace_back(driver.pipeline().stageName(i));
        }
      }
    });
  }
  std::filesystem::remove_all(refDir);

  // --- faulted cycles ---------------------------------------------------------
  auto partitioner = core::makePartitioner("kway", *lattice);
  const std::uint64_t sites = lattice->numFluidSites();
  std::vector<double> cycleWall, recoveryMs, agreeMs, restoreMs, rebuildMs;
  std::uint64_t replayed = 0, buddyHits = 0, events = 0;
  double rowSeconds = 0.0;
  std::string faults;
  const double start = nowSeconds();
  for (int cycle = 0; cycle == 0 || nowSeconds() - start < seconds * 2 / 3;
       ++cycle) {
    const Fault fault = generateFault(opt.seed, cycle, shape);
    if (!faults.empty()) faults += ' ';
    faults += std::to_string(fault.victim) + "@" +
              std::to_string(fault.killStep);
    std::filesystem::remove_all(cycleDir);
    std::filesystem::create_directories(cycleDir);
    auto cfg = cfgBase;
    cfg.checkpointDir = cycleDir;
    core::RecoveryConfig rcfg;
    rcfg.buddy = true;

    util::FaultScope scope(mixSeed(opt.seed, 300 + static_cast<std::uint64_t>(
                                                      cycle)));
    util::FaultRule rule;
    rule.site = util::FaultSite::kDriverStep;
    rule.action = util::FaultAction::kKill;
    rule.rank = fault.victim;
    rule.afterHits = static_cast<std::uint64_t>(fault.killStep - 1);
    rule.maxFires = 1;
    scope.rule(rule);

    // The cycle runs on its own thread so a deadlocked recovery is
    // reported as a failed cycle instead of hanging the benchmark. Whatever
    // a stuck cycle's threads still touch is shared or leaked, never freed.
    auto run = std::make_shared<CycleRun>(sites);
    auto runner = std::make_shared<core::ResilientRunner>(
        *lattice, *partitioner, cfg, rcfg);
    auto finished = run->done.get_future();
    Span span;  // ResilientRunner::run
    std::thread worker([run, runner, steps = shape.steps] {
      try {
        run->result = runner->run(
            kRanks, steps,
            [&run = *run](const lb::DomainMap& domain,
                          core::SimulationDriver& driver,
                          comm::Communicator& comm) {
              run.fields.collect(domain, driver.solver());
              if (comm.rank() == 0) {
                run.finalDriver = RankSample::take(driver, comm);
              }
            });
      } catch (const std::exception& e) {
        run->result.completed = false;
        run->result.error = e.what();
      }
      run->done.set_value();
    });
    const std::string which = "cycle " + std::to_string(cycle) + " (kill " +
                              std::to_string(fault.victim) + "@" +
                              std::to_string(fault.killStep) + ")";
    if (finished.wait_for(std::chrono::duration<double>(kCycleDeadlineS)) !=
        std::future_status::ready) {
      // The ranks are blocked inside the library and cannot be joined. The
      // process reports the failure and ends with _Exit, and everything the
      // stuck threads can reach is shared with them or leaked.
      worker.detach();
      (void)lattice.release();
      (void)partitioner.release();
      ++r.attempted;
      r.fail(which + " did not finish within " +
             std::to_string(static_cast<int>(kCycleDeadlineS)) +
             " s: the survivors are deadlocked");
      r.abandonedThreads = true;
      break;
    }
    worker.join();
    const double wall = span.stop();
    cycleWall.push_back(wall);
    rowSeconds += run->finalDriver.rowSeconds();
    const auto& result = run->result;
    const auto& fields = run->fields;

    ++r.attempted;
    if (!result.completed) {
      r.fail(which + " did not complete: " + result.error);
      continue;
    }
    if (result.events.size() != 1) {
      r.fail(which + " saw " + std::to_string(result.events.size()) +
             " recovery events");
    } else {
      const double diff = fields.maxDiff(*reference);
      if (!(diff <= kMatchTolerance)) {
        r.fail(which + " final fields differ from the reference by " +
               std::to_string(diff));
      }
    }
    for (const auto& ev : result.events) {
      ++events;
      recoveryMs.push_back(ev.totalSeconds * 1e3);
      agreeMs.push_back(ev.agreeSeconds * 1e3);
      restoreMs.push_back(ev.restoreSeconds * 1e3);
      rebuildMs.push_back(
          (ev.totalSeconds - ev.agreeSeconds - ev.restoreSeconds) * 1e3);
      buddyHits += ev.usedBuddy ? 1 : 0;
      const auto completed = static_cast<std::uint64_t>(fault.killStep - 1);
      replayed += completed > ev.restoredStep ? completed - ev.restoredStep
                                              : 0;
    }
    for (const auto& ev : result.events) rowSeconds += ev.totalSeconds;
  }
  std::filesystem::remove_all(cycleDir);

  const std::uint64_t cycles = cycleWall.size();
  double totalWall = 0.0;
  for (const double w : cycleWall) totalWall += w;

  // --- end-to-end -------------------------------------------------------------
  r.set("setup_s", median(setupSeconds), "s");
  r.set("mlups",
        mlups(sites, cycles * static_cast<std::uint64_t>(shape.steps),
              totalWall),
        "MLUPS");
  r.set("step_ms_p50", median(refLog.wall) * 1e3, "ms");
  r.set("latency_ms_p50", median(recoveryMs), "ms");
  r.set("peak_rss_mb", static_cast<double>(peakRssBytes()) / 1e6, "MB");

  const auto tail = tailOf(recoveryMs);
  r.set("e2e.latency_ms_tail", tail.value, "ms");
  r.set("e2e.latency_tail_pct", tail.percentile, "pct");
  r.set("e2e.latency_samples", static_cast<double>(tail.samples), "count");
  r.set("e2e.recovery_ms_p50", median(recoveryMs), "ms");

  // --- per layer --------------------------------------------------------------
  r.set("geometry.voxelize_s", median(voxelizeSeconds), "s");
  r.set("partition.partition_s", median(partitionSeconds), "s");
  r.set("partition.edge_cut", static_cast<double>(partMetrics.edgeCut),
        "count");
  r.set("partition.site_imbalance", partMetrics.imbalance, "ratio");
  addSolverLayers(r, refDeltas, refLog.wall.size(), stageNames);
  const double distBytes = 2.0 * static_cast<double>(sites) *
                           lb::SolverD3Q19::kQ * sizeof(double);
  r.set("lb.dist_mb", distBytes / 1e6, "MB");
  r.set("lb.bytes_per_site", computedBytesPerSite(cfgBase.lb), "B");
  r.set("mem.rss_bytes_per_site",
        static_cast<double>(peakRssBytes()) / static_cast<double>(sites),
        "B");
  r.set("core.render_step_extra_ms", refLog.renderExtra() * 1e3, "ms");
  r.set("recover.agree_ms_p50", median(agreeMs), "ms");
  r.set("recover.restore_ms_p50", median(restoreMs), "ms");
  r.set("recover.rebuild_ms_p50", median(rebuildMs), "ms");
  r.set("recover.steps_replayed",
        events > 0 ? static_cast<double>(replayed) /
                         static_cast<double>(events)
                   : 0.0,
        "count");
  r.set("recover.buddy_hit_ratio",
        events > 0 ? static_cast<double>(buddyHits) /
                         static_cast<double>(events)
                   : 0.0,
        "ratio");
  r.set("recover.cycles", static_cast<double>(cycles), "count");

  // Cycle wall not covered by recovery events and the surviving driver's
  // solver/vis timers. The pre-failure drivers die with their ranks, so
  // their time stays in this share until spans live inside the library.
  r.set("trace.unaccounted_share",
        totalWall > 0.0 ? 1.0 - rowSeconds / totalWall : 0.0, "ratio");
  r.wallPerUnit = cycles > 0 ? totalWall / static_cast<double>(cycles) : 0.0;

  recordProvenance(r, opt, cfgBase.lb, sites, kRanks);
  r.provenance["faults"] = faults;
  r.provenance["cycle_steps"] = std::to_string(shape.steps);
  return r;
}

}  // namespace e2e

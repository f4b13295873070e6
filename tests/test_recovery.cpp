// Shrink-and-continue rank-failure recovery: liveness detection (typed
// PeerDeadError instead of hangs), the cross-rank agreement round, survivor
// communicator shrink, rank-count-independent checkpoint restore, diskless
// buddy checkpoints, end-to-end kill/hang-mid-step recovery through
// ResilientRunner (disk, buddy and cold-restart ladders, serving-plane
// survival), and the bounded teardown join.
//
// Registered under the `resilience` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "comm/liveness.hpp"
#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/recovery.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/buddy.hpp"
#include "lb/checkpoint.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "serve/broker.hpp"
#include "serve/client.hpp"
#include "util/faultinject.hpp"
#include "util/timer.hpp"

namespace hemo {
namespace {

geometry::SparseLattice tubeLattice(double length = 4.0) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  return geometry::voxelize(geometry::makeStraightTube(length, 1.0), opt);
}

lb::LbParams tubeParams() {
  lb::LbParams p;
  p.tau = 0.8;
  p.bodyForce = {1e-5, 0, 0};
  return p;
}

core::DriverConfig plainDriverConfig() {
  core::DriverConfig dcfg;
  dcfg.lb.tau = 0.8;
  dcfg.lb.bodyForce = {1e-5, 0, 0};
  dcfg.computeWss = false;
  dcfg.visEvery = 0;
  dcfg.statusEvery = 0;
  // Keep the process-global flight registry disarmed: the disk tests'
  // checkpoint dirs (the bundle-dir fallback) are deleted between tests,
  // and later injected kills would warn about flushing into them.
  dcfg.flight.enabled = false;
  return dcfg;
}

/// Gather this rank's velocity field into a global array for exact
/// cross-run comparison (the LB update is per-site, so fields are
/// bit-reproducible across any rank count / partition).
void collectU(const lb::DomainMap& domain, const lb::SolverD3Q19& solver,
              std::vector<Vec3d>& u) {
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    u[static_cast<std::size_t>(domain.globalOf(l))] = solver.macro().u[l];
  }
}

/// Uninterrupted serial reference of `steps` steps.
std::vector<Vec3d> serialReference(const geometry::SparseLattice& lat,
                                   int steps) {
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 1);
  std::vector<Vec3d> u(lat.numFluidSites());
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, tubeParams());
    solver.run(steps);
    collectU(domain, solver, u);
  });
  return u;
}

void expectMatchesReference(const std::vector<Vec3d>& got,
                            const std::vector<Vec3d>& reference) {
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t g = 0; g < reference.size(); ++g) {
    ASSERT_NEAR((got[g] - reference[g]).norm(), 0.0, 1e-13) << "site " << g;
  }
}

// --- liveness primitives ----------------------------------------------------

TEST(Liveness, DeathBoardEpochCountsDeclaredDeaths) {
  comm::DeathBoard board(4);
  EXPECT_EQ(board.epoch(), 0u);
  EXPECT_FALSE(board.dead(2));
  EXPECT_TRUE(board.declareDead(2));
  EXPECT_FALSE(board.declareDead(2));  // idempotent, no double bump
  EXPECT_EQ(board.epoch(), 1u);
  EXPECT_TRUE(board.dead(2));
  EXPECT_TRUE(board.declareDead(0));
  EXPECT_EQ(board.epoch(), 2u);
  EXPECT_EQ(board.deadSet(), (std::vector<int>{0, 2}));

  EXPECT_FALSE(board.exited(1));
  board.markCrashed(1);
  EXPECT_TRUE(board.exited(1));
  EXPECT_FALSE(board.finished(1));
  board.markFinished(3);
  EXPECT_TRUE(board.finished(3));

  board.reset();
  EXPECT_EQ(board.epoch(), 0u);
  EXPECT_FALSE(board.dead(2));
}

TEST(Liveness, BlockedRecvSurfacesTypedErrorInsteadOfHanging) {
  // Rank 1 dies without ever sending; rank 0's blocking recv must surface
  // PeerDeadError (via the crashed-thread evidence) within the poll
  // cadence, not hang for the 120 s deadlock backstop.
  comm::Runtime rt(2);
  rt.setLiveness({true, 500, 5});
  comm::RunOptions opt;
  opt.tolerateRankDeath = true;
  WallTimer timer;
  rt.run(
      [&](comm::Communicator& comm) {
        if (comm.rank() == 1) {
          throw util::RankKilledError("simulated crash before send");
        }
        EXPECT_THROW(comm.recvBytes(1, 7), comm::PeerDeadError);
      },
      opt);
  EXPECT_LT(timer.seconds(), 30.0);
  EXPECT_EQ(rt.toleratedDeaths(), (std::vector<int>{1}));
  EXPECT_TRUE(rt.deathBoard().dead(1));
}

TEST(Agreement, SurvivorsConvergeOnIdenticalDeadSetAndShrunkenComm) {
  const comm::LivenessConfig cfg{true, 500, 5};
  comm::Runtime rt(4);
  rt.setLiveness(cfg);
  comm::RunOptions opt;
  opt.tolerateRankDeath = true;
  std::vector<std::vector<int>> agreed(4);
  std::vector<int> shrunkenSizes(4, 0);
  rt.run(
      [&](comm::Communicator& comm) {
        if (comm.worldRank() == 2) {
          throw util::RankKilledError("simulated death");
        }
        auto& board = rt.deathBoard();
        board.declareDead(2);
        agreed[static_cast<std::size_t>(comm.worldRank())] =
            core::agreeOnDeadSet(comm, board, cfg);
        auto small = comm.shrink(
            agreed[static_cast<std::size_t>(comm.worldRank())]);
        // The shrunken communicator is fully collective-capable.
        shrunkenSizes[static_cast<std::size_t>(comm.worldRank())] =
            small.allreduceSum(1);
        small.barrier();
      },
      opt);
  for (const int w : {0, 1, 3}) {
    EXPECT_EQ(agreed[static_cast<std::size_t>(w)], (std::vector<int>{2}))
        << "world rank " << w;
    EXPECT_EQ(shrunkenSizes[static_cast<std::size_t>(w)], 3);
  }
}

TEST(Agreement, SplitOfShrunkenCommKeepsItsRecoveryEpoch) {
  // After a shrink, a split sub-communicator must inherit the survivors'
  // recovery epoch. Born at epoch 0, a receive that outlasts one poll
  // slice would read the already-handled death as a new one and throw.
  const comm::LivenessConfig cfg{true, 500, 5};
  comm::Runtime rt(4);
  rt.setLiveness(cfg);
  comm::RunOptions opt;
  opt.tolerateRankDeath = true;
  std::vector<int> received(4, -1);
  rt.run(
      [&](comm::Communicator& comm) {
        if (comm.worldRank() == 2) {
          throw util::RankKilledError("simulated death");
        }
        auto& board = rt.deathBoard();
        board.declareDead(2);
        auto small = comm.shrink(core::agreeOnDeadSet(comm, board, cfg));
        auto all = small.split(0, small.rank());
        EXPECT_EQ(all.bornEpoch(), small.bornEpoch());
        if (all.rank() == 0) {
          // Delay the send well past two poll slices.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(10 * cfg.pollMs));
          for (int r = 1; r < all.size(); ++r) all.send(r, 9, 40 + r);
        } else {
          received[static_cast<std::size_t>(comm.worldRank())] =
              all.recv<int>(0, 9);
        }
        all.barrier();
      },
      opt);
  EXPECT_EQ(received[1], 41);
  EXPECT_EQ(received[3], 42);
}

// --- rank-count-independent restore ----------------------------------------

TEST(Recovery, CheckpointRestoresOntoFewerRanksAcrossStripings) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  const auto params = tubeParams();
  partition::MultilevelKWayPartitioner kway;
  const std::string dir = "/tmp/hemo_test_rankcount_ckpt";
  const auto reference = serialReference(lat, 30);

  for (const int writers : {4, 8}) {
    for (const int stripes : {1, 2, 4}) {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      const std::string path = dir + "/ckpt.hemockpt";
      // Write the step-10 checkpoint on `writers` ranks.
      {
        const auto part = kway.partition(graph, writers);
        comm::Runtime rt(writers);
        rt.run([&](comm::Communicator& comm) {
          lb::DomainMap domain(lat, part, comm.rank());
          lb::SolverD3Q19 solver(domain, comm, params);
          solver.run(10);
          lb::writeCheckpoint(path, solver, comm, {stripes});
        });
      }
      // Restore onto the survivor counts a single/double rank death
      // leaves, finish the run, and demand the uninterrupted reference.
      for (const int readers : {writers - 1, writers - 2}) {
        const auto part = kway.partition(graph, readers);
        std::vector<Vec3d> u(lat.numFluidSites());
        comm::Runtime rt(readers);
        rt.run([&](comm::Communicator& comm) {
          lb::DomainMap domain(lat, part, comm.rank());
          lb::SolverD3Q19 solver(domain, comm, params);
          const auto r = lb::readCheckpoint(path, solver, comm);
          ASSERT_TRUE(r.ok()) << "writers=" << writers
                              << " stripes=" << stripes
                              << " readers=" << readers << ": " << r.detail;
          EXPECT_EQ(r.step, 10u);
          solver.run(20);
          collectU(domain, solver, u);
        });
        expectMatchesReference(u, reference);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// --- diskless buddy checkpoints ---------------------------------------------

TEST(Recovery, BuddySnapshotRestoresOntoSurvivorsFromRamOnly) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  const auto params = tubeParams();
  partition::MultilevelKWayPartitioner kway;
  const auto reference = serialReference(lat, 20);

  lb::BuddyStore store;
  // Mirror at step 6 on four ranks: each holder keeps its own blob plus
  // the ring predecessor's.
  {
    const auto part = kway.partition(graph, 4);
    comm::Runtime rt(4);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, params);
      solver.run(6);
      lb::mirrorBuddy(solver, comm, store);
    });
  }
  EXPECT_GT(store.bytesHeld(), 0u);
  ASSERT_EQ(store.heldBy(0).size(), 2u);  // own blob + buddy of rank 3

  // Rank 3 dies: its memory is gone. The survivors still cover the whole
  // lattice (rank 3's blob lives in rank 0's memory) and restore onto a
  // fresh 3-way decomposition without touching the filesystem.
  store.dropHolder(3);
  {
    const auto part = kway.partition(graph, 3);
    std::vector<Vec3d> u(lat.numFluidSites());
    comm::Runtime rt(3);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, params);
      const auto r = lb::restoreFromBuddy(store, solver, comm);
      ASSERT_TRUE(r.ok()) << r.detail;
      EXPECT_EQ(r.step, 6u);
      EXPECT_EQ(solver.stepsDone(), 6u);
      solver.run(14);
      collectU(domain, solver, u);
    });
    expectMatchesReference(u, reference);
  }

  // Adjacent double death (holders 2 and 3): rank 2's blob existed only in
  // its own and rank 3's memory — restore must report the gap as a typed
  // miss, leaving the solver untouched for the disk/cold fallback.
  store.dropHolder(2);
  {
    const auto part = kway.partition(graph, 2);
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, params);
      const auto r = lb::restoreFromBuddy(store, solver, comm);
      EXPECT_EQ(r.status, lb::CkptStatus::kOpenFailed);
      EXPECT_EQ(solver.stepsDone(), 0u);
    });
  }
}

// --- end-to-end shrink-and-continue ----------------------------------------

TEST(Recovery, KillMidStepRecoversFromDiskAndMatchesReference) {
  const auto lat = tubeLattice();
  partition::MultilevelKWayPartitioner kway;
  const std::string dir = "/tmp/hemo_test_recover_disk";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto reference = serialReference(lat, 20);

  auto cfg = plainDriverConfig();
  cfg.checkpointEvery = 5;
  cfg.checkpointDir = dir;

  core::RecoveryConfig rcfg;
  rcfg.liveness = {true, 2000, 5};

  // World rank 2 dies at its 8th step — after the step-5 checkpoint.
  util::FaultScope scope(17);
  util::FaultRule rule;
  rule.site = util::FaultSite::kDriverStep;
  rule.action = util::FaultAction::kKill;
  rule.rank = 2;
  rule.afterHits = 7;
  rule.maxFires = 1;
  scope.rule(rule);

  std::vector<Vec3d> u(lat.numFluidSites());
  core::ResilientRunner runner(lat, kway, cfg, rcfg);
  const auto result = runner.run(
      4, 20,
      [&](const lb::DomainMap& domain, core::SimulationDriver& driver,
          comm::Communicator&) { collectU(domain, driver.solver(), u); });

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.survivors, 3);
  EXPECT_EQ(result.finalStep, 20u);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].deadWorldRanks, (std::vector<int>{2}));
  EXPECT_EQ(result.events[0].survivors, 3);
  EXPECT_EQ(result.events[0].restoredStep, 5u);
  EXPECT_FALSE(result.events[0].usedBuddy);
  EXPECT_FALSE(result.events[0].coldRestart);
  expectMatchesReference(u, reference);
  std::filesystem::remove_all(dir);
}

TEST(Recovery, KillMidStepRecoversFromBuddyWithoutFilesystem) {
  const auto lat = tubeLattice();
  partition::MultilevelKWayPartitioner kway;
  const auto reference = serialReference(lat, 20);

  auto cfg = plainDriverConfig();
  cfg.checkpointEvery = 5;  // mirror cadence; checkpointDir stays empty

  core::RecoveryConfig rcfg;
  rcfg.liveness = {true, 2000, 5};
  rcfg.buddy = true;

  util::FaultScope scope(23);
  util::FaultRule rule;
  rule.site = util::FaultSite::kDriverStep;
  rule.action = util::FaultAction::kKill;
  rule.rank = 1;
  rule.afterHits = 7;
  rule.maxFires = 1;
  scope.rule(rule);

  std::vector<Vec3d> u(lat.numFluidSites());
  core::ResilientRunner runner(lat, kway, cfg, rcfg);
  const auto result = runner.run(
      4, 20,
      [&](const lb::DomainMap& domain, core::SimulationDriver& driver,
          comm::Communicator&) { collectU(domain, driver.solver(), u); });

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.survivors, 3);
  EXPECT_EQ(result.finalStep, 20u);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].deadWorldRanks, (std::vector<int>{1}));
  EXPECT_TRUE(result.events[0].usedBuddy);
  EXPECT_EQ(result.events[0].restoredStep, 5u);
  expectMatchesReference(u, reference);
}

TEST(Recovery, HungRankIsAccusedByTimeoutAndRunRecovers) {
  const auto lat = tubeLattice();
  partition::MultilevelKWayPartitioner kway;
  const auto reference = serialReference(lat, 16);

  auto cfg = plainDriverConfig();
  cfg.checkpointEvery = 4;

  core::RecoveryConfig rcfg;
  // Short staleness timeout: the hung rank produces no exit evidence, so
  // detection must come from the accusation path.
  rcfg.liveness = {true, 800, 5};
  rcfg.buddy = true;

  util::FaultScope scope(29);
  util::FaultRule rule;
  rule.site = util::FaultSite::kDriverStep;
  rule.action = util::FaultAction::kHang;
  rule.rank = 1;
  rule.afterHits = 5;
  rule.maxFires = 1;
  scope.rule(rule);

  std::vector<Vec3d> u(lat.numFluidSites());
  WallTimer timer;
  core::ResilientRunner runner(lat, kway, cfg, rcfg);
  const auto result = runner.run(
      4, 16,
      [&](const lb::DomainMap& domain, core::SimulationDriver& driver,
          comm::Communicator&) { collectU(domain, driver.solver(), u); });

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_LT(timer.seconds(), 60.0);  // bounded: no 120 s deadlock backstop
  ASSERT_GE(result.events.size(), 1u);
  EXPECT_TRUE(std::find(result.events[0].deadWorldRanks.begin(),
                        result.events[0].deadWorldRanks.end(),
                        1) != result.events[0].deadWorldRanks.end());
  EXPECT_EQ(result.finalStep, 16u);
  expectMatchesReference(u, reference);
}

/// k-way behind a fixed delay, counting its calls.
class SlowPartitioner : public partition::Partitioner {
 public:
  explicit SlowPartitioner(std::chrono::milliseconds delay) : delay_(delay) {}
  const char* name() const override { return "slow-kway"; }
  partition::Partition partition(const partition::SiteGraph& graph,
                                 int numParts) const override {
    calls_.fetch_add(1);
    std::this_thread::sleep_for(delay_);
    return kway_.partition(graph, numParts);
  }
  int calls() const { return calls_.load(); }

 private:
  std::chrono::milliseconds delay_;
  partition::MultilevelKWayPartitioner kway_;
  mutable std::atomic<int> calls_{0};
};

TEST(Recovery, PartitionSlowerThanLivenessTimeoutAccusesNobody) {
  // The survivors' partition is computed once and shared; while it runs no
  // rank may wait in a bounded receive, or the healthy ranks would be
  // declared dead before the first step.
  const auto lat = tubeLattice();
  const auto reference = serialReference(lat, 8);

  core::RecoveryConfig rcfg;
  rcfg.liveness = {true, 400, 5};
  SlowPartitioner slow(std::chrono::milliseconds(1200));

  std::vector<Vec3d> u(lat.numFluidSites());
  core::ResilientRunner runner(lat, slow, plainDriverConfig(), rcfg);
  const auto result = runner.run(
      4, 8,
      [&](const lb::DomainMap& domain, core::SimulationDriver& driver,
          comm::Communicator&) { collectU(domain, driver.solver(), u); });

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.survivors, 4);
  EXPECT_TRUE(result.events.empty());
  EXPECT_EQ(slow.calls(), 1);
  EXPECT_EQ(result.finalStep, 8u);
  expectMatchesReference(u, reference);
}

TEST(Recovery, KillBeforeAnySnapshotColdRestartsDeterministically) {
  const auto lat = tubeLattice();
  partition::MultilevelKWayPartitioner kway;
  const auto reference = serialReference(lat, 12);

  // No checkpointing, no buddy: the only rung left is the cold restart.
  const auto cfg = plainDriverConfig();
  core::RecoveryConfig rcfg;
  rcfg.liveness = {true, 2000, 5};

  util::FaultScope scope(31);
  util::FaultRule rule;
  rule.site = util::FaultSite::kDriverStep;
  rule.action = util::FaultAction::kKill;
  rule.rank = 3;
  rule.afterHits = 2;
  rule.maxFires = 1;
  scope.rule(rule);

  std::vector<Vec3d> u(lat.numFluidSites());
  core::ResilientRunner runner(lat, kway, cfg, rcfg);
  const auto result = runner.run(
      4, 12,
      [&](const lb::DomainMap& domain, core::SimulationDriver& driver,
          comm::Communicator&) { collectU(domain, driver.solver(), u); });

  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_TRUE(result.events[0].coldRestart);
  EXPECT_EQ(result.events[0].restoredStep, 0u);
  EXPECT_EQ(result.finalStep, 12u);
  expectMatchesReference(u, reference);
}

TEST(Recovery, ServingPlaneSurvivesNonRootDeath) {
  const auto lat = tubeLattice();
  partition::MultilevelKWayPartitioner kway;

  auto cfg = plainDriverConfig();
  cfg.checkpointEvery = 4;
  cfg.statusEvery = 2;

  core::RecoveryConfig rcfg;
  rcfg.liveness = {true, 2000, 5};
  rcfg.buddy = true;

  serve::SessionBroker broker;
  serve::ServeClient client(broker.connect());
  client.subscribe(serve::StreamKind::kStatus, 2);

  util::FaultScope scope(37);
  util::FaultRule rule;
  rule.site = util::FaultSite::kDriverStep;
  rule.action = util::FaultAction::kKill;
  rule.rank = 2;  // not the broker's home rank
  rule.afterHits = 7;
  rule.maxFires = 1;
  scope.rule(rule);

  core::ResilientRunner runner(lat, kway, cfg, rcfg);
  const auto result = runner.run(4, 20, {}, &broker);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_EQ(result.events.size(), 1u);

  // The client's subscription kept streaming across the recovery: status
  // reports arrived from steps both before and after the kill.
  std::uint64_t minStep = ~std::uint64_t{0};
  std::uint64_t maxStep = 0;
  while (auto event = client.pollEvent()) {
    if (event->type == steer::MsgType::kStatus) {
      minStep = std::min(minStep, event->status.step);
      maxStep = std::max(maxStep, event->status.step);
    }
  }
  EXPECT_LE(minStep, 8u);
  EXPECT_GE(maxStep, 16u);
  broker.closeAll();
}

TEST(Recovery, RootDeathDegradesToSolverOnlyAndCompletes) {
  const auto lat = tubeLattice();
  partition::MultilevelKWayPartitioner kway;
  const auto reference = serialReference(lat, 16);

  auto cfg = plainDriverConfig();
  cfg.checkpointEvery = 4;
  cfg.statusEvery = 2;

  core::RecoveryConfig rcfg;
  rcfg.liveness = {true, 2000, 5};
  rcfg.buddy = true;

  serve::SessionBroker broker;
  serve::ServeClient client(broker.connect());
  client.subscribe(serve::StreamKind::kStatus, 2);

  util::FaultScope scope(41);
  util::FaultRule rule;
  rule.site = util::FaultSite::kDriverStep;
  rule.action = util::FaultAction::kKill;
  rule.rank = 0;  // the broker's home rank dies
  rule.afterHits = 5;
  rule.maxFires = 1;
  scope.rule(rule);

  std::vector<Vec3d> u(lat.numFluidSites());
  core::ResilientRunner runner(lat, kway, cfg, rcfg);
  const auto result = runner.run(
      4, 16,
      [&](const lb::DomainMap& domain, core::SimulationDriver& driver,
          comm::Communicator&) { collectU(domain, driver.solver(), u); },
      &broker);

  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.survivors, 3);
  EXPECT_EQ(result.finalStep, 16u);
  expectMatchesReference(u, reference);
  broker.closeAll();
}

// --- bounded teardown --------------------------------------------------------

TEST(Runtime, TeardownJoinIsBoundedWhenARankIsWedged) {
  // Legacy (non-tolerant) mode: rank 1 is provably wedged at a fault site
  // (never inside a mailbox wait, so aborting mailboxes cannot wake it)
  // before rank 0 fails. The bounded join must escalate — declare the
  // straggler dead, which releases the hang — and rethrow rank 0's error
  // instead of blocking forever.
  util::FaultScope scope(43);  // armed so hangUntilReleased is the real one
  std::atomic<bool> wedged{false};
  comm::Runtime rt(2);
  comm::RunOptions opt;
  opt.joinTimeoutSeconds = 1.0;
  WallTimer timer;
  EXPECT_THROW(rt.run(
                   [&](comm::Communicator& comm) {
                     if (comm.rank() == 1) {
                       wedged.store(true);
                       util::FaultInjector::instance().hangUntilReleased(1);
                     }
                     while (!wedged.load()) {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(1));
                     }
                     throw util::InjectedFaultError("deliberate failure");
                   },
                   opt),
               util::InjectedFaultError);
  // The join waited out the (1 s) teardown window before escalating, and
  // came nowhere near the 120 s deadlock backstop.
  EXPECT_GT(timer.seconds(), 0.5);
  EXPECT_LT(timer.seconds(), 30.0);
}

}  // namespace
}  // namespace hemo

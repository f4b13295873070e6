// Live repartitioning tests: the cross-rank site migration data plane
// (distribution repacking onto a rebuilt DomainMap, and the typed failures
// of the redistribute() routine it shares with the restores), the driver's
// telemetry-driven trigger policy (hysteresis, sentinel gate), and the
// invariants the tentpole promises — a migrated run is bit-equivalent to an
// unmigrated reference, a refused migration leaves the run on its old
// partition, checkpoints restore across a migration epoch, and the serving
// plane (octree context, broker subscriptions) survives the ownership
// handoff.
//
// Registered under the `resilience` ctest label and the TSan sweep
// (tests/run_tsan.sh): migration interleaves bulk alltoall traffic with
// solver/ghost/octree rebuilds across simulated rank threads.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <vector>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/checkpoint.hpp"
#include "lb/migration.hpp"
#include "lb/redistribute.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "serve/broker.hpp"
#include "serve/client.hpp"

namespace hemo {
namespace {

geometry::SparseLattice tubeLattice(double length = 4.0) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.3;
  return geometry::voxelize(geometry::makeStraightTube(length, 1.0), opt);
}

core::DriverConfig plainDriverConfig() {
  core::DriverConfig dcfg;
  dcfg.lb.tau = 0.8;
  dcfg.lb.bodyForce = {1e-5, 0, 0};
  dcfg.computeWss = false;
  dcfg.visEvery = 0;
  dcfg.statusEvery = 0;
  return dcfg;
}

/// Synthetic measured cost: sites owned by rank 0 under `part` are
/// expensive, everything else cheap — exactly the shape a hot ROI produces.
std::vector<double> skewedCosts(const partition::Partition& part,
                                double hot = 4.0) {
  std::vector<double> cost(part.partOfSite.size(), 1.0);
  for (std::size_t g = 0; g < cost.size(); ++g) {
    if (part.partOfSite[g] == 0) cost[g] = hot;
  }
  return cost;
}

/// A solver's full state (all kQ distributions + macro fields) assembled
/// into global arrays for cross-run comparison. Pre-sized before rt.run();
/// every simulated rank fills only its owned (disjoint) entries.
struct GlobalState {
  std::vector<std::vector<double>> f;  // [q][globalSite]
  std::vector<double> rho;
  std::vector<Vec3d> u;

  explicit GlobalState(std::uint64_t numSites)
      : f(lb::SolverD3Q19::kQ, std::vector<double>(numSites, 0.0)),
        rho(numSites, 0.0),
        u(numSites) {}
};

void collectState(const lb::DomainMap& domain, lb::SolverD3Q19& solver,
                  GlobalState& out) {
  std::vector<double> col;
  for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
    solver.gatherDistribution(i, col);
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      out.f[static_cast<std::size_t>(i)][domain.globalOf(l)] = col[l];
    }
  }
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    out.rho[domain.globalOf(l)] = solver.macro().rho[l];
    out.u[domain.globalOf(l)] = solver.macro().u[l];
  }
}

// --- data plane -------------------------------------------------------------

TEST(Migration, RepacksDistributionsOntoNewOwnership) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  // Flip ownership of every site: the worst case, everything migrates.
  partition::Partition flipped = part;
  for (auto& p : flipped.partOfSite) p = 1 - p;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::LbParams params;
    params.tau = 0.8;
    params.bodyForce = {1e-5, 0, 0};
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(3);

    lb::DomainMap newDomain(lat, flipped, comm.rank());
    std::vector<std::vector<double>> columns;
    const auto stats =
        lb::migrateDistributions(solver, newDomain, comm, columns);
    EXPECT_EQ(stats.sitesMoved, lat.numFluidSites());
    EXPECT_EQ(stats.bytesMoved,
              lat.numFluidSites() *
                  (sizeof(std::uint64_t) +
                   lb::SolverD3Q19::kQ * sizeof(double)));

    // Each migrated column must hold, bit-exact, the values the old owner
    // had for the same global site.
    std::vector<double> oldCol;
    for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
      solver.gatherDistribution(i, oldCol);
      // Old rank r owns site g iff new rank 1-r owns it; compare through
      // the exchanged columns of the peer by allgathering old columns.
      const auto oldAll = comm.allgatherVec(oldCol);
      for (std::uint32_t nl = 0; nl < newDomain.numOwned(); ++nl) {
        const auto g = newDomain.globalOf(nl);
        const int oldOwner = part.partOfSite[static_cast<std::size_t>(g)];
        lb::DomainMap oldView(lat, part, oldOwner);
        const auto ol = oldView.localOf(g);
        ASSERT_GE(ol, 0);
        EXPECT_EQ(columns[static_cast<std::size_t>(i)][nl],
                  oldAll[static_cast<std::size_t>(oldOwner)]
                        [static_cast<std::size_t>(ol)]);
      }
    }
  });
}

// --- redistribute on malformed input ---------------------------------------

/// Each rank passes one block, its owned sites with their current
/// populations, after `tamper` has edited it.
using Tamper = std::function<void(int rank, const lb::DomainMap& domain,
                                  lb::SiteBlock& block)>;

/// On 2 ranks, every rank must get the same non-ok `want`, nothing to
/// apply, and a solver whose distributions are untouched.
void expectRedistributeRejects(lb::RedistributeStatus want,
                               const Tamper& tamper) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  std::vector<lb::RedistributeStatus> seen(2, lb::RedistributeStatus::kOk);

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::LbParams params;
    params.tau = 0.8;
    params.bodyForce = {1e-5, 0, 0};
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(2);

    constexpr int kQ = lb::SolverD3Q19::kQ;
    std::vector<lb::SiteBlock> blocks(1);
    blocks[0].ids = domain.ownedIds();
    blocks[0].f.resize(kQ);
    for (int i = 0; i < kQ; ++i) {
      solver.gatherDistribution(i, blocks[0].f[static_cast<std::size_t>(i)]);
    }
    const auto before = blocks[0].f;
    // Doubled values, so that an applied result would show.
    for (auto& column : blocks[0].f) {
      for (double& v : column) v *= 2.0;
    }
    tamper(comm.rank(), domain, blocks[0]);
    const auto result = lb::redistribute(domain, comm, blocks, kQ);
    seen[static_cast<std::size_t>(comm.rank())] = result.status;
    EXPECT_TRUE(result.columns.empty());
    if (result.ok()) solver.setDistributions(result.columns);

    std::vector<double> after;
    for (int i = 0; i < kQ; ++i) {
      solver.gatherDistribution(i, after);
      ASSERT_EQ(after, before[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(solver.stepsDone(), 2u);
  });
  EXPECT_EQ(seen[0], want) << lb::redistributeStatusName(seen[0]);
  EXPECT_EQ(seen[1], want) << lb::redistributeStatusName(seen[1]);
}

TEST(Redistribute, SiteSentByTwoRanksFailsOnEveryRank) {
  // Rank 1 also sends rank 0's first site: rank 0 receives it twice.
  expectRedistributeRejects(
      lb::RedistributeStatus::kDuplicate,
      [](int rank, const lb::DomainMap& domain, lb::SiteBlock& block) {
        if (rank != 1) return;
        std::uint64_t stolen = 0;
        while (domain.ownerOf(stolen) != 0) ++stolen;
        block.ids.push_back(stolen);
        for (auto& column : block.f) column.push_back(0.5);
      });
}

TEST(Redistribute, IdBeyondTheLatticeFailsOnEveryRank) {
  expectRedistributeRejects(
      lb::RedistributeStatus::kIdOutOfRange,
      [](int rank, const lb::DomainMap& domain, lb::SiteBlock& block) {
        if (rank != 0) return;
        block.ids.push_back(domain.lattice().numFluidSites());
        for (auto& column : block.f) column.push_back(0.5);
      });
}

TEST(Redistribute, SiteNobodySendsFailsOnEveryRank) {
  // Rank 1 drops its last owned site, so nobody covers it.
  expectRedistributeRejects(
      lb::RedistributeStatus::kUncovered,
      [](int rank, const lb::DomainMap&, lb::SiteBlock& block) {
        if (rank != 1) return;
        block.ids.pop_back();
        for (auto& column : block.f) column.pop_back();
      });
}

// --- tentpole equivalence ---------------------------------------------------

TEST(Migration, MigratedRunMatchesUnmigratedReference) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const auto cfg = plainDriverConfig();

  // Reference: 20 uninterrupted steps on the original partition, plus one
  // pipeline run for the octree context view.
  GlobalState reference(lat.numFluidSites());
  std::vector<multires::OctreeNode> referenceNodes;
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.run(20);
      driver.runPipelineNow();
      collectState(domain, driver.solver(), reference);
      if (comm.rank() == 0) {
        referenceNodes = driver.lastOutputs().contextNodes;
      }
    });
  }

  // Migrated run: 10 steps, live migration under a skewed synthetic cost
  // field, 10 more steps. State and octree context must match the
  // reference to 1e-13 (the migration itself is bit-exact; the solver
  // arithmetic per site is partition-independent).
  GlobalState migrated(lat.numFluidSites());
  std::vector<multires::OctreeNode> migratedNodes;
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.run(10);
      const auto outcome = driver.migrateNow(skewedCosts(part));
      EXPECT_TRUE(outcome.migrated);
      EXPECT_GT(outcome.sitesMoved, 0u);
      EXPECT_GT(outcome.imbalanceBefore, 1.10);
      EXPECT_LT(outcome.imbalanceAfter, outcome.imbalanceBefore);
      EXPECT_EQ(driver.migrationEpoch(), 1u);
      EXPECT_EQ(driver.solver().stepsDone(), 10u);
      // The driver now runs on its own rebuilt domain.
      EXPECT_NE(&driver.domain(), &domain);
      driver.run(10);
      EXPECT_EQ(driver.solver().stepsDone(), 20u);
      driver.runPipelineNow();
      collectState(driver.domain(), driver.solver(), migrated);
      if (comm.rank() == 0) {
        migratedNodes = driver.lastOutputs().contextNodes;
      }
    });
  }

  for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
    for (std::size_t g = 0; g < reference.f[0].size(); ++g) {
      ASSERT_NEAR(migrated.f[static_cast<std::size_t>(i)][g],
                  reference.f[static_cast<std::size_t>(i)][g], 1e-13)
          << "direction " << i << " site " << g;
    }
  }
  for (std::size_t g = 0; g < reference.rho.size(); ++g) {
    ASSERT_NEAR(migrated.rho[g], reference.rho[g], 1e-13);
    ASSERT_NEAR((migrated.u[g] - reference.u[g]).norm(), 0.0, 1e-13);
  }
  // Octree ownership handoff: the cross-rank merged context is exact, so
  // the rebuilt octree must reproduce the reference context node for node.
  ASSERT_EQ(migratedNodes.size(), referenceNodes.size());
  for (std::size_t i = 0; i < referenceNodes.size(); ++i) {
    EXPECT_EQ(migratedNodes[i].key, referenceNodes[i].key);
    EXPECT_EQ(migratedNodes[i].count, referenceNodes[i].count);
    EXPECT_NEAR(migratedNodes[i].meanScalar, referenceNodes[i].meanScalar,
                1e-6);
  }
}

TEST(Migration, CheckpointRestoresAcrossMigrationEpoch) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const std::string dir = "/tmp/hemo_test_migration_ckpt";
  std::filesystem::remove_all(dir);

  auto cfg = plainDriverConfig();
  cfg.checkpointEvery = 5;
  cfg.checkpointDir = dir;
  cfg.checkpointKeep = 2;

  // Run A: checkpoint at 5 (pre-migration partition), migrate at 6,
  // checkpoint at 10 (post-migration partition), stop at 12.
  GlobalState stateA(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.run(6);
      const auto outcome = driver.migrateNow(skewedCosts(part));
      EXPECT_TRUE(outcome.migrated);
      driver.run(6);
      collectState(driver.domain(), driver.solver(), stateA);
    });
  }

  // Run B: a fresh job on the *original* partition restores the newest
  // checkpoint — written at step 10 under the *migrated* partition — and
  // finishes. readCheckpoint routes sites by current ownership, so the
  // epoch boundary is invisible; final state must match run A to 1e-13.
  GlobalState stateB(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      const auto r = driver.restoreLatest();
      EXPECT_TRUE(r.ok()) << r.detail;
      EXPECT_EQ(r.step, 10u);
      driver.run(2);
      EXPECT_EQ(driver.solver().stepsDone(), 12u);
      collectState(driver.domain(), driver.solver(), stateB);
    });
  }
  for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
    for (std::size_t g = 0; g < stateA.f[0].size(); ++g) {
      ASSERT_NEAR(stateB.f[static_cast<std::size_t>(i)][g],
                  stateA.f[static_cast<std::size_t>(i)][g], 1e-13);
    }
  }
  for (std::size_t g = 0; g < stateA.rho.size(); ++g) {
    ASSERT_NEAR(stateB.rho[g], stateA.rho[g], 1e-13);
    ASSERT_NEAR((stateB.u[g] - stateA.u[g]).norm(), 0.0, 1e-13);
  }
  std::filesystem::remove_all(dir);
}

TEST(Migration, DivergedPlanKeepsOldPartitionAndRunContinues) {
  // Rank 0 asks for a rebalance under a lopsided cost field, rank 1 under a
  // uniform one, so their plans differ. Every rank must refuse the
  // migration together (a rank skipping the transfer alone would deadlock
  // the others) and carry on, on the old partition.
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);
  const auto cfg = plainDriverConfig();

  GlobalState reference(lat.numFluidSites());
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.run(20);
      collectState(domain, driver.solver(), reference);
    });
  }

  GlobalState continued(lat.numFluidSites());
  std::vector<int> migrated(2, -1);
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lat, part, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.run(10);
      const auto cost =
          comm.rank() == 0
              ? skewedCosts(part)
              : std::vector<double>(lat.numFluidSites(), 1.0);
      const auto outcome = driver.migrateNow(cost);
      migrated[static_cast<std::size_t>(comm.rank())] =
          outcome.migrated ? 1 : 0;
      EXPECT_EQ(driver.migrationEpoch(), 0u);
      EXPECT_EQ(&driver.domain(), &domain);
      if (auto* t = telemetry::threadTelemetry()) {
        EXPECT_EQ(t->metrics().counter("repart.failed").value(), 1u);
        EXPECT_EQ(t->metrics().counter("repart.migrations").value(), 0u);
      }
      driver.run(10);
      EXPECT_EQ(driver.solver().stepsDone(), 20u);
      collectState(domain, driver.solver(), continued);
    });
  }
  EXPECT_EQ(migrated, (std::vector<int>{0, 0}));
  for (int i = 0; i < lb::SolverD3Q19::kQ; ++i) {
    for (std::size_t g = 0; g < reference.f[0].size(); ++g) {
      ASSERT_NEAR(continued.f[static_cast<std::size_t>(i)][g],
                  reference.f[static_cast<std::size_t>(i)][g], 1e-13)
          << "direction " << i << " site " << g;
    }
  }
  for (std::size_t g = 0; g < reference.rho.size(); ++g) {
    ASSERT_NEAR(continued.rho[g], reference.rho[g], 1e-13);
    ASSERT_NEAR((continued.u[g] - reference.u[g]).norm(), 0.0, 1e-13);
  }
}

// --- trigger policy ---------------------------------------------------------

/// A deliberately lopsided 2-part split: rank 0 gets roughly `fraction` of
/// the sites (a contiguous id prefix), rank 1 the rest.
partition::Partition lopsidedPartition(std::uint64_t numSites,
                                       double fraction) {
  partition::Partition p;
  p.numParts = 2;
  const auto cut = static_cast<std::uint64_t>(
      static_cast<double>(numSites) * fraction);
  p.partOfSite.resize(numSites);
  for (std::uint64_t g = 0; g < numSites; ++g) {
    p.partOfSite[static_cast<std::size_t>(g)] = g < cut ? 0 : 1;
  }
  return p;
}

TEST(MigrationPolicy, TelemetryTriggerRebalancesLopsidedRun) {
  const auto lat = tubeLattice();
  // Rank 1 owns ~90% of the sites: its busy time dominates each window, so
  // the measured imbalance sits near 1.8 — far over threshold.
  const auto part = lopsidedPartition(lat.numFluidSites(), 0.1);

  auto cfg = plainDriverConfig();
  cfg.repartition.repartitionEvery = 5;
  cfg.repartition.imbalanceThreshold = 1.25;
  cfg.repartition.triggerWindows = 2;
  cfg.repartition.cooldownWindows = 1;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    EXPECT_EQ(driver.run(40), 40);
    EXPECT_GE(driver.migrationEpoch(), 1u);
    EXPECT_EQ(driver.solver().stepsDone(), 40u);
    // Ownership genuinely rebalanced: the site-count imbalance must have
    // dropped from ~1.8 toward parity.
    const auto owned = comm.allgather<std::uint64_t>(driver.domain().numOwned());
    const double hi = static_cast<double>(std::max(owned[0], owned[1]));
    const double total = static_cast<double>(owned[0] + owned[1]);
    EXPECT_LT(2.0 * hi / total, 1.4);
    // repart.* telemetry recorded on every rank.
    if (auto* t = telemetry::threadTelemetry()) {
      EXPECT_GE(t->metrics().counter("repart.migrations").value(), 1u);
      EXPECT_GE(t->metrics().counter("repart.sites_moved").value(), 1u);
    }
  });
}

TEST(MigrationPolicy, SentinelVetoesMigrationOfPoisonedState) {
  const auto lat = tubeLattice();
  const auto part = lopsidedPartition(lat.numFluidSites(), 0.1);

  auto cfg = plainDriverConfig();
  cfg.repartition.repartitionEvery = 5;
  cfg.repartition.imbalanceThreshold = 1.25;
  cfg.repartition.triggerWindows = 2;
  // Sentinel enabled but never due inside the run loop — only the
  // migration gate consults it. The density band excludes rho ~ 1, so
  // every check reports "poisoned": migration must never proceed.
  cfg.sentinel.checkEvery = 1 << 20;
  cfg.sentinel.minDensity = 2.0;
  cfg.sentinel.maxDensity = 3.0;

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    EXPECT_EQ(driver.run(30), 30);
    EXPECT_EQ(driver.migrationEpoch(), 0u);
    EXPECT_EQ(&driver.domain(), &domain);
    if (auto* t = telemetry::threadTelemetry()) {
      EXPECT_GE(t->metrics().counter("repart.vetoed").value(), 1u);
      EXPECT_EQ(t->metrics().counter("repart.migrations").value(), 0u);
    }
  });
}

// --- serving plane ----------------------------------------------------------

TEST(MigrationServing, BrokerSubscriptionsSurviveMigration) {
  const auto lat = tubeLattice();
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  const auto part = kway.partition(graph, 2);

  auto cfg = plainDriverConfig();
  cfg.statusEvery = 2;

  serve::SessionBroker broker;
  serve::ServeClient client(broker.connect());
  client.subscribe(serve::StreamKind::kStatus, 2);

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.run(6);
    const auto outcome = driver.migrateNow(skewedCosts(part));
    EXPECT_TRUE(outcome.migrated);
    // The subscription machinery is domain-stateless: the same client
    // keeps receiving post-migration status frames without resubscribing.
    driver.run(6);
    EXPECT_TRUE(driver.brokerHealthy());
  });

  std::uint64_t lastStatusStep = 0;
  while (auto event = client.pollEvent()) {
    if (event->type == steer::MsgType::kStatus) {
      lastStatusStep = std::max(lastStatusStep, event->status.step);
    }
  }
  EXPECT_GE(lastStatusStep, 8u);
}

}  // namespace
}  // namespace hemo

// Core co-design framework tests: pre-processing chain (including the
// vis-aware balance equation), the Fig 3 pipeline, the perf model, and the
// full Fig 2 closed loop with a live steering client.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/perf_model.hpp"
#include "core/preprocess.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "steer/session.hpp"
#include "util/stats.hpp"

namespace hemo::core {
namespace {

geometry::SparseLattice aneurysmLattice(double voxel = 0.25) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.0), opt);
}

// --- preprocess ------------------------------------------------------------------

TEST(Preprocess, AllPartitionerNamesWork) {
  const auto lat = aneurysmLattice(0.3);
  for (const char* name :
       {"block", "sfc", "hilbert", "rcb", "greedy", "kway"}) {
    PreprocessConfig cfg;
    cfg.partitioner = name;
    const auto report = preprocess(lat, 4, cfg);
    EXPECT_EQ(report.partitionerName, name);
    EXPECT_EQ(report.partition.numParts, 4);
    EXPECT_GT(report.metrics.edgeCut, 0u);
    EXPECT_GE(report.seconds, 0.0);
  }
  PreprocessConfig bad;
  bad.partitioner = "magic";
  EXPECT_THROW(preprocess(lat, 4, bad), CheckError);
}

TEST(Preprocess, VisAwareWeightsShiftSites) {
  const auto lat = aneurysmLattice(0.3);
  // Vis work concentrated in the aneurysm half (x > 2.5).
  PreprocessConfig visAware;
  visAware.partitioner = "sfc";
  visAware.visAware = true;
  visAware.visCostFactor = 4.0;
  visAware.visRegion = [](const Vec3d& w) { return w.x > 2.5; };

  PreprocessConfig blind = visAware;
  blind.visAware = false;

  const auto pa = preprocess(lat, 4, visAware);
  const auto pb = preprocess(lat, 4, blind);

  // Under the *true* (vis-inclusive) cost, the vis-aware partition is
  // better balanced than the vis-blind one.
  const auto cost = makeSiteCosts(lat, visAware);
  auto trueImbalance = [&](const partition::Partition& p) {
    std::vector<double> loads(4, 0.0);
    for (std::size_t g = 0; g < cost.size(); ++g) {
      loads[static_cast<std::size_t>(p.partOfSite[g])] += cost[g];
    }
    return imbalanceFactor(loads);
  };
  EXPECT_LT(trueImbalance(pa.partition), 1.1);
  EXPECT_GT(trueImbalance(pb.partition), trueImbalance(pa.partition) + 0.1);
}

// --- perf model ---------------------------------------------------------------------

TEST(PerfModel, MaxRankDominates) {
  std::vector<RankCost> ranks{{1.0, 0, 0}, {2.0, 0, 0}, {0.5, 0, 0}};
  EXPECT_DOUBLE_EQ(modeledParallelSeconds(ranks), 2.0);
}

TEST(PerfModel, CommTermsAdd) {
  CostModel model;
  model.alphaPerMessage = 1e-3;
  model.betaPerByte = 1e-6;
  std::vector<RankCost> ranks{{1.0, 10, 1000}};
  EXPECT_NEAR(modeledParallelSeconds(ranks, model), 1.0 + 0.01 + 0.001,
              1e-12);
}

TEST(PerfModel, SpeedupAgainstSerial) {
  std::vector<RankCost> ranks{{1.0, 0, 0}, {1.0, 0, 0}};
  EXPECT_NEAR(modeledSpeedup(4.0, ranks), 4.0, 1e-12);
}

// --- pipeline --------------------------------------------------------------------------

TEST(Pipeline, StagesRunInOrderWithTimings) {
  const auto lat = aneurysmLattice(0.3);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.tau = 0.8;
    dcfg.lb.bodyForce = {1e-5, 0, 0};
    dcfg.lb.computeStress = true;
    dcfg.render.width = 48;
    dcfg.render.height = 48;
    dcfg.render.camera.position = {2.5, 0.5, 8.0};
    dcfg.render.camera.target = {2.5, 0.5, 0.0};
    dcfg.streamSeeds = vis::discSeeds({0.4, 0, 0}, {1, 0, 0}, 0.6, 8);
    dcfg.visEvery = 0;     // manual pipeline runs only
    dcfg.statusEvery = 0;
    SimulationDriver driver(domain, comm, dcfg);
    driver.run(30);
    driver.runPipelineNow();

    const auto& out = driver.lastOutputs();
    EXPECT_GT(out.maxSpeed, 0.0);
    EXPECT_GE(out.maxSpeed, out.meanSpeed);
    EXPECT_GT(out.meanWss, 0.0);
    if (comm.rank() == 0) {
      EXPECT_FALSE(out.contextNodes.empty());
      EXPECT_GT(out.volumeImage.numPixels(), 0u);
      EXPECT_FALSE(out.streamlines.empty());
    }
    auto& pipe = driver.pipeline();
    ASSERT_EQ(pipe.numStages(), 4u);
    EXPECT_STREQ(pipe.stageName(0), "extract");
    EXPECT_STREQ(pipe.stageName(3), "render");
    for (std::size_t i = 0; i < pipe.numStages(); ++i) {
      EXPECT_GT(pipe.stageSeconds(i), 0.0) << pipe.stageName(i);
    }
  });
}

TEST(Pipeline, ContextNodesCoverAllSites) {
  const auto lat = aneurysmLattice(0.3);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 3, cfg);
  comm::Runtime rt(3);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    dcfg.render.width = 16;
    dcfg.render.height = 16;
    SimulationDriver driver(domain, comm, dcfg);
    driver.run(3);
    driver.runPipelineNow();
    if (comm.rank() == 0) {
      std::uint64_t covered = 0;
      for (const auto& n : driver.lastOutputs().contextNodes) {
        covered += n.count;
      }
      EXPECT_EQ(covered, lat.numFluidSites());
    }
  });
}

// --- closed loop (Fig 2) ------------------------------------------------------------------

TEST(ClosedLoop, SteeringClientDrivesTheSimulation) {
  const auto lat = aneurysmLattice(0.3);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 3, cfg);

  auto [clientEnd, serverEnd] = comm::makeChannelPair();

  // The scripted user: asks for status, changes the viewpoint, requests a
  // frame, steers a simulation parameter, pauses/resumes, terminates.
  std::thread user([clientEnd = clientEnd]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command c;

    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    const auto status = client.awaitStatus();
    ASSERT_TRUE(status.has_value());
    EXPECT_GT(status->totalSites, 0u);
    EXPECT_TRUE(status->consistencyOk);

    c = {};
    c.type = steer::MsgType::kSetCamera;
    c.camera.position = {2.5, 0.5, 7.0};
    c.camera.target = {2.5, 0.5, 0.0};
    client.send(c);

    c = {};
    c.type = steer::MsgType::kRequestFrame;
    client.send(c);
    const auto frame = client.awaitImage();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->width, 32);
    EXPECT_EQ(frame->rgb.size(), 32u * 32u * 3u);

    c = {};
    c.type = steer::MsgType::kSetTau;
    c.value = 0.9;
    client.send(c);

    c = {};
    c.type = steer::MsgType::kSetRoi;
    c.roi = {{0, 0, 0}, {64, 64, 64}};
    c.roiLevel = 2;
    client.send(c);
    const auto roi = client.awaitRoi();
    ASSERT_TRUE(roi.has_value());
    EXPECT_FALSE(roi->nodes.empty());

    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });

  comm::Runtime rt(3);
  rt.run([&, serverEnd = serverEnd](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.tau = 0.8;
    dcfg.lb.bodyForce = {5e-6, 0, 0};
    dcfg.lb.computeStress = true;
    dcfg.render.width = 32;
    dcfg.render.height = 32;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    dcfg.plannedSteps = 100000;
    SimulationDriver driver(
        domain, comm, dcfg,
        comm.rank() == 0 ? serverEnd : comm::ChannelEnd{});
    // Plenty of headroom: the terminate command ends the run early.
    const int executed = driver.run(2000000);
    EXPECT_TRUE(driver.terminated());
    EXPECT_LT(executed, 2000000);
    // The steered tau reached every rank.
    EXPECT_DOUBLE_EQ(driver.solver().params().tau, 0.9);
  });
  user.join();
}

TEST(ClosedLoop, PauseFreezesStepsUntilResume) {
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);
  auto [clientEnd, serverEnd] = comm::makeChannelPair();

  std::thread user([clientEnd = clientEnd]() mutable {
    steer::SteeringClient client(clientEnd);
    steer::Command c;
    c.type = steer::MsgType::kPause;
    client.send(c);
    ASSERT_TRUE(client.awaitAck().has_value());
    // While paused, status must report paused with a frozen step count.
    c = {};
    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    const auto s1 = client.awaitStatus();
    ASSERT_TRUE(s1.has_value());
    EXPECT_EQ(s1->paused, 1);
    c = {};
    c.type = steer::MsgType::kRequestStatus;
    client.send(c);
    const auto s2 = client.awaitStatus();
    ASSERT_TRUE(s2.has_value());
    EXPECT_EQ(s2->step, s1->step);
    c = {};
    c.type = steer::MsgType::kResume;
    client.send(c);
    c = {};
    c.type = steer::MsgType::kTerminate;
    client.send(c);
  });

  comm::Runtime rt(2);
  rt.run([&, serverEnd = serverEnd](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.render.width = 16;
    dcfg.render.height = 16;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    SimulationDriver driver(
        domain, comm, dcfg,
        comm.rank() == 0 ? serverEnd : comm::ChannelEnd{});
    driver.run(1000000);
    EXPECT_TRUE(driver.terminated());
  });
  user.join();
}

TEST(ClosedLoop, SteeringChannelFrameSequenceIsPinned) {
  // The exact frames a steering client sees over a 60-step run with
  // visEvery 5 and statusEvery 10: cadence images and status/telemetry
  // after each due step (none at step 0), an ack or a typed reject for
  // every command, and a requested frame answered once. Rank 0 sends the
  // commands between run() chunks, so each is polled at a fixed step.
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);
  auto [clientEnd, serverEnd] = comm::makeChannelPair();
  steer::SteeringClient client(clientEnd);

  comm::Runtime rt(2);
  rt.run([&, serverEnd = serverEnd](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.lb.bodyForce = {1e-5, 0, 0};
    dcfg.render.width = 16;
    dcfg.render.height = 16;
    dcfg.visEvery = 5;
    dcfg.statusEvery = 10;
    SimulationDriver driver(
        domain, comm, dcfg,
        comm.rank() == 0 ? serverEnd : comm::ChannelEnd{});
    const auto sendOnRoot = [&](steer::MsgType type, double value) {
      if (comm.rank() != 0) return;
      steer::Command c;
      c.type = type;
      c.value = value;
      client.send(c);
    };
    ASSERT_EQ(driver.run(3), 3);
    sendOnRoot(steer::MsgType::kSetTau, 0.85);  // id 1: applied at step 3
    sendOnRoot(steer::MsgType::kSetTau, 0.1);   // id 2: the guard rejects it
    ASSERT_EQ(driver.run(10), 10);
    sendOnRoot(steer::MsgType::kRequestStatus, 0.0);  // id 3 at step 13
    ASSERT_EQ(driver.run(9), 9);
    sendOnRoot(steer::MsgType::kRequestFrame, 0.0);  // id 4 at step 22
    ASSERT_EQ(driver.run(38), 38);
    EXPECT_DOUBLE_EQ(driver.solver().params().tau, 0.85);
  });

  std::vector<std::string> seen;
  while (auto frame = clientEnd.tryRecv()) {
    switch (steer::frameType(*frame)) {
      case steer::MsgType::kImageFrame:
        seen.push_back("image@" +
                       std::to_string(steer::decodeImage(*frame).step));
        break;
      case steer::MsgType::kStatus:
        seen.push_back("status@" +
                       std::to_string(steer::decodeStatus(*frame).step));
        break;
      case steer::MsgType::kTelemetry:
        seen.push_back("telemetry@" +
                       std::to_string(steer::decodeTelemetry(*frame).step));
        break;
      case steer::MsgType::kAck: {
        std::uint32_t id = 0;  // u32 command id behind the type byte
        std::memcpy(&id, frame->data() + 1, sizeof(id));
        seen.push_back("ack#" + std::to_string(id));
        break;
      }
      case steer::MsgType::kReject:
        seen.push_back("reject#" + std::to_string(
                                       steer::decodeReject(*frame).commandId));
        break;
      default:
        seen.push_back("type" + std::to_string(static_cast<int>(
                                    steer::frameType(*frame))));
        break;
    }
  }
  const std::vector<std::string> expected = {
      "ack#1",        "reject#2",     "image@5",      "image@10",
      "status@10",    "telemetry@10", "status@13",    "ack#3",
      "image@15",     "image@20",     "status@20",    "telemetry@20",
      "image@22",     "ack#4",        "image@25",     "image@30",
      "status@30",    "telemetry@30", "image@35",     "image@40",
      "status@40",    "telemetry@40", "image@45",     "image@50",
      "status@50",    "telemetry@50", "image@55",     "image@60",
      "status@60",    "telemetry@60"};
  EXPECT_EQ(seen, expected);
}

TEST(Driver, BatchRunWithoutSteeringWorks) {
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.lb.bodyForce = {1e-5, 0, 0};
    dcfg.render.width = 24;
    dcfg.render.height = 24;
    dcfg.visEvery = 5;
    dcfg.statusEvery = 0;
    SimulationDriver driver(domain, comm, dcfg);
    const int executed = driver.run(12);
    EXPECT_EQ(executed, 12);
    EXPECT_FALSE(driver.terminated());
    // visEvery=5 fired at steps 5 and 10.
    EXPECT_EQ(driver.lastOutputs().step, 10u);
  });
}

TEST(Driver, StatusConsistencyChecks) {
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.computeStress = true;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    dcfg.plannedSteps = 50;
    SimulationDriver driver(domain, comm, dcfg);
    driver.run(10);
    const auto status = driver.computeStatus();
    EXPECT_EQ(status.step, 10u);
    EXPECT_EQ(status.totalSites, lat.numFluidSites());
    EXPECT_TRUE(status.consistencyOk);
    EXPECT_GE(status.loadImbalance, 1.0);
    EXPECT_GT(status.stepsPerSecond, 0.0);
    EXPECT_GT(status.etaSeconds, 0.0);
  });
}

TEST(Driver, GoldenAneurysmRunMatchesRecordedValues) {
  // A fixed 200-step aneurysm run through the driver on 2 ranks. The
  // expected values were recorded with the scalar fused kernel that was
  // the driver default before the SIMD kernel took over, so this pins the
  // driver-level physics across kernel changes. Kernels agree to 1e-12 per
  // site on every field (test_lb_fused), which bounds the admissible
  // drift: 1e-12 per site summed for the mass, 1e-12 for a field maximum.
  constexpr double kMass = 1252.0000310501832;
  constexpr double kPeakSpeed = 0.00044853523245532432;
  constexpr double kPeakWss = 2.3310247418266764e-05;
  constexpr double kFieldTol = 1e-12;
  constexpr int kCoveredPixels = 46;
  // 16x16 RGB, half an image row per line.
  constexpr const char* kFrameRgbHex =
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141415141415141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141415141416151517141416141415"
      "141414141414141414141414141414141414141414141414"
      "14141414141414141416161a1a1a201c1b231b1a2216161a"
      "141414141414141414141414141414141414141414141414"
      "463d41433a3e4c40435a46494a4043413a3e4c41445a464a"
      "141414141414141414141414141414141414141414141414"
      "b25253b24f51b05254ae5a5c9a5a5c935a5d9b595ca95557"
      "141414141414141414141414141414141414141414141414"
      "b25253b25052ad5456aa5c5e98585b925a5d995a5ca55759"
      "141414141414141414141414141414141414141414141414"
      "463d413f383c3d373b363236342f34322e34343035373338"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414"
      "141414141414141414141414141414141414141414141414";

  const auto lat = aneurysmLattice(0.25);
  ASSERT_EQ(lat.numFluidSites(), 1252u);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 2, cfg);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    DriverConfig dcfg;
    dcfg.lb.tau = 0.8;
    dcfg.lb.bodyForce = {1e-5, 0, 0};
    dcfg.lb.computeStress = true;
    dcfg.visEvery = 0;
    dcfg.statusEvery = 0;
    dcfg.render.width = 16;
    dcfg.render.height = 16;
    // Ramp matched to the run's peak speed so the pinned frame has colour.
    dcfg.render.transfer = vis::TransferFunction::bloodFlow(0.f, 5e-4f);
    SimulationDriver driver(domain, comm, dcfg);
    ASSERT_EQ(driver.run(200), 200);
    driver.runPipelineNow();
    const auto status = driver.computeStatus();
    const auto& out = driver.lastOutputs();
    EXPECT_NEAR(status.totalMass, kMass,
                static_cast<double>(lat.numFluidSites()) * kFieldTol);
    EXPECT_NEAR(out.maxSpeed, kPeakSpeed, kFieldTol);
    EXPECT_NEAR(status.maxSpeed, kPeakSpeed, kFieldTol);
    EXPECT_NEAR(out.maxWss, kPeakWss, kFieldTol);
    // Final frame, recorded on the brute-force ray caster that preceded
    // the empty-space-skipping one: exact coverage, RGB bytes within 1.
    if (comm.rank() == 0) {
      const auto& img = out.volumeImage;
      ASSERT_EQ(img.numPixels(), 256u);
      int covered = 0;
      for (std::size_t i = 0; i < img.numPixels(); ++i) {
        if (img.depth(i) < vis::Image::kFarDepth) ++covered;
      }
      EXPECT_EQ(covered, kCoveredPixels);
      const auto rgb = img.toRgb8();
      const std::string hex(kFrameRgbHex);
      ASSERT_EQ(rgb.size() * 2, hex.size());
      for (std::size_t i = 0; i < rgb.size(); ++i) {
        const int expected = std::stoi(hex.substr(2 * i, 2), nullptr, 16);
        EXPECT_NEAR(rgb[i], expected, 1) << "byte " << i;
      }
    }
  });
}

TEST(Driver, RequiresStressForWss) {
  const auto lat = aneurysmLattice(0.35);
  PreprocessConfig cfg;
  const auto pre = preprocess(lat, 1, cfg);
  comm::Runtime rt(1);
  EXPECT_THROW(rt.run([&](comm::Communicator& comm) {
                 lb::DomainMap domain(lat, pre.partition, 0);
                 DriverConfig dcfg;
                 dcfg.computeWss = true;
                 dcfg.lb.computeStress = false;
                 SimulationDriver driver(domain, comm, dcfg);
               }),
               CheckError);
}

}  // namespace
}  // namespace hemo::core

// insitu-steered: every layer at once on an LLC-resident problem (~75k
// sites, three ranks). The driver renders every 10 steps, reports status
// and telemetry every 25, runs the sentinel every 25 and writes a disk
// checkpoint plus a buddy mirror every 50. Frames leave through the broker
// and one relay to two open-loop observers (one raw, one RLE-coded); one
// closed-loop steering client talks to the broker directly, moving the
// camera along a seeded orbit and requesting a frame, one request in
// flight and at most one per 10 steps. A single generator thread pumps the
// relay and all three clients.

#include <malloc.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "comm/runtime.hpp"
#include "core/preprocess.hpp"
#include "core/sentinel.hpp"
#include "harness.hpp"
#include "lb/buddy.hpp"
#include "lb/checkpoint.hpp"
#include "lb/domain_map.hpp"
#include "relay/relay.hpp"
#include "serve/broker.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace hemo;

constexpr int kRanks = 3;
constexpr int kVisEvery = 10;
constexpr int kStatusEvery = 25;
constexpr int kSentinelEvery = 25;
constexpr int kCheckpointEvery = 50;
constexpr int kSteerEvery = 10;
constexpr int kWarmupSteps = 20;
constexpr int kStopCheckEvery = 5;
constexpr std::size_t kMaxSteps = std::size_t{1} << 18;

/// Camera orbit around the vessel, generated from the seed: start phase,
/// direction and elevation. Twelve requests make one revolution, so every
/// run of more than a few seconds averages the render cost over all views.
struct Orbit {
  Vec3d centre;
  double radius = 8.0;
  double phase = 0.0;
  double increment = 0.0;
  double elevation = 0.0;

  vis::Camera at(int k) const {
    const double a = phase + increment * k;
    vis::Camera c;
    c.target = centre;
    c.position = centre + Vec3d{radius * std::cos(a) * std::cos(elevation),
                                radius * std::sin(elevation),
                                radius * std::sin(a) * std::cos(elevation)};
    return c;
  }
};

/// Inputs generated from the seed; the program sees only these values.
struct Inputs {
  Orbit orbit;
  /// Extra steps, in [0, kSteerEvery), the steering client waits after
  /// each answer on top of the kSteerEvery minimum (request k uses entry
  /// k modulo the table size), so requests land on every phase of the
  /// render cadence.
  std::vector<int> pacingOffsets;
};

Inputs generateInputs(std::uint64_t seed, const geometry::SparseLattice& lat) {
  constexpr double kTwoPi = 2.0 * 3.14159265358979;
  Rng rng(mixSeed(seed, 1));
  Inputs in;
  const auto b = lat.fluidBounds();
  const Vec3d lo = lat.origin() + b.lo.cast<double>() * lat.voxelSize();
  const Vec3d hi = lat.origin() + b.hi.cast<double>() * lat.voxelSize();
  in.orbit.centre = (lo + hi) * 0.5;
  in.orbit.radius = 1.3 * (hi - lo).norm();
  in.orbit.phase = rng.uniform(0.0, kTwoPi);
  in.orbit.increment = (rng.uniform() < 0.5 ? -1.0 : 1.0) * kTwoPi / 12.0;
  in.orbit.elevation = rng.uniform(-0.25, 0.25);
  in.pacingOffsets.resize(256);
  for (auto& o : in.pacingOffsets) {
    o = static_cast<int>(rng.uniformInt(kSteerEvery));
  }
  return in;
}

/// Everything the serving plane needs for one set-up: broker, relay,
/// observers behind the relay, and the steering client on the broker.
struct Session {
  serve::SessionBroker broker;
  relay::RelayNode relay;
  serve::ServeClient observers[2];
  serve::ServeClient steering;

  Session()
      : relay(broker.connect()),
        observers{serve::ServeClient(relay.connect()),
                  serve::ServeClient(relay.connect())},
        steering(broker.connect()) {
    serve::CodecConfig rle;
    rle.rleImage = true;
    // The relay forwards frames in the codec it negotiated upstream; the
    // observers' own codec requests are acknowledged but do not re-encode.
    relay.start(rle);
    observers[1].setCodec(rle);
    for (auto& o : observers) {
      o.subscribe(serve::StreamKind::kImage, kVisEvery);
      o.subscribe(serve::StreamKind::kStatus, kStatusEvery);
      o.subscribe(serve::StreamKind::kTelemetry, kStatusEvery);
    }
    // Admit the observers and forward their subscriptions upstream before
    // the first step, so every due frame from step kVisEvery on is owed.
    for (int i = 0; i < 4; ++i) relay.pump();
  }
};

/// What one observer received.
struct ObserverLog {
  std::vector<std::uint64_t> steps;  ///< distinct image steps, arrival order
  std::vector<double> latencyMs;     ///< measured-window frames only
  std::uint64_t outOfOrder = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t statusFrames = 0;
  std::uint64_t telemetryFrames = 0;
};

/// The closed-loop steering client's tally.
struct SteerLog {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t early = 0;     ///< answered with a frame older than the send
  std::uint64_t rejected = 0;
  std::vector<double> rttMs;
  std::vector<double> ackMs;
};

/// State shared between rank 0 and the generator thread.
struct Shared {
  std::vector<std::atomic<double>> stepStart =
      std::vector<std::atomic<double>>(kMaxSteps);
  std::atomic<std::uint64_t> currentStep{0};
  /// Rank 0 has run out of time: no new steering request may start.
  std::atomic<bool> closing{false};
  /// A steering request is in flight (set before `closing` is checked, so
  /// rank 0 either sees the request or the generator sees `closing`).
  std::atomic<bool> steerBusy{false};
  std::atomic<bool> stop{false};
};

bool isImage(steer::MsgType t) {
  return t == steer::MsgType::kImageFrame || t == steer::MsgType::kCodedImage;
}

bool decodable(const steer::ImageFrame& f) {
  return f.width > 0 && f.height > 0 &&
         f.rgb.size() == static_cast<std::size_t>(f.width) *
                             static_cast<std::size_t>(f.height) * 3;
}

/// The generator thread: pumps the relay, drains both observers and runs
/// the steering client's closed loop until told to stop, then drains until
/// every frame owed has arrived (bounded).
void generatorLoop(Session& s, Shared& shared, const Inputs& inputs,
                   ObserverLog (&obs)[2], SteerLog& steer,
                   LayerTotal& pump) {
  bool waiting = false;
  std::uint32_t cameraId = 0;
  double sentAt = 0.0;
  std::uint64_t sentStep = 0;
  int request = 0;
  const auto offset = [&](int k) {
    return static_cast<std::uint64_t>(
        inputs.pacingOffsets[static_cast<std::size_t>(k) %
                             inputs.pacingOffsets.size()]);
  };
  std::uint64_t nextSend = kWarmupSteps + offset(0);
  double drainDeadline = 0.0;

  const auto handleObserver = [&](ObserverLog& log,
                                  serve::ServeClient::Event& ev) {
    const double now = nowSeconds();
    if (ev.type == steer::MsgType::kStatus) ++log.statusFrames;
    if (ev.type == steer::MsgType::kTelemetry) ++log.telemetryFrames;
    if (!isImage(ev.type)) return;
    if (!decodable(ev.image)) {
      ++log.undecodable;
      return;
    }
    const std::uint64_t step = ev.image.step;
    if (!log.steps.empty() && step <= log.steps.back()) {
      // A frame requested by the steering client can repeat the step of
      // the scheduled one; anything older is out of order.
      if (step < log.steps.back()) ++log.outOfOrder;
      return;
    }
    log.steps.push_back(step);
    if (step > kWarmupSteps && step < kMaxSteps) {
      const double start = shared.stepStart[step].load();
      if (start > 0.0) log.latencyMs.push_back((now - start) * 1e3);
    }
  };

  for (;;) {
    int work = 0;
    {
      Span span(&pump);  // RelayNode::pump
      work += s.relay.pump();
    }
    for (int i = 0; i < 2; ++i) {
      while (auto ev = s.observers[i].pollEvent()) {
        ++work;
        handleObserver(obs[i], *ev);
      }
    }
    while (auto ev = s.steering.pollEvent()) {
      ++work;
      const double now = nowSeconds();
      if (ev->type == steer::MsgType::kAck && ev->ackId == cameraId &&
          waiting) {
        steer.ackMs.push_back((now - sentAt) * 1e3);
      } else if (ev->type == steer::MsgType::kReject ||
                 ev->type == steer::MsgType::kRejectedAfterRollback) {
        ++steer.rejected;
        waiting = false;
        shared.steerBusy.store(false);
      } else if (isImage(ev->type) && waiting) {
        ++steer.answered;
        if (ev->image.step < sentStep || !decodable(ev->image)) ++steer.early;
        steer.rttMs.push_back((now - sentAt) * 1e3);
        waiting = false;
        shared.steerBusy.store(false);
        nextSend = sentStep + kSteerEvery + offset(request);
      }
    }
    const bool stopping = shared.stop.load();
    const std::uint64_t step = shared.currentStep.load();
    if (!stopping && !waiting && step >= nextSend) {
      shared.steerBusy.store(true);
      if (shared.closing.load()) {
        shared.steerBusy.store(false);
        nextSend = ~std::uint64_t{0};
        continue;
      }
      steer::Command cam;
      cam.type = steer::MsgType::kSetCamera;
      cam.camera = inputs.orbit.at(request++);
      steer::Command frame;
      frame.type = steer::MsgType::kRequestFrame;
      sentStep = step;
      sentAt = nowSeconds();
      cameraId = s.steering.send(cam);
      s.steering.send(frame);
      ++steer.sent;
      waiting = true;
    }
    if (stopping) {
      const double now = nowSeconds();
      if (drainDeadline == 0.0) drainDeadline = now + 5.0;
      const std::uint64_t lastDue = step - step % kVisEvery;
      const bool drained =
          obs[0].steps.size() > 0 && obs[1].steps.size() > 0 &&
          obs[0].steps.back() >= lastDue && obs[1].steps.back() >= lastDue;
      if ((drained && !waiting) || now > drainDeadline) break;
    }
    if (work == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace

Result runInsituSteered(const Options& opt, bool traced, int setupReps,
                        double seconds) {
  // Blocks from 2 MiB up (checkpoint and mirror blobs, composited frames)
  // are mapped per allocation and unmapped when freed, instead of staying
  // in whichever per-thread malloc arena last held them. Without this the
  // peak RSS here depends on arena history and spreads up to 20% between
  // runs; with it, under 1%, at the price of a few percent of speed. The
  // other workloads keep the default: their peak RSS is steady, and the
  // extra page faults slow recovery by about 8%.
  ::mallopt(M_MMAP_THRESHOLD, 2 * 1024 * 1024);
  const double voxel = opt.smoke ? 0.2 : 0.07;
  const std::string ckptDir = opt.workdir + "/insitu_ckpt";
  Result r;
  std::vector<double> setupSeconds, voxelizeSeconds, partitionSeconds;
  partition::PartitionMetrics partMetrics;
  StepLog log;
  std::vector<RankSample> deltas(kRanks);
  std::vector<std::string> stageNames;
  std::uint64_t sites = 0, requested = 0, executed = 0, finalStep = 0;
  double loopWall = 0.0, distBytes = 0.0;
  /// Rank 0's spans around the calls the traced pass makes itself.
  LayerTotal sentinelCalls, checkpointCalls, mirrorCalls, statusCalls, pump;
  std::uint64_t checkpointBytes = 0;
  bool stable = true;
  int rollbacks = 0;
  ObserverLog obs[2];
  SteerLog steer;
  std::string generatorError;
  serve::BrokerStats brokerStats;
  std::uint64_t framesDropped = 0;
  relay::RelayStats relayStats;
  lb::LbParams params;
  Inputs inputs;

  for (int rep = 0; rep < setupReps; ++rep) {
    const bool last = rep + 1 == setupReps;
    releaseFreedMemory();
    std::filesystem::remove_all(ckptDir);
    std::filesystem::create_directories(ckptDir);
    const double t0 = nowSeconds();
    Span voxelizeSpan;  // geometry::voxelize
    const auto lattice = makeVessel(voxel);
    voxelizeSeconds.push_back(voxelizeSpan.stop());
    Span partitionSpan;  // core::preprocess
    const auto pre = core::preprocess(lattice, kRanks, {});
    partitionSeconds.push_back(partitionSpan.stop());
    sites = lattice.numFluidSites();
    partMetrics = pre.metrics;
    inputs = generateInputs(opt.seed, lattice);

    lb::BuddyStore buddy;
    core::DriverConfig cfg;
    cfg.lb.bodyForce = {1e-5, 0, 0};
    cfg.lb.computeStress = true;  // the default computeWss consumes it
    cfg.visEvery = kVisEvery;
    cfg.statusEvery = kStatusEvery;
    cfg.render.camera = inputs.orbit.at(0);
    if (!traced) {
      cfg.sentinel.checkEvery = kSentinelEvery;
      cfg.checkpointEvery = kCheckpointEvery;
      cfg.checkpointDir = ckptDir;
      cfg.buddy.store = &buddy;
      cfg.buddy.mirrorEvery = kCheckpointEvery;
    } else {
      // The benchmark makes these calls itself on the same cadence, each
      // inside its own span.
      cfg.statusEvery = 0;
    }
    params = cfg.lb;

    auto session = std::make_unique<Session>();
    auto shared = std::make_unique<Shared>();

    comm::Runtime rt(kRanks);
    rt.run([&](comm::Communicator& comm) {
      const bool root = comm.rank() == 0;
      lb::DomainMap domain(lattice, pre.partition, comm.rank());
      core::SimulationDriver driver(domain, comm, cfg);
      driver.attachBroker(root ? &session->broker : nullptr);
      comm.barrier();
      if (root) setupSeconds.push_back(nowSeconds() - t0);
      if (!last) return;
      // Rank 0 owns the generator; leaving this scope, normally or by an
      // exception, stops and joins it.
      std::thread generator;
      struct JoinOnExit {
        Shared& shared;
        std::thread& thread;
        ~JoinOnExit() {
          shared.stop.store(true);
          if (thread.joinable()) thread.join();
        }
      } joinOnExit{*shared, generator};
      if (root) {
        generator = std::thread([&] {
          try {
            generatorLoop(*session, *shared, inputs, obs, steer, pump);
          } catch (const std::exception& e) {
            generatorError = e.what();
          }
        });
      }

      core::SentinelConfig scfg;
      scfg.checkEvery = kSentinelEvery;
      core::StabilitySentinel sentinel(scfg);
      LayerTotal mySentinel, myCheckpoint, myMirror, myStatus;
      const auto oneStep = [&](bool record) {
        const std::uint64_t before = driver.solver().stepsDone();
        const std::uint64_t rendersBefore =
            driver.renderStage().rendersDone();
        const double s0 = nowSeconds();
        if (root && before + 1 < kMaxSteps) {
          shared->stepStart[before + 1].store(s0);
        }
        const int ran = driver.run(1);
        const std::uint64_t done = driver.solver().stepsDone();
        if (traced && done % kSentinelEvery == 0) {
          Span span(&mySentinel);  // StabilitySentinel::check
          const auto v = sentinel.check(comm, driver.solver().macro(), done);
          if (root && (!v.ok || !v.finite)) stable = false;
        }
        if (traced && done % kCheckpointEvery == 0) {
          {
            Span span(&myCheckpoint);  // lb::writeCheckpoint
            const auto bytes = lb::writeCheckpoint(
                ckptDir + "/" + lb::checkpointFileName(done),
                driver.solver(), comm, {cfg.checkpointStripes});
            if (root) {
              checkpointBytes += bytes;
              lb::pruneCheckpoints(ckptDir, cfg.checkpointKeep);
            }
          }
          Span span(&myMirror);  // lb::mirrorBuddy
          lb::mirrorBuddy(driver.solver(), comm, buddy);
        }
        if (traced && done % kStatusEvery == 0) {
          Span span(&myStatus);  // computeStatus + computeStepReport
          driver.computeStatus();
          driver.computeStepReport();
          if (root) session->broker.publishMetrics();
        }
        if (root) {
          shared->currentStep.store(done);
          if (record) {
            log.wall.push_back(nowSeconds() - s0);
            log.rendered.push_back(driver.renderStage().rendersDone() !=
                                   rendersBefore);
          }
        }
        return ran;
      };

      for (int i = 0; i < kWarmupSteps; ++i) oneStep(false);
      const auto before = RankSample::take(driver, comm);
      mySentinel = myCheckpoint = myMirror = myStatus = LayerTotal{};
      if (root) checkpointBytes = 0;
      comm.barrier();
      const double start = nowSeconds();
      std::uint64_t myRequested = 0, myExecuted = 0;
      for (;;) {
        myExecuted += static_cast<std::uint64_t>(oneStep(true));
        ++myRequested;
        if (myRequested % kStopCheckEvery != 0) continue;
        std::uint8_t more = 0;
        if (root) {
          // Out of time: stop once the steering request in flight (if
          // any) has been answered, within a bounded grace period.
          const double elapsed = nowSeconds() - start;
          more = elapsed < seconds;
          if (!more) {
            shared->closing.store(true);
            more = shared->steerBusy.load() && elapsed < seconds + 5.0;
          }
        }
        comm.bcast(more, 0);
        if (more == 0) break;
      }
      const double wall = nowSeconds() - start;
      deltas[static_cast<std::size_t>(comm.rank())] =
          RankSample::take(driver, comm).minus(before);

      core::SentinelConfig finalCfg;
      finalCfg.checkEvery = 1;
      core::StabilitySentinel finalCheck(finalCfg);
      const auto verdict = finalCheck.check(comm, driver.solver().macro(),
                                            driver.solver().stepsDone());
      const auto owned = comm.allreduceSum<std::uint64_t>(domain.numOwned());
      if (root) {
        loopWall = wall;
        sentinelCalls = mySentinel;
        checkpointCalls = myCheckpoint;
        mirrorCalls = myMirror;
        statusCalls = myStatus;
        requested = myRequested;
        executed = myExecuted;
        finalStep = driver.solver().stepsDone();
        if (!verdict.ok || !verdict.finite) stable = false;
        rollbacks = driver.rollbacksDone();
        distBytes = 2.0 * static_cast<double>(owned) * lb::SolverD3Q19::kQ *
                    sizeof(double);
        for (std::size_t i = 0; i < driver.pipeline().numStages(); ++i) {
          stageNames.emplace_back(driver.pipeline().stageName(i));
        }
        shared->stop.store(true);
        generator.join();
      }
    });
    if (last) {
      brokerStats = session->broker.stats();
      framesDropped = session->broker.totalFramesDropped();
      relayStats = session->relay.stats();
      session->relay.shutdown();
      session->broker.closeAll();
    }
  }
  std::filesystem::remove_all(ckptDir);

  // --- correctness ----------------------------------------------------------
  r.attempted = requested;
  if (executed != requested) {
    r.fail("steps executed " + std::to_string(executed) + " != requested " +
               std::to_string(requested),
           requested - executed);
  }
  if (!stable) r.fail("fields non-finite or outside the sentinel band");
  if (rollbacks != 0) r.fail("sentinel rolled back " + std::to_string(rollbacks));
  if (!generatorError.empty()) {
    r.fail("client generator failed: " + generatorError);
  }
  std::vector<std::uint64_t> due;
  for (std::uint64_t s = kVisEvery; s <= finalStep; s += kVisEvery) {
    due.push_back(s);
  }
  std::vector<double> frameMs;
  for (int i = 0; i < 2; ++i) {
    r.attempted += due.size();
    std::uint64_t missing = 0;
    std::size_t j = 0;
    for (const auto s : due) {
      while (j < obs[i].steps.size() && obs[i].steps[j] < s) ++j;
      if (j >= obs[i].steps.size() || obs[i].steps[j] != s) ++missing;
    }
    const std::string who = "observer " + std::to_string(i);
    if (missing > 0) {
      r.fail(who + " missed " + std::to_string(missing) + " due frames",
             missing);
    }
    if (obs[i].outOfOrder > 0) {
      r.fail(who + " got frames out of step order", obs[i].outOfOrder);
    }
    if (obs[i].undecodable > 0) {
      r.fail(who + " got undecodable frames", obs[i].undecodable);
    }
    if (obs[i].statusFrames == 0 || obs[i].telemetryFrames == 0) {
      r.fail(who + " got no status or telemetry frames");
    }
    frameMs.insert(frameMs.end(), obs[i].latencyMs.begin(),
                   obs[i].latencyMs.end());
  }
  r.attempted += steer.sent;
  if (steer.rejected > 0) {
    r.fail(std::to_string(steer.rejected) + " steering commands rejected",
           steer.rejected);
  }
  if (steer.early > 0) {
    r.fail(std::to_string(steer.early) +
               " steering answers older than the request",
           steer.early);
  }
  if (steer.answered + steer.rejected < steer.sent) {
    r.fail("steering requests left unanswered",
           steer.sent - steer.answered - steer.rejected);
  }
  if (steer.sent == 0) r.fail("no steering request was sent");

  // --- end-to-end -----------------------------------------------------------
  r.set("setup_s", median(setupSeconds), "s");
  r.set("mlups", mlups(sites, executed, loopWall), "MLUPS");
  r.set("step_ms_p50", median(log.wall) * 1e3, "ms");
  r.set("latency_ms_p50", median(frameMs), "ms");
  r.set("peak_rss_mb", static_cast<double>(peakRssBytes()) / 1e6, "MB");

  const auto frameTail = tailOf(frameMs);
  r.set("e2e.latency_ms_tail", frameTail.value, "ms");
  r.set("e2e.latency_tail_pct", frameTail.percentile, "pct");
  r.set("e2e.latency_samples", static_cast<double>(frameTail.samples),
        "count");
  r.set("e2e.frame_ms_p50", median(frameMs), "ms");
  r.set("e2e.frame_ms_tail", frameTail.value, "ms");
  const auto rttTail = tailOf(steer.rttMs);
  r.set("e2e.steer_rtt_ms_p50", median(steer.rttMs), "ms");
  r.set("e2e.steer_rtt_ms_tail", rttTail.value, "ms");
  r.set("e2e.steer_rtt_tail_pct", rttTail.percentile, "pct");
  r.set("e2e.steer_rtt_samples", static_cast<double>(rttTail.samples),
        "count");

  // --- per layer ------------------------------------------------------------
  r.set("geometry.voxelize_s", median(voxelizeSeconds), "s");
  r.set("partition.partition_s", median(partitionSeconds), "s");
  r.set("partition.edge_cut", static_cast<double>(partMetrics.edgeCut),
        "count");
  r.set("partition.site_imbalance", partMetrics.imbalance, "ratio");
  addSolverLayers(r, deltas, executed, stageNames);
  r.set("lb.dist_mb", distBytes / 1e6, "MB");
  r.set("lb.bytes_per_site", computedBytesPerSite(params), "B");
  r.set("mem.rss_bytes_per_site",
        static_cast<double>(peakRssBytes()) / static_cast<double>(sites),
        "B");
  r.set("core.render_step_extra_ms", log.renderExtra() * 1e3, "ms");

  r.set("lb.checkpoint_ms", checkpointCalls.msPerCall(), "ms");
  r.set("lb.checkpoint_mb",
        checkpointCalls.calls > 0
            ? static_cast<double>(checkpointBytes) / 1e6 /
                  static_cast<double>(checkpointCalls.calls)
            : 0.0,
        "MB");
  r.set("lb.buddy_mirror_ms", mirrorCalls.msPerCall(), "ms");
  r.set("core.sentinel_ms", sentinelCalls.msPerCall(), "ms");
  r.set("core.status_ms", statusCalls.msPerCall(), "ms");

  const double lookups =
      static_cast<double>(brokerStats.cacheHits + brokerStats.cacheMisses);
  r.set("serve.cache_hit_ratio",
        lookups > 0.0 ? static_cast<double>(brokerStats.cacheHits) / lookups
                      : 0.0,
        "ratio");
  r.set("serve.frames_dropped", static_cast<double>(framesDropped), "count");
  r.set("serve.wire_kb_per_frame",
        brokerStats.framesSent > 0
            ? static_cast<double>(brokerStats.wireBytes) / 1024.0 /
                  static_cast<double>(brokerStats.framesSent)
            : 0.0,
        "KiB");
  r.set("relay.frames_forwarded",
        static_cast<double>(relayStats.framesForwarded), "count");
  r.set("relay.levels_shed", static_cast<double>(relayStats.levelsShed),
        "count");
  r.set("relay.pump_ms_per_frame",
        relayStats.framesForwarded > 0
            ? pump.seconds * 1e3 /
                  static_cast<double>(relayStats.framesForwarded)
            : 0.0,
        "ms");
  r.set("steer.ack_ms_p50", median(steer.ackMs), "ms");
  r.set("steer.rejected", static_cast<double>(steer.rejected), "count");

  // Rank 0's step wall not covered by solver phases, vis stages and the
  // benchmark's own layer calls.
  const double rows = deltas[0].rowSeconds() + sentinelCalls.seconds +
                      checkpointCalls.seconds + mirrorCalls.seconds +
                      statusCalls.seconds;
  r.set("trace.unaccounted_share",
        loopWall > 0.0 ? 1.0 - rows / loopWall : 0.0, "ratio");
  r.wallPerUnit =
      executed > 0 ? loopWall / static_cast<double>(executed) : 0.0;

  recordProvenance(r, opt, params, sites, kRanks);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "phase=%.4f increment=%.4f elevation=%.4f radius=%.3f",
                inputs.orbit.phase, inputs.orbit.increment,
                inputs.orbit.elevation, inputs.orbit.radius);
  r.provenance["camera_orbit"] = buf;
  std::string offsets;
  for (std::size_t k = 0; k < 8; ++k) {
    offsets += std::to_string(inputs.pacingOffsets[k]) + " ";
  }
  r.provenance["steer_pacing_offsets"] = offsets + "...";
  return r;
}

}  // namespace e2e

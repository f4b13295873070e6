// Serving-plane tests: wire codec round trips (exact lossless, bounded
// quantised), session-broker subscription/fan-out semantics, the shared
// frame cache, per-client codec negotiation, and the slow-client isolation
// guarantee (a stalled client drops frames; the solver and its peers are
// unaffected).

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <thread>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "core/preprocess.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "serve/broker.hpp"
#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "util/check.hpp"

namespace hemo::serve {
namespace {

// --- codec primitives ------------------------------------------------------

TEST(Codec, RleRoundTripExactAndCompresses) {
  // Flat-background-like buffer: long runs with sparse structure.
  std::vector<std::uint8_t> data(4096, 20);
  for (std::size_t i = 1000; i < 1100; ++i) data[i] = static_cast<std::uint8_t>(i);
  const auto coded = rleEncode(data.data(), data.size());
  EXPECT_EQ(rleDecode(coded), data);
  EXPECT_LE(coded.size() * 2, data.size());  // >= 2x reduction
}

TEST(Codec, RleRoundTripWorstCaseStaysExact) {
  std::vector<std::uint8_t> data(257);
  unsigned seed = 12345;
  for (auto& v : data) {
    seed = seed * 1664525u + 1013904223u;
    v = static_cast<std::uint8_t>(seed >> 24);
  }
  EXPECT_EQ(rleDecode(rleEncode(data.data(), data.size())), data);
  EXPECT_EQ(rleDecode(rleEncode(data.data(), 0)),
            std::vector<std::uint8_t>{});
}

TEST(Codec, DeltaVarintRoundTripExact) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) keys.push_back(i * 3 + 7);
  const auto coded = deltaVarintEncode(keys);
  EXPECT_EQ(deltaVarintDecode(coded), keys);
  // Sorted dense keys code to ~1 byte each vs 8 raw.
  EXPECT_LE(coded.size() * 2, keys.size() * sizeof(std::uint64_t));

  // Unsorted (negative deltas) still round-trips exactly.
  std::vector<std::uint64_t> wild{5, 1, 1u << 30, 0, ~std::uint64_t{0}, 17};
  EXPECT_EQ(deltaVarintDecode(deltaVarintEncode(wild)), wild);
  EXPECT_EQ(deltaVarintDecode(deltaVarintEncode({})),
            std::vector<std::uint64_t>{});
}

TEST(Codec, VarintRejectsOverflowingAndOverlongEncodings) {
  const auto craft = [](std::initializer_list<unsigned> raw) {
    std::vector<std::byte> out;
    for (const unsigned b : raw) out.push_back(static_cast<std::byte>(b));
    return out;
  };
  // 2^63 zigzags to all-ones — the canonical 10-byte maximum varint —
  // so the largest legal encoding must keep round-tripping.
  const std::vector<std::uint64_t> max{std::uint64_t{1} << 63};
  EXPECT_EQ(deltaVarintDecode(deltaVarintEncode(max)), max);

  // A 10th byte carrying more than the 1 bit a u64 has left used to have
  // its high bits silently dropped, aliasing distinct encodings.
  EXPECT_THROW(deltaVarintDecode(craft({0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                        0xff, 0xff, 0xff, 0x02})),
               CheckError);
  // A continuation bit on the 10th byte (an 11-byte varint) is overlong.
  EXPECT_THROW(deltaVarintDecode(craft({0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                        0xff, 0xff, 0xff, 0x81, 0x00})),
               CheckError);
}

TEST(Codec, QuantFloatStaysWithinStatedError) {
  const double maxError = 1e-3;
  std::vector<float> values;
  unsigned seed = 99;
  for (int i = 0; i < 2000; ++i) {
    seed = seed * 1664525u + 1013904223u;
    values.push_back(static_cast<float>(seed) / 4.0e9f - 0.5f);
  }
  const auto back = quantFloatDecode(quantFloatEncode(values, maxError));
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(back[i], values[i], maxError);
  }
}

TEST(Codec, ImagePayloadRoundTrip) {
  steer::ImageFrame frame;
  frame.step = 42;
  frame.width = 64;
  frame.height = 32;
  frame.rgb.assign(static_cast<std::size_t>(64 * 32 * 3), 20);
  frame.rgb[100] = 200;

  for (const bool rle : {false, true}) {
    CodecConfig codec;
    codec.rleImage = rle;
    std::uint64_t raw = 0;
    const auto bytes = encodeImagePayload(frame, codec, &raw);
    const auto back = decodeImagePayload(bytes);
    EXPECT_EQ(back.step, frame.step);
    EXPECT_EQ(back.width, frame.width);
    EXPECT_EQ(back.height, frame.height);
    EXPECT_EQ(back.rgb, frame.rgb);  // exact either way
    if (rle) {
      EXPECT_LT(bytes.size(), raw);
    } else {
      EXPECT_EQ(bytes.size(), raw);
    }
  }
}

steer::RoiData sampleRoi(std::size_t n) {
  steer::RoiData roi;
  roi.step = 7;
  roi.level = 3;
  for (std::size_t i = 0; i < n; ++i) {
    multires::OctreeNode node;
    node.key = 100 + i * 2;
    node.count = static_cast<std::uint32_t>(1 + i % 5);
    node.meanScalar = 0.01f * static_cast<float>(i);
    node.minScalar = node.meanScalar - 0.005f;
    node.maxScalar = node.meanScalar + 0.005f;
    node.meanVelocity = {0.001f * static_cast<float>(i), -0.002f, 0.0f};
    roi.nodes.push_back(node);
  }
  return roi;
}

TEST(Codec, RoiPayloadLosslessRoundTrip) {
  const auto roi = sampleRoi(300);
  CodecConfig codec;
  codec.deltaIndices = true;  // exact: no quantisation
  std::uint64_t raw = 0;
  const auto bytes = encodeRoiPayload(roi, codec, &raw);
  EXPECT_LT(bytes.size(), raw);
  const auto back = decodeRoiPayload(bytes);
  ASSERT_EQ(back.nodes.size(), roi.nodes.size());
  for (std::size_t i = 0; i < roi.nodes.size(); ++i) {
    EXPECT_EQ(back.nodes[i].key, roi.nodes[i].key);
    EXPECT_EQ(back.nodes[i].count, roi.nodes[i].count);
    EXPECT_FLOAT_EQ(back.nodes[i].meanScalar, roi.nodes[i].meanScalar);
    EXPECT_FLOAT_EQ(back.nodes[i].minScalar, roi.nodes[i].minScalar);
    EXPECT_FLOAT_EQ(back.nodes[i].maxScalar, roi.nodes[i].maxScalar);
    EXPECT_FLOAT_EQ(back.nodes[i].meanVelocity.x,
                    roi.nodes[i].meanVelocity.x);
  }
}

TEST(Codec, RoiPayloadQuantisedStaysWithinBound) {
  const auto roi = sampleRoi(300);
  CodecConfig codec;
  codec.deltaIndices = true;
  codec.quantError = 1e-4;
  std::uint64_t raw = 0;
  const auto bytes = encodeRoiPayload(roi, codec, &raw);
  EXPECT_LT(bytes.size(), raw);
  const auto back = decodeRoiPayload(bytes);
  ASSERT_EQ(back.nodes.size(), roi.nodes.size());
  for (std::size_t i = 0; i < roi.nodes.size(); ++i) {
    EXPECT_EQ(back.nodes[i].key, roi.nodes[i].key);  // keys stay exact
    EXPECT_EQ(back.nodes[i].count, roi.nodes[i].count);
    EXPECT_NEAR(back.nodes[i].meanScalar, roi.nodes[i].meanScalar, 1e-4);
    EXPECT_NEAR(back.nodes[i].minScalar, roi.nodes[i].minScalar, 1e-4);
    EXPECT_NEAR(back.nodes[i].maxScalar, roi.nodes[i].maxScalar, 1e-4);
    EXPECT_NEAR(back.nodes[i].meanVelocity.y, roi.nodes[i].meanVelocity.y,
                1e-4);
  }
}

TEST(Codec, ConfigMaskRoundTripsThroughCommand) {
  CodecConfig codec;
  codec.rleImage = true;
  codec.deltaIndices = true;
  codec.quantError = 5e-3;
  steer::Command cmd;
  cmd.type = steer::MsgType::kSetCodec;
  cmd.codec = codec.mask();
  cmd.value = codec.quantError;
  const auto back =
      CodecConfig::fromCommand(steer::decodeCommand(steer::encodeCommand(cmd)));
  EXPECT_TRUE(back.rleImage);
  EXPECT_TRUE(back.deltaIndices);
  EXPECT_DOUBLE_EQ(back.quantError, 5e-3);
}

TEST(Codec, OversizedCountsAreTypedErrorsNotAllocations) {
  // An adversarial frame can claim any element count in a few bytes; every
  // decoder must bound the count against the remaining payload before
  // reserving memory, and fail with CheckError rather than bad_alloc/OOB.
  steer::ImageFrame img;
  img.width = 2;
  img.height = 2;
  img.rgb.assign(12, 9);
  CodecConfig rle;
  rle.rleImage = true;
  auto coded = encodeImagePayload(img, rle);
  coded.resize(coded.size() / 2);  // truncate mid-payload
  EXPECT_THROW(decodeImagePayload(coded), CheckError);
  EXPECT_FALSE(tryDecodeImagePayload(coded).has_value());

  steer::RoiData roi;
  roi.nodes.resize(8);
  CodecConfig delta;
  delta.deltaIndices = true;
  auto codedRoi = encodeRoiPayload(roi, delta);
  codedRoi.resize(codedRoi.size() - 3);
  EXPECT_THROW(decodeRoiPayload(codedRoi), CheckError);
  EXPECT_FALSE(tryDecodeRoiPayload(codedRoi).has_value());
}

TEST(Codec, FuzzedPayloadsNeverCrashTheDecoders) {
  std::mt19937 rng(0x5E7EuL);  // seeded: failures are reproducible
  std::uniform_int_distribution<int> byteDist(0, 255);
  const auto tryAll = [](const std::vector<std::byte>& coded) {
    const auto tryOne = [&](auto&& decode) {
      try {
        (void)decode(coded);
      } catch (const CheckError&) {
        // typed rejection is the accepted outcome for garbage
      }
    };
    tryOne([](const auto& c) { return rleDecode(c); });
    tryOne([](const auto& c) { return deltaVarintDecode(c); });
    tryOne([](const auto& c) { return quantFloatDecode(c); });
    tryOne([](const auto& c) { return decodeImagePayload(c); });
    tryOne([](const auto& c) { return decodeRoiPayload(c); });
    (void)tryDecodeImagePayload(coded);
    (void)tryDecodeRoiPayload(coded);
  };

  // Mutations of valid coded frames keep most structure intact, reaching
  // the deep decode paths.
  steer::ImageFrame img;
  img.width = 4;
  img.height = 4;
  img.rgb.assign(48, 20);
  steer::RoiData roi;
  roi.nodes.resize(5);
  for (std::size_t i = 0; i < roi.nodes.size(); ++i) {
    roi.nodes[i].key = i * 7;
    roi.nodes[i].count = static_cast<std::uint32_t>(i + 1);
  }
  CodecConfig all;
  all.rleImage = true;
  all.deltaIndices = true;
  all.quantError = 1e-3;
  std::vector<std::vector<std::byte>> seeds;
  seeds.push_back(encodeImagePayload(img, CodecConfig{}));
  seeds.push_back(encodeImagePayload(img, all));
  seeds.push_back(encodeRoiPayload(roi, CodecConfig{}));
  seeds.push_back(encodeRoiPayload(roi, all));
  seeds.push_back(quantFloatEncode({1.0f, 2.0f, 3.5f}, 1e-4));
  for (const auto& seed : seeds) {
    for (int trial = 0; trial < 200; ++trial) {
      auto mutated = seed;
      const auto pos = static_cast<std::size_t>(rng() % mutated.size());
      mutated[pos] = static_cast<std::byte>(byteDist(rng));
      tryAll(mutated);
    }
    // Every prefix truncation as well.
    for (std::size_t n = 0; n < seed.size(); ++n) {
      tryAll(std::vector<std::byte>(seed.begin(), seed.begin() + n));
    }
  }

  // Pure random frames, 0..512 bytes.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::byte> coded(rng() % 513);
    for (auto& b : coded) b = static_cast<std::byte>(byteDist(rng));
    tryAll(coded);
  }
}

// --- broker unit tests -----------------------------------------------------

steer::ImageFrame flatFrame(std::uint64_t step, int w = 16, int h = 16) {
  steer::ImageFrame f;
  f.step = step;
  f.width = w;
  f.height = h;
  f.rgb.assign(static_cast<std::size_t>(w * h * 3), 20);
  return f;
}

TEST(Broker, SubscriptionTicksFollowCadence) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    SessionBroker broker;
    ServeClient client(broker.connect());
    client.subscribe(StreamKind::kStatus, 3);

    int ticks = 0;
    for (std::uint64_t step = 0; step < 9; ++step) {
      // Status is published by the driver after the step, never ticked.
      EXPECT_TRUE(broker.drainCommands(comm, step).empty());
      if (!broker.streamDue(StreamKind::kStatus, step)) continue;
      steer::StatusReport status;
      status.step = step;
      broker.publishStatus(comm, status);
      ++ticks;
    }
    EXPECT_EQ(ticks, 3);  // steps 0, 3, 6

    // The client sees the subscribe ack plus one status per due step, and
    // no acks for the published stream frames.
    int statuses = 0, acks = 0;
    while (auto event = client.pollEvent()) {
      if (event->type == steer::MsgType::kStatus) ++statuses;
      if (event->type == steer::MsgType::kAck) ++acks;
    }
    EXPECT_EQ(statuses, 3);
    EXPECT_EQ(acks, 1);

    client.unsubscribe(StreamKind::kStatus);
    EXPECT_TRUE(broker.drainCommands(comm, 12).empty());
    EXPECT_FALSE(broker.streamDue(StreamKind::kStatus, 12));
    broker.closeAll();
  });
}

TEST(Broker, TickSharedAcrossMatchingSubscribers) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    SessionBroker broker;
    ServeClient a(broker.connect());
    ServeClient b(broker.connect());
    a.subscribe(StreamKind::kStatus, 1);
    b.subscribe(StreamKind::kStatus, 1);

    EXPECT_TRUE(broker.drainCommands(comm, 4).empty());
    ASSERT_TRUE(broker.streamDue(StreamKind::kStatus, 4));
    // One computation, published once, reaches both clients.
    steer::StatusReport status;
    status.step = 4;
    const auto sentBefore = broker.stats().framesSent;
    broker.publishStatus(comm, status);
    EXPECT_EQ(broker.stats().framesSent - sentBefore, 2u);

    for (ServeClient* c : {&a, &b}) {
      bool sawStatus = false;
      while (auto event = c->pollEvent()) {
        sawStatus |= event->type == steer::MsgType::kStatus;
      }
      EXPECT_TRUE(sawStatus);
    }
    broker.closeAll();
  });
}

TEST(Broker, CommandIdsRewrittenPerClient) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    SessionBroker broker;
    ServeClient a(broker.connect());
    ServeClient b(broker.connect());
    // Both clients issue command id 1 — the broker must still route each
    // response (and its ack, carrying the original id) to the right client.
    const auto idA = a.send([] {
      steer::Command c;
      c.type = steer::MsgType::kSetTau;
      c.value = 0.8;
      return c;
    }());
    const auto idB = b.send([] {
      steer::Command c;
      c.type = steer::MsgType::kPause;
      return c;
    }());
    EXPECT_EQ(idA, idB);  // ids collide by construction

    const auto cmds = broker.drainCommands(comm, 0);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_NE(cmds[0].commandId, cmds[1].commandId);
    for (const auto& cmd : cmds) broker.respondAck(comm, cmd.commandId);

    for (ServeClient* c : {&a, &b}) {
      auto event = c->pollEvent();
      ASSERT_TRUE(event.has_value());
      EXPECT_EQ(static_cast<int>(event->type),
                static_cast<int>(steer::MsgType::kAck));
      EXPECT_EQ(event->ackId, idA);  // original id restored
      EXPECT_FALSE(c->pollEvent().has_value());  // exactly one ack each
    }
    broker.closeAll();
  });
}

TEST(Broker, RejectRoutedToIssuingClientOnly) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    SessionBroker broker;
    ServeClient a(broker.connect());
    ServeClient b(broker.connect());
    const auto idA = a.send([] {
      steer::Command c;
      c.type = steer::MsgType::kSetTau;
      c.value = 0.2;  // would be guard-rejected by a driver
      return c;
    }());
    b.send([] {
      steer::Command c;
      c.type = steer::MsgType::kPause;
      return c;
    }());

    const auto cmds = broker.drainCommands(comm, 0);
    ASSERT_EQ(cmds.size(), 2u);
    // The driver rejects A's command and acks B's.
    broker.respondReject(comm, cmds[0].commandId,
                         steer::RejectReason::kTauUnstable);
    broker.respondAck(comm, cmds[1].commandId);

    auto eventA = a.pollEvent();
    ASSERT_TRUE(eventA.has_value());
    EXPECT_EQ(static_cast<int>(eventA->type),
              static_cast<int>(steer::MsgType::kReject));
    EXPECT_EQ(eventA->rejectId, idA);  // original id restored
    EXPECT_EQ(static_cast<int>(eventA->rejectReason),
              static_cast<int>(steer::RejectReason::kTauUnstable));
    EXPECT_FALSE(a.pollEvent().has_value());  // exactly one frame

    auto eventB = b.pollEvent();
    ASSERT_TRUE(eventB.has_value());
    EXPECT_EQ(static_cast<int>(eventB->type),
              static_cast<int>(steer::MsgType::kAck));
    EXPECT_FALSE(b.pollEvent().has_value());  // no reject leaked to B
    broker.closeAll();
  });
}

TEST(Broker, RetroactiveRejectAfterAckStillReachesTheClient) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    SessionBroker broker;
    ServeClient client(broker.connect());
    const auto id = client.send([] {
      steer::Command c;
      c.type = steer::MsgType::kSetTau;
      c.value = 0.7;
      return c;
    }());

    const auto cmds = broker.drainCommands(comm, 0);
    ASSERT_EQ(cmds.size(), 1u);
    // Normal flow: the command is applied and acked...
    broker.respondAck(comm, cmds[0].commandId);
    // ...then a sentinel rollback quarantines it, long after the ack
    // erased the live pending entry. The broker's route history must
    // still deliver the retroactive NACK with the original id.
    broker.respondReject(comm, cmds[0].commandId,
                         steer::RejectReason::kDivergence,
                         steer::MsgType::kRejectedAfterRollback);

    auto ack = client.pollEvent();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(static_cast<int>(ack->type),
              static_cast<int>(steer::MsgType::kAck));
    auto nack = client.pollEvent();
    ASSERT_TRUE(nack.has_value());
    EXPECT_EQ(static_cast<int>(nack->type),
              static_cast<int>(steer::MsgType::kRejectedAfterRollback));
    EXPECT_EQ(nack->rejectId, id);
    EXPECT_EQ(static_cast<int>(nack->rejectReason),
              static_cast<int>(steer::RejectReason::kDivergence));
    broker.closeAll();
  });
}

TEST(Broker, SharedCacheEncodesOncePerCodec) {
  comm::Runtime rt(1);
  rt.run([](comm::Communicator& comm) {
    SessionBroker broker;
    std::vector<ServeClient> clients;
    for (int i = 0; i < 4; ++i) clients.emplace_back(broker.connect());
    for (auto& c : clients) c.subscribe(StreamKind::kImage, 1);
    CodecConfig rle;
    rle.rleImage = true;
    clients[3].setCodec(rle);  // one client negotiates compression
    for (const auto& cmd : broker.drainCommands(comm, 0)) {
      broker.respondAck(comm, cmd.commandId);
    }

    const auto frame = flatFrame(1);
    broker.publishImage(comm, /*view=*/123, frame);
    // Two encodings (raw + rle), two hits from the raw-codec repeats.
    EXPECT_EQ(broker.stats().cacheMisses, 2u);
    EXPECT_EQ(broker.stats().cacheHits, 2u);
    EXPECT_LT(broker.stats().wireBytes, broker.stats().rawBytes);

    for (int i = 0; i < 4; ++i) {
      auto img = clients[static_cast<std::size_t>(i)].awaitImage();
      ASSERT_TRUE(img.has_value());
      EXPECT_EQ(img->rgb, frame.rgb);  // identical pixels for every client
    }
    broker.closeAll();
  });
}

// --- closed loop with a live driver ---------------------------------------

geometry::SparseLattice aneurysmLattice(double voxel = 0.3) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.0), opt);
}

core::DriverConfig smallDriverConfig() {
  core::DriverConfig dcfg;
  dcfg.lb.tau = 0.8;
  dcfg.lb.bodyForce = {1e-5, 0, 0};
  dcfg.lb.computeStress = true;
  dcfg.render.width = 32;
  dcfg.render.height = 32;
  dcfg.render.camera.position = {2.5, 0.5, 8.0};
  dcfg.render.camera.target = {2.5, 0.5, 0.0};
  dcfg.visEvery = 0;  // broker cadences drive all rendering
  dcfg.statusEvery = 0;
  return dcfg;
}

TEST(BrokerLoop, SixteenClientsOneStalledSolverUnaffected) {
  const auto lat = aneurysmLattice();
  const auto pre = core::preprocess(lat, 2, core::PreprocessConfig{});

  BrokerConfig bcfg;
  bcfg.outboxCapacity = 8;
  SessionBroker broker(bcfg);
  constexpr int kClients = 16;
  constexpr int kStalled = 7;  // never drained
  std::vector<ServeClient> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(broker.connect());
    clients.back().subscribe(StreamKind::kImage, 2);
  }

  std::vector<int> framesGot(kClients, 0);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    core::SimulationDriver driver(domain, comm, smallDriverConfig());
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);

    int executed = 0;
    for (int chunk = 0; chunk < 8; ++chunk) {
      executed += driver.run(5);
      if (comm.rank() != 0) continue;
      // Well-behaved clients drain between chunks; kStalled never does.
      for (int i = 0; i < kClients; ++i) {
        if (i == kStalled) continue;
        while (auto event = clients[static_cast<std::size_t>(i)].pollEvent()) {
          if (event->type == steer::MsgType::kImageFrame) {
            // In-order, every cadence-due step: 2, 4, 6, ...
            ++framesGot[static_cast<std::size_t>(i)];
            EXPECT_EQ(event->image.step,
                      2u * static_cast<std::uint64_t>(
                               framesGot[static_cast<std::size_t>(i)]));
          }
        }
      }
    }
    // The stalled client never blocked the solver.
    EXPECT_EQ(executed, 40);

    if (comm.rank() == 0) {
      // Render-once: 20 due steps -> 20 renders for 16 clients.
      EXPECT_EQ(driver.renderStage().rendersDone(), 20u);
      // Shared cache served the other 15 clients per step.
      EXPECT_EQ(broker.stats().cacheMisses, 20u);
      EXPECT_EQ(broker.stats().cacheHits, 20u * 15u);
      // Slow-client isolation: only the stalled outbox dropped frames.
      EXPECT_GT(broker.framesDropped(kStalled), 0u);
      for (int i = 0; i < kClients; ++i) {
        if (i != kStalled) EXPECT_EQ(broker.framesDropped(i), 0u) << i;
      }
      broker.closeAll();
    }
  });

  // Every healthy client received every cadence-due frame.
  for (int i = 0; i < kClients; ++i) {
    if (i == kStalled) continue;
    while (auto event = clients[static_cast<std::size_t>(i)].pollEvent()) {
      if (event->type == steer::MsgType::kImageFrame) {
        ++framesGot[static_cast<std::size_t>(i)];
      }
    }
    EXPECT_EQ(framesGot[static_cast<std::size_t>(i)], 20) << i;
  }
}

TEST(BrokerLoop, StreamsDeliverOnCadenceWithNegotiatedCodec) {
  const auto lat = aneurysmLattice();
  const auto pre = core::preprocess(lat, 2, core::PreprocessConfig{});

  SessionBroker broker;
  ServeClient coded(broker.connect());
  ServeClient plain(broker.connect());
  CodecConfig codec;
  codec.rleImage = true;
  codec.deltaIndices = true;
  coded.setCodec(codec);
  for (ServeClient* c : {&coded, &plain}) {
    c->subscribe(StreamKind::kImage, 10);
    c->subscribe(StreamKind::kStatus, 10);
    c->subscribe(StreamKind::kTelemetry, 15);
    c->subscribeObservable(10, steer::ObservableKind::kMeanSpeed);
    c->subscribeRoi(15, BoxI{{0, 0, 0}, {64, 64, 64}}, 1);
  }

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    core::SimulationDriver driver(domain, comm, smallDriverConfig());
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.run(30);
    if (comm.rank() == 0) broker.closeAll();
  });

  for (ServeClient* c : {&coded, &plain}) {
    int images = 0, statuses = 0, telemetries = 0, observables = 0, rois = 0;
    std::uint64_t imageWire = 0;
    bool codedImageSeen = false;
    while (auto event = c->nextEvent()) {
      switch (event->type) {
        case steer::MsgType::kImageFrame:
        case steer::MsgType::kCodedImage:
          ++images;
          imageWire = event->wireBytes;
          codedImageSeen |= event->type == steer::MsgType::kCodedImage;
          EXPECT_EQ(event->image.width, 32);
          EXPECT_GT(event->image.rgb.size(), 0u);
          break;
        case steer::MsgType::kStatus:
          ++statuses;
          break;
        case steer::MsgType::kTelemetry:
          ++telemetries;
          EXPECT_GT(event->telemetry.sites, 0u);
          break;
        case steer::MsgType::kObservable:
          ++observables;
          EXPECT_GT(event->observable.siteCount, 0u);
          break;
        case steer::MsgType::kRoiData:
        case steer::MsgType::kCodedRoi:
          ++rois;
          EXPECT_FALSE(event->roi.nodes.empty());
          break;
        default:
          break;
      }
    }
    // Image, status and telemetry publish after the due steps: 10, 20, 30
    // (cadence 10) / 15, 30 (cadence 15). Observable and ROI ticks fire
    // pre-step at 0, 10, 20 (cadence 10) / 0, 15 (cadence 15).
    EXPECT_EQ(images, 3);
    EXPECT_EQ(statuses, 3);
    EXPECT_EQ(telemetries, 2);
    EXPECT_EQ(observables, 3);
    EXPECT_EQ(rois, 2);
    // The negotiated codec actually shrank the wire frames.
    if (c == &coded) {
      EXPECT_TRUE(codedImageSeen);
      const std::uint64_t raw = 1 + 8 + 4 + 4 + 8 + 32 * 32 * 3;
      EXPECT_LE(imageWire * 2, raw);  // >= 2x reduction on the aneurysm view
    } else {
      EXPECT_FALSE(codedImageSeen);
    }
  }
}

TEST(BrokerLoop, ConcurrentClientThreadsUnderLoad) {
  // N client threads hammer the broker while the solver runs — the TSan
  // configuration of this test is the data-race gate for the serving plane.
  const auto lat = aneurysmLattice();
  const auto pre = core::preprocess(lat, 2, core::PreprocessConfig{});

  SessionBroker broker;
  constexpr int kClients = 4;
  std::vector<ServeClient> clients;
  for (int i = 0; i < kClients; ++i) clients.emplace_back(broker.connect());

  std::vector<std::thread> threads;
  std::vector<int> eventsSeen(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto& client = clients[static_cast<std::size_t>(i)];
      client.subscribe(StreamKind::kImage, 3 + i);
      client.subscribe(StreamKind::kStatus, 5);
      while (auto event = client.nextEvent()) {
        ++eventsSeen[static_cast<std::size_t>(i)];
      }
    });
  }

  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, pre.partition, comm.rank());
    core::SimulationDriver driver(domain, comm, smallDriverConfig());
    driver.attachBroker(comm.rank() == 0 ? &broker : nullptr);
    driver.run(25);
    if (comm.rank() == 0) broker.closeAll();
  });
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_GT(eventsSeen[static_cast<std::size_t>(i)], 0) << i;
  }
}

}  // namespace
}  // namespace hemo::serve

// Tests for the thread-rank message-passing runtime: point-to-point
// semantics, every collective against a sequential reference, communicator
// split, traffic accounting, and failure propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "comm/channel.hpp"
#include "comm/runtime.hpp"

namespace hemo::comm {
namespace {

TEST(Runtime, SingleRankRuns) {
  Runtime rt(1);
  int visits = 0;
  rt.run([&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(Runtime, AllRanksRunWithDistinctIds) {
  const int n = 8;
  std::vector<std::atomic<int>> hits(n);
  Runtime rt(n);
  rt.run([&](Communicator& comm) {
    hits[static_cast<std::size_t>(comm.rank())]++;
    EXPECT_EQ(comm.size(), n);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(Runtime, ExceptionPropagatesAndUnblocksPeers) {
  Runtime rt(4);
  EXPECT_THROW(
      rt.run([](Communicator& comm) {
        if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
        // Other ranks block forever on a message that never comes; the
        // abort must wake them.
        if (comm.rank() != 2) {
          EXPECT_THROW(comm.recvBytes(2, 99), AbortError);
          throw std::runtime_error("secondary");
        }
      }),
      std::runtime_error);
}

TEST(PointToPoint, TypedRoundTrip) {
  Runtime::runOnce(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, 1234.5);
      const int back = comm.recv<int>(1, 6);
      EXPECT_EQ(back, 77);
    } else {
      const double v = comm.recv<double>(0, 5);
      EXPECT_EQ(v, 1234.5);
      comm.send(0, 6, 77);
    }
  });
}

TEST(PointToPoint, VectorRoundTripIncludingEmpty) {
  Runtime::runOnce(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> v(1000);
      std::iota(v.begin(), v.end(), 0);
      comm.sendVec(1, 1, v);
      comm.sendVec(1, 2, std::vector<int>{});
    } else {
      const auto v = comm.recvVec<int>(0, 1);
      ASSERT_EQ(v.size(), 1000u);
      EXPECT_EQ(v[999], 999);
      EXPECT_TRUE(comm.recvVec<int>(0, 2).empty());
    }
  });
}

TEST(PointToPoint, FifoOrderPerTag) {
  Runtime::runOnce(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send(1, 3, i);
    } else {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(comm.recv<int>(0, 3), i);
    }
  });
}

TEST(PointToPoint, TagsMatchIndependently) {
  Runtime::runOnce(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 10, 1);
      comm.send(1, 20, 2);
    } else {
      // Receive in reverse tag order: matching must be per-tag, not FIFO
      // across tags.
      EXPECT_EQ(comm.recv<int>(0, 20), 2);
      EXPECT_EQ(comm.recv<int>(0, 10), 1);
    }
  });
}

TEST(PointToPoint, AnySourceReportsSender) {
  Runtime::runOnce(3, [](Communicator& comm) {
    if (comm.rank() != 0) {
      comm.send(0, 7, comm.rank());
    } else {
      std::vector<bool> seen(3, false);
      for (int i = 0; i < 2; ++i) {
        int src = -2;
        const int v = comm.recv<int>(kAnySource, 7, &src);
        EXPECT_EQ(v, src);
        seen[static_cast<std::size_t>(src)] = true;
      }
      EXPECT_TRUE(seen[1]);
      EXPECT_TRUE(seen[2]);
    }
  });
}

TEST(PointToPoint, TryRecvAndProbe) {
  Runtime::runOnce(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> payload;
      EXPECT_FALSE(comm.tryRecvBytes(1, 4, payload));
      comm.barrier();  // rank 1 sends only after this barrier
      comm.barrier();  // rank 1 sends before this barrier
      // After the second barrier the message is guaranteed queued.
      EXPECT_TRUE(comm.probe(1, 4));
      ASSERT_TRUE(comm.tryRecvBytes(1, 4, payload));
      EXPECT_EQ(payload.size(), sizeof(int));
    } else {
      comm.barrier();
      comm.send(0, 4, 123);
      comm.barrier();
    }
  });
}

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierCompletes) {
  Runtime::runOnce(GetParam(), [](Communicator& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(CollectiveTest, BcastFromEveryRoot) {
  const int n = GetParam();
  Runtime::runOnce(n, [n](Communicator& comm) {
    for (int root = 0; root < n; ++root) {
      int v = (comm.rank() == root) ? 1000 + root : -1;
      comm.bcast(v, root);
      EXPECT_EQ(v, 1000 + root);
      std::vector<double> vec;
      if (comm.rank() == root) vec = {1.5, 2.5, 3.5};
      comm.bcastVec(vec, root);
      ASSERT_EQ(vec.size(), 3u);
      EXPECT_EQ(vec[2], 3.5);
    }
  });
}

TEST_P(CollectiveTest, AllreduceSumMinMax) {
  const int n = GetParam();
  Runtime::runOnce(n, [n](Communicator& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduceSum(r + 1), n * (n + 1) / 2);
    EXPECT_EQ(comm.allreduceMax(r), n - 1);
    EXPECT_EQ(comm.allreduceMin(r * 2 + 5), 5);
    EXPECT_DOUBLE_EQ(comm.allreduceSum(0.5), 0.5 * n);
  });
}

TEST_P(CollectiveTest, ReduceVecElementwise) {
  const int n = GetParam();
  Runtime::runOnce(n, [n](Communicator& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<long> v{static_cast<long>(comm.rank()), 10};
      comm.reduceVec(v, root, [](long a, long b) { return a + b; });
      if (comm.rank() == root) {
        EXPECT_EQ(v[0], 1L * n * (n - 1) / 2);
        EXPECT_EQ(v[1], 10L * n);
      }
    }
  });
}

TEST_P(CollectiveTest, GatherOrdersByRank) {
  const int n = GetParam();
  Runtime::runOnce(n, [n](Communicator& comm) {
    const auto all = comm.gather(comm.rank() * 3, n - 1);
    if (comm.rank() == n - 1) {
      ASSERT_EQ(static_cast<int>(all.size()), n);
      for (int i = 0; i < n; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 3);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveTest, GatherVecVariableLengths) {
  const int n = GetParam();
  Runtime::runOnce(n, [](Communicator& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()), comm.rank());
    const auto all = comm.gatherVec(mine, 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < comm.size(); ++r) {
        const auto& v = all[static_cast<std::size_t>(r)];
        EXPECT_EQ(static_cast<int>(v.size()), r);
        for (int x : v) EXPECT_EQ(x, r);
      }
    }
  });
}

TEST_P(CollectiveTest, AllgatherEveryoneSeesAll) {
  const int n = GetParam();
  Runtime::runOnce(n, [n](Communicator& comm) {
    const auto all = comm.allgather(100 - comm.rank());
    ASSERT_EQ(static_cast<int>(all.size()), n);
    for (int i = 0; i < n; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], 100 - i);
    const auto vecs = comm.allgatherVec(
        std::vector<char>(static_cast<std::size_t>(comm.rank() + 1), 'x'));
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(vecs[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r + 1));
    }
  });
}

TEST_P(CollectiveTest, AlltoallPersonalised) {
  const int n = GetParam();
  Runtime::runOnce(n, [n](Communicator& comm) {
    // Rank r sends {r*100+d} to each destination d.
    std::vector<std::vector<int>> toSend(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      toSend[static_cast<std::size_t>(d)] = {comm.rank() * 100 + d};
    }
    const auto got = comm.alltoallVec(toSend);
    ASSERT_EQ(static_cast<int>(got.size()), n);
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(got[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(got[static_cast<std::size_t>(s)][0], s * 100 + comm.rank());
    }
  });
}

TEST_P(CollectiveTest, ScanSumIsInclusivePrefix) {
  const int n = GetParam();
  Runtime::runOnce(n, [](Communicator& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.scanSum(r + 1), (r + 1) * (r + 2) / 2);
  });
}

TEST_P(CollectiveTest, BackToBackCollectivesDontCrossMatch) {
  const int n = GetParam();
  Runtime::runOnce(n, [n](Communicator& comm) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(comm.allreduceSum(1), n);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(Split, ByParityProducesTwoGroups) {
  Runtime::runOnce(6, [](Communicator& comm) {
    auto sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Collectives work inside the sub-communicator and don't leak across.
    const int sum = sub.allreduceSum(comm.rank());
    if (comm.rank() % 2 == 0) {
      EXPECT_EQ(sum, 0 + 2 + 4);
    } else {
      EXPECT_EQ(sum, 1 + 3 + 5);
    }
  });
}

TEST(Split, KeyReordersRanks) {
  Runtime::runOnce(4, [](Communicator& comm) {
    // Reverse order via descending key.
    auto sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Split, P2pWithinSubCommunicator) {
  Runtime::runOnce(4, [](Communicator& comm) {
    auto sub = comm.split(comm.rank() / 2, comm.rank());
    ASSERT_EQ(sub.size(), 2);
    if (sub.rank() == 0) {
      sub.send(1, 9, comm.rank());
    } else {
      const int peer = sub.recv<int>(0, 9);
      EXPECT_EQ(peer, comm.rank() - 1);
    }
  });
}

TEST(Traffic, CountsBytesAndMessages) {
  Runtime rt(2);
  rt.run([](Communicator& comm) {
    Communicator::TrafficScope scope(comm, Traffic::kHalo);
    if (comm.rank() == 0) {
      std::vector<double> v(100);
      comm.sendVec(1, 1, v);
    } else {
      comm.recvVec<double>(0, 1);
    }
  });
  const auto& c0 = rt.counters(0).of(Traffic::kHalo);
  const auto& c1 = rt.counters(1).of(Traffic::kHalo);
  EXPECT_EQ(c0.messagesSent, 1u);
  EXPECT_EQ(c0.bytesSent, 800u);
  EXPECT_EQ(c1.messagesReceived, 1u);
  EXPECT_EQ(c1.bytesReceived, 800u);
  // Conservation: total sent == total received.
  const auto tot = rt.totalCounters().total();
  EXPECT_EQ(tot.bytesSent, tot.bytesReceived);
  EXPECT_EQ(tot.messagesSent, tot.messagesReceived);
}

TEST(Traffic, CollectiveTrafficIsClassified) {
  Runtime rt(4);
  rt.run([](Communicator& comm) { comm.barrier(); });
  const auto tot = rt.totalCounters();
  EXPECT_GT(tot.of(Traffic::kCollective).messagesSent, 0u);
  EXPECT_EQ(tot.of(Traffic::kHalo).messagesSent, 0u);
}

TEST(Traffic, ScopeRestoresClass) {
  Runtime rt(2);
  rt.run([](Communicator& comm) {
    comm.setTraffic(Traffic::kVis);
    {
      Communicator::TrafficScope scope(comm, Traffic::kIo);
      EXPECT_EQ(comm.traffic(), Traffic::kIo);
    }
    EXPECT_EQ(comm.traffic(), Traffic::kVis);
  });
}

TEST(Traffic, ConservationUnderMixedWorkload) {
  Runtime rt(5);
  rt.run([](Communicator& comm) {
    comm.allreduceSum(1);
    auto sub = comm.split(comm.rank() % 2, 0);
    sub.barrier();
    const auto all = comm.allgather(comm.rank());
    EXPECT_EQ(static_cast<int>(all.size()), comm.size());
  });
  const auto tot = rt.totalCounters().total();
  EXPECT_EQ(tot.bytesSent, tot.bytesReceived);
  EXPECT_EQ(tot.messagesSent, tot.messagesReceived);
}

TEST(Channel, FramedRoundTrip) {
  auto [a, b] = makeChannelPair();
  std::vector<std::byte> frame{std::byte{1}, std::byte{2}, std::byte{3}};
  EXPECT_TRUE(a.send(frame));
  const auto got = b.recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
  EXPECT_EQ(a.framesSent(), 1u);
  EXPECT_EQ(a.bytesSent(), 3u);
}

TEST(Channel, TryRecvNonBlocking) {
  auto [a, b] = makeChannelPair();
  EXPECT_FALSE(b.tryRecv().has_value());
  a.send({std::byte{9}});
  const auto got = b.tryRecv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 1u);
}

TEST(Channel, CloseDrainsThenEof) {
  auto [a, b] = makeChannelPair();
  a.send({std::byte{1}});
  a.send({std::byte{2}});
  a.close();
  EXPECT_TRUE(b.recv().has_value());
  EXPECT_TRUE(b.recv().has_value());
  EXPECT_FALSE(b.recv().has_value());  // EOF after drain
  EXPECT_FALSE(a.send({std::byte{3}}));
}

TEST(Channel, DuplexIndependence) {
  auto [a, b] = makeChannelPair();
  a.send({std::byte{1}});
  b.send({std::byte{2}});
  EXPECT_EQ((*b.recv())[0], std::byte{1});
  EXPECT_EQ((*a.recv())[0], std::byte{2});
}

TEST(Channel, BoundedCapacityDropsOldest) {
  auto [a, b] = makeChannelPair();
  a.setSendCapacity(2);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(a.send({std::byte{i}}));
  }
  EXPECT_EQ(a.framesDropped(), 3u);
  EXPECT_EQ(a.framesSent(), 5u);  // pushes counted before eviction
  // Latest-wins: the two newest frames survive, in order.
  EXPECT_EQ((*b.recv())[0], std::byte{3});
  EXPECT_EQ((*b.recv())[0], std::byte{4});
  EXPECT_FALSE(b.tryRecv().has_value());
}

TEST(Channel, UnboundedByDefaultNeverDrops) {
  auto [a, b] = makeChannelPair();
  for (std::uint8_t i = 0; i < 100; ++i) a.send({std::byte{i}});
  EXPECT_EQ(a.framesDropped(), 0u);
  for (std::uint8_t i = 0; i < 100; ++i) {
    EXPECT_EQ((*b.recv())[0], std::byte{i});
  }
}

TEST(Channel, BoundedCapacityKeepsDrainedReaderCurrent) {
  // A reader that keeps up sees every frame; only a stalled reader loses
  // the oldest ones.
  auto [a, b] = makeChannelPair();
  a.setSendCapacity(1);
  for (std::uint8_t i = 0; i < 10; ++i) {
    a.send({std::byte{i}});
    EXPECT_EQ((*b.recv())[0], std::byte{i});
  }
  EXPECT_EQ(a.framesDropped(), 0u);
}

TEST(Channel, CapacityShrinkTrimsBacklogOnNextPush) {
  // Regression: setSendCapacity used to only evict one frame per push, so
  // shrinking the bound under a backlog left the queue oversized for many
  // pushes. The next push must trim the whole excess.
  auto [a, b] = makeChannelPair();
  for (std::uint8_t i = 0; i < 8; ++i) a.send({std::byte{i}});
  EXPECT_EQ(a.sendQueueDepth(), 8u);
  a.setSendCapacity(2);
  EXPECT_EQ(a.sendQueueDepth(), 8u);  // applies on next push, not eagerly
  a.send({std::byte{8}});
  EXPECT_EQ(a.sendQueueDepth(), 2u);
  EXPECT_EQ(a.framesDropped(), 7u);
  EXPECT_EQ((*b.recv())[0], std::byte{7});
  EXPECT_EQ((*b.recv())[0], std::byte{8});
  EXPECT_FALSE(b.tryRecv().has_value());
}

TEST(Channel, CapacityGrowKeepsBacklog) {
  auto [a, b] = makeChannelPair();
  a.setSendCapacity(2);
  a.send({std::byte{0}});
  a.send({std::byte{1}});
  a.setSendCapacity(4);
  a.send({std::byte{2}});
  a.send({std::byte{3}});
  EXPECT_EQ(a.framesDropped(), 0u);
  for (std::uint8_t i = 0; i < 4; ++i) EXPECT_EQ((*b.recv())[0], std::byte{i});
}

TEST(Channel, CreditedSendSpendsBalanceThenRefuses) {
  auto [a, b] = makeChannelPair();
  // Metering off: credited sends refuse, plain sends unaffected.
  EXPECT_FALSE(a.trySendCredited({std::byte{0}}));
  EXPECT_EQ(a.sendCredits(), 0u);
  a.setSendCredits(2);
  EXPECT_TRUE(a.trySendCredited({std::byte{1}}));
  EXPECT_TRUE(a.trySendCredited({std::byte{2}}));
  EXPECT_FALSE(a.trySendCredited({std::byte{3}}));  // balance exhausted
  EXPECT_EQ(a.sendCredits(), 0u);
  a.addSendCredits(1);
  EXPECT_TRUE(a.trySendCredited({std::byte{4}}));
  // The refused frame was never queued; delivered frames are in order.
  EXPECT_EQ((*b.recv())[0], std::byte{1});
  EXPECT_EQ((*b.recv())[0], std::byte{2});
  EXPECT_EQ((*b.recv())[0], std::byte{4});
  EXPECT_FALSE(b.tryRecv().has_value());
  // Control traffic bypasses the meter.
  EXPECT_TRUE(a.send({std::byte{5}}));
  EXPECT_EQ((*b.recv())[0], std::byte{5});
}

TEST(Channel, AddSendCreditsIsNoOpUntilEnabled) {
  auto [a, b] = makeChannelPair();
  a.addSendCredits(10);
  EXPECT_EQ(a.sendCredits(), 0u);
  EXPECT_FALSE(a.trySendCredited({std::byte{0}}));
  (void)b;
}

TEST(Channel, ConcurrentSenderReceiverDrainThenEof) {
  // Close/EOF semantics with a live sender and receiver on separate
  // threads: the receiver must observe every sent frame in order, then a
  // clean EOF — never a premature EOF or a lost frame.
  constexpr int kFrames = 2000;
  auto [a, b] = makeChannelPair();
  std::thread sender([end = std::move(a)]() mutable {
    for (int i = 0; i < kFrames; ++i) {
      std::vector<std::byte> frame(sizeof(int));
      std::memcpy(frame.data(), &i, sizeof(int));
      ASSERT_TRUE(end.send(std::move(frame)));
    }
    end.close();
  });
  int expect = 0;
  while (auto frame = b.recv()) {
    int got;
    ASSERT_EQ(frame->size(), sizeof(int));
    std::memcpy(&got, frame->data(), sizeof(int));
    EXPECT_EQ(got, expect++);
  }
  EXPECT_EQ(expect, kFrames);          // drained everything before EOF
  EXPECT_FALSE(b.recv().has_value());  // EOF is sticky
  sender.join();
}

TEST(Channel, HalfCloseConcurrentPeerKeepsSending) {
  // close() is a half-close: it seals only the closer's outgoing queue.
  // While the peer b closes concurrently, a's sends must keep succeeding
  // (b may still drain them) and a's receive side must observe b's final
  // frame followed by a clean EOF — never a hang or a torn frame.
  auto [a, b] = makeChannelPair();
  std::thread peer([end = std::move(b)]() mutable {
    (void)end.recv();  // wait for a's first frame
    end.send({std::byte{42}});
    end.close();  // seals b->a only
  });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(a.send({std::byte{1}}));  // a->b stays open throughout
  }
  const auto last = a.recv();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ((*last)[0], std::byte{42});
  EXPECT_FALSE(a.recv().has_value());  // EOF after the drain
  peer.join();
  // Sealing is per-direction even after the peer thread is gone.
  EXPECT_TRUE(a.send({std::byte{2}}));
  a.close();
  EXPECT_FALSE(a.send({std::byte{3}}));
}

TEST(Runtime, ReuseAcrossJobsAccumulatesCounters) {
  Runtime rt(2);
  auto job = [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, 1);
    } else {
      comm.recv<int>(0, 1);
    }
  };
  rt.run(job);
  rt.run(job);
  EXPECT_EQ(rt.totalCounters().total().messagesSent, 2u);
  rt.resetCounters();
  EXPECT_EQ(rt.totalCounters().total().messagesSent, 0u);
}

}  // namespace
}  // namespace hemo::comm

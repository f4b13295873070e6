#include "core/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "lb/domain_map.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hemo::core {

namespace {

/// User tag for the agreement round (9851/9852 are the buddy mirror's).
constexpr int kTagAgree = 9861;

void noteFlight(const std::string& what) {
  if (auto* t = telemetry::threadTelemetry()) {
    t->flightRecorder().note(what);
  }
}

void bumpCounter(const char* name, std::uint64_t n = 1) {
  if (auto* t = telemetry::threadTelemetry()) {
    t->metrics().counter(name).add(n);
  }
}

}  // namespace

std::vector<int> agreeOnDeadSet(comm::Communicator& comm,
                                comm::DeathBoard& board,
                                const comm::LivenessConfig& cfg) {
  const int me = comm.worldRank();
  if (board.dead(me)) {
    throw util::RankKilledError(
        "rank " + std::to_string(me) +
        " was declared dead by the group; committing suicide");
  }
  // Peers silent for the whole agreement deadline are accused here too —
  // detection must make progress even when the dead rank is one we never
  // blocked on directly. Wider than the steady-state timeout: agreement
  // runs while survivors are still unwinding deep call stacks.
  const std::int64_t deadlineNs =
      std::max<std::int64_t>(3 * cfg.timeoutMs, 1000) * 1'000'000;
  // Each restart consumes a strictly newer epoch, so non-convergence means
  // more deaths than ranks — impossible; the cap only guards a logic bug.
  const int maxAttempts = 64 + 8 * comm.size();
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    // Consistent snapshot: the epoch counts *completed* declarations, so a
    // dead set of exactly `epoch` ranks is uniquely determined by the
    // epoch value — every rank that acks this epoch has this exact set.
    const std::uint32_t epoch = board.epoch();
    std::vector<int> dead = board.deadSet();
    if (static_cast<std::uint32_t>(dead.size()) != epoch) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;  // a declareDead is mid-flight; re-snapshot
    }
    if (board.dead(me)) {
      throw util::RankKilledError(
          "rank " + std::to_string(me) +
          " was declared dead during agreement; committing suicide");
    }
    std::vector<int> peers;  // group ranks of the other survivors
    for (int r = 0; r < comm.size(); ++r) {
      const int w = comm.worldRankOf(r);
      if (w == me || board.dead(w)) continue;
      peers.push_back(r);
    }
    for (const int r : peers) {
      comm.send<std::uint32_t>(r, kTagAgree, epoch);
    }
    const std::int64_t waitStart = comm::DeathBoard::nowNs();
    std::vector<char> acked(peers.size(), 0);
    std::size_t ackedCount = 0;
    bool restart = false;
    while (ackedCount < peers.size() && !restart) {
      bool progress = false;
      for (std::size_t i = 0; i < peers.size() && !restart; ++i) {
        if (acked[i] != 0) continue;
        const int r = peers[i];
        const int w = comm.worldRankOf(r);
        std::vector<std::byte> payload;
        while (comm.tryRecvBytes(r, kTagAgree, payload)) {
          std::uint32_t got = 0;
          std::memcpy(&got, payload.data(),
                      std::min(sizeof got, payload.size()));
          if (got == epoch) {
            acked[i] = 1;
            ++ackedCount;
            progress = true;
            break;
          }
          if (got > epoch) {
            restart = true;  // the peer already sees a newer death
            break;
          }
          // got < epoch: stale ack from an abandoned attempt; drain it.
        }
        if (restart || acked[i] != 0) continue;
        if (board.epoch() != epoch) {
          restart = true;  // someone declared a new death mid-round
        } else if (board.dead(w)) {
          restart = true;
        } else if (board.exited(w)) {
          board.declareDead(w);
          restart = true;
        } else if (comm::DeathBoard::nowNs() -
                       std::max(board.lastSeenNs(w), waitStart) >
                   deadlineNs) {
          board.declareDead(w);
          restart = true;
        }
      }
      if (!restart && ackedCount < peers.size() && !progress) {
        board.noteAlive(me);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (restart) continue;
    // Everyone acked this epoch: unique dead set, every survivor returns
    // the identical vector. A death *after* this point surfaces as a new
    // PeerDeadError on the shrunken communicator's first bounded wait.
    return dead;
  }
  throw std::runtime_error("agreement failed to converge after " +
                           std::to_string(maxAttempts) + " attempts");
}

ResilientRunner::Result ResilientRunner::run(int ranks, int steps,
                                             const CompletionHook& onComplete,
                                             serve::SessionBroker* broker) {
  Result result;
  result.survivors = ranks;
  buddy_.clear();
  const auto graph = partition::buildSiteGraph(lattice_);

  comm::Runtime rt(ranks);
  rt.setLiveness(recovery_.liveness);
  comm::RunOptions options;
  options.tolerateRankDeath = true;
  options.joinTimeoutSeconds = recovery_.joinTimeoutSeconds;

  std::mutex resultMutex;

  // One partition per survivor count, shared by the rank threads: the first
  // rank to need it runs the partitioner (and its worker threads) while the
  // others wait on the mutex. No rank waits in a bounded receive meanwhile,
  // so a partition slower than the liveness timeout accuses nobody.
  std::mutex partitionMutex;
  std::map<int, partition::Partition> partitions;
  const auto partitionFor = [&](int parts) -> const partition::Partition& {
    std::lock_guard<std::mutex> lock(partitionMutex);
    auto it = partitions.find(parts);
    if (it == partitions.end()) {
      it = partitions.emplace(parts, partitioner_.partition(graph, parts))
               .first;
    }
    return it->second;
  };

  const auto rankMain = [&](comm::Communicator& world) {
    comm::Communicator comm = world;
    auto& board = rt.deathBoard();
    bool resuming = false;
    std::vector<int> knownDead;
    std::vector<RecoveryEvent> localEvents;
    WallTimer eventTimer;  // reset at detection; read at resume-ready
    for (;;) {
      try {
        // (Re)build the full stack on the current survivor group: fresh
        // partition of the survivors, domain map, solver, pipeline.
        lb::DomainMap domain(lattice_, partitionFor(comm.size()), comm.rank());
        DriverConfig cfg = config_;
        if (recovery_.buddy) {
          cfg.buddy.store = &buddy_;
        }
        SimulationDriver driver(domain, comm, cfg);
        // Serving stays up while world rank 0 (the broker's home) lives;
        // after its death the run degrades to solver-only.
        if (broker != nullptr && comm.worldRankOf(0) == 0) {
          driver.attachBroker(comm.rank() == 0 ? broker : nullptr);
        }

        if (resuming) {
          RecoveryEvent& ev = localEvents.back();
          WallTimer restoreTimer;
          // The driver's ladder: buddy memory, then disk. The cold restart
          // is this runner's own last rung.
          const auto r = driver.restoreLatest();
          if (r.ok()) {
            ev.usedBuddy = r.source == lb::RestoreSource::kBuddy;
            ev.restoredStep = r.step;
          } else {
            if (!recovery_.allowColdRestart) {
              throw std::runtime_error(
                  "recovery: no restorable snapshot (buddy or disk) and "
                  "cold restart is disabled");
            }
            // Cold restart: deterministic solver, so replaying from step 0
            // on the survivors still reproduces the reference fields. Old
            // buddy slots would alias the replayed steps — drop them.
            ev.coldRestart = true;
            ev.restoredStep = 0;
            buddy_.clear();
          }
          ev.restoreSeconds = restoreTimer.seconds();
          ev.totalSeconds = eventTimer.seconds();
          if (auto* t = telemetry::threadTelemetry()) {
            t->metrics().gauge("recover.last_mttr_seconds")
                .set(ev.totalSeconds);
            t->metrics().gauge("recover.last_restored_step")
                .set(static_cast<double>(ev.restoredStep));
          }
          noteFlight("recover: resumed from step " +
                     std::to_string(ev.restoredStep) + " on " +
                     std::to_string(comm.size()) + " survivors (" +
                     (ev.coldRestart
                          ? std::string("cold restart")
                          : std::string(ev.usedBuddy ? "buddy" : "disk")) +
                     ")");
        }

        const auto done = driver.solver().stepsDone();
        const int remaining =
            steps > static_cast<int>(done)
                ? steps - static_cast<int>(done)
                : 0;
        driver.run(remaining);
        if (onComplete) {
          onComplete(domain, driver, comm);
        }
        {
          std::lock_guard<std::mutex> lock(resultMutex);
          result.completed = true;
          result.survivors = comm.size();
          result.finalStep = driver.solver().stepsDone();
          if (comm.rank() == 0) {
            result.events = localEvents;
          }
        }
        return;
      } catch (const comm::PeerDeadError& e) {
        eventTimer.reset();
        bumpCounter("recover.detections");
        noteFlight(std::string("recover: peer death detected: ") + e.what());
        if (static_cast<int>(localEvents.size()) >= recovery_.maxRecoveries) {
          throw std::runtime_error(
              "recovery: exceeded maxRecoveries=" +
              std::to_string(recovery_.maxRecoveries) + ": " + e.what());
        }
        board.declareDead(e.deadWorldRank());
        WallTimer agreeTimer;
        const auto dead = agreeOnDeadSet(comm, board, recovery_.liveness);
        RecoveryEvent ev;
        ev.agreeSeconds = agreeTimer.seconds();
        for (const int w : dead) {
          if (std::find(knownDead.begin(), knownDead.end(), w) ==
              knownDead.end()) {
            ev.deadWorldRanks.push_back(w);
          }
          // A dead thread-rank's "node memory" is gone with it.
          buddy_.dropHolder(w);
        }
        knownDead = dead;
        comm = comm.shrink(dead);
        ev.survivors = comm.size();
        localEvents.push_back(ev);
        resuming = true;
        bumpCounter("recover.events");
        noteFlight("recover: agreed on " + std::to_string(dead.size()) +
                   " dead rank(s); shrunk to " + std::to_string(comm.size()) +
                   " survivors");
      }
    }
  };

  try {
    rt.run(rankMain, options);
    if (!result.completed && result.error.empty()) {
      result.error = "no surviving rank completed the run";
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(resultMutex);
    result.completed = false;
    result.error = e.what();
  }
  return result;
}

}  // namespace hemo::core

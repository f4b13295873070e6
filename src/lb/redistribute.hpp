#pragma once
/// \file redistribute.hpp
/// \brief The one routine that routes lattice sites to their owners.
///
/// Checkpoint restore, buddy restore and live migration all end the same
/// way: (site id, f[kQ]) records, spread over the ranks in whatever order
/// their source produced them, must reach the ranks that own those sites
/// under a DomainMap, each exactly once. `redistribute` is that step and
/// the only code that does it. It checks every id against the lattice,
/// buckets by `DomainMap::ownerOf`, runs one all-to-all pair, places each
/// arriving site at its external local index and demands that every owned
/// slot is covered. Sites already on their owner are placed without being
/// sent. Any fault is reported as the same typed status on every rank and
/// nothing is returned to apply, so callers validate-then-apply. The
/// traffic class is the caller's (kIo for restores, kRepart for
/// migration).

#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "lb/domain_map.hpp"

namespace hemo::lb {

enum class RedistributeStatus : std::uint8_t {
  kOk = 0,
  kMalformedBlock,  ///< a block's columns do not match its ids or kQ
  kIdOutOfRange,    ///< an id is >= lattice.numFluidSites()
  kMisrouted,       ///< a site reached a rank that does not own it
  kDuplicate,       ///< a site arrived more than once
  kUncovered,       ///< an owned site arrived from nobody
};

inline const char* redistributeStatusName(RedistributeStatus s) {
  switch (s) {
    case RedistributeStatus::kOk: return "ok";
    case RedistributeStatus::kMalformedBlock: return "malformed-block";
    case RedistributeStatus::kIdOutOfRange: return "id-out-of-range";
    case RedistributeStatus::kMisrouted: return "misrouted-site";
    case RedistributeStatus::kDuplicate: return "duplicate-site";
    case RedistributeStatus::kUncovered: return "uncovered-site";
  }
  return "unknown";
}

/// Sites and their populations, in any order: f[q][s] belongs to ids[s].
struct SiteBlock {
  std::vector<std::uint64_t> ids;
  std::vector<std::vector<double>> f;
};

struct RedistributeResult {
  /// Identical on every rank.
  RedistributeStatus status = RedistributeStatus::kOk;
  /// On success, columns[q][l] is population q of `domain.globalOf(l)`
  /// (external order, ready for Solver::setDistributions); empty otherwise.
  std::vector<std::vector<double>> columns;
  /// Sites this rank sent to another rank (kept sites are not counted).
  std::uint64_t sitesSentLocal = 0;
  bool ok() const { return status == RedistributeStatus::kOk; }
};

/// Collective. Route every site of `blocks` (this rank's share of the
/// source; any rank may pass none) to its owner under `domain`.
inline RedistributeResult redistribute(const DomainMap& domain,
                                       comm::Communicator& comm,
                                       const std::vector<SiteBlock>& blocks,
                                       int kQ) {
  const auto q = static_cast<std::size_t>(kQ);
  const std::uint64_t numSites = domain.lattice().numFluidSites();
  const int me = comm.rank();
  RedistributeResult out;
  auto local = RedistributeStatus::kOk;
  const auto fail = [&local](RedistributeStatus s) {
    if (local == RedistributeStatus::kOk) local = s;
  };

  std::vector<std::vector<double>> columns(
      q, std::vector<double>(domain.numOwned(), 0.0));
  std::vector<std::uint8_t> filled(domain.numOwned(), 0);
  // Place one site's kQ contiguous populations at its owned slot, exactly
  // once.
  const auto place = [&](std::uint64_t id, const double* vals) {
    const std::int64_t l = domain.localOf(id);
    if (l < 0) return fail(RedistributeStatus::kMisrouted);
    const auto slot = static_cast<std::size_t>(l);
    if (filled[slot] != 0) return fail(RedistributeStatus::kDuplicate);
    filled[slot] = 1;
    for (std::size_t i = 0; i < q; ++i) columns[i][slot] = vals[i];
  };

  // Bucket by owner: kept sites are placed now, the rest are packed per
  // destination as ids plus site-major populations.
  const auto n = static_cast<std::size_t>(comm.size());
  std::vector<std::vector<std::uint64_t>> sendIds(n);
  std::vector<std::vector<double>> sendVals(n);
  std::vector<double> site(q);
  for (const SiteBlock& block : blocks) {
    bool shaped = block.f.size() == q;
    for (std::size_t i = 0; shaped && i < q; ++i) {
      shaped = block.f[i].size() == block.ids.size();
    }
    if (!shaped) {
      fail(RedistributeStatus::kMalformedBlock);
      continue;
    }
    for (std::size_t s = 0; s < block.ids.size(); ++s) {
      const std::uint64_t id = block.ids[s];
      if (id >= numSites) {
        fail(RedistributeStatus::kIdOutOfRange);
        continue;
      }
      for (std::size_t i = 0; i < q; ++i) site[i] = block.f[i][s];
      const int owner = domain.ownerOf(id);
      if (owner == me) {
        place(id, site.data());
        continue;
      }
      const auto dest = static_cast<std::size_t>(owner);
      sendIds[dest].push_back(id);
      sendVals[dest].insert(sendVals[dest].end(), site.begin(), site.end());
      ++out.sitesSentLocal;
    }
  }

  const auto recvIds = comm.alltoallVec(sendIds);
  const auto recvVals = comm.alltoallVec(sendVals);
  for (std::size_t src = 0; src < n; ++src) {
    const auto& ids = recvIds[src];
    const auto& vals = recvVals[src];
    if (vals.size() != ids.size() * q) {
      fail(RedistributeStatus::kMalformedBlock);
      continue;
    }
    for (std::size_t s = 0; s < ids.size(); ++s) {
      place(ids[s], vals.data() + s * q);
    }
  }
  for (const std::uint8_t f : filled) {
    if (f == 0) {
      fail(RedistributeStatus::kUncovered);
      break;
    }
  }

  // Every rank adopts the highest-numbered fault any rank saw, so all
  // return the same status and either all apply or none does.
  out.status = static_cast<RedistributeStatus>(
      comm.allreduceMax(static_cast<int>(local)));
  if (out.ok()) out.columns = std::move(columns);
  return out;
}

}  // namespace hemo::lb

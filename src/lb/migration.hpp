#pragma once
/// \file migration.hpp
/// \brief Live cross-rank site migration for mid-run repartitioning.
///
/// The paper argues interactive runs create "the opportunity to adjust the
/// partitioning mid-term"; this module is the data-plane half of that loop.
/// Given a solver running on one DomainMap and a freshly built DomainMap for
/// the rebalanced partition, `migrateDistributions` repacks every owned
/// site's kQ populations onto the new ownership through redistribute()
/// (traffic class `kRepart`). Distributions are gathered in *external*
/// (DomainMap) order through the solver's layout-agnostic accessors, so the
/// transfer is byte-identical under the SoA and AoS layouts. The
/// control-plane half (when to migrate, rebuilding solver/ghosts/octree, or
/// keeping the old partition when the transfer fails) lives in
/// core::SimulationDriver.

#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "lb/domain_map.hpp"
#include "lb/redistribute.hpp"
#include "lb/solver.hpp"

namespace hemo::lb {

struct MigrationStats {
  /// Identical on every rank; on failure nothing moved and `columns` is
  /// left empty.
  RedistributeStatus status = RedistributeStatus::kOk;
  /// Global number of sites that changed owner (summed over ranks).
  std::uint64_t sitesMoved = 0;
  /// Global payload bytes shipped between ranks (ids + populations).
  std::uint64_t bytesMoved = 0;
  bool ok() const { return status == RedistributeStatus::kOk; }
};

/// Collective. Repack `solver`'s distributions from its current domain onto
/// `newDomain`'s ownership. On success `columns[i]` holds distribution i
/// over the *new* domain's owned sites in external order (ready for
/// Solver::setDistributions on a solver built over `newDomain`). Every rank
/// must pass DomainMaps built from the same old/new partitions; ranks that
/// disagree get a typed failure, not an abort.
template <typename Lattice>
MigrationStats migrateDistributions(const Solver<Lattice>& solver,
                                    const DomainMap& newDomain,
                                    comm::Communicator& comm,
                                    std::vector<std::vector<double>>& columns) {
  constexpr int kQ = Lattice::kQ;
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kRepart);

  std::vector<SiteBlock> owned(1);
  owned[0].ids = solver.domain().ownedIds();
  owned[0].f.resize(kQ);
  for (int i = 0; i < kQ; ++i) {
    solver.gatherDistribution(i, owned[0].f[static_cast<std::size_t>(i)]);
  }
  auto routed = redistribute(newDomain, comm, owned, kQ);
  MigrationStats stats;
  stats.status = routed.status;
  columns = std::move(routed.columns);
  if (!stats.ok()) return stats;
  stats.sitesMoved = comm.allreduceSum(routed.sitesSentLocal);
  stats.bytesMoved =
      stats.sitesMoved * (sizeof(std::uint64_t) +
                          static_cast<std::uint64_t>(kQ) * sizeof(double));
  return stats;
}

}  // namespace hemo::lb

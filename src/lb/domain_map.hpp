#pragma once
/// \file domain_map.hpp
/// \brief Rank-local view of a partitioned sparse lattice: which global
/// sites this rank owns and how to find the owner of any site. Shared by
/// the solver and every in situ visualisation algorithm.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/sparse_lattice.hpp"
#include "partition/graph.hpp"

namespace hemo::lb {

class DomainMap {
 public:
  DomainMap(const geometry::SparseLattice& lattice,
            const partition::Partition& partition, int myRank)
      : lattice_(&lattice), partition_(&partition), rank_(myRank) {
    for (std::uint64_t g = 0; g < lattice.numFluidSites(); ++g) {
      if (partition.partOfSite[static_cast<std::size_t>(g)] == myRank) {
        localOf_.emplace(g, static_cast<std::uint32_t>(ownedIds_.size()));
        ownedIds_.push_back(g);
      }
    }
  }

  const geometry::SparseLattice& lattice() const { return *lattice_; }
  const partition::Partition& partition() const { return *partition_; }
  int rank() const { return rank_; }

  std::uint32_t numOwned() const {
    return static_cast<std::uint32_t>(ownedIds_.size());
  }
  const std::vector<std::uint64_t>& ownedIds() const { return ownedIds_; }
  std::uint64_t globalOf(std::uint32_t local) const {
    return ownedIds_[static_cast<std::size_t>(local)];
  }

  /// Local index of a global site, or -1 if not owned by this rank.
  std::int64_t localOf(std::uint64_t global) const {
    const auto it = localOf_.find(global);
    return it == localOf_.end() ? -1 : static_cast<std::int64_t>(it->second);
  }

  /// Which rank owns a global site.
  int ownerOf(std::uint64_t global) const {
    return partition_->partOfSite[static_cast<std::size_t>(global)];
  }

 private:
  const geometry::SparseLattice* lattice_;
  const partition::Partition* partition_;
  int rank_;
  std::vector<std::uint64_t> ownedIds_;
  std::unordered_map<std::uint64_t, std::uint32_t> localOf_;
};

/// Hot-path site permutation built by the solver over a rank's owned sites.
///
/// The solver stores distributions in an *internal* order chosen for the
/// fused collide–stream kernel: frontier sites (any streaming pull that
/// crosses a rank boundary, a wall, or an iolet) come first so their
/// outgoing halo populations can be computed and posted before the bulk
/// sweep; bulk sites follow in row-major order (x fastest), so push
/// destinations form long unit-stride runs.
///
/// Contract: *external* local indices — the DomainMap order used by
/// checkpointing, visualisation sampling, WSS extraction and every test —
/// are unchanged. The solver translates at its boundary through these maps;
/// nothing outside the solver ever sees internal indices.
struct SiteReordering {
  std::vector<std::uint32_t> internalOf;  ///< external local -> internal
  std::vector<std::uint32_t> externalOf;  ///< internal -> external local
  std::uint32_t numFrontier = 0;  ///< internal [0, numFrontier) are frontier

  std::uint32_t numSites() const {
    return static_cast<std::uint32_t>(externalOf.size());
  }
  std::uint32_t numBulk() const { return numSites() - numFrontier; }
};

/// Macroscopic moments of the owned sites, refreshed every collision.
struct MacroFields {
  std::vector<double> rho;
  std::vector<Vec3d> u;
  /// Deviatoric stress tensors (filled only when the solver's
  /// computeStress option is on).
  std::vector<SymTensor3> stress;
};

}  // namespace hemo::lb

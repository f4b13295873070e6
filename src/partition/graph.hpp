#pragma once
/// \file graph.hpp
/// \brief CSR site graph built from the sparse lattice — the input to every
/// partitioner (the role ParMETIS's distributed graph plays for HemeLB).

#include <cstdint>
#include <vector>

#include "geometry/sparse_lattice.hpp"
#include "util/vec.hpp"

namespace hemo::partition {

/// Undirected graph over fluid sites; edges join lattice-adjacent sites
/// (26-neighbourhood — every pair that exchanges halo data in the solver).
struct SiteGraph {
  std::uint64_t numVertices = 0;
  /// CSR offsets, size numVertices+1.
  std::vector<std::uint64_t> xadj;
  /// Neighbour vertex ids, size xadj.back(). Both directions stored.
  std::vector<std::uint64_t> adjncy;
  /// Per-vertex workload weight. Defaults to 1 (pure fluid-solver cost);
  /// the vis-aware balance experiments add visualisation cost here.
  std::vector<double> vertexWeight;
  /// Lattice coordinates (for geometric partitioners).
  std::vector<Vec3i> coords;

  double totalWeight() const {
    double s = 0.0;
    for (double w : vertexWeight) s += w;
    return s;
  }

  std::uint64_t degree(std::uint64_t v) const {
    return xadj[static_cast<std::size_t>(v) + 1] -
           xadj[static_cast<std::size_t>(v)];
  }
};

/// Build the site graph of a finalized lattice. All vertex weights are 1.
/// With `useWorkers` the build may run on up to hardware_concurrency()
/// worker threads (util/parallel.hpp); code that runs once per rank thread
/// passes false, so R ranks do not start R x T threads between them.
SiteGraph buildSiteGraph(const geometry::SparseLattice& lattice,
                         bool useWorkers = true);

/// A k-way assignment of graph vertices (sites) to parts (ranks).
struct Partition {
  int numParts = 0;
  std::vector<int> partOfSite;

  std::vector<double> partLoads(const SiteGraph& graph) const;
};

/// Interface implemented by all decomposition algorithms.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual const char* name() const = 0;
  virtual Partition partition(const SiteGraph& graph, int numParts) const = 0;
};

}  // namespace hemo::partition

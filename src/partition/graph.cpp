#include "partition/graph.hpp"

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace hemo::partition {

SiteGraph buildSiteGraph(const geometry::SparseLattice& lattice,
                         bool useWorkers) {
  HEMO_CHECK(lattice.finalized());
  SiteGraph g;
  g.numVertices = lattice.numFluidSites();
  const auto n = static_cast<std::size_t>(g.numVertices);
  g.xadj.assign(n + 1, 0);
  g.vertexWeight.assign(n, 1.0);
  g.coords.resize(n);

  // Two passes over the same even split into contiguous site ranges:
  // degrees (into xadj[v + 1]), a serial prefix sum, then the neighbour
  // fill. Each range writes only its own sites' slots, so the result equals
  // a serial scan.
  const unsigned workers =
      useWorkers
          ? parallel::workerCount(g.numVertices * geometry::kNumDirections)
          : 1;
  const auto begin = [&](unsigned w) { return n * w / workers; };
  parallel::runWorkers(workers, [&](unsigned w) {
    for (std::size_t v = begin(w); v < begin(w + 1); ++v) {
      g.coords[v] = lattice.sitePosition(v);
      std::uint64_t degree = 0;
      for (int d = 0; d < geometry::kNumDirections; ++d) {
        if (lattice.neighborId(v, d) >= 0) ++degree;
      }
      g.xadj[v + 1] = degree;
    }
  });
  for (std::size_t v = 0; v < n; ++v) g.xadj[v + 1] += g.xadj[v];
  g.adjncy.resize(static_cast<std::size_t>(g.xadj[n]));
  parallel::runWorkers(workers, [&](unsigned w) {
    for (std::size_t v = begin(w); v < begin(w + 1); ++v) {
      auto e = static_cast<std::size_t>(g.xadj[v]);
      for (int d = 0; d < geometry::kNumDirections; ++d) {
        const auto u = lattice.neighborId(v, d);
        if (u >= 0) g.adjncy[e++] = static_cast<std::uint64_t>(u);
      }
    }
  });
  return g;
}

std::vector<double> Partition::partLoads(const SiteGraph& graph) const {
  HEMO_CHECK(partOfSite.size() == graph.numVertices);
  std::vector<double> loads(static_cast<std::size_t>(numParts), 0.0);
  for (std::size_t v = 0; v < partOfSite.size(); ++v) {
    HEMO_CHECK(partOfSite[v] >= 0 && partOfSite[v] < numParts);
    loads[static_cast<std::size_t>(partOfSite[v])] += graph.vertexWeight[v];
  }
  return loads;
}

}  // namespace hemo::partition

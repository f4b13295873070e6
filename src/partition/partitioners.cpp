#include "partition/partitioners.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <queue>
#include <span>

#include "util/bbox.hpp"
#include "util/check.hpp"
#include "util/hilbert.hpp"
#include "util/morton.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hemo::partition {

namespace {

/// Split the ordered index sequence into numParts weight-balanced contiguous
/// runs; the target for each part is recomputed on the remaining weight so
/// rounding error does not starve the last parts.
void assignContiguousByWeight(const std::vector<std::uint64_t>& order,
                              const SiteGraph& graph, int numParts,
                              std::vector<int>& partOf) {
  double remaining = 0.0;
  for (const auto v : order) {
    remaining += graph.vertexWeight[static_cast<std::size_t>(v)];
  }
  int part = 0;
  double inPart = 0.0;
  double target = remaining / numParts;
  for (const auto v : order) {
    partOf[static_cast<std::size_t>(v)] = part;
    const double w = graph.vertexWeight[static_cast<std::size_t>(v)];
    inPart += w;
    remaining -= w;
    if (inPart >= target && part + 1 < numParts) {
      ++part;
      inPart = 0.0;
      target = remaining / (numParts - part);
    }
  }
}

/// Vertex ids in ascending curve-key order, each key computed once. Keys
/// are unique per lattice coordinate, so the order equals sorting the ids
/// with a key-comparing comparator.
template <typename Key>
std::vector<std::uint64_t> orderByKey(const SiteGraph& graph, const Key& key) {
  const auto n = static_cast<std::size_t>(graph.numVertices);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keyed(n);
  for (std::size_t v = 0; v < n; ++v) keyed[v] = {key(graph.coords[v]), v};
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::uint64_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = keyed[i].second;
  return order;
}

/// Greedy graph growing: parts are grown one at a time by BFS from the
/// lowest-id unassigned vertex until each reaches its weight target,
/// recomputed on the remaining weight. Serves GreedyGrowingPartitioner and
/// the k-way initial partition (`Adjncy` holds 64- or 32-bit ids).
template <typename Adjncy>
std::vector<int> greedyGrow(std::span<const std::uint64_t> xadj,
                            const Adjncy& adjncy,
                            std::span<const double> vertexWeight,
                            int numParts) {
  const std::size_t n = vertexWeight.size();
  std::vector<int> partOf(n, -1);
  double remaining = 0.0;
  for (const double w : vertexWeight) remaining += w;
  int part = 0;
  double inPart = 0.0;
  double target = remaining / numParts;
  std::queue<typename Adjncy::value_type> frontier;
  std::size_t seedScan = 0;
  auto assign = [&](std::size_t v) {
    partOf[v] = part;
    const double w = vertexWeight[v];
    inPart += w;
    remaining -= w;
    for (std::uint64_t e = xadj[v]; e < xadj[v + 1]; ++e) {
      const auto u = adjncy[e];
      if (partOf[u] < 0) frontier.push(u);
    }
    if (inPart >= target && part + 1 < numParts) {
      ++part;
      inPart = 0.0;
      target = remaining / (numParts - part);
    }
  };
  std::size_t assigned = 0;
  while (assigned < n) {
    if (frontier.empty()) {
      // Seed (or re-seed after a disconnected component) from the lowest
      // unassigned id, as HemeLB's basic growing decomposition does.
      while (partOf[seedScan] >= 0) ++seedScan;
      assign(seedScan);
      ++assigned;
      continue;
    }
    const auto v = frontier.front();
    frontier.pop();
    if (partOf[v] >= 0) continue;
    assign(v);
    ++assigned;
  }
  return partOf;
}

}  // namespace

// --- BlockPartitioner -------------------------------------------------------

Partition BlockPartitioner::partition(const SiteGraph& graph,
                                      int numParts) const {
  HEMO_CHECK(graph.numVertices == lattice_.numFluidSites());
  Partition p;
  p.numParts = numParts;
  p.partOfSite.assign(static_cast<std::size_t>(graph.numVertices), 0);

  // Greedy contiguous scan over the coarse block table, by fluid volume —
  // identical logic to the parallel reader's initial distribution.
  const auto& blocks = lattice_.blocks();
  HEMO_CHECK_MSG(blocks.size() >= static_cast<std::size_t>(numParts),
                 "fewer non-empty blocks than parts");
  std::uint64_t remaining = graph.numVertices;
  int part = 0;
  std::uint64_t inPart = 0;
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const auto& b = blocks[bi];
    const int partsLeft = numParts - part;
    const std::uint64_t target =
        (remaining + static_cast<std::uint64_t>(partsLeft) - 1) /
        static_cast<std::uint64_t>(partsLeft);
    for (std::uint64_t id = b.firstSiteId; id < b.firstSiteId + b.fluidCount;
         ++id) {
      p.partOfSite[static_cast<std::size_t>(id)] = part;
    }
    inPart += b.fluidCount;
    remaining -= b.fluidCount;
    const std::size_t blocksLeft = blocks.size() - bi - 1;
    // Close the part when it reached its share — or when the remaining
    // blocks are only just enough to keep every later part non-empty.
    if (part + 1 < numParts &&
        (inPart >= target ||
         blocksLeft <= static_cast<std::size_t>(numParts - part - 1))) {
      ++part;
      inPart = 0;
    }
  }
  return p;
}

// --- SfcPartitioner ----------------------------------------------------------

Partition SfcPartitioner::partition(const SiteGraph& graph,
                                    int numParts) const {
  Partition p;
  p.numParts = numParts;
  p.partOfSite.assign(static_cast<std::size_t>(graph.numVertices), 0);
  const auto order =
      orderByKey(graph, [](const Vec3i& c) { return morton3(c); });
  assignContiguousByWeight(order, graph, numParts, p.partOfSite);
  return p;
}

// --- HilbertPartitioner -------------------------------------------------------

Partition HilbertPartitioner::partition(const SiteGraph& graph,
                                        int numParts) const {
  Partition p;
  p.numParts = numParts;
  p.partOfSite.assign(static_cast<std::size_t>(graph.numVertices), 0);
  // Enough bits to cover the largest coordinate.
  int maxCoord = 1;
  for (const auto& c : graph.coords) {
    maxCoord = std::max({maxCoord, c.x, c.y, c.z});
  }
  int bits = 1;
  while ((1 << bits) <= maxCoord) ++bits;
  const auto order =
      orderByKey(graph, [bits](const Vec3i& c) { return hilbert3(c, bits); });
  assignContiguousByWeight(order, graph, numParts, p.partOfSite);
  return p;
}

// --- RcbPartitioner ----------------------------------------------------------

namespace {

void rcbRecurse(std::vector<std::uint64_t>& idx, std::size_t lo,
                std::size_t hi, int firstPart, int numParts,
                const SiteGraph& graph, std::vector<int>& partOf) {
  if (numParts == 1) {
    for (std::size_t i = lo; i < hi; ++i) {
      partOf[static_cast<std::size_t>(idx[i])] = firstPart;
    }
    return;
  }
  // Widest axis of the enclosed coordinates.
  BoxI box = BoxI::empty();
  for (std::size_t i = lo; i < hi; ++i) {
    box.expand(graph.coords[static_cast<std::size_t>(idx[i])]);
  }
  const Vec3i ext = box.extent();
  const int axis = (ext.x >= ext.y && ext.x >= ext.z) ? 0
                   : (ext.y >= ext.z)                 ? 1
                                                      : 2;
  std::sort(idx.begin() + static_cast<std::ptrdiff_t>(lo),
            idx.begin() + static_cast<std::ptrdiff_t>(hi),
            [&](std::uint64_t a, std::uint64_t b) {
              return graph.coords[static_cast<std::size_t>(a)][axis] <
                     graph.coords[static_cast<std::size_t>(b)][axis];
            });
  // Weighted split proportional to the sub-part counts.
  const int leftParts = numParts / 2;
  double total = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    total += graph.vertexWeight[static_cast<std::size_t>(idx[i])];
  }
  const double want = total * leftParts / numParts;
  double acc = 0.0;
  std::size_t cut = lo;
  while (cut < hi && acc < want) {
    acc += graph.vertexWeight[static_cast<std::size_t>(idx[cut])];
    ++cut;
  }
  // Keep both halves non-empty.
  cut = std::clamp(cut, lo + 1, hi - 1);
  rcbRecurse(idx, lo, cut, firstPart, leftParts, graph, partOf);
  rcbRecurse(idx, cut, hi, firstPart + leftParts, numParts - leftParts, graph,
             partOf);
}

}  // namespace

Partition RcbPartitioner::partition(const SiteGraph& graph,
                                    int numParts) const {
  Partition p;
  p.numParts = numParts;
  p.partOfSite.assign(static_cast<std::size_t>(graph.numVertices), 0);
  std::vector<std::uint64_t> idx(static_cast<std::size_t>(graph.numVertices));
  std::iota(idx.begin(), idx.end(), 0);
  HEMO_CHECK(graph.numVertices >= static_cast<std::uint64_t>(numParts));
  rcbRecurse(idx, 0, idx.size(), 0, numParts, graph, p.partOfSite);
  return p;
}

// --- GreedyGrowingPartitioner ------------------------------------------------

Partition GreedyGrowingPartitioner::partition(const SiteGraph& graph,
                                              int numParts) const {
  Partition p;
  p.numParts = numParts;
  p.partOfSite =
      greedyGrow(graph.xadj, graph.adjncy, graph.vertexWeight, numParts);
  return p;
}

// --- MultilevelKWayPartitioner ----------------------------------------------

namespace {

/// One coarse level: 32-bit vertex ids and integer edge weights. Every edge
/// weight is a sum of unit fine edges, so sums and comparisons are exact.
struct WGraph {
  std::vector<std::uint64_t> xadj;
  std::vector<std::uint32_t> adjncy;
  std::vector<std::uint32_t> edgeWeight;
  std::vector<double> vertexWeight;
};

/// Read-only view of a level. The finest level borrows the site graph's
/// offsets and vertex weights and has no edge weights: every edge weighs 1.
struct LevelView {
  std::span<const std::uint64_t> xadj;
  std::span<const std::uint32_t> adjncy;
  std::span<const std::uint32_t> edgeWeight;
  std::span<const double> vertexWeight;

  std::uint32_t numVertices() const {
    return static_cast<std::uint32_t>(xadj.size() - 1);
  }
  std::uint32_t weight(std::uint64_t e) const {
    return edgeWeight.empty() ? 1u : edgeWeight[e];
  }
};

LevelView view(const WGraph& g) {
  return {g.xadj, g.adjncy, g.edgeWeight, g.vertexWeight};
}

/// Heavy-edge matching; returns fine->coarse map and the coarse count. The
/// seeded visit order defines the partition, so this stays serial.
std::pair<std::vector<std::uint32_t>, std::uint32_t> heavyEdgeMatch(
    const LevelView& g, Rng& rng) {
  const std::uint32_t n = g.numVertices();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniformInt(i)]);
  }
  // Vertex ids stay below 2^32 - 1, so the all-ones id is free.
  constexpr std::uint32_t kUnmatched = ~0u;
  std::vector<std::uint32_t> match(n, kUnmatched);
  std::vector<std::uint32_t> coarseOf(n);
  std::uint32_t coarseCount = 0;
  for (const auto v : order) {
    if (match[v] != kUnmatched) continue;
    std::uint32_t best = v;
    std::uint32_t bestW = 0;  // every edge weighs at least 1
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const auto u = g.adjncy[e];
      if (u != v && match[u] == kUnmatched && g.weight(e) > bestW) {
        bestW = g.weight(e);
        best = u;
        // With unit weights no later edge can be strictly heavier.
        if (g.edgeWeight.empty()) break;
      }
    }
    match[v] = best;
    match[best] = v;
    coarseOf[v] = coarseCount;
    coarseOf[best] = coarseCount;
    ++coarseCount;
  }
  return {std::move(coarseOf), coarseCount};
}

/// Contract matched pairs into a coarse CSR: rows in ascending coarse id,
/// each row's neighbours deduplicated (parallel edge weights add) and in
/// ascending coarse id, vertex weights summed in ascending fine id. Rows are
/// split across workers by contiguous coarse-id ranges; every buffer a
/// worker writes is sized here first.
WGraph buildCoarse(const LevelView& fine,
                   const std::vector<std::uint32_t>& coarseOf,
                   std::uint32_t coarseCount) {
  const std::uint32_t n = fine.numVertices();
  // Members of each coarse vertex in ascending fine id (counting sort), and
  // the member degree sum: an upper bound on each coarse row's length.
  std::vector<std::uint32_t> memberStart(std::size_t{coarseCount} + 1, 0);
  std::vector<std::uint64_t> rawStart(std::size_t{coarseCount} + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    ++memberStart[coarseOf[v] + 1];
    rawStart[coarseOf[v] + 1] += fine.xadj[v + 1] - fine.xadj[v];
  }
  for (std::uint32_t c = 0; c < coarseCount; ++c) {
    memberStart[c + 1] += memberStart[c];
    rawStart[c + 1] += rawStart[c];
  }
  std::vector<std::uint32_t> members(n);
  {
    std::vector<std::uint32_t> next(memberStart.begin(), memberStart.end() - 1);
    for (std::uint32_t v = 0; v < n; ++v) members[next[coarseOf[v]]++] = v;
  }

  const unsigned workers = parallel::workerCount(rawStart[coarseCount]);
  const auto bounds = parallel::splitRanges(
      coarseCount, workers, [&](std::size_t c) { return rawStart[c]; });
  // Packed (coarse id << 32 | weight) keys: adding a weight to a key leaves
  // the id intact because no level's total edge weight reaches 2^32, and
  // sorting the keys orders a row by coarse id. Left uninitialised, so the
  // slack of the upper bound is never touched.
  constexpr std::uint32_t kAbsent = ~0u;
  const auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(
      static_cast<std::size_t>(rawStart[coarseCount]));
  std::vector<std::vector<std::uint32_t>> slotOf(
      workers, std::vector<std::uint32_t>(coarseCount, kAbsent));
  WGraph c;
  c.xadj.assign(std::size_t{coarseCount} + 1, 0);
  c.vertexWeight.resize(coarseCount);
  parallel::runWorkers(workers, [&](unsigned w) {
    auto& slot = slotOf[w];
    std::uint64_t out = rawStart[bounds[w]];
    for (std::size_t cv = bounds[w]; cv < bounds[w + 1]; ++cv) {
      const std::uint64_t rowBegin = out;
      double weight = 0.0;
      for (std::uint32_t m = memberStart[cv]; m < memberStart[cv + 1]; ++m) {
        const auto v = members[m];
        weight += fine.vertexWeight[v];
        for (std::uint64_t e = fine.xadj[v]; e < fine.xadj[v + 1]; ++e) {
          const auto cu = coarseOf[fine.adjncy[e]];
          if (cu == cv) continue;
          if (slot[cu] == kAbsent) {
            slot[cu] = static_cast<std::uint32_t>(out - rowBegin);
            keys[out++] = (std::uint64_t{cu} << 32) | fine.weight(e);
          } else {
            keys[rowBegin + slot[cu]] += fine.weight(e);
          }
        }
      }
      for (std::uint64_t k = rowBegin; k < out; ++k) {
        slot[keys[k] >> 32] = kAbsent;
      }
      std::sort(keys.get() + rowBegin, keys.get() + out);
      c.vertexWeight[cv] = weight;
      c.xadj[cv + 1] = out - rowBegin;
    }
  });
  slotOf = {};
  for (std::uint32_t cv = 0; cv < coarseCount; ++cv) {
    c.xadj[cv + 1] += c.xadj[cv];
  }
  // Concatenate the workers' compacted slices in range order.
  c.adjncy.resize(static_cast<std::size_t>(c.xadj[coarseCount]));
  c.edgeWeight.resize(c.adjncy.size());
  parallel::runWorkers(workers, [&](unsigned w) {
    const std::uint64_t src = rawStart[bounds[w]];
    const std::uint64_t dst = c.xadj[bounds[w]];
    const std::uint64_t len = c.xadj[bounds[w + 1]] - dst;
    for (std::uint64_t i = 0; i < len; ++i) {
      c.adjncy[dst + i] = static_cast<std::uint32_t>(keys[src + i] >> 32);
      c.edgeWeight[dst + i] = static_cast<std::uint32_t>(keys[src + i]);
    }
  });
  return c;
}

/// Boundary KL/FM-style refinement sweeps; improves edge cut under a
/// balance constraint and never empties a part. Each vertex keeps a count
/// of its edges into other parts, updated on every move, so interior
/// vertices are skipped without scanning their edges.
void refine(const LevelView& g, std::vector<int>& partOf, int numParts,
            double tolerance, int passes) {
  const std::uint32_t n = g.numVertices();
  std::vector<double> loads(static_cast<std::size_t>(numParts), 0.0);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(numParts), 0);
  double total = 0.0;
  std::vector<std::uint32_t> external(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto p = static_cast<std::size_t>(partOf[v]);
    loads[p] += g.vertexWeight[v];
    counts[p] += 1;
    total += g.vertexWeight[v];
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      if (partOf[g.adjncy[e]] != partOf[v]) ++external[v];
    }
  }
  const double maxLoad = tolerance * total / numParts;

  std::vector<std::uint64_t> connect(static_cast<std::size_t>(numParts), 0);
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (external[v] == 0) continue;
      const int own = partOf[v];
      if (counts[static_cast<std::size_t>(own)] <= 1) continue;
      std::fill(connect.begin(), connect.end(), 0);
      for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        connect[static_cast<std::size_t>(partOf[g.adjncy[e]])] += g.weight(e);
      }
      const double w = g.vertexWeight[v];
      const auto ownConnect =
          static_cast<std::int64_t>(connect[static_cast<std::size_t>(own)]);
      int bestPart = own;
      std::int64_t bestGain = 0;
      for (int q = 0; q < numParts; ++q) {
        const auto qs = static_cast<std::size_t>(q);
        if (q == own || connect[qs] == 0) continue;
        if (loads[qs] + w > maxLoad) continue;
        const std::int64_t gain =
            static_cast<std::int64_t>(connect[qs]) - ownConnect;
        const bool balanceWin =
            loads[static_cast<std::size_t>(own)] - loads[qs] > w;
        if (gain > bestGain ||
            (gain == bestGain && bestPart == own && gain >= 0 &&
             balanceWin)) {
          bestGain = gain;
          bestPart = q;
        }
      }
      if (bestPart != own) {
        partOf[v] = bestPart;
        loads[static_cast<std::size_t>(own)] -= w;
        loads[static_cast<std::size_t>(bestPart)] += w;
        counts[static_cast<std::size_t>(own)] -= 1;
        counts[static_cast<std::size_t>(bestPart)] += 1;
        moved = true;
        std::uint32_t ext = 0;
        for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
          const auto u = g.adjncy[e];
          const int pu = partOf[u];
          if (pu != bestPart) ++ext;
          if (u == v) continue;
          if (pu == own) {
            ++external[u];
          } else if (pu == bestPart) {
            --external[u];
          }
        }
        external[v] = ext;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

Partition MultilevelKWayPartitioner::partition(const SiteGraph& graph,
                                               int numParts) const {
  HEMO_CHECK(graph.numVertices >= static_cast<std::uint64_t>(numParts));
  // 32-bit ids, and room for every edge-weight sum (bounded by the finest
  // level's edge count) below 2^32.
  HEMO_CHECK(graph.numVertices < (std::uint64_t{1} << 32));
  HEMO_CHECK(graph.adjncy.size() < (std::uint64_t{1} << 32));
  HEMO_CHECK(graph.xadj.size() == graph.numVertices + 1);
  Partition result;
  result.numParts = numParts;

  const std::vector<std::uint32_t> finestAdjncy(graph.adjncy.begin(),
                                                graph.adjncy.end());
  const LevelView finest{graph.xadj, finestAdjncy, {}, graph.vertexWeight};

  // Coarsening chain: levels[i] is level i + 1, coarseMaps[i] maps level i
  // onto it.
  std::vector<WGraph> levels;
  std::vector<std::vector<std::uint32_t>> coarseMaps;
  LevelView current = finest;
  Rng rng(options_.seed);
  const std::uint64_t coarseTarget =
      options_.coarsestVerticesPerPart * static_cast<std::uint64_t>(numParts);
  while (current.numVertices() > coarseTarget) {
    auto [coarseOf, count] = heavyEdgeMatch(current, rng);
    // Matching stalled (e.g. star graphs): stop coarsening.
    if (count > std::uint64_t{current.numVertices()} * 9 / 10) break;
    levels.push_back(buildCoarse(current, coarseOf, count));
    coarseMaps.push_back(std::move(coarseOf));
    current = view(levels.back());
  }

  // Initial partition on the coarsest graph, then uncoarsen + refine,
  // freeing each coarse level once it has been projected.
  std::vector<int> partOf =
      greedyGrow(current.xadj, current.adjncy, current.vertexWeight, numParts);
  refine(current, partOf, numParts, options_.imbalanceTolerance,
         options_.refinementPasses);
  while (!coarseMaps.empty()) {
    const auto& map = coarseMaps.back();
    std::vector<int> finer(map.size());
    for (std::size_t v = 0; v < map.size(); ++v) finer[v] = partOf[map[v]];
    partOf = std::move(finer);
    coarseMaps.pop_back();
    levels.pop_back();
    refine(levels.empty() ? finest : view(levels.back()), partOf, numParts,
           options_.imbalanceTolerance, options_.refinementPasses);
  }
  result.partOfSite = std::move(partOf);
  return result;
}

std::vector<std::unique_ptr<Partitioner>> makeAllPartitioners(
    const geometry::SparseLattice& lattice) {
  std::vector<std::unique_ptr<Partitioner>> all;
  all.push_back(std::make_unique<BlockPartitioner>(lattice));
  all.push_back(std::make_unique<SfcPartitioner>());
  all.push_back(std::make_unique<HilbertPartitioner>());
  all.push_back(std::make_unique<RcbPartitioner>());
  all.push_back(std::make_unique<GreedyGrowingPartitioner>());
  all.push_back(std::make_unique<MultilevelKWayPartitioner>());
  return all;
}

}  // namespace hemo::partition

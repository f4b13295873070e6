// Tests for the decomposition substrate: graph construction, all six
// partitioners (validity + balance + edge-cut sanity), metrics, the
// diffusive repartitioner, and bit-identity of the site graph and the
// k-way, curve and greedy partitioners against serial reference copies.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <thread>

#include "core/preprocess.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "partition/graph.hpp"
#include "partition/metrics.hpp"
#include "partition/partitioners.hpp"
#include "partition/repartition.hpp"
#include "util/hilbert.hpp"
#include "util/morton.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hemo::partition {
namespace {

geometry::SparseLattice makeTestLattice() {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  return geometry::voxelize(geometry::makeAneurysmVessel(6.0, 1.0, 1.0), opt);
}

class PartitionFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lattice_ = new geometry::SparseLattice(makeTestLattice());
    graph_ = new SiteGraph(buildSiteGraph(*lattice_));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete lattice_;
    graph_ = nullptr;
    lattice_ = nullptr;
  }
  static geometry::SparseLattice* lattice_;
  static SiteGraph* graph_;
};

geometry::SparseLattice* PartitionFixture::lattice_ = nullptr;
SiteGraph* PartitionFixture::graph_ = nullptr;

TEST_F(PartitionFixture, GraphIsSymmetricAndLoopFree) {
  const auto& g = *graph_;
  ASSERT_EQ(g.xadj.size(), g.numVertices + 1);
  for (std::uint64_t v = 0; v < g.numVertices; ++v) {
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const auto u = g.adjncy[e];
      EXPECT_NE(u, v);  // no self loops
      // Symmetric: u lists v.
      bool found = false;
      for (std::uint64_t e2 = g.xadj[u]; e2 < g.xadj[u + 1]; ++e2) {
        if (g.adjncy[e2] == v) {
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "edge " << v << "->" << u << " not symmetric";
      if (v > 100) break;  // full check on a prefix keeps the test fast
    }
    if (v > 100) break;
  }
}

TEST_F(PartitionFixture, GraphDegreesAreLatticeLike) {
  const auto& g = *graph_;
  for (std::uint64_t v = 0; v < g.numVertices; ++v) {
    EXPECT_LE(g.degree(v), 26u);
    EXPECT_GE(g.degree(v), 1u);
  }
  EXPECT_DOUBLE_EQ(g.totalWeight(), static_cast<double>(g.numVertices));
}

struct PartitionerCase {
  const char* name;
  int parts;
};

class AllPartitionersTest
    : public PartitionFixture,
      public ::testing::WithParamInterface<std::tuple<int, int>> {};

TEST_P(AllPartitionersTest, ValidBalancedCover) {
  const auto [which, parts] = GetParam();
  const auto all = makeAllPartitioners(*lattice_);
  const auto& partitioner = *all[static_cast<std::size_t>(which)];
  const auto p = partitioner.partition(*graph_, parts);

  ASSERT_EQ(p.numParts, parts);
  ASSERT_EQ(p.partOfSite.size(), graph_->numVertices);
  // Every site assigned exactly one valid part; every part non-empty.
  std::vector<std::uint64_t> count(static_cast<std::size_t>(parts), 0);
  for (const int q : p.partOfSite) {
    ASSERT_GE(q, 0);
    ASSERT_LT(q, parts);
    ++count[static_cast<std::size_t>(q)];
  }
  for (int q = 0; q < parts; ++q) {
    EXPECT_GT(count[static_cast<std::size_t>(q)], 0u)
        << partitioner.name() << " left part " << q << " empty";
  }
  const auto m = evaluatePartition(*graph_, p);
  // Block granularity is the loosest (a single 8³ block can exceed the
  // ideal share at high part counts on this small lattice); everything
  // else should be tight.
  const double bound = (which == 0) ? 3.2 : 1.35;
  EXPECT_LT(m.imbalance, bound) << partitioner.name();
  EXPECT_GT(m.edgeCut, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPartitionersTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(2, 3, 4, 8, 16)));

TEST_F(PartitionFixture, SinglePartIsTrivial) {
  for (const auto& partitioner : makeAllPartitioners(*lattice_)) {
    const auto p = partitioner->partition(*graph_, 1);
    const auto m = evaluatePartition(*graph_, p);
    EXPECT_EQ(m.edgeCut, 0u) << partitioner->name();
    EXPECT_EQ(m.boundaryVertices, 0u);
    EXPECT_DOUBLE_EQ(m.imbalance, 1.0);
  }
}

TEST_F(PartitionFixture, KWayBeatsNaiveSplitOnEdgeCut) {
  // The multilevel partitioner should cut fewer edges than the coarse
  // block scan — that is why HemeLB calls ParMETIS at all.
  MultilevelKWayPartitioner kway;
  BlockPartitioner block(*lattice_);
  const auto mk = evaluatePartition(*graph_, kway.partition(*graph_, 8));
  const auto mb = evaluatePartition(*graph_, block.partition(*graph_, 8));
  EXPECT_LT(mk.edgeCut, mb.edgeCut);
}

TEST_F(PartitionFixture, KWayIsDeterministic) {
  MultilevelKWayPartitioner a, b;
  const auto pa = a.partition(*graph_, 4);
  const auto pb = b.partition(*graph_, 4);
  EXPECT_EQ(pa.partOfSite, pb.partOfSite);
}

TEST_F(PartitionFixture, RcbRespectsGeometry) {
  RcbPartitioner rcb;
  const auto p = rcb.partition(*graph_, 2);
  // With 2 parts, RCB must split along the longest axis (x for the tube):
  // part of a site is monotone in x except at the single cut plane.
  int crossings = 0;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    for (std::uint64_t e = graph_->xadj[v]; e < graph_->xadj[v + 1]; ++e) {
      const auto u = graph_->adjncy[e];
      if (u > v && p.partOfSite[v] != p.partOfSite[u]) {
        ++crossings;
      }
    }
  }
  // The cut surface should be roughly one tube cross-section of links, far
  // smaller than the total edge count.
  EXPECT_LT(crossings * 20, static_cast<int>(graph_->adjncy.size() / 2));
}

TEST_F(PartitionFixture, MetricsCommVolumeAtLeastBoundary) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 8);
  const auto m = evaluatePartition(*graph_, p);
  EXPECT_GE(m.commVolume, m.boundaryVertices);
  EXPECT_GE(m.avgNeighborParts, 1.0);
  EXPECT_LE(m.avgNeighborParts, 7.0);
}

TEST_F(PartitionFixture, WeightedPartitionBalancesWeight) {
  // Double the weight of sites in the aneurysm half; the partitioner must
  // balance *weight*, not site count.
  SiteGraph g = *graph_;
  const int midX = lattice_->dims().x / 2;
  for (std::uint64_t v = 0; v < g.numVertices; ++v) {
    if (g.coords[v].x > midX) g.vertexWeight[v] = 3.0;
  }
  SfcPartitioner sfc;
  const auto p = sfc.partition(g, 4);
  const auto loads = p.partLoads(g);
  EXPECT_LT(imbalanceFactor(loads), 1.2);
  // Site *counts* must now be skewed.
  std::vector<double> siteCounts(4, 0.0);
  for (const int q : p.partOfSite) siteCounts[static_cast<std::size_t>(q)] += 1;
  EXPECT_GT(imbalanceFactor(siteCounts), 1.2);
}

TEST_F(PartitionFixture, RebalanceReducesMeasuredImbalance) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  // Simulate a measured per-site cost where one region got expensive (e.g.
  // in situ vis concentrated in the aneurysm).
  std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices), 1.0);
  const int midX = lattice_->dims().x / 2;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    if (graph_->coords[v].x > midX) cost[v] = 4.0;
  }
  const auto r = rebalance(*graph_, p, cost);
  EXPECT_GT(r.imbalanceBefore, 1.3);
  EXPECT_LT(r.imbalanceAfter, r.imbalanceBefore);
  EXPECT_LT(r.imbalanceAfter, 1.25);
  EXPECT_GT(r.sitesMoved, 0u);
  // Validity preserved.
  std::vector<std::uint64_t> count(4, 0);
  for (const int q : r.partition.partOfSite) {
    ASSERT_GE(q, 0);
    ASSERT_LT(q, 4);
    ++count[static_cast<std::size_t>(q)];
  }
  for (const auto c : count) EXPECT_GT(c, 0u);
}

TEST_F(PartitionFixture, RebalanceNoopWhenBalanced) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices), 1.0);
  RepartitionOptions opt;
  opt.targetImbalance = 1.10;
  const auto r = rebalance(*graph_, p, cost, opt);
  if (r.imbalanceBefore <= opt.targetImbalance) {
    EXPECT_EQ(r.sitesMoved, 0u);
  }
  EXPECT_LE(r.imbalanceAfter, r.imbalanceBefore + 1e-12);
}

// --- Repartitioner regression/property tests on a hand-built grid graph ---

/// W x H grid with 8-neighbourhood links (a 2-D slice of the lattice
/// adjacency) — small enough to reason about boundary shapes exactly.
SiteGraph makeGridGraph(int w, int h) {
  SiteGraph g;
  g.numVertices = static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h);
  g.xadj.push_back(0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int nx = x + dx;
          const int ny = y + dy;
          if (nx < 0 || ny < 0 || nx >= w || ny >= h) continue;
          g.adjncy.push_back(static_cast<std::uint64_t>(ny) * w + nx);
        }
      }
      g.xadj.push_back(g.adjncy.size());
      g.vertexWeight.push_back(1.0);
      g.coords.push_back({x, y, 0});
    }
  }
  return g;
}

/// Number of connected components of the subgraph induced by part `p`.
int partComponents(const SiteGraph& g, const std::vector<int>& partOf, int p) {
  std::vector<char> seen(g.numVertices, 0);
  int comps = 0;
  for (std::uint64_t s = 0; s < g.numVertices; ++s) {
    if (partOf[s] != p || seen[s]) continue;
    ++comps;
    std::vector<std::uint64_t> stack{s};
    seen[s] = 1;
    while (!stack.empty()) {
      const auto v = stack.back();
      stack.pop_back();
      for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const auto u = g.adjncy[e];
        if (partOf[u] == p && !seen[u]) {
          seen[u] = 1;
          stack.push_back(u);
        }
      }
    }
  }
  return comps;
}

/// Sites with no same-part neighbour (in a part of size > 1).
int singleSiteIslands(const SiteGraph& g, const std::vector<int>& partOf,
                      int numParts) {
  std::vector<std::uint64_t> count(static_cast<std::size_t>(numParts), 0);
  for (const int p : partOf) ++count[static_cast<std::size_t>(p)];
  int islands = 0;
  for (std::uint64_t v = 0; v < g.numVertices; ++v) {
    if (count[static_cast<std::size_t>(partOf[v])] <= 1) continue;
    bool hasFriend = false;
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      if (partOf[g.adjncy[e]] == partOf[v]) {
        hasFriend = true;
        break;
      }
    }
    if (!hasFriend) ++islands;
  }
  return islands;
}

// Regression for the boundary-shred guard: this exact configuration (4x5
// grid, three vertical strips, measured costs below) fragments under the
// pre-fix diffusion — which picked the least-loaded *adjacent* part with no
// regard for connectivity, detaching a single-site island and splitting a
// part into two components. With the guard (receiver must touch the site
// with at least as many links as any other foreign part) every part stays
// connected.
TEST(RebalanceGuard, PreventsBoundaryFragmentation) {
  const int w = 4;
  const int h = 5;
  const SiteGraph g = makeGridGraph(w, h);
  Partition start;
  start.numParts = 3;
  start.partOfSite = {0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2,
                      0, 0, 1, 2, 0, 0, 1, 2};
  const std::vector<double> cost = {22.8, 12.0, 25.5, 11.0, 19.2, 12.0, 27.0,
                                    14.0, 14.4, 14.4, 22.5, 16.0, 15.6, 22.8,
                                    15.0, 14.0, 14.4, 21.6, 19.5, 13.0};
  const auto r = rebalance(g, start, cost);
  EXPECT_LT(r.imbalanceAfter, r.imbalanceBefore);
  for (int p = 0; p < start.numParts; ++p) {
    EXPECT_LE(partComponents(g, r.partition.partOfSite, p), 1)
        << "part " << p << " fragmented";
  }
  EXPECT_EQ(singleSiteIslands(g, r.partition.partOfSite, start.numParts), 0);
}

TEST_F(PartitionFixture, RebalanceCountsDistinctMigratedSites) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices), 1.0);
  const int midX = lattice_->dims().x / 2;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    if (graph_->coords[v].x > midX) cost[v] = 6.0;
  }
  const auto r = rebalance(*graph_, p, cost);
  // sitesMoved is the *distinct* migration volume: exactly the sites whose
  // final owner differs from their starting owner, never more than the
  // lattice holds.
  std::uint64_t distinct = 0;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    if (r.partition.partOfSite[v] != p.partOfSite[v]) ++distinct;
  }
  EXPECT_EQ(r.sitesMoved, distinct);
  EXPECT_LE(r.sitesMoved, graph_->numVertices);
  EXPECT_GT(r.sitesMoved, 0u);
}

TEST_F(PartitionFixture, RebalanceImbalanceMonotonePerPass) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices), 1.0);
  const int midX = lattice_->dims().x / 2;
  for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
    if (graph_->coords[v].x > midX) cost[v] = 8.0;
  }
  const auto r = rebalance(*graph_, p, cost);
  ASSERT_EQ(static_cast<int>(r.passImbalance.size()), r.passesUsed);
  ASSERT_GT(r.passesUsed, 0);
  // Every accepted move is strictly downhill, so the measured imbalance
  // never rises between passes and ends exactly at imbalanceAfter.
  double prev = r.imbalanceBefore;
  for (const double f : r.passImbalance) {
    EXPECT_LE(f, prev + 1e-12);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(r.passImbalance.back(), r.imbalanceAfter);
}

TEST_F(PartitionFixture, RebalanceRepeatedCallsDoNotStall) {
  // Satellite check for the (proven-invariant) pass-loop mean: feeding the
  // result of one rebalance into the next with *updated* measured costs must
  // keep improving the measured imbalance, not stall above target.
  MultilevelKWayPartitioner kway;
  auto current = kway.partition(*graph_, 4);
  const int midX = lattice_->dims().x / 2;
  auto costWith = [&](double hot) {
    std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices),
                             1.0);
    for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
      if (graph_->coords[v].x > midX) cost[v] = hot;
    }
    return cost;
  };
  RepartitionOptions opt;
  opt.maxPasses = 8;  // deliberately too few to converge in one call
  const auto first = rebalance(*graph_, current, costWith(6.0), opt);
  // Costs drift between windows (the hot region cooled a little).
  const auto second =
      rebalance(*graph_, first.partition, costWith(5.0), opt);
  EXPECT_LT(second.imbalanceAfter, second.imbalanceBefore + 1e-12);
  const auto third =
      rebalance(*graph_, second.partition, costWith(5.0), opt);
  EXPECT_LE(third.imbalanceAfter, second.imbalanceAfter + 1e-12);
}

TEST_F(PartitionFixture, RebalanceMovesScaleWithImbalance) {
  MultilevelKWayPartitioner kway;
  const auto p = kway.partition(*graph_, 4);
  auto costWith = [&](double hot) {
    std::vector<double> cost(static_cast<std::size_t>(graph_->numVertices),
                             1.0);
    const int midX = lattice_->dims().x / 2;
    for (std::uint64_t v = 0; v < graph_->numVertices; ++v) {
      if (graph_->coords[v].x > midX) cost[v] = hot;
    }
    return cost;
  };
  const auto mild = rebalance(*graph_, p, costWith(1.5));
  const auto severe = rebalance(*graph_, p, costWith(8.0));
  EXPECT_LT(mild.sitesMoved, severe.sitesMoved);
}

// --- Reference partitioners -------------------------------------------------
//
// The serial multilevel k-way (per-vertex pair lists, uint64 ids, double
// edge weights) and the comparator-sorted curve partitioners that the
// production code must reproduce bit for bit.

namespace oracle {

struct WGraph {
  std::vector<std::uint64_t> xadj;
  std::vector<std::uint64_t> adjncy;
  std::vector<double> edgeWeight;
  std::vector<double> vertexWeight;

  std::uint64_t numVertices() const { return xadj.size() - 1; }
};

WGraph toWGraph(const SiteGraph& g) {
  WGraph w;
  w.xadj = g.xadj;
  w.adjncy = g.adjncy;
  w.edgeWeight.assign(g.adjncy.size(), 1.0);
  w.vertexWeight = g.vertexWeight;
  return w;
}

std::pair<std::vector<std::uint64_t>, std::uint64_t> heavyEdgeMatch(
    const WGraph& g, Rng& rng) {
  const auto n = g.numVertices();
  std::vector<std::uint64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniformInt(i)]);
  }
  constexpr std::uint64_t kUnmatched = ~0ULL;
  std::vector<std::uint64_t> match(static_cast<std::size_t>(n), kUnmatched);
  std::vector<std::uint64_t> coarseOf(static_cast<std::size_t>(n));
  std::uint64_t coarseCount = 0;
  for (const auto v : order) {
    if (match[v] != kUnmatched) continue;
    std::uint64_t best = v;
    double bestW = -1.0;
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const auto u = g.adjncy[e];
      if (u != v && match[u] == kUnmatched && g.edgeWeight[e] > bestW) {
        bestW = g.edgeWeight[e];
        best = u;
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

WGraph buildCoarse(const WGraph& fine,
                   const std::vector<std::uint64_t>& coarseOf,
                   std::uint64_t coarseCount) {
  WGraph c;
  c.vertexWeight.assign(static_cast<std::size_t>(coarseCount), 0.0);
  std::vector<std::vector<std::pair<std::uint64_t, double>>> adj(
      static_cast<std::size_t>(coarseCount));
  for (std::uint64_t v = 0; v < fine.numVertices(); ++v) {
    const auto cv = coarseOf[v];
    c.vertexWeight[cv] += fine.vertexWeight[v];
    for (std::uint64_t e = fine.xadj[v]; e < fine.xadj[v + 1]; ++e) {
      const auto cu = coarseOf[fine.adjncy[e]];
      if (cu == cv) continue;
      adj[cv].push_back({cu, fine.edgeWeight[e]});
    }
  }
  c.xadj.push_back(0);
  for (auto& edges : adj) {
    std::sort(edges.begin(), edges.end());
    std::size_t i = 0;
    while (i < edges.size()) {
      const std::uint64_t u = edges[i].first;
      double w = 0.0;
      while (i < edges.size() && edges[i].first == u) {
        w += edges[i].second;
        ++i;
      }
      c.adjncy.push_back(u);
      c.edgeWeight.push_back(w);
    }
    c.xadj.push_back(c.adjncy.size());
  }
  return c;
}

std::vector<int> greedyGrowWGraph(const WGraph& g, int numParts) {
  const auto n = g.numVertices();
  std::vector<int> partOf(static_cast<std::size_t>(n), -1);
  double remaining = 0.0;
  for (double w : g.vertexWeight) remaining += w;
  int part = 0;
  double inPart = 0.0;
  double target = remaining / numParts;
  std::queue<std::uint64_t> frontier;
  std::uint64_t seedScan = 0;
  std::uint64_t assigned = 0;
  auto assign = [&](std::uint64_t v) {
    partOf[v] = part;
    const double w = g.vertexWeight[v];
    inPart += w;
    remaining -= w;
    for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const auto u = g.adjncy[e];
      if (partOf[u] < 0) frontier.push(u);
    }
    if (inPart >= target && part + 1 < numParts) {
      ++part;
      inPart = 0.0;
      target = remaining / (numParts - part);
    }
  };
  while (assigned < n) {
    if (frontier.empty()) {
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

void refine(const WGraph& g, std::vector<int>& partOf, int numParts,
            double tolerance, int passes) {
  std::vector<double> loads(static_cast<std::size_t>(numParts), 0.0);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(numParts), 0);
  double total = 0.0;
  for (std::uint64_t v = 0; v < g.numVertices(); ++v) {
    const auto p = static_cast<std::size_t>(partOf[v]);
    loads[p] += g.vertexWeight[v];
    counts[p] += 1;
    total += g.vertexWeight[v];
  }
  const double maxLoad = tolerance * total / numParts;
  std::vector<double> connect(static_cast<std::size_t>(numParts), 0.0);
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (std::uint64_t v = 0; v < g.numVertices(); ++v) {
      const int own = partOf[v];
      if (counts[static_cast<std::size_t>(own)] <= 1) continue;
      std::fill(connect.begin(), connect.end(), 0.0);
      bool boundary = false;
      for (std::uint64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const int np = partOf[g.adjncy[e]];
        connect[static_cast<std::size_t>(np)] += g.edgeWeight[e];
        if (np != own) boundary = true;
      }
      if (!boundary) continue;
      const double w = g.vertexWeight[v];
      int bestPart = own;
      double bestGain = 0.0;
      for (int q = 0; q < numParts; ++q) {
        const auto qs = static_cast<std::size_t>(q);
        const auto os = static_cast<std::size_t>(own);
        if (q == own || connect[qs] <= 0.0) continue;
        if (loads[qs] + w > maxLoad) continue;
        const double gain = connect[qs] - connect[os];
        const bool balanceWin = loads[os] - loads[qs] > w;
        if (gain > bestGain ||
            (gain == bestGain && bestPart == own && gain >= 0.0 &&
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
      }
    }
    if (!moved) break;
  }
}

std::vector<int> kway(const SiteGraph& graph, int numParts) {
  const MultilevelKWayPartitioner::Options options;
  std::vector<WGraph> levels;
  std::vector<std::vector<std::uint64_t>> coarseMaps;
  levels.push_back(toWGraph(graph));
  Rng rng(options.seed);
  const std::uint64_t coarseTarget =
      options.coarsestVerticesPerPart * static_cast<std::uint64_t>(numParts);
  while (levels.back().numVertices() > coarseTarget) {
    auto [coarseOf, count] = heavyEdgeMatch(levels.back(), rng);
    if (count > levels.back().numVertices() * 9 / 10) break;
    WGraph coarse = buildCoarse(levels.back(), coarseOf, count);
    coarseMaps.push_back(std::move(coarseOf));
    levels.push_back(std::move(coarse));
  }
  std::vector<int> partOf = greedyGrowWGraph(levels.back(), numParts);
  refine(levels.back(), partOf, numParts, options.imbalanceTolerance,
         options.refinementPasses);
  for (std::size_t level = coarseMaps.size(); level-- > 0;) {
    const auto& map = coarseMaps[level];
    std::vector<int> finer(map.size());
    for (std::size_t v = 0; v < map.size(); ++v) finer[v] = partOf[map[v]];
    partOf = std::move(finer);
    refine(levels[level], partOf, numParts, options.imbalanceTolerance,
           options.refinementPasses);
  }
  return partOf;
}

void assignContiguousByWeight(const std::vector<std::uint64_t>& order,
                              const SiteGraph& graph, int numParts,
                              std::vector<int>& partOf) {
  double remaining = 0.0;
  for (const auto v : order) remaining += graph.vertexWeight[v];
  int part = 0;
  double inPart = 0.0;
  double target = remaining / numParts;
  for (const auto v : order) {
    partOf[v] = part;
    const double w = graph.vertexWeight[v];
    inPart += w;
    remaining -= w;
    if (inPart >= target && part + 1 < numParts) {
      ++part;
      inPart = 0.0;
      target = remaining / (numParts - part);
    }
  }
}

/// Sort the ids with a comparator that evaluates the curve key per compare.
template <typename Key>
std::vector<int> curve(const SiteGraph& graph, int numParts, const Key& key) {
  std::vector<std::uint64_t> order(graph.numVertices);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return key(graph.coords[a]) < key(graph.coords[b]);
  });
  std::vector<int> partOf(graph.numVertices, 0);
  assignContiguousByWeight(order, graph, numParts, partOf);
  return partOf;
}

int hilbertBits(const SiteGraph& graph) {
  int maxCoord = 1;
  for (const auto& c : graph.coords) {
    maxCoord = std::max({maxCoord, c.x, c.y, c.z});
  }
  int bits = 1;
  while ((1 << bits) <= maxCoord) ++bits;
  return bits;
}

}  // namespace oracle

// --- Bit-identity of the production partitioners against the oracles ------

/// Aneurysm lattices of 1657, 25817 and 74015 sites.
constexpr double kOracleVoxels[] = {0.235, 0.095, 0.067};

enum class Weights { kUnit, kVisAware, kFractional };

struct OracleInput {
  geometry::SparseLattice lattice;
  SiteGraph graph;
};

/// One lattice + graph per voxel size, built once per process.
const OracleInput& oracleInput(double voxel) {
  static std::map<double, std::unique_ptr<OracleInput>> cache;
  auto& slot = cache[voxel];
  if (!slot) {
    geometry::VoxelizeOptions opt;
    opt.voxelSize = voxel;
    auto lattice =
        geometry::voxelize(geometry::makeAneurysmVessel(6.0, 1.0, 1.0), opt);
    auto graph = buildSiteGraph(lattice);
    slot = std::make_unique<OracleInput>(
        OracleInput{std::move(lattice), std::move(graph)});
  }
  return *slot;
}

SiteGraph weightedGraph(const OracleInput& in, Weights kind) {
  SiteGraph g = in.graph;
  if (kind == Weights::kVisAware) {
    core::PreprocessConfig cfg;
    cfg.visAware = true;
    cfg.visRegion = [](const Vec3d& w) { return w.x > 2.5; };
    g.vertexWeight = core::makeSiteCosts(in.lattice, cfg);
  } else if (kind == Weights::kFractional) {
    // Non-integer costs pin the order in which vertex weights are summed.
    for (std::uint64_t v = 0; v < g.numVertices; ++v) {
      g.vertexWeight[v] = 1.0 + 0.37 * static_cast<double>(v % 7);
    }
  }
  return g;
}

class KWayOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int, Weights>> {};

std::string oracleCaseName(
    const ::testing::TestParamInfo<KWayOracleTest::ParamType>& info) {
  constexpr const char* kSize[] = {"Sites1k7", "Sites26k", "Sites74k"};
  constexpr const char* kWeights[] = {"Unit", "VisAware", "Fractional"};
  const auto [size, parts, kind] = info.param;
  return std::string(kSize[size]) + "_" + std::to_string(parts) + "Parts_" +
         kWeights[static_cast<int>(kind)];
}

TEST_P(KWayOracleTest, PartOfSiteBitIdentical) {
  const auto [size, parts, kind] = GetParam();
  const auto& in = oracleInput(kOracleVoxels[size]);
  const SiteGraph g = weightedGraph(in, kind);
  const auto p = MultilevelKWayPartitioner().partition(g, parts);
  EXPECT_EQ(p.partOfSite, oracle::kway(g, parts))
      << g.numVertices << " sites, " << parts << " parts";
}

INSTANTIATE_TEST_SUITE_P(
    Aneurysm, KWayOracleTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(2, 3, 4, 8, 16),
                       ::testing::Values(Weights::kUnit, Weights::kVisAware,
                                         Weights::kFractional)),
    oracleCaseName);

TEST(KWayOracle, LargestCaseSplitsAcrossWorkers) {
  // The 74k-site lattice must exercise the multi-worker coarsening and
  // site-graph paths whenever the host has more than one core.
  const auto& g = oracleInput(kOracleVoxels[2]).graph;
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(parallel::workerCount(g.adjncy.size()), 1u);
  }
}

TEST(SiteGraphOracle, EqualsSerialNeighborScan) {
  const auto& in = oracleInput(kOracleVoxels[2]);
  const auto& lat = in.lattice;
  std::vector<std::uint64_t> xadj{0};
  std::vector<std::uint64_t> adjncy;
  std::vector<Vec3i> coords;
  for (std::uint64_t v = 0; v < lat.numFluidSites(); ++v) {
    coords.push_back(lat.sitePosition(v));
    for (int d = 0; d < geometry::kNumDirections; ++d) {
      const auto n = lat.neighborId(v, d);
      if (n >= 0) adjncy.push_back(static_cast<std::uint64_t>(n));
    }
    xadj.push_back(adjncy.size());
  }
  EXPECT_EQ(in.graph.numVertices, lat.numFluidSites());
  EXPECT_EQ(in.graph.xadj, xadj);
  EXPECT_EQ(in.graph.adjncy, adjncy);
  EXPECT_EQ(in.graph.coords, coords);
  EXPECT_EQ(in.graph.vertexWeight,
            std::vector<double>(lat.numFluidSites(), 1.0));
  const SiteGraph inlineBuild = buildSiteGraph(lat, /*useWorkers=*/false);
  EXPECT_EQ(inlineBuild.xadj, xadj);
  EXPECT_EQ(inlineBuild.adjncy, adjncy);
  EXPECT_EQ(inlineBuild.coords, coords);
}

TEST(GreedyOracle, SharedGrowMatchesReference) {
  // GreedyGrowingPartitioner and the k-way initial partition share one
  // growing routine; it must equal the reference BFS on the site graph.
  for (const double voxel : {kOracleVoxels[0], kOracleVoxels[1]}) {
    const auto& in = oracleInput(voxel);
    for (const auto kind : {Weights::kUnit, Weights::kFractional}) {
      const SiteGraph g = weightedGraph(in, kind);
      for (const int parts : {2, 3, 8, 16}) {
        EXPECT_EQ(GreedyGrowingPartitioner().partition(g, parts).partOfSite,
                  oracle::greedyGrowWGraph(oracle::toWGraph(g), parts));
      }
    }
  }
}

TEST(CurveOracle, KeyOnceSortMatchesComparatorSort) {
  for (const double voxel : {kOracleVoxels[0], kOracleVoxels[1]}) {
    const auto& in = oracleInput(voxel);
    for (const auto kind : {Weights::kUnit, Weights::kFractional}) {
      const SiteGraph g = weightedGraph(in, kind);
      const int bits = oracle::hilbertBits(g);
      for (const int parts : {2, 3, 8, 16}) {
        EXPECT_EQ(SfcPartitioner().partition(g, parts).partOfSite,
                  oracle::curve(g, parts,
                                [](const Vec3i& c) { return morton3(c); }));
        EXPECT_EQ(HilbertPartitioner().partition(g, parts).partOfSite,
                  oracle::curve(g, parts, [bits](const Vec3i& c) {
                    return hilbert3(c, bits);
                  }));
      }
    }
  }
}

}  // namespace
}  // namespace hemo::partition

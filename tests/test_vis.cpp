// Tests for the visualisation substrate: camera/image/transfer algebra,
// ghosted field exchange, trilinear sampling, distributed streamlines
// (including bitwise rank invariance), volume rendering + both compositors,
// in situ tracers and slice LIC. The empty-space-skipping volume marcher is
// checked against a copy of the brute-force ray caster it replaced.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "comm/runtime.hpp"
#include "core/driver.hpp"
#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "lb/solver.hpp"
#include "partition/partitioners.hpp"
#include "vis/camera.hpp"
#include "vis/lic.hpp"
#include "vis/line_render.hpp"
#include "vis/particles.hpp"
#include "vis/sampler.hpp"
#include "vis/streamlines.hpp"
#include "vis/transfer.hpp"
#include "vis/volume.hpp"

namespace hemo::vis {
namespace {

using geometry::SparseLattice;

// --- camera / image / transfer ------------------------------------------------

TEST(Camera, CentralRayPointsForward) {
  Camera cam;
  cam.position = {0, 0, 5};
  cam.target = {0, 0, 0};
  const Ray r = cam.rayThrough(63, 63, 128, 128);
  EXPECT_NEAR(r.direction.z, -1.0, 0.02);
  EXPECT_NEAR(r.direction.norm(), 1.0, 1e-12);
}

TEST(Camera, CornerRaysDiverge) {
  Camera cam;
  cam.position = {0, 0, 5};
  cam.target = {0, 0, 0};
  const Ray tl = cam.rayThrough(0, 0, 128, 128);
  const Ray br = cam.rayThrough(127, 127, 128, 128);
  EXPECT_LT(tl.direction.x, 0.0);
  EXPECT_GT(tl.direction.y, 0.0);
  EXPECT_GT(br.direction.x, 0.0);
  EXPECT_LT(br.direction.y, 0.0);
}

TEST(Rgba, FrontToBackAccumulationMatchesOver) {
  // Accumulating a then b front-to-back == placing a over b.
  const Rgba a{0.2f, 0.1f, 0.0f, 0.4f};  // premultiplied
  const Rgba b{0.0f, 0.3f, 0.3f, 0.6f};
  Rgba acc;
  acc.accumulate(a);
  acc.accumulate(b);
  Rgba over = b;
  over.under(a);
  EXPECT_NEAR(acc.r, over.r, 1e-6);
  EXPECT_NEAR(acc.g, over.g, 1e-6);
  EXPECT_NEAR(acc.b, over.b, 1e-6);
  EXPECT_NEAR(acc.a, over.a, 1e-6);
}

TEST(Rgba, OpaqueFrontBlocksBack) {
  Rgba acc;
  acc.accumulate(Rgba{1.f, 0.f, 0.f, 1.f});
  acc.accumulate(Rgba{0.f, 1.f, 0.f, 1.f});
  EXPECT_FLOAT_EQ(acc.r, 1.f);
  EXPECT_FLOAT_EQ(acc.g, 0.f);
  EXPECT_FLOAT_EQ(acc.a, 1.f);
}

TEST(TransferFunction, ClampsAndInterpolates) {
  TransferFunction tf({{0.f, 0.f, 0.f, 0.f, 0.f}, {1.f, 1.f, 0.f, 0.f, 1.f}});
  EXPECT_FLOAT_EQ(tf.sample(-5.f).a, 0.f);
  EXPECT_FLOAT_EQ(tf.sample(2.f).a, 1.f);
  const Rgba mid = tf.sample(0.5f);
  EXPECT_NEAR(mid.a, 0.5f, 1e-6);
  EXPECT_NEAR(mid.r, 0.25f, 1e-6);  // premultiplied: 0.5 colour × 0.5 alpha
}

TEST(TransferFunction, RejectsNonAscendingPoints) {
  EXPECT_THROW(TransferFunction({{1.f, 0, 0, 0, 0}, {0.f, 0, 0, 0, 0}}),
               CheckError);
}

TEST(Image, ToRgb8CompositesBackground) {
  Image img(2, 1);
  img.at(0, 0) = Rgba{1.f, 0.f, 0.f, 1.f};
  const auto rgb = img.toRgb8(0.5f);
  EXPECT_EQ(rgb[0], 255);  // opaque red pixel
  EXPECT_EQ(rgb[3], 128);  // empty pixel shows the background
}

// --- fixtures -------------------------------------------------------------------

SparseLattice tubeLattice(double voxel = 0.25) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeStraightTube(6.0, 1.0), opt);
}

partition::Partition makePartition(const SparseLattice& lat, int parts) {
  const auto graph = partition::buildSiteGraph(lat);
  partition::MultilevelKWayPartitioner kway;
  return kway.partition(graph, parts);
}

/// Synthetic macro fields: u = fn(world), rho = 1.
lb::MacroFields syntheticField(
    const lb::DomainMap& domain,
    const std::function<Vec3d(const Vec3d&)>& fn) {
  lb::MacroFields macro;
  macro.rho.assign(domain.numOwned(), 1.0);
  macro.u.resize(domain.numOwned());
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    macro.u[l] = fn(domain.lattice().siteWorld(domain.globalOf(l)));
  }
  return macro;
}

// --- ghosted field / sampler ------------------------------------------------------

TEST(GhostedField, GhostValuesMatchOwners) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 4);
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d& w) { return Vec3d{w.x, w.y, w.z}; });
    GhostedField field(domain, comm, 1);
    field.refresh(macro, comm);
    // Every ghost value equals the analytic field at that site.
    int checked = 0;
    for (std::uint64_t g = 0; g < lat.numFluidSites(); ++g) {
      if (domain.ownerOf(g) == domain.rank()) continue;
      const auto u = field.velocityAt(g);
      if (!u) continue;  // not in this rank's ghost ring
      const Vec3d w = lat.siteWorld(g);
      EXPECT_NEAR((*u - Vec3d{w.x, w.y, w.z}).norm(), 0.0, 1e-12);
      ++checked;
    }
    EXPECT_GT(checked, 0);
  });
}

TEST(GhostedField, TwoRingsCoverMoreThanOne) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 4);
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    GhostedField one(domain, comm, 1);
    GhostedField two(domain, comm, 2);
    EXPECT_GT(two.ghostCount(), one.ghostCount());
  });
}

TEST(Sampler, ExactAtSiteCentreAndInterpolatedBetween) {
  const auto lat = tubeLattice();
  partition::Partition part;
  part.numParts = 1;
  part.partOfSite.assign(lat.numFluidSites(), 0);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, 0);
    auto macro = syntheticField(
        domain, [](const Vec3d& w) { return Vec3d{w.x, 0, 0}; });
    GhostedField field(domain, comm, 1);
    field.refresh(macro, comm);
    VelocitySampler sampler(field);
    // A deep-interior site: the sampled x-velocity == analytic x (linear
    // field reproduced exactly by trilinear interpolation).
    const Vec3d probe{3.0, 0.0, 0.0};
    const auto u = sampler.sample(probe);
    ASSERT_TRUE(u.has_value());
    EXPECT_NEAR(u->x, 3.0, 1e-9);
    // Outside the fluid: nullopt.
    EXPECT_FALSE(sampler.sample(Vec3d{3.0, 1.6, 0.0}).has_value());
  });
}

// --- streamlines -------------------------------------------------------------------

TEST(DiscSeeds, LieOnDiscDeterministically) {
  const auto seeds = discSeeds({1, 2, 3}, {0, 0, 1}, 2.0, 64);
  ASSERT_EQ(seeds.size(), 64u);
  for (const auto& s : seeds) {
    EXPECT_NEAR(s.z, 3.0, 1e-12);                      // on the plane
    EXPECT_LE((s - Vec3d{1, 2, 3}).norm(), 2.0 + 1e-9);  // inside radius
  }
  EXPECT_EQ(discSeeds({1, 2, 3}, {0, 0, 1}, 2.0, 64)[10], seeds[10]);
}

TEST(Streamlines, UniformFlowGivesStraightMonotoneLines) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 1);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, 0);
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.01, 0, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    StreamlineParams params;
    params.maxVertices = 300;
    const auto lines = traceStreamlines(
        comm, field, {{0.5, 0, 0}, {0.5, 0.4, 0.2}}, params);
    ASSERT_EQ(lines.size(), 2u);
    for (const auto& line : lines) {
      ASSERT_GT(line.vertices.size(), 20u);
      for (std::size_t v = 1; v < line.vertices.size(); ++v) {
        EXPECT_GT(line.vertices[v].x, line.vertices[v - 1].x);
        EXPECT_NEAR(line.vertices[v].y, line.vertices[0].y, 1e-4);
        EXPECT_NEAR(line.vertices[v].z, line.vertices[0].z, 1e-4);
      }
    }
  });
}

std::vector<Polyline> traceOnRanks(const SparseLattice& lat, int ranks,
                                   TraceStats* stats = nullptr) {
  const auto part = makePartition(lat, ranks);
  const auto seeds = discSeeds({0.5, 0, 0}, {1, 0, 0}, 0.7, 16);
  std::vector<Polyline> result;
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    // A swirling analytic field exercising all three components.
    auto macro = syntheticField(domain, [](const Vec3d& w) {
      return Vec3d{0.02, 0.004 * std::sin(w.x), 0.004 * std::cos(w.x)};
    });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    StreamlineParams params;
    params.maxVertices = 400;
    auto lines = traceStreamlines(comm, field, seeds, params, stats);
    if (comm.rank() == 0) result = std::move(lines);
  });
  return result;
}

TEST(Streamlines, BitwiseRankInvariance) {
  const auto lat = tubeLattice();
  const auto serial = traceOnRanks(lat, 1);
  TraceStats stats;
  const auto parallel = traceOnRanks(lat, 4, &stats);
  EXPECT_GT(stats.migrations, 0u);  // particles really crossed ranks
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(parallel[i].seedId, serial[i].seedId);
    ASSERT_EQ(parallel[i].vertices.size(), serial[i].vertices.size())
        << "seed " << serial[i].seedId;
    for (std::size_t v = 0; v < serial[i].vertices.size(); ++v) {
      EXPECT_EQ(parallel[i].vertices[v].x, serial[i].vertices[v].x);
      EXPECT_EQ(parallel[i].vertices[v].y, serial[i].vertices[v].y);
      EXPECT_EQ(parallel[i].vertices[v].z, serial[i].vertices[v].z);
    }
  }
}

TEST(Streamlines, SeedsOutsideFluidAreDropped) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.01, 0, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    StreamlineParams params;
    const auto lines = traceStreamlines(
        comm, field, {{3.0, 5.0, 5.0}, {3.0, 0.0, 0.0}}, params);
    if (comm.rank() == 0) {
      ASSERT_EQ(lines.size(), 1u);
      EXPECT_EQ(lines[0].seedId, 1u);
    }
  });
}

// --- volume rendering -----------------------------------------------------------

VolumeRenderOptions tubeRenderOptions(int size = 96) {
  VolumeRenderOptions opt;
  opt.camera.position = {3.0, 0.5, 6.0};
  opt.camera.target = {3.0, 0.0, 0.0};
  opt.width = size;
  opt.height = size;
  opt.transfer = TransferFunction::bloodFlow(0.f, 0.02f);
  return opt;
}

Image renderOnRanks(const SparseLattice& lat, int ranks, CompositeMode mode) {
  const auto part = makePartition(lat, ranks);
  Image result;
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(domain, [](const Vec3d& w) {
      return Vec3d{0.02 * (1.0 - (w.y * w.y + w.z * w.z)), 0, 0};
    });
    auto img = renderVolume(comm, domain, macro, tubeRenderOptions(), mode);
    if (comm.rank() == 0) result = std::move(img);
  });
  return result;
}

TEST(VolumeRender, SerialImageShowsTheTube) {
  const auto lat = tubeLattice();
  const Image img = renderOnRanks(lat, 1, CompositeMode::kDirectSend);
  int covered = 0;
  for (std::size_t i = 0; i < img.numPixels(); ++i) {
    if (img.pixel(i).a > 0.01f) ++covered;
  }
  // The tube should cover a significant band of the image, not all of it.
  EXPECT_GT(covered, static_cast<int>(img.numPixels()) / 20);
  EXPECT_LT(covered, static_cast<int>(img.numPixels()) * 3 / 4);
}

TEST(VolumeRender, DirectSendMatchesSerial) {
  const auto lat = tubeLattice();
  const Image serial = renderOnRanks(lat, 1, CompositeMode::kDirectSend);
  const Image parallel = renderOnRanks(lat, 4, CompositeMode::kDirectSend);
  double sumDiff = 0.0;
  for (std::size_t i = 0; i < serial.numPixels(); ++i) {
    sumDiff += std::abs(serial.pixel(i).a - parallel.pixel(i).a) +
               std::abs(serial.pixel(i).r - parallel.pixel(i).r);
  }
  EXPECT_LT(sumDiff / static_cast<double>(serial.numPixels()), 0.01);
}

TEST(VolumeRender, BinarySwapMatchesDirectSend) {
  const auto lat = tubeLattice();
  const Image ds = renderOnRanks(lat, 4, CompositeMode::kDirectSend);
  const Image bs = renderOnRanks(lat, 4, CompositeMode::kBinarySwap);
  double maxDiff = 0.0;
  for (std::size_t i = 0; i < ds.numPixels(); ++i) {
    maxDiff = std::max<double>(
        maxDiff, std::abs(ds.pixel(i).a - bs.pixel(i).a));
  }
  EXPECT_LT(maxDiff, 5e-3);
}

TEST(VolumeRender, BinarySwapRejectsNonPowerOfTwo) {
  const auto lat = tubeLattice(0.35);
  comm::Runtime rt(3);
  EXPECT_THROW(
      rt.run([&](comm::Communicator& comm) {
        const auto part = makePartition(lat, 3);
        lb::DomainMap domain(lat, part, comm.rank());
        auto macro = syntheticField(
            domain, [](const Vec3d&) { return Vec3d{0.01, 0, 0}; });
        renderVolume(comm, domain, macro, tubeRenderOptions(32),
                     CompositeMode::kBinarySwap);
      }),
      CheckError);
}

TEST(VolumeRender, DirectSendOrdersEqualDepthsByRank) {
  // Two ranks put a fragment on pixel 0 at the same depth: rank 0's must
  // composite in front. On pixel 1 rank 1 is nearer and goes in front.
  const Rgba red{0.5f, 0.f, 0.f, 0.5f}, green{0.f, 0.5f, 0.f, 0.5f};
  Image result;
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    Image fragment(2, 1);
    const bool first = comm.rank() == 0;
    fragment.pixel(0) = first ? red : green;
    fragment.depth(0) = 2.5f;
    fragment.pixel(1) = first ? red : green;
    fragment.depth(1) = first ? 3.f : 1.f;
    auto img = compositeDirectSend(comm, fragment);
    if (comm.rank() == 0) result = std::move(img);
  });
  Rgba redOverGreen, greenOverRed;
  redOverGreen.accumulate(red);
  redOverGreen.accumulate(green);
  greenOverRed.accumulate(green);
  greenOverRed.accumulate(red);
  ASSERT_EQ(result.numPixels(), 2u);
  EXPECT_EQ(result.pixel(0).r, redOverGreen.r);
  EXPECT_EQ(result.pixel(0).g, redOverGreen.g);
  EXPECT_EQ(result.pixel(0).a, redOverGreen.a);
  EXPECT_EQ(result.depth(0), 2.5f);
  EXPECT_EQ(result.pixel(1).r, greenOverRed.r);
  EXPECT_EQ(result.pixel(1).g, greenOverRed.g);
  EXPECT_EQ(result.depth(1), 1.f);
}

// --- volume renderer equivalence ---------------------------------------------------

/// The brute-force ray caster the empty-space-skipping marcher replaced,
/// kept as the oracle: a dense scalar brick rebuilt per frame, every
/// sample evaluated, the transfer function applied per sample.
class OracleBrick {
 public:
  OracleBrick(const lb::DomainMap& domain, const lb::MacroFields& macro,
              RenderField field)
      : domain_(&domain) {
    const auto& lat = domain.lattice();
    BoxI box = BoxI::empty();
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      box.expand(lat.sitePosition(domain.globalOf(l)));
    }
    if (box.isEmpty()) return;
    lo_ = box.lo;
    ext_ = box.extent();
    const std::size_t cells = static_cast<std::size_t>(ext_.x) *
                              static_cast<std::size_t>(ext_.y) *
                              static_cast<std::size_t>(ext_.z);
    scalar_.assign(cells, 0.f);
    mask_.assign(cells, 0);
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      const Vec3i p = lat.sitePosition(domain.globalOf(l)) - lo_;
      const std::size_t idx =
          (static_cast<std::size_t>(p.z) * static_cast<std::size_t>(ext_.y) +
           static_cast<std::size_t>(p.y)) *
              static_cast<std::size_t>(ext_.x) +
          static_cast<std::size_t>(p.x);
      mask_[idx] = 1;
      scalar_[idx] = field == RenderField::kVelocityMagnitude
                         ? static_cast<float>(
                               macro.u[static_cast<std::size_t>(l)].norm())
                         : static_cast<float>(
                               macro.rho[static_cast<std::size_t>(l)]);
    }
    const double h = lat.voxelSize();
    worldBounds_.lo = lat.origin() + lo_.cast<double>() * h;
    worldBounds_.hi = lat.origin() + (lo_ + ext_).cast<double>() * h;
  }

  bool sampleScalar(const Vec3d& world, float& value) const {
    if (empty()) return false;
    const auto& lat = domain_->lattice();
    const Vec3d rel = (world - lat.origin()) / lat.voxelSize();
    const Vec3i p{static_cast<int>(std::floor(rel.x)) - lo_.x,
                  static_cast<int>(std::floor(rel.y)) - lo_.y,
                  static_cast<int>(std::floor(rel.z)) - lo_.z};
    if (p.x < 0 || p.x >= ext_.x || p.y < 0 || p.y >= ext_.y || p.z < 0 ||
        p.z >= ext_.z) {
      return false;
    }
    const std::size_t idx =
        (static_cast<std::size_t>(p.z) * static_cast<std::size_t>(ext_.y) +
         static_cast<std::size_t>(p.y)) *
            static_cast<std::size_t>(ext_.x) +
        static_cast<std::size_t>(p.x);
    if (!mask_[idx]) return false;
    value = scalar_[idx];
    return true;
  }

  const BoxD& worldBounds() const { return worldBounds_; }
  bool empty() const { return ext_.x == 0; }

 private:
  const lb::DomainMap* domain_;
  Vec3i lo_{0, 0, 0};
  Vec3i ext_{0, 0, 0};
  std::vector<float> scalar_;
  std::vector<std::uint8_t> mask_;
  BoxD worldBounds_ = BoxD::empty();
};

Image oracleRenderLocal(const lb::DomainMap& domain,
                        const lb::MacroFields& macro,
                        const VolumeRenderOptions& options) {
  const OracleBrick brick(domain, macro, options.field);
  Image img(options.width, options.height);
  if (brick.empty()) return img;
  const double h = domain.lattice().voxelSize();
  const double step = options.stepVoxels * h;
  const float alphaScale = static_cast<float>(options.stepVoxels);
  for (int py = 0; py < options.height; ++py) {
    for (int px = 0; px < options.width; ++px) {
      const Ray ray =
          options.camera.rayThrough(px, py, options.width, options.height);
      double t0, t1;
      if (!brick.worldBounds().rayIntersect(ray.origin, ray.direction, t0,
                                            t1)) {
        continue;
      }
      if (options.clipBox) {
        double c0, c1;
        if (!options.clipBox->rayIntersect(ray.origin, ray.direction, c0,
                                           c1)) {
          continue;
        }
        t0 = std::max(t0, c0);
        t1 = std::min(t1, c1);
        if (t0 > t1) continue;
      }
      Rgba acc;
      float firstHit = Image::kFarDepth;
      double t = (std::floor(t0 / step) + 1.0) * step;
      for (; t <= t1; t += step) {
        const Vec3d p = ray.origin + ray.direction * t;
        float value;
        if (!brick.sampleScalar(p, value)) continue;
        Rgba sample = options.transfer.sample(value);
        sample.r *= alphaScale;
        sample.g *= alphaScale;
        sample.b *= alphaScale;
        sample.a *= alphaScale;
        if (sample.a <= 0.f) continue;
        if (firstHit == Image::kFarDepth) {
          firstHit = static_cast<float>(t);
        }
        acc.accumulate(sample);
        if (acc.a >= options.opacityCutoff) break;
      }
      if (firstHit < Image::kFarDepth) {
        const std::size_t i = static_cast<std::size_t>(py) *
                                  static_cast<std::size_t>(options.width) +
                              static_cast<std::size_t>(px);
        img.pixel(i) = acc;
        img.depth(i) = firstHit;
      }
    }
  }
  return img;
}

/// Bit-equal depths, every channel within 1e-6, identical toRgb8 bytes.
/// Returns the number of covered pixels.
int expectSameImage(const Image& got, const Image& want,
                    const std::string& what) {
  EXPECT_EQ(got.numPixels(), want.numPixels()) << what;
  if (got.numPixels() != want.numPixels()) return 0;
  int covered = 0, depthMismatches = 0, colourMismatches = 0;
  for (std::size_t i = 0; i < want.numPixels(); ++i) {
    if (want.depth(i) < Image::kFarDepth) ++covered;
    if (std::bit_cast<std::uint32_t>(got.depth(i)) !=
        std::bit_cast<std::uint32_t>(want.depth(i))) {
      ++depthMismatches;
    }
    const Rgba& g = got.pixel(i);
    const Rgba& w = want.pixel(i);
    if (!(std::abs(g.r - w.r) <= 1e-6f && std::abs(g.g - w.g) <= 1e-6f &&
          std::abs(g.b - w.b) <= 1e-6f && std::abs(g.a - w.a) <= 1e-6f)) {
      ++colourMismatches;
    }
  }
  EXPECT_EQ(depthMismatches, 0) << what;
  EXPECT_EQ(colourMismatches, 0) << what;
  EXPECT_TRUE(got.toRgb8() == want.toRgb8()) << what;
  return covered;
}

SparseLattice aneurysmLattice(double voxel = 0.2) {
  geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return geometry::voxelize(geometry::makeAneurysmVessel(5.0, 1.0, 1.2),
                            opt);
}

lb::LbParams shortRunParams() {
  lb::LbParams p;
  p.tau = 0.8;
  p.bodyForce = {1e-5, 0, 0};
  return p;
}

/// Camera k of a 12-view orbit around the lattice's fluid bounds.
Camera orbitCamera(const SparseLattice& lat, int k) {
  const auto b = lat.fluidBounds();
  const Vec3d lo = lat.origin() + b.lo.cast<double>() * lat.voxelSize();
  const Vec3d hi = lat.origin() + b.hi.cast<double>() * lat.voxelSize();
  const double a = 0.4 + 2.0 * 3.14159265358979 * k / 12.0;
  const double radius = 1.3 * (hi - lo).norm();
  Camera cam;
  cam.target = (lo + hi) * 0.5;
  cam.position = cam.target + Vec3d{radius * std::cos(a),
                                    radius * (k % 3 - 1) * 0.3,
                                    radius * std::sin(a)};
  return cam;
}

/// The 12 orbit views, plus one camera inside the vessel's bounding box
/// and one looking straight down the z axis (rays through exact lattice
/// planes).
std::vector<Camera> equivalenceCameras(const SparseLattice& lat) {
  std::vector<Camera> cams;
  for (int k = 0; k < 12; ++k) cams.push_back(orbitCamera(lat, k));
  const auto b = lat.fluidBounds();
  const Vec3d lo = lat.origin() + b.lo.cast<double>() * lat.voxelSize();
  const Vec3d hi = lat.origin() + b.hi.cast<double>() * lat.voxelSize();
  const Vec3d centre = (lo + hi) * 0.5;
  Camera inside;
  inside.position = {lo.x + 0.1 * (hi.x - lo.x), centre.y, centre.z};
  inside.target = centre;
  cams.push_back(inside);
  Camera axis;
  axis.position = {centre.x, centre.y, hi.z + 2.0 * (hi - lo).norm()};
  axis.target = {centre.x, centre.y, centre.z};
  cams.push_back(axis);
  return cams;
}

/// The central third of the fluid bounds, in world coordinates.
BoxD centralClip(const SparseLattice& lat) {
  const auto b = lat.fluidBounds();
  const Vec3d lo = lat.origin() + b.lo.cast<double>() * lat.voxelSize();
  const Vec3d hi = lat.origin() + b.hi.cast<double>() * lat.voxelSize();
  BoxD clip;
  clip.lo = lo + (hi - lo) * (1.0 / 3.0);
  clip.hi = lo + (hi - lo) * (2.0 / 3.0);
  return clip;
}

/// Skipping marcher vs oracle on every rank's fragment and on the
/// composited frame: 14 views × {velocity, density} × {no clip, clip} ×
/// {default cutoff, 0.3}.
void checkMarcherMatchesOracle(int ranks) {
  const auto lat = aneurysmLattice();
  const auto part = makePartition(lat, ranks);
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    lb::SolverD3Q19 solver(domain, comm, shortRunParams());
    solver.run(40);
    const auto& macro = solver.macro();
    double speedMax = 0.0, rhoMin = 1e300, rhoMax = 0.0;
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      speedMax = std::max(speedMax, macro.u[l].norm());
      rhoMin = std::min(rhoMin, macro.rho[l]);
      rhoMax = std::max(rhoMax, macro.rho[l]);
    }
    speedMax = comm.allreduceMax(speedMax);
    rhoMin = comm.allreduceMin(rhoMin);
    rhoMax = comm.allreduceMax(rhoMax);
    ASSERT_GT(speedMax, 0.0);
    ASSERT_LT(rhoMin, rhoMax);

    const VolumeBrick brick(domain);
    int covered = 0, coveredClipped = 0;
    float peakAlpha = 0.f;
    const auto cameras = equivalenceCameras(lat);
    for (std::size_t k = 0; k < cameras.size(); ++k) {
      for (const auto field :
           {RenderField::kVelocityMagnitude, RenderField::kDensity}) {
        for (const bool clip : {false, true}) {
          for (const float cutoff : {0.98f, 0.3f}) {
            VolumeRenderOptions opt;
            opt.camera = cameras[k];
            opt.width = 48;
            opt.height = 48;
            opt.field = field;
            opt.transfer =
                field == RenderField::kVelocityMagnitude
                    ? TransferFunction::bloodFlow(
                          0.f, static_cast<float>(speedMax))
                    : TransferFunction::bloodFlow(
                          static_cast<float>(rhoMin),
                          static_cast<float>(rhoMax));
            opt.opacityCutoff = cutoff;
            if (clip) opt.clipBox = centralClip(lat);
            const std::string what =
                "ranks " + std::to_string(ranks) + " rank " +
                std::to_string(comm.rank()) + " view " + std::to_string(k) +
                " field " + std::to_string(static_cast<int>(field)) +
                " clip " + std::to_string(clip) + " cutoff " +
                std::to_string(cutoff);
            const Image want = oracleRenderLocal(domain, macro, opt);
            const Image got = brick.render(macro, opt);
            const int c = expectSameImage(got, want, what);
            (clip ? coveredClipped : covered) += c;
            expectSameImage(renderLocal(domain, macro, opt), want,
                            what + " (renderLocal)");
            for (const auto& p : want.pixels()) {
              peakAlpha = std::max(peakAlpha, p.a);
            }
            const Image frameWant = compositeDirectSend(comm, want);
            const Image frameGot = renderVolume(comm, brick, macro, opt);
            if (comm.rank() == 0) {
              expectSameImage(frameGot, frameWant, what + " (frame)");
            }
          }
        }
      }
    }
    // Not vacuous: every configuration draws something, and the 0.3
    // cutoff is reachable.
    EXPECT_GT(comm.allreduceSum(covered), 0);
    EXPECT_GT(comm.allreduceSum(coveredClipped), 0);
    EXPECT_GT(comm.allreduceMax(peakAlpha), 0.3f);
  });
}

TEST(VolumeRenderEquivalence, SkippingMarcherMatchesBruteForceOneRank) {
  checkMarcherMatchesOracle(1);
}

TEST(VolumeRenderEquivalence, SkippingMarcherMatchesBruteForceThreeRanks) {
  checkMarcherMatchesOracle(3);
}

TEST(VolumeRenderEquivalence, CellFloorsMatchTheDivisionOnLatticePlanes) {
  // The marcher takes sample cells from (p - origin) * (1 / h). Where that
  // product and (p - origin) / h floor to different columns, the result
  // must still be the division's column. Axis-aligned rays (dir.x == 0)
  // hold p.x fixed, so place them on such offsets, inside the tube, over
  // a field whose colour changes from column to column.
  const auto lat = tubeLattice(0.2);
  const double h = lat.voxelSize();
  const Vec3d origin = lat.origin();
  const auto b = lat.fluidBounds();
  std::vector<double> offsets;
  for (int k = b.lo.x + 1; k < b.hi.x; ++k) {
    double d = std::nextafter(k * h, 0.0);
    for (int i = 0; i < 4; ++i, d = std::nextafter(d, 1e9)) {
      if ((origin.x + d) - origin.x == d &&
          std::floor(d / h) != std::floor(d * (1.0 / h))) {
        offsets.push_back(d);
      }
    }
  }
  ASSERT_FALSE(offsets.empty());
  const auto part = makePartition(lat, 1);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator&) {
    lb::DomainMap domain(lat, part, 0);
    auto macro = syntheticField(domain, [](const Vec3d& w) {
      return Vec3d{0.01 * (w.x + 4.0), 0, 0};
    });
    const VolumeBrick brick(domain);
    for (const double d : offsets) {
      VolumeRenderOptions opt;
      opt.width = 1;
      opt.height = 1;
      opt.transfer = TransferFunction::bloodFlow(0.f, 0.1f);
      opt.camera.position = {origin.x + d, 0.05, 10.0};
      opt.camera.target = {origin.x + d, 0.05, 0.0};
      const Image want = oracleRenderLocal(domain, macro, opt);
      ASSERT_LT(want.depth(0), Image::kFarDepth);
      EXPECT_EQ(want.pixel(0).r, brick.render(macro, opt).pixel(0).r)
          << "offset " << d;
      // Non-vacuous: the product's column would draw another colour.
      opt.camera.position.x = opt.camera.target.x = origin.x + (d + 0.5 * h);
      EXPECT_NE(want.pixel(0).r,
                oracleRenderLocal(domain, macro, opt).pixel(0).r);
    }
  });
}

TEST(VolumeRenderEquivalence, DriverFrameAfterMigrationMatchesOracle) {
  // After a live migration the driver must render from a brick of the new
  // domain: its frame equals the oracle rendered on that domain.
  const auto lat = aneurysmLattice(0.25);
  const auto part = makePartition(lat, 2);
  std::vector<double> cost(lat.numFluidSites(), 1.0);
  for (std::size_t g = 0; g < cost.size(); ++g) {
    if (part.partOfSite[g] == 0) cost[g] = 4.0;
  }
  core::DriverConfig cfg;
  cfg.lb = shortRunParams();
  cfg.computeWss = false;
  cfg.visEvery = 0;
  cfg.statusEvery = 0;
  cfg.render.width = 48;
  cfg.render.height = 48;
  cfg.render.camera = orbitCamera(lat, 2);
  cfg.render.transfer = TransferFunction::bloodFlow(0.f, 2e-4f);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    core::SimulationDriver driver(domain, comm, cfg);
    driver.run(20);
    driver.runPipelineNow();
    const auto outcome = driver.migrateNow(cost);
    ASSERT_TRUE(outcome.migrated);
    ASSERT_NE(&driver.domain(), &domain);
    driver.run(10);
    driver.runPipelineNow();
    const Image want = compositeDirectSend(
        comm, oracleRenderLocal(driver.domain(), driver.solver().macro(),
                                driver.renderStage().options()));
    if (comm.rank() == 0) {
      const int covered =
          expectSameImage(driver.lastOutputs().volumeImage, want, "frame");
      EXPECT_GT(covered, 0);
    }
  });
}

TEST(VolumeBrick, CellsHoldSlotsAndCappedChebyshevDistance) {
  const auto lat = aneurysmLattice(0.3);
  const auto part = makePartition(lat, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    const VolumeBrick brick(domain);
    BoxI box = BoxI::empty();
    std::vector<Vec3i> owned;
    for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
      owned.push_back(lat.sitePosition(domain.globalOf(l)));
      box.expand(owned.back());
      EXPECT_EQ(brick.cell(owned.back()), static_cast<std::int32_t>(l));
    }
    ASSERT_FALSE(box.isEmpty());
    int farCells = 0;
    // The padded brick, plus one more layer that lies outside it.
    for (int z = box.lo.z - 2; z < box.hi.z + 2; ++z) {
      for (int y = box.lo.y - 2; y < box.hi.y + 2; ++y) {
        for (int x = box.lo.x - 2; x < box.hi.x + 2; ++x) {
          const Vec3i p{x, y, z};
          const std::int32_t cell = brick.cell(p);
          if (cell >= 0) continue;
          const bool outside = x < box.lo.x - 1 || x > box.hi.x ||
                               y < box.lo.y - 1 || y > box.hi.y ||
                               z < box.lo.z - 1 || z > box.hi.z;
          if (outside) {
            EXPECT_EQ(cell, -1);
            continue;
          }
          int d = VolumeBrick::kMaxDistance;
          for (const auto& q : owned) {
            d = std::min(d, std::max({std::abs(q.x - x), std::abs(q.y - y),
                                      std::abs(q.z - z)}));
          }
          ASSERT_EQ(cell, -d) << x << "," << y << "," << z;
          if (d > 1) ++farCells;
        }
      }
    }
    EXPECT_GT(farCells, 0);
  });
}

// --- tracers ---------------------------------------------------------------------

TEST(Tracers, UniformFlowAdvectsAndMigrates) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 4);
  comm::Runtime rt(4);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.2, 0, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    TracerSwarm swarm(field);
    const auto seeds = discSeeds({0.5, 0, 0}, {1, 0, 0}, 0.6, 32);
    swarm.inject(comm, seeds);
    EXPECT_EQ(swarm.globalCount(comm), 32u);
    const double h = lat.voxelSize();
    // 60 steps × 0.2 voxels/step × 0.25 world/voxel = 3 world units —
    // enough to cross several of the 4 parts of a 6-unit tube.
    for (int s = 0; s < 60; ++s) swarm.advect(comm);
    EXPECT_EQ(swarm.globalCount(comm), 32u);
    const auto all = swarm.gather(comm);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 32u);
      for (const auto& t : all) {
        EXPECT_EQ(t.age, 60u);
        EXPECT_NEAR(t.pos.x - 0.5, 60 * 0.2 * h, 1e-6);
      }
    }
    const std::uint64_t migrations =
        comm.allreduceSum(swarm.stats().migrations);
    if (comm.rank() == 0) {
      EXPECT_GT(migrations, 0u);
    }
  });
}

TEST(Tracers, WallImpactKills) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 1);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, 0);
    // Strong upward flow: tracers crash into the wall.
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0, 0.3, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    TracerSwarm swarm(field);
    swarm.inject(comm, discSeeds({3.0, 0, 0}, {1, 0, 0}, 0.5, 16));
    for (int s = 0; s < 60; ++s) swarm.advect(comm);
    EXPECT_EQ(swarm.globalCount(comm), 0u);
    EXPECT_GT(swarm.stats().killedAtWall, 0u);
  });
}

TEST(Tracers, StreaklineInjectionAccumulates) {
  const auto lat = tubeLattice();
  const auto part = makePartition(lat, 2);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.05, 0, 0}; });
    GhostedField field(domain, comm, 2);
    field.refresh(macro, comm);
    TracerSwarm swarm(field);
    const std::vector<Vec3d> nozzle{{0.5, 0, 0}};
    for (int s = 0; s < 10; ++s) {
      swarm.inject(comm, nozzle);
      swarm.advect(comm);
    }
    EXPECT_EQ(swarm.globalCount(comm), 10u);
    const auto all = swarm.gather(comm);
    if (comm.rank() == 0) {
      // Ages 1..10, each distinct — a streak along the axis.
      std::set<std::uint32_t> ages;
      for (const auto& t : all) ages.insert(t.age);
      EXPECT_EQ(ages.size(), 10u);
    }
  });
}

// --- LIC --------------------------------------------------------------------------

LicResult licOnRanks(const SparseLattice& lat, int ranks) {
  const auto part = makePartition(lat, ranks);
  LicResult result;
  comm::Runtime rt(ranks);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(lat, part, comm.rank());
    auto macro = syntheticField(
        domain, [](const Vec3d&) { return Vec3d{0.02, 0, 0}; });
    LicOptions opt;
    opt.axis = 2;
    opt.sliceIndex = lat.dims().z / 2;
    auto lic = computeLicSlice(comm, domain, macro, opt);
    if (comm.rank() == 0) result = std::move(lic);
  });
  return result;
}

TEST(Lic, IntensityOnlyOnFluid) {
  const auto lat = tubeLattice();
  const auto lic = licOnRanks(lat, 1);
  ASSERT_GT(lic.width, 0);
  int fluidPixels = 0;
  for (std::size_t i = 0; i < lic.intensity.size(); ++i) {
    if (lic.fluidMask[i]) {
      ++fluidPixels;
      EXPECT_GE(lic.intensity[i], 0.f);
      EXPECT_LE(lic.intensity[i], 1.f);
    } else {
      EXPECT_EQ(lic.intensity[i], 0.f);
    }
  }
  EXPECT_GT(fluidPixels, 100);
}

TEST(Lic, RankInvariant) {
  const auto lat = tubeLattice();
  const auto serial = licOnRanks(lat, 1);
  const auto parallel = licOnRanks(lat, 4);
  ASSERT_EQ(parallel.intensity.size(), serial.intensity.size());
  for (std::size_t i = 0; i < serial.intensity.size(); ++i) {
    EXPECT_EQ(parallel.intensity[i], serial.intensity[i]) << "pixel " << i;
  }
}

TEST(Lic, SmearsAlongTheFlowDirection) {
  // With uniform +x flow, LIC averages noise along x: variance along rows
  // (x) must be much smaller than along columns (y).
  const auto lat = tubeLattice();
  const auto lic = licOnRanks(lat, 1);
  double varAlong = 0.0, varAcross = 0.0;
  int nAlong = 0, nAcross = 0;
  auto at = [&](int x, int y) {
    return lic.intensity[static_cast<std::size_t>(y) *
                             static_cast<std::size_t>(lic.width) +
                         static_cast<std::size_t>(x)];
  };
  auto isFluid = [&](int x, int y) {
    return lic.fluidMask[static_cast<std::size_t>(y) *
                             static_cast<std::size_t>(lic.width) +
                         static_cast<std::size_t>(x)] != 0;
  };
  for (int y = 1; y + 1 < lic.height; ++y) {
    for (int x = 1; x + 1 < lic.width; ++x) {
      if (!isFluid(x, y)) continue;
      if (isFluid(x + 1, y)) {
        const double d = at(x + 1, y) - at(x, y);
        varAlong += d * d;
        ++nAlong;
      }
      if (isFluid(x, y + 1)) {
        const double d = at(x, y + 1) - at(x, y);
        varAcross += d * d;
        ++nAcross;
      }
    }
  }
  ASSERT_GT(nAlong, 50);
  ASSERT_GT(nAcross, 50);
  EXPECT_LT(varAlong / nAlong, 0.35 * (varAcross / nAcross));
}

// --- line rendering ------------------------------------------------------------------

TEST(LineRender, DrawsVisibleDepthTestedLines) {
  Image img(64, 64);
  Camera cam;
  cam.position = {0, 0, 5};
  cam.target = {0, 0, 0};
  Polyline line;
  line.seedId = 0;
  line.vertices = {{-1.f, 0.f, 0.f}, {1.f, 0.f, 0.f}};
  drawPolylines(img, cam, {line});
  int lit = 0;
  for (std::size_t i = 0; i < img.numPixels(); ++i) {
    if (img.pixel(i).a > 0.f) ++lit;
  }
  EXPECT_GT(lit, 10);
  // A nearer line overwrites; a farther line does not.
  Polyline near = line;
  near.seedId = 1;
  near.vertices = {{-1.f, 0.f, 2.f}, {1.f, 0.f, 2.f}};
  drawPolylines(img, cam, {near});
  Polyline far = line;
  far.seedId = 2;
  far.vertices = {{-1.f, 0.f, -2.f}, {1.f, 0.f, -2.f}};
  const Rgba before = img.at(32, 32);
  drawPolylines(img, cam, {far});
  // Centre pixel keeps the nearer line's colour.
  EXPECT_FLOAT_EQ(img.at(32, 32).r, before.r);
}

TEST(LineRender, SeedColorsCycleDistinctly) {
  EXPECT_NE(seedColor(0).r, seedColor(1).r);
  EXPECT_FLOAT_EQ(seedColor(0).r, seedColor(8).r);
}

}  // namespace
}  // namespace hemo::vis

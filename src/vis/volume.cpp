#include "vis/volume.hpp"

#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace hemo::vis {

namespace {
constexpr int kCompositeTag = 103;
}

// --- Image -------------------------------------------------------------------

std::vector<std::uint8_t> Image::toRgb8(float background) const {
  std::vector<std::uint8_t> out;
  out.reserve(pixels_.size() * 3);
  auto to8 = [](float v) {
    const float c = std::clamp(v, 0.0f, 1.0f);
    return static_cast<std::uint8_t>(std::lround(c * 255.0f));
  };
  for (const auto& p : pixels_) {
    // Composite over the background (premultiplied colours).
    out.push_back(to8(p.r + (1.f - p.a) * background));
    out.push_back(to8(p.g + (1.f - p.a) * background));
    out.push_back(to8(p.b + (1.f - p.a) * background));
  }
  return out;
}

// --- VolumeBrick -----------------------------------------------------------------

namespace {

/// One axis of the separable L∞ distance transform over a line of cells:
/// d'(i) = min_j max(|i - j|, d(j)), capped at `cap`. Run along x, y and z
/// in turn on a field that starts at 0 on fluid and `cap` elsewhere, it
/// yields the capped Chebyshev distance to the nearest fluid cell.
void chebyshevPass(const std::vector<std::uint8_t>& in,
                   std::vector<std::uint8_t>& out, int cap) {
  const int n = static_cast<int>(in.size());
  for (int i = 0; i < n; ++i) {
    int best = in[static_cast<std::size_t>(i)];
    // max(r, .) >= r: once r reaches the best distance nothing beats it.
    for (int r = 1; r < best; ++r) {
      const int below = i - r >= 0 ? in[static_cast<std::size_t>(i - r)] : cap;
      const int above = i + r < n ? in[static_cast<std::size_t>(i + r)] : cap;
      best = std::min(best, std::max(r, std::min(below, above)));
    }
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(best);
  }
}

/// Pixel window [x0, x1) x [y0, y1) holding every pixel whose ray can hit
/// `box`: the bounding rectangle of the box corners projected through the
/// camera, widened by a pixel against rounding. The whole image when a
/// corner is not in front of the camera.
struct PixelWindow {
  int x0, x1, y0, y1;
};

PixelWindow projectBox(const Camera::Basis& cam, const BoxD& box) {
  const PixelWindow full{0, cam.width, 0, cam.height};
  double uMin = std::numeric_limits<double>::infinity(), uMax = -uMin;
  double vMin = uMin, vMax = -uMin;
  for (int c = 0; c < 8; ++c) {
    const Vec3d corner{(c & 1) ? box.hi.x : box.lo.x,
                       (c & 2) ? box.hi.y : box.lo.y,
                       (c & 4) ? box.hi.z : box.lo.z};
    const Vec3d rel = corner - cam.origin;
    const double depth = rel.dot(cam.forward);
    if (!(depth > 1e-6 * rel.norm())) return full;
    const double u = rel.dot(cam.right) / depth;
    const double v = rel.dot(cam.up) / depth;
    uMin = std::min(uMin, u);
    uMax = std::max(uMax, u);
    vMin = std::min(vMin, v);
    vMax = std::max(vMax, v);
  }
  // Inverse of Camera::Basis::ray's pixel-centre mapping.
  const double su = cam.width / (2.0 * cam.tanHalf * cam.aspect);
  const double sv = cam.height / (2.0 * cam.tanHalf);
  auto clampTo = [](double x, int hi) {
    return static_cast<int>(std::clamp(x, 0.0, static_cast<double>(hi)));
  };
  return {clampTo(std::floor(uMin * su + 0.5 * cam.width - 0.5) - 1.0,
                  cam.width),
          clampTo(std::ceil(uMax * su + 0.5 * cam.width - 0.5) + 2.0,
                  cam.width),
          clampTo(std::floor(0.5 * cam.height - vMax * sv - 0.5) - 1.0,
                  cam.height),
          clampTo(std::ceil(0.5 * cam.height - vMin * sv - 0.5) + 2.0,
                  cam.height)};
}

}  // namespace

VolumeBrick::VolumeBrick(const lb::DomainMap& domain) : domain_(&domain) {
  const auto& lat = domain.lattice();
  BoxI box = BoxI::empty();
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    box.expand(lat.sitePosition(domain.globalOf(l)));
  }
  if (box.isEmpty()) return;
  lo_ = box.lo - Vec3i{1, 1, 1};
  ext_ = box.extent() + Vec3i{2, 2, 2};
  const std::array<std::size_t, 3> n{static_cast<std::size_t>(ext_.x),
                                     static_cast<std::size_t>(ext_.y),
                                     static_cast<std::size_t>(ext_.z)};
  const std::array<std::size_t, 3> stride{1, n[0], n[0] * n[1]};
  const std::size_t cells = n[0] * n[1] * n[2];
  cells_.assign(cells, 0);
  std::vector<std::uint8_t> dist(cells, kMaxDistance);
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    const Vec3i p = lat.sitePosition(domain.globalOf(l)) - lo_;
    const std::size_t idx = static_cast<std::size_t>(p.x) * stride[0] +
                            static_cast<std::size_t>(p.y) * stride[1] +
                            static_cast<std::size_t>(p.z) * stride[2];
    cells_[idx] = static_cast<std::int32_t>(l);
    dist[idx] = 0;
  }
  std::vector<std::uint8_t> in, out;
  for (int axis = 0; axis < 3; ++axis) {
    const int u = (axis + 1) % 3, v = (axis + 2) % 3;
    in.resize(n[axis]);
    out.resize(n[axis]);
    for (std::size_t iv = 0; iv < n[v]; ++iv) {
      for (std::size_t iu = 0; iu < n[u]; ++iu) {
        const std::size_t base = iu * stride[u] + iv * stride[v];
        for (std::size_t i = 0; i < n[axis]; ++i) {
          in[i] = dist[base + i * stride[axis]];
        }
        chebyshevPass(in, out, kMaxDistance);
        for (std::size_t i = 0; i < n[axis]; ++i) {
          dist[base + i * stride[axis]] = out[i];
        }
      }
    }
  }
  for (std::size_t i = 0; i < cells; ++i) {
    if (dist[i] > 0) cells_[i] = -static_cast<std::int32_t>(dist[i]);
  }
  const double h = lat.voxelSize();
  worldBounds_.lo = lat.origin() + box.lo.cast<double>() * h;
  worldBounds_.hi = lat.origin() + box.hi.cast<double>() * h;
}

std::int32_t VolumeBrick::cell(const Vec3i& latticePos) const {
  const Vec3i p = latticePos - lo_;
  if (p.x < 0 || p.x >= ext_.x || p.y < 0 || p.y >= ext_.y || p.z < 0 ||
      p.z >= ext_.z) {
    return -1;
  }
  return cells_[(static_cast<std::size_t>(p.z) *
                     static_cast<std::size_t>(ext_.y) +
                 static_cast<std::size_t>(p.y)) *
                    static_cast<std::size_t>(ext_.x) +
                static_cast<std::size_t>(p.x)];
}

// --- local ray casting --------------------------------------------------------

Image VolumeBrick::render(const lb::MacroFields& macro,
                          const VolumeRenderOptions& options) const {
  Image img(options.width, options.height);
  if (empty() || !(options.stepVoxels > 0.0)) return img;
  const auto& lat = domain_->lattice();
  const Vec3d latOrigin = lat.origin();
  const double h = lat.voxelSize();
  const double step = options.stepVoxels * h;
  // Opacity correction: the transfer function is defined per voxel of
  // optical depth; rescale alpha to the actual sampling distance.
  const float alphaScale = static_cast<float>(options.stepVoxels);

  // Each owned site's premultiplied, alpha-scaled colour, once per frame.
  // Transparent sites get exact zeros, which accumulate exactly nothing.
  std::vector<Rgba> colour(domain_->numOwned());
  for (std::size_t l = 0; l < colour.size(); ++l) {
    const float value =
        options.field == RenderField::kVelocityMagnitude
            ? static_cast<float>(macro.u[l].norm())
            : static_cast<float>(macro.rho[l]);
    Rgba c = options.transfer.sample(value);
    c.r *= alphaScale;
    c.g *= alphaScale;
    c.b *= alphaScale;
    c.a *= alphaScale;
    if (c.a <= 0.f) c = Rgba{};
    colour[l] = c;
  }

  const std::size_t strideY = static_cast<std::size_t>(ext_.x);
  const std::size_t strideZ = strideY * static_cast<std::size_t>(ext_.y);
  // floor((p - latOrigin) / h) is taken from a multiply by 1 / h: the
  // product is within a few ulps of the quotient (< 1e-9 for lattice
  // coordinates below 2^20), so the floors agree unless the product lies
  // within kFloorGuard of an integer, where the division itself decides.
  const double invH = 1.0 / h;
  constexpr double kFloorGuard = 1e-9;
  const Camera::Basis basis =
      options.camera.basis(options.width, options.height);
  const PixelWindow window = projectBox(basis, worldBounds_);
  for (int py = window.y0; py < window.y1; ++py) {
    for (int px = window.x0; px < window.x1; ++px) {
      const Ray ray = basis.ray(px, py);
      double t0, t1;
      if (!worldBounds_.rayIntersect(ray.origin, ray.direction, t0, t1)) {
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
      // Voxels one step moves the sample along its fastest axis.
      const double voxelsPerStep =
          options.stepVoxels * std::max({std::abs(ray.direction.x),
                                         std::abs(ray.direction.y),
                                         std::abs(ray.direction.z)});
      Rgba acc;
      float firstHit = Image::kFarDepth;
      // Global-phase sampling: sample points lie at multiples of `step`
      // along the ray regardless of the brick entry, so every rank samples
      // the same world positions and compositing matches a serial render.
      double t = (std::floor(t0 / step) + 1.0) * step;
      for (; t <= t1; t += step) {
        const Vec3d p = ray.origin + ray.direction * t;
        const Vec3d d = p - latOrigin;
        const Vec3d q = d * invH;
        Vec3d f{std::floor(q.x), std::floor(q.y), std::floor(q.z)};
        const Vec3d frac = q - f;
        if (std::min({frac.x, frac.y, frac.z}) < kFloorGuard ||
            std::max({frac.x, frac.y, frac.z}) > 1.0 - kFloorGuard) {
          const Vec3d rel = d / h;
          f = {std::floor(rel.x), std::floor(rel.y), std::floor(rel.z)};
        }
        const int x = static_cast<int>(f.x) - lo_.x;
        const int y = static_cast<int>(f.y) - lo_.y;
        const int z = static_cast<int>(f.z) - lo_.z;
        if (static_cast<unsigned>(x) >= static_cast<unsigned>(ext_.x) ||
            static_cast<unsigned>(y) >= static_cast<unsigned>(ext_.y) ||
            static_cast<unsigned>(z) >= static_cast<unsigned>(ext_.z)) {
          continue;
        }
        const std::int32_t cell =
            cells_[static_cast<std::size_t>(z) * strideZ +
                   static_cast<std::size_t>(y) * strideY +
                   static_cast<std::size_t>(x)];
        if (cell >= 0) {
          const Rgba& sample = colour[static_cast<std::size_t>(cell)];
          if (firstHit == Image::kFarDepth && !(sample.a <= 0.f)) {
            firstHit = static_cast<float>(t);
          }
          acc.accumulate(sample);
          if (acc.a >= options.opacityCutoff &&
              firstHit < Image::kFarDepth) {
            break;
          }
        } else if (cell < -1) {
          // Skip invariant: every cell within Chebyshev distance d - 1 of
          // this one is empty, so the next n samples (each at most
          // voxelsPerStep further along any axis) floor into empty cells.
          // t still advances by repeated addition, so every evaluated
          // sample sits at exactly the t a brute-force march would use.
          const int skip = static_cast<int>(
              (static_cast<double>(-cell) - 1.0 - 1e-6) / voxelsPerStep);
          for (int k = 0; k < skip; ++k) t += step;
        }
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

Image renderLocal(const lb::DomainMap& domain, const lb::MacroFields& macro,
                  const VolumeRenderOptions& options) {
  return VolumeBrick(domain).render(macro, options);
}

// --- compositing -----------------------------------------------------------------

namespace {

/// Wire layout of one non-empty fragment pixel.
struct WirePixel {
  std::uint32_t index;
  float r, g, b, a, depth;
};

std::vector<WirePixel> packNonEmpty(const Image& img, std::size_t first,
                                    std::size_t last) {
  std::vector<WirePixel> out;
  for (std::size_t i = first; i < last; ++i) {
    const Rgba& p = img.pixel(i);
    if (p.a <= 0.f) continue;
    out.push_back({static_cast<std::uint32_t>(i), p.r, p.g, p.b, p.a,
                   img.depth(i)});
  }
  return out;
}

}  // namespace

Image compositeDirectSend(comm::Communicator& comm, const Image& fragment) {
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kVis);
  const auto mine = packNonEmpty(fragment, 0, fragment.numPixels());
  const auto all = comm.gatherVec(mine, 0);
  if (comm.rank() != 0) return Image{};

  // Bucket the fragments by pixel into one flat buffer: count, prefix-sum,
  // then scatter.
  struct Fragment {
    WirePixel px;
    std::uint32_t rank;
  };
  const std::size_t numPixels = fragment.numPixels();
  std::vector<std::uint32_t> offset(numPixels + 1, 0);
  for (const auto& rankPixels : all) {
    for (const auto& wp : rankPixels) ++offset[wp.index + 1];
  }
  for (std::size_t i = 0; i < numPixels; ++i) offset[i + 1] += offset[i];
  std::vector<Fragment> flat(offset[numPixels]);
  std::vector<std::uint32_t> next(offset.begin(), offset.end() - 1);
  for (std::size_t r = 0; r < all.size(); ++r) {
    for (const auto& wp : all[r]) {
      flat[next[wp.index]++] = {wp, static_cast<std::uint32_t>(r)};
    }
  }

  // Per pixel: order by (depth, source rank), compose front-to-back.
  Image result(fragment.width(), fragment.height());
  for (std::size_t i = 0; i < numPixels; ++i) {
    Fragment* first = flat.data() + offset[i];
    Fragment* last = flat.data() + offset[i + 1];
    if (first == last) continue;
    if (last - first > 1) {
      std::sort(first, last, [](const Fragment& a, const Fragment& b) {
        return a.px.depth < b.px.depth ||
               (a.px.depth == b.px.depth && a.rank < b.rank);
      });
    }
    Rgba acc;
    for (const Fragment* f = first; f != last; ++f) {
      acc.accumulate(Rgba{f->px.r, f->px.g, f->px.b, f->px.a});
    }
    result.pixel(i) = acc;
    result.depth(i) = first->px.depth;
  }
  return result;
}

Image compositeBinarySwap(comm::Communicator& comm, const Image& fragment) {
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kVis);
  const int size = comm.size();
  HEMO_CHECK_MSG((size & (size - 1)) == 0,
                 "binary-swap needs a power-of-two rank count");
  const std::size_t numPixels = fragment.numPixels();
  Image work = fragment;

  // Each round: pair with rank^mask, split the current range in half, send
  // one half, composite the half we keep with the peer's fragment.
  std::size_t first = 0, last = numPixels;
  for (int mask = 1; mask < size; mask <<= 1) {
    const int peer = comm.rank() ^ mask;
    const std::size_t mid = first + (last - first) / 2;
    const bool keepLow = (comm.rank() & mask) == 0;
    const std::size_t sendFirst = keepLow ? mid : first;
    const std::size_t sendLast = keepLow ? last : mid;
    comm.sendVec(peer, kCompositeTag,
                 packNonEmpty(work, sendFirst, sendLast));
    const auto incoming = comm.recvVec<WirePixel>(peer, kCompositeTag);
    if (keepLow) {
      last = mid;
    } else {
      first = mid;
    }
    for (const auto& wp : incoming) {
      Rgba& ours = work.pixel(wp.index);
      const Rgba theirs{wp.r, wp.g, wp.b, wp.a};
      if (wp.depth < work.depth(wp.index)) {
        // Peer fragment is in front.
        Rgba merged = theirs;
        merged.accumulate(ours);
        ours = merged;
        work.depth(wp.index) = wp.depth;
      } else {
        ours.accumulate(theirs);
      }
    }
  }

  // Gather the disjoint final ranges to rank 0.
  const auto finals = comm.gatherVec(packNonEmpty(work, first, last), 0);
  if (comm.rank() != 0) return Image{};
  Image result(fragment.width(), fragment.height());
  for (const auto& rankPixels : finals) {
    for (const auto& wp : rankPixels) {
      result.pixel(wp.index) = Rgba{wp.r, wp.g, wp.b, wp.a};
      result.depth(wp.index) = wp.depth;
    }
  }
  return result;
}

Image renderVolume(comm::Communicator& comm, const VolumeBrick& brick,
                   const lb::MacroFields& macro,
                   const VolumeRenderOptions& options, CompositeMode mode) {
  HEMO_TSPAN(kVis, "vis.volume");
  const Image fragment = brick.render(macro, options);
  return mode == CompositeMode::kDirectSend
             ? compositeDirectSend(comm, fragment)
             : compositeBinarySwap(comm, fragment);
}

Image renderVolume(comm::Communicator& comm, const lb::DomainMap& domain,
                   const lb::MacroFields& macro,
                   const VolumeRenderOptions& options, CompositeMode mode) {
  return renderVolume(comm, VolumeBrick(domain), macro, options, mode);
}

}  // namespace hemo::vis

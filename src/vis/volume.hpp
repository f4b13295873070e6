#pragma once
/// \file volume.hpp
/// \brief Distributed ray-cast volume rendering (Fig 4a; Table I's
/// *low*-communication, *easy*-parallelisation technique).
///
/// Sort-last rendering: each rank ray-casts only its own sites — "volume
/// rendering can be performed on each subdomain without any data exchange
/// with the neighbours" (§IV.D) — producing one RGBA fragment with an entry
/// depth per pixel. The marcher skips empty space using a cached distance
/// brick, yet samples exactly the positions a brute-force march would.
/// Fragments are then composited by depth: either direct-send (non-empty
/// fragments to the master, which sorts per pixel) or binary-swap (log₂P
/// exchange rounds over halved image ranges).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "lb/domain_map.hpp"
#include "vis/camera.hpp"
#include "vis/image.hpp"
#include "vis/transfer.hpp"

namespace hemo::vis {

/// Which scalar field drives the transfer function.
enum class RenderField : std::uint8_t {
  kVelocityMagnitude = 0,
  kDensity = 1,
};

struct VolumeRenderOptions {
  Camera camera;
  TransferFunction transfer = TransferFunction::bloodFlow(0.f, 0.05f);
  RenderField field = RenderField::kVelocityMagnitude;
  int width = 256;
  int height = 256;
  /// Ray sampling distance in voxels.
  double stepVoxels = 0.5;
  /// Stop a ray when accumulated opacity exceeds this.
  float opacityCutoff = 0.98f;
  /// Optional world-space clip region: only sites inside it are rendered
  /// (the steered region-of-interest view).
  std::optional<BoxD> clipBox;
};

enum class CompositeMode { kDirectSend, kBinarySwap };

/// Cached render geometry of this rank's owned sites: a dense int32 brick
/// over the owned bounding box, padded by one empty cell on every side.
/// A cell value >= 0 is the local slot of the owned site there; a value
/// < 0 is minus the Chebyshev distance (capped at kMaxDistance) to the
/// nearest owned fluid cell, which lets the ray marcher leap over empty
/// space. Depends only on the DomainMap, so it is built once per domain and
/// rebuilt whenever ownership changes (construction, live migration).
class VolumeBrick {
 public:
  static constexpr int kMaxDistance = 15;

  explicit VolumeBrick(const lb::DomainMap& domain);

  const lb::DomainMap& domain() const { return *domain_; }
  bool empty() const { return cells_.empty(); }

  /// Cell value at a lattice position: the owned slot, or minus the
  /// capped distance to the nearest owned site (outside the padded brick:
  /// -1, i.e. empty but not known to be far).
  std::int32_t cell(const Vec3i& latticePos) const;

  /// Render this rank's fragment image (RGBA + entry depth per pixel).
  Image render(const lb::MacroFields& macro,
               const VolumeRenderOptions& options) const;

 private:
  const lb::DomainMap* domain_;
  Vec3i lo_{0, 0, 0};   ///< lattice corner of the padded brick
  Vec3i ext_{0, 0, 0};  ///< padded extent
  std::vector<std::int32_t> cells_;
  BoxD worldBounds_ = BoxD::empty();  ///< the owned (unpadded) box
};

/// VolumeBrick::render on a temporary brick for `domain`.
Image renderLocal(const lb::DomainMap& domain, const lb::MacroFields& macro,
                  const VolumeRenderOptions& options);

/// Collective: composite the ranks' fragments into the final image on
/// rank 0 (returned empty elsewhere). Fragments meeting on a pixel are
/// ordered by (depth, source rank), so equal depths composite
/// deterministically. Traffic classified as kVis.
Image compositeDirectSend(comm::Communicator& comm, const Image& fragment);

/// Collective binary-swap compositing; requires a power-of-two rank count.
Image compositeBinarySwap(comm::Communicator& comm, const Image& fragment);

/// Convenience: VolumeBrick::render + composite.
Image renderVolume(comm::Communicator& comm, const VolumeBrick& brick,
                   const lb::MacroFields& macro,
                   const VolumeRenderOptions& options,
                   CompositeMode mode = CompositeMode::kDirectSend);

/// Same, building a temporary brick for `domain`.
Image renderVolume(comm::Communicator& comm, const lb::DomainMap& domain,
                   const lb::MacroFields& macro,
                   const VolumeRenderOptions& options,
                   CompositeMode mode = CompositeMode::kDirectSend);

}  // namespace hemo::vis

#pragma once
/// \file camera.hpp
/// \brief Pinhole camera; the "view point" steering parameter of §IV.C.1.

#include <cmath>

#include "util/vec.hpp"

namespace hemo::vis {

struct Ray {
  Vec3d origin;
  Vec3d direction;  ///< unit length
};

/// Look-at perspective camera. Trivially copyable so it can ride inside
/// steering messages.
struct Camera {
  Vec3d position{0, 0, 10};
  Vec3d target{0, 0, 0};
  Vec3d up{0, 1, 0};
  double fovYDegrees = 40.0;

  /// The per-image constants of rayThrough. A ray caster builds this once
  /// per frame instead of once per pixel; the rays are bit-identical.
  struct Basis {
    Vec3d origin, forward, right, up;
    double aspect = 1.0, tanHalf = 1.0;
    int width = 1, height = 1;

    /// Ray through pixel centre (px, py).
    Ray ray(int px, int py) const {
      const double u = ((px + 0.5) / width * 2.0 - 1.0) * tanHalf * aspect;
      const double v = (1.0 - (py + 0.5) / height * 2.0) * tanHalf;
      return {origin, (forward + right * u + up * v).normalized()};
    }
  };

  Basis basis(int width, int height) const {
    Basis b;
    b.origin = position;
    b.forward = (target - position).normalized();
    b.right = b.forward.cross(up).normalized();
    b.up = b.right.cross(b.forward);
    b.aspect = static_cast<double>(width) / height;
    b.tanHalf = std::tan(fovYDegrees * 3.14159265358979 / 360.0);
    b.width = width;
    b.height = height;
    return b;
  }

  /// Ray through pixel centre (px, py) of a width×height image.
  Ray rayThrough(int px, int py, int width, int height) const {
    return basis(width, height).ray(px, py);
  }
};

}  // namespace hemo::vis

#include "core/pipeline.hpp"

#include <algorithm>

#include "lb/wss.hpp"
#include "util/check.hpp"

namespace hemo::core {

void ExtractStage::run(PipelineContext& ctx) {
  HEMO_CHECK(ctx.ghosts != nullptr && ctx.macro != nullptr);
  ctx.out.step = ctx.step;
  ctx.ghosts->refresh(*ctx.macro, *ctx.comm);
  if (ctx.octree != nullptr) {
    std::vector<double> speed(ctx.macro->u.size());
    for (std::size_t i = 0; i < speed.size(); ++i) {
      speed[i] = ctx.macro->u[i].norm();
    }
    ctx.octree->update(speed, ctx.macro->u);
  }
}

void FilterStage::run(PipelineContext& ctx) {
  double localMin = 1e300, localMax = 0.0, localSum = 0.0;
  for (const auto& u : ctx.macro->u) {
    const double s = u.norm();
    localMin = std::min(localMin, s);
    localMax = std::max(localMax, s);
    localSum += s;
  }
  auto& comm = *ctx.comm;
  const auto count = comm.allreduceSum<std::uint64_t>(ctx.macro->u.size());
  ctx.out.minSpeed = comm.allreduceMin(localMin);
  ctx.out.maxSpeed = comm.allreduceMax(localMax);
  ctx.out.meanSpeed =
      count > 0 ? comm.allreduceSum(localSum) / static_cast<double>(count)
                : 0.0;
  if (ctx.octree != nullptr) {
    const int level = std::min(contextLevel_, ctx.octree->leafLevel());
    ctx.out.contextNodes = multires::gatherLevel(comm, *ctx.octree, level);
  }
}

void MapStage::run(PipelineContext& ctx) {
  if (computeWss_ && !ctx.macro->stress.empty()) {
    const auto samples = lb::computeWallShearStress(*ctx.domain, *ctx.macro);
    double localMax = 0.0, localSum = 0.0;
    for (const auto& s : samples) {
      localMax = std::max(localMax, s.wss);
      localSum += s.wss;
    }
    auto& comm = *ctx.comm;
    const auto count = comm.allreduceSum<std::uint64_t>(samples.size());
    ctx.out.maxWss = comm.allreduceMax(localMax);
    ctx.out.meanWss =
        count > 0 ? comm.allreduceSum(localSum) / static_cast<double>(count)
                  : 0.0;
  }
  if (!seeds_.empty()) {
    ctx.out.streamlines =
        vis::traceStreamlines(*ctx.comm, *ctx.ghosts, seeds_, params_);
  }
}

void RenderStage::run(PipelineContext& ctx) {
  HEMO_CHECK(ctx.brick != nullptr && &ctx.brick->domain() == ctx.domain);
  ctx.out.volumeImage = vis::renderVolume(*ctx.comm, *ctx.brick, *ctx.macro,
                                          options_);
  ++rendersDone_;
  if (drawLines_ && ctx.comm->rank() == 0 &&
      ctx.out.volumeImage.numPixels() > 0) {
    vis::drawPolylines(ctx.out.volumeImage, options_.camera,
                       ctx.out.streamlines);
  }
  if (lic_) {
    ctx.out.lic = vis::computeLicSlice(*ctx.comm, *ctx.domain, *ctx.macro,
                                       licOptions_);
  }
}

}  // namespace hemo::core

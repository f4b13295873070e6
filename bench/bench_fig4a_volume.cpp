// Reproduces **Fig 4a** — volume rendering of an aneurysm data set — and
// quantifies its parallel behaviour:
//   * renders the velocity-magnitude field of a developed aneurysm flow and
//     writes fig4a_volume.ppm (the figure itself),
//   * sweeps image sizes to show compositing traffic scales with the image
//     (not the data) — the property that makes volume rendering the paper's
//     "low communication" technique,
//   * ablates the two compositing strategies (direct-send vs binary-swap),
//   * times the render hot path per frame: local ray casting over the
//     cached brick (slowest rank) and the rank-0 direct-send composite,
//     over a 12-view orbit, plus the once-per-domain brick build.

#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "io/ppm.hpp"
#include "vis/volume.hpp"

int main() {
  using namespace hemobench;
  const auto lattice = makeAneurysm(0.12);
  std::printf("workload: aneurysm vessel, %llu fluid sites (%.1f KB of "
              "velocity data)\n",
              static_cast<unsigned long long>(lattice.numFluidSites()),
              static_cast<double>(lattice.numFluidSites()) * 24 / 1e3);

  auto makeOptions = [&](int size) {
    vis::VolumeRenderOptions vro;
    vro.width = size;
    vro.height = size;
    vro.camera.position = {2.5, 1.0, 8.0};
    vro.camera.target = {2.5, 0.6, 0.0};
    vro.transfer = vis::TransferFunction::bloodFlow(0.f, 0.0015f);
    return vro;
  };

  // --- the figure -------------------------------------------------------------
  {
    const int ranks = 4;
    const auto part = kwayPartition(lattice, ranks);
    comm::Runtime rt(ranks);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lattice, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, flowParams());
      solver.run(300);
      const auto img = vis::renderVolume(comm, domain, solver.macro(),
                                         makeOptions(384));
      if (comm.rank() == 0) {
        io::writePpm("fig4a_volume.ppm", img.width(), img.height(),
                     img.toRgb8());
        std::printf("wrote fig4a_volume.ppm (384x384)\n");
      }
    });
  }

  // --- image-size sweep ---------------------------------------------------------
  printHeader("Fig 4a series: compositing traffic vs image size (4 ranks)");
  std::printf("%-10s %14s %12s %14s\n", "image", "comm KB", "msgs",
              "busy imbalance");
  for (const int size : {64, 128, 256, 512}) {
    const int ranks = 4;
    const auto part = kwayPartition(lattice, ranks);
    PhaseSummary summary;
    comm::Runtime rt(ranks);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lattice, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, flowParams());
      solver.run(60);
      comm.barrier();
      const auto sample = measurePhase(comm, [&] {
        vis::renderVolume(comm, domain, solver.macro(), makeOptions(size));
      });
      const auto s = summarizePhase(comm, sample);
      if (comm.rank() == 0) summary = s;
    });
    std::printf("%4dx%-5d %14.1f %12llu %14.3f\n", size, size,
                static_cast<double>(summary.totalBytes) / 1e3,
                static_cast<unsigned long long>(summary.totalMessages),
                summary.imbalance);
  }

  // --- compositing ablation ---------------------------------------------------------
  printHeader("Fig 4a ablation: direct-send vs binary-swap compositing "
              "(256x256 image)");
  std::printf("%-8s %-14s %14s %12s %18s %16s\n", "ranks", "mode",
              "comm KB", "msgs", "max-rank recv KB", "busy imbal");
  for (const int ranks : {2, 4, 8}) {
    const auto part = kwayPartition(lattice, ranks);
    for (const auto mode : {vis::CompositeMode::kDirectSend,
                            vis::CompositeMode::kBinarySwap}) {
      PhaseSummary summary;
      comm::Runtime rt(ranks);
      rt.run([&](comm::Communicator& comm) {
        lb::DomainMap domain(lattice, part, comm.rank());
        lb::SolverD3Q19 solver(domain, comm, flowParams());
        solver.run(60);
        comm.barrier();
        const auto sample = measurePhase(comm, [&] {
          vis::renderVolume(comm, domain, solver.macro(), makeOptions(256),
                            mode);
        });
        const auto s = summarizePhase(comm, sample);
        if (comm.rank() == 0) summary = s;
      });
      std::printf("%-8d %-14s %14.1f %12llu %18.1f %16.3f\n", ranks,
                  mode == vis::CompositeMode::kDirectSend ? "direct-send"
                                                          : "binary-swap",
                  static_cast<double>(summary.totalBytes) / 1e3,
                  static_cast<unsigned long long>(summary.totalMessages),
                  static_cast<double>(summary.maxRankRecvBytes) / 1e3,
                  summary.imbalance);
    }
  }
  // --- hot path: per-frame local render and composite ---------------------------
  printHeader("Fig 4a hot path: per-frame render cost (256x256, 3 ranks, "
              "12-view orbit)");
  {
    constexpr int kRanks = 3;
    constexpr int kViews = 12;
    constexpr double kTwoPi = 2.0 * 3.14159265358979;
    const auto part = kwayPartition(lattice, kRanks);
    const auto b = lattice.fluidBounds();
    const double h = lattice.voxelSize();
    const Vec3d lo = lattice.origin() + b.lo.cast<double>() * h;
    const Vec3d hi = lattice.origin() + b.hi.cast<double>() * h;
    const Vec3d centre = (lo + hi) * 0.5;
    const double radius = 1.3 * (hi - lo).norm();
    std::vector<double> buildMs, renderMs, compositeMs;
    comm::Runtime rt(kRanks);
    rt.run([&](comm::Communicator& comm) {
      lb::DomainMap domain(lattice, part, comm.rank());
      lb::SolverD3Q19 solver(domain, comm, flowParams());
      solver.run(300);
      comm.barrier();
      WallTimer buildTimer;
      const vis::VolumeBrick brick(domain);
      const double build = comm.allreduceMax(buildTimer.seconds());
      if (comm.rank() == 0) buildMs.push_back(build * 1e3);
      for (int k = 0; k < kViews; ++k) {
        auto vro = makeOptions(256);
        const double a = kTwoPi * k / kViews;
        vro.camera.target = centre;
        vro.camera.position =
            centre + Vec3d{radius * std::cos(a), 0.2 * radius,
                           radius * std::sin(a)};
        comm.barrier();
        WallTimer renderTimer;
        const auto fragment = brick.render(solver.macro(), vro);
        const double local = comm.allreduceMax(renderTimer.seconds());
        WallTimer compositeTimer;
        vis::compositeDirectSend(comm, fragment);
        const double composite = compositeTimer.seconds();
        if (comm.rank() == 0) {
          renderMs.push_back(local * 1e3);
          compositeMs.push_back(composite * 1e3);
        }
      }
    });
    std::printf("%-34s %10s %10s %10s\n", "row", "mean", "min", "max");
    for (const auto& [name, v] :
         {std::pair<const char*, const std::vector<double>*>{
              "brick build ms (max over ranks)", &buildMs},
          {"local render ms (max over ranks)", &renderMs},
          {"direct-send composite ms (rank 0)", &compositeMs}}) {
      double sum = 0.0;
      for (const double x : *v) sum += x;
      std::printf("%-34s %10.2f %10.2f %10.2f\n", name,
                  sum / static_cast<double>(v->size()),
                  *std::min_element(v->begin(), v->end()),
                  *std::max_element(v->begin(), v->end()));
    }
  }

  std::printf("\nexpected shape: traffic grows with image area, is "
              "independent of\nthe data size; binary-swap spreads the "
              "compositing load (the\ndirect-send master receives "
              "everything; binary-swap's max-rank\nreceive volume stays "
              "flat) at the cost of more messages.\n");
  return 0;
}

// Kernel microbenchmarks (google-benchmark): the per-operation costs that
// anchor the co-design performance model — LB step throughput (MLUPS),
// collision-operator and velocity-set variants, octree update, partitioner
// cost and voxelisation. These are the "busy seconds" inputs the postal
// model combines with the measured traffic.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "multires/octree.hpp"
#include "vis/volume.hpp"

namespace {

using namespace hemobench;

struct SerialSetup {
  geometry::SparseLattice lattice;
  partition::Partition part;

  explicit SerialSetup(double voxel) : lattice(makeTube(voxel, 6.0)) {
    part.numParts = 1;
    part.partOfSite.assign(lattice.numFluidSites(), 0);
  }
  explicit SerialSetup(geometry::SparseLattice lat) : lattice(std::move(lat)) {
    part.numParts = 1;
    part.partOfSite.assign(lattice.numFluidSites(), 0);
  }
};

template <typename Lattice>
void stepBench(benchmark::State& state, lb::LbParams params) {
  static SerialSetup setup(0.08);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(setup.lattice, setup.part, 0);
    lb::Solver<Lattice> solver(domain, comm, params);
    for (auto _ : state) {
      solver.step();
      benchmark::DoNotOptimize(solver.macro().rho.data());
    }
    state.counters["MLUPS"] = benchmark::Counter(
        static_cast<double>(setup.lattice.numFluidSites()) *
            static_cast<double>(state.iterations()) / 1e6,
        benchmark::Counter::kIsRate);
    state.counters["sites"] =
        static_cast<double>(setup.lattice.numFluidSites());
    state.counters["frontier"] =
        static_cast<double>(solver.reordering().numFrontier);
    state.counters["bulk"] = static_cast<double>(solver.reordering().numBulk());
  });
}

// SIMD (default) vs reference three-phase kernel on the same geometry:
// compare the MLUPS counters to read the production kernel's speedup.
void BM_StepD3Q19Bgk(benchmark::State& state) {
  stepBench<lb::D3Q19>(state, flowParams());
}
BENCHMARK(BM_StepD3Q19Bgk)->Unit(benchmark::kMillisecond);

void BM_StepD3Q19BgkReference(benchmark::State& state) {
  auto p = flowParams();
  p.kernel = lb::LbParams::Kernel::kReference;
  stepBench<lb::D3Q19>(state, p);
}
BENCHMARK(BM_StepD3Q19BgkReference)->Unit(benchmark::kMillisecond);

void BM_StepD3Q19Trt(benchmark::State& state) {
  auto p = flowParams();
  p.collision = lb::LbParams::Collision::kTrt;
  stepBench<lb::D3Q19>(state, p);
}
BENCHMARK(BM_StepD3Q19Trt)->Unit(benchmark::kMillisecond);

void BM_StepD3Q19TrtReference(benchmark::State& state) {
  auto p = flowParams();
  p.collision = lb::LbParams::Collision::kTrt;
  p.kernel = lb::LbParams::Kernel::kReference;
  stepBench<lb::D3Q19>(state, p);
}
BENCHMARK(BM_StepD3Q19TrtReference)->Unit(benchmark::kMillisecond);

void BM_StepD3Q15Bgk(benchmark::State& state) {
  stepBench<lb::D3Q15>(state, flowParams());
}
BENCHMARK(BM_StepD3Q15Bgk)->Unit(benchmark::kMillisecond);

void BM_StepD3Q27Bgk(benchmark::State& state) {
  stepBench<lb::D3Q27>(state, flowParams());
}
BENCHMARK(BM_StepD3Q27Bgk)->Unit(benchmark::kMillisecond);

void BM_StepD3Q19WithStress(benchmark::State& state) {
  stepBench<lb::D3Q19>(state, flowParams(true));
}
BENCHMARK(BM_StepD3Q19WithStress)->Unit(benchmark::kMillisecond);

void BM_OctreeUpdate(benchmark::State& state) {
  static SerialSetup setup(0.15);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    (void)comm;
    lb::DomainMap domain(setup.lattice, setup.part, 0);
    multires::FieldOctree tree(domain, static_cast<int>(state.range(0)));
    std::vector<double> scalar(domain.numOwned(), 1.0);
    std::vector<Vec3d> u(domain.numOwned(), Vec3d{0.01, 0, 0});
    for (auto _ : state) {
      tree.update(scalar, u);
      benchmark::DoNotOptimize(tree.level(0).data());
    }
    state.counters["sites/s"] = benchmark::Counter(
        static_cast<double>(domain.numOwned()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
  });
}
BENCHMARK(BM_OctreeUpdate)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_PartitionKway(benchmark::State& state) {
  static SerialSetup setup(0.15);
  const auto graph = partition::buildSiteGraph(setup.lattice);
  partition::MultilevelKWayPartitioner kway;
  for (auto _ : state) {
    auto p = kway.partition(graph, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(p.partOfSite.data());
  }
}
BENCHMARK(BM_PartitionKway)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_PartitionHilbert(benchmark::State& state) {
  static SerialSetup setup(0.15);
  const auto graph = partition::buildSiteGraph(setup.lattice);
  partition::HilbertPartitioner hilbert;
  for (auto _ : state) {
    auto p = hilbert.partition(graph, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(p.partOfSite.data());
  }
}
BENCHMARK(BM_PartitionHilbert)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Voxelize(benchmark::State& state) {
  const auto scene = geometry::makeAneurysmVessel(5.0, 1.0, 1.2);
  geometry::VoxelizeOptions opt;
  opt.voxelSize = 0.25;
  for (auto _ : state) {
    auto lat = geometry::voxelize(scene, opt);
    benchmark::DoNotOptimize(lat.numFluidSites());
  }
}
BENCHMARK(BM_Voxelize)->Unit(benchmark::kMillisecond);

void BM_RenderLocal(benchmark::State& state) {
  static SerialSetup setup(0.15);
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(setup.lattice, setup.part, 0);
    lb::SolverD3Q19 solver(domain, comm, flowParams());
    solver.run(20);
    vis::VolumeRenderOptions vro;
    vro.width = static_cast<int>(state.range(0));
    vro.height = vro.width;
    vro.camera.position = {3.0, 0.5, 7.0};
    vro.camera.target = {3.0, 0, 0};
    for (auto _ : state) {
      auto img = vis::renderLocal(domain, solver.macro(), vro);
      benchmark::DoNotOptimize(img.pixels().data());
    }
    state.counters["rays/s"] = benchmark::Counter(
        static_cast<double>(vro.width) * vro.height *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
  });
}
BENCHMARK(BM_RenderLocal)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

// Direct MLUPS measurement of one kernel variant (independent of the
// google-benchmark timing machinery) for the machine-readable summary.
// `warmupSteps` run untimed first so the distribution slabs are paged in,
// the reorder tables are cache-warm and the core is out of any low-power
// state before the clock starts — without it the first variant measured
// paid the cold-start cost and the rows were not comparable.
double directMlups(const SerialSetup& setup, const lb::LbParams& params,
                   int steps, int warmupSteps) {
  double mlups = 0.0;
  comm::Runtime rt(1);
  rt.run([&](comm::Communicator& comm) {
    lb::DomainMap domain(setup.lattice, setup.part, 0);
    lb::SolverD3Q19 solver(domain, comm, params);
    solver.run(warmupSteps);
    // Best of three timed passes: the rows report kernel capability, and
    // a single pass is at the mercy of transient co-tenant interference
    // on shared machines (memory-bandwidth steals skew the slower passes
    // far more than the CPU-time clock can correct for).
    double best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      const double t0 = threadCpuSeconds();
      solver.run(steps);
      const double busy = threadCpuSeconds() - t0;
      const double passMlups =
          busy > 0.0 ? static_cast<double>(setup.lattice.numFluidSites()) *
                           static_cast<double>(steps) / busy / 1e6
                     : 0.0;
      best = std::max(best, passMlups);
    }
    mlups = best;
  });
  return mlups;
}

// STREAM-style roofline: time a pure copy over two slabs the size of the
// distribution field (f → fNext, the minimum memory traffic of one LB
// step). The measured bandwidth bounds what any layout/kernel can reach,
// so the report can state achieved-vs-attainable instead of a bare MLUPS.
double streamCopyGBps(std::size_t nDoubles, int reps) {
  simd::AVector<double> a(nDoubles, 1.0);
  simd::AVector<double> b(nDoubles, 0.0);
  simd::copyDoubles(b.data(), a.data(), nDoubles, true);  // warm up
  simd::storeFence();
  const double t0 = threadCpuSeconds();
  for (int r = 0; r < reps; ++r) {
    simd::copyDoubles(b.data(), a.data(), nDoubles, true);
    simd::storeFence();
    benchmark::DoNotOptimize(b.data());
  }
  const double busy = threadCpuSeconds() - t0;
  // Read + write: 2 bytes moved per byte of slab.
  return busy > 0.0 ? 2.0 * static_cast<double>(nDoubles) * 8.0 *
                          static_cast<double>(reps) / busy / 1e9
                    : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Machine-readable summary in the shared bench JSON schema.
  using namespace hemobench;
  SerialSetup setup(0.08);
  const int steps = 30;
  BenchReport report("kernels");
  report.setParam("geometry", "tube(voxel=0.08, length=6)");
  report.setParam("sites",
                  static_cast<std::int64_t>(setup.lattice.numFluidSites()));
  report.setParam("steps", static_cast<std::int64_t>(steps));

  report.setParam("simdBackend", simd::backendName());
  report.setParam("simdWidth", static_cast<std::int64_t>(simd::kWidth));

  struct Variant {
    const char* label;
    lb::LbParams params;
  };
  auto reference = [](lb::LbParams p) {
    p.kernel = lb::LbParams::Kernel::kReference;
    return p;
  };
  auto simdK = [](lb::LbParams p) {
    p.kernel = lb::LbParams::Kernel::kSimd;
    return p;
  };
  auto trt = [](lb::LbParams p) {
    p.collision = lb::LbParams::Collision::kTrt;
    return p;
  };
  const Variant variants[] = {
      {"d3q19-bgk-reference", reference(flowParams())},
      {"d3q19-bgk-simd", simdK(flowParams())},
      {"d3q19-trt-reference", reference(trt(flowParams()))},
      {"d3q19-trt-simd", simdK(trt(flowParams()))},
      {"d3q19-bgk-stress-simd", simdK(flowParams(true))},
  };

  // Roofline: copy bandwidth over the same footprint as the distribution
  // slabs, and the MLUPS that bandwidth could sustain if the step moved
  // only its compulsory traffic (f read + fNext write + macro write).
  const std::size_t slabDoubles =
      setup.lattice.numFluidSites() * static_cast<std::size_t>(lb::D3Q19::kQ);
  const double gbps = streamCopyGBps(slabDoubles, 50);
  const double bytesPerSite =
      2.0 * lb::D3Q19::kQ * 8.0 + 4.0 * 8.0;  // f + fNext + rho,u
  const double attainable = gbps * 1e9 / bytesPerSite / 1e6;
  {
    auto& row = report.addRow("stream-copy-roofline");
    row.set("copyGBps", gbps);
    row.set("bytesPerSite", bytesPerSite);
    row.set("mlupsAttainable", attainable);
    std::printf("%-22s %8.2f GB/s (attainable %.2f MLUPS at %.0f B/site)\n",
                "stream-copy-roofline", gbps, attainable, bytesPerSite);
  }

  for (const auto& v : variants) {
    const double mlups = directMlups(setup, v.params, steps, 10);
    auto& row = report.addRow(v.label);
    row.set("mlups", mlups);
    row.set("kernel", v.params.kernelName());
    row.set("layout", lb::layoutName(v.params.layout));
    row.set("simdWidth",
            static_cast<std::uint64_t>(
                v.params.kernel == lb::LbParams::Kernel::kSimd ? simd::kWidth
                                                               : 1));
    if (attainable > 0.0) row.set("fractionOfRoofline", mlups / attainable);
    std::printf("%-22s %8.2f MLUPS (%.0f%% of roofline)\n", v.label, mlups,
                100.0 * mlups / attainable);
  }

  // The same reference/SIMD pair on a diameter-2 vessel: the thin tube above
  // is ~22% frontier sites, which over-weights boundary handling relative
  // to the production domains the layout targets — the wider vessel
  // (~12% frontier) is the bulk-dominated regime where the strip kernel's
  // advantage is representative.
  {
    geometry::VoxelizeOptions opt;
    opt.voxelSize = 0.08;
    SerialSetup thick(
        geometry::voxelize(geometry::makeStraightTube(6.0, 2.0), opt));
    const std::int64_t sites =
        static_cast<std::int64_t>(thick.lattice.numFluidSites());
    const double referenceMlups =
        directMlups(thick, reference(flowParams()), steps, 5);
    const double simdMlups =
        directMlups(thick, simdK(flowParams()), steps, 5);
    const struct {
      const char* label;
      double mlups;
      const char* kernel;
      int width;
    } rows[] = {
        {"d3q19-bgk-reference-d2", referenceMlups, "reference", 1},
        {"d3q19-bgk-simd-d2", simdMlups, "simd", simd::kWidth},
    };
    for (const auto& r : rows) {
      auto& row = report.addRow(r.label);
      row.set("mlups", r.mlups);
      row.set("kernel", r.kernel);
      row.set("layout", lb::layoutName(lb::Layout::kSoA));
      row.set("simdWidth", static_cast<std::uint64_t>(r.width));
      row.set("sites", static_cast<std::uint64_t>(sites));
      if (referenceMlups > 0.0) {
        row.set("vsReference", r.mlups / referenceMlups);
      }
      std::printf("%-22s %8.2f MLUPS (%.2fx reference, %lld sites)\n",
                  r.label, r.mlups, r.mlups / referenceMlups,
                  static_cast<long long>(sites));
    }
  }
  report.write();
  return 0;
}

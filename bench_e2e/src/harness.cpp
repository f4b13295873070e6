#include "harness.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "geometry/shapes.hpp"
#include "geometry/voxelizer.hpp"
#include "util/simd.hpp"

namespace e2e {

double Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = nowSeconds() - start_;
  if (into_ != nullptr) {
    ++into_->calls;
    into_->seconds += seconds_;
  }
  return seconds_;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Tail tailOf(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (rank >= 1 && v.size() >= rank + 10) {
      t.percentile = p;
      t.value = quantile(v, p / 100.0);
      return t;
    }
  }
  return t;
}

// --- probes -----------------------------------------------------------------

void releaseFreedMemory() { ::malloc_trim(0); }

std::uint64_t peakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

std::uint64_t llcBytes() {
#if defined(_SC_LEVEL3_CACHE_SIZE)
  const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::uint64_t>(l3);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return static_cast<std::uint64_t>(l2);
#endif
  return 0;
}

int numCpus() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

CopyProbe probeCopyBandwidth(std::uint64_t bytes, int reps) {
  CopyProbe p;
  p.arrayBytes = bytes;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    src[static_cast<std::size_t>(i) % bytes] = static_cast<char>(i);
    const double t0 = nowSeconds();
    std::memcpy(dst.data(), src.data(), bytes);
    best = std::min(best, nowSeconds() - t0);
  }
  // Keep the copy observable so it cannot be elided.
  if (dst[static_cast<std::size_t>(reps - 1) % bytes] !=
      static_cast<char>(reps - 1)) {
    std::fprintf(stderr, "copy probe mismatch\n");
  }
  p.gbPerSecond = 2.0 * static_cast<double>(bytes) / best / 1e9;
  return p;
}

double computedBytesPerSite(const hemo::lb::LbParams& params) {
  using hemo::lb::LbParams;
  constexpr double kQ = hemo::lb::SolverD3Q19::kQ;
  constexpr double kDouble = sizeof(double);
  // Fused kernels (scalar and SIMD) read f once and write fNext once;
  // the reference kernel collides in place and streams in a second sweep,
  // touching the distributions twice.
  const double sweeps = params.kernel == LbParams::Kernel::kReference ? 2.0
                                                                      : 1.0;
  double bytes = sweeps * 2.0 * kQ * kDouble;
  bytes += 4.0 * kDouble;  // rho + u stored every step
  if (params.computeStress) bytes += 6.0 * kDouble;
  return bytes;
}

// --- workload helpers -------------------------------------------------------

hemo::geometry::SparseLattice makeVessel(double voxel) {
  hemo::geometry::VoxelizeOptions opt;
  opt.voxelSize = voxel;
  return hemo::geometry::voxelize(
      hemo::geometry::makeAneurysmVessel(6.0, 1.0, 1.3, 0.4), opt);
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void recordProvenance(Result& r, const Options& opt,
                      const hemo::lb::LbParams& params, std::uint64_t sites,
                      int ranks) {
  const double distBytes = 2.0 * static_cast<double>(sites) *
                           hemo::lb::SolverD3Q19::kQ * sizeof(double);
  const auto llc = llcBytes();
  auto& p = r.provenance;
  p["workload"] = opt.workload;
  p["seed"] = std::to_string(opt.seed);
  p["rev"] = opt.rev;
  p["nproc"] = std::to_string(numCpus());
  p["llc_bytes"] = std::to_string(llc);
  p["sites"] = std::to_string(sites);
  p["ranks"] = std::to_string(ranks);
  p["kernel"] = params.kernelName();
  p["layout"] =
      params.layout == hemo::lb::Layout::kSoA ? "soa" : "aos";
  p["simd_width"] = std::to_string(hemo::lb::SolverD3Q19::simdWidth());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", distBytes);
  p["dist_bytes"] = buf;
  std::snprintf(buf, sizeof(buf), "%.3f",
                llc > 0 ? distBytes / static_cast<double>(llc) : 0.0);
  p["dist_over_llc"] = buf;
}

// --- layer counters ---------------------------------------------------------

RankSample RankSample::take(hemo::core::SimulationDriver& driver,
                            hemo::comm::Communicator& comm) {
  RankSample s;
  const auto& solver = driver.solver();
  s.collide = solver.collideTimer().total();
  s.stream = solver.streamTimer().total();
  s.comm = solver.commTimer().total();
  s.recvWait = solver.recvWaitTimer().total();
  s.overlap = solver.overlapTimer().total();
  auto& pipeline = driver.pipeline();
  for (std::size_t i = 0; i < pipeline.numStages(); ++i) {
    s.stages.push_back(pipeline.stageSeconds(i));
  }
  s.renders = driver.renderStage().rendersDone();
  s.traffic = comm.counters();
  return s;
}

RankSample RankSample::minus(const RankSample& before) const {
  RankSample d = *this;
  d.collide -= before.collide;
  d.stream -= before.stream;
  d.comm -= before.comm;
  d.recvWait -= before.recvWait;
  d.overlap -= before.overlap;
  for (std::size_t i = 0; i < d.stages.size() && i < before.stages.size();
       ++i) {
    d.stages[i] -= before.stages[i];
  }
  d.renders -= before.renders;
  for (int c = 0; c < hemo::comm::kNumTrafficClasses; ++c) {
    auto& a = d.traffic.perClass[static_cast<std::size_t>(c)];
    const auto& b = before.traffic.perClass[static_cast<std::size_t>(c)];
    a.messagesSent -= b.messagesSent;
    a.bytesSent -= b.bytesSent;
    a.messagesReceived -= b.messagesReceived;
    a.bytesReceived -= b.bytesReceived;
  }
  return d;
}

double RankSample::rowSeconds() const {
  // The phase timers count thread CPU time, which stops while a rank is
  // blocked on a halo receive; the blocked wall time is its own row.
  return collide + stream + comm + recvWait +
         std::accumulate(stages.begin(), stages.end(), 0.0);
}

void addSolverLayers(Result& r, const std::vector<RankSample>& deltas,
                     std::uint64_t steps,
                     const std::vector<std::string>& stageNames) {
  using hemo::comm::Traffic;
  const double n = static_cast<double>(deltas.size());
  const double perStep = steps > 0 ? 1e3 / static_cast<double>(steps) : 0.0;
  double collide = 0, stream = 0, wait = 0, overlap = 0, busyMax = 0,
         busySum = 0;
  double haloBytes = 0, haloMsgs = 0, visBytes = 0, steerBytes = 0;
  for (const auto& d : deltas) {
    collide += d.collide;
    stream += d.stream;
    wait += d.recvWait;
    overlap += d.overlap;
    busyMax = std::max(busyMax, d.collide + d.stream);
    busySum += d.collide + d.stream;
    haloBytes += static_cast<double>(d.traffic.of(Traffic::kHalo).bytesSent);
    haloMsgs +=
        static_cast<double>(d.traffic.of(Traffic::kHalo).messagesSent);
    visBytes += static_cast<double>(d.traffic.of(Traffic::kVis).bytesSent);
    steerBytes +=
        static_cast<double>(d.traffic.of(Traffic::kSteer).bytesSent);
  }
  const double stepsD = std::max<double>(1.0, static_cast<double>(steps));
  r.set("lb.collide_ms_per_step", collide / n * perStep, "ms");
  r.set("lb.stream_ms_per_step", stream / n * perStep, "ms");
  r.set("lb.halo_wait_ms_per_step", wait / n * perStep, "ms");
  r.set("lb.hidden_fraction",
        overlap + wait > 0.0 ? overlap / (overlap + wait) : 0.0, "ratio");
  r.set("lb.busy_imbalance", busySum > 0.0 ? busyMax * n / busySum : 1.0,
        "ratio");
  r.set("comm.halo_bytes_per_step", haloBytes / stepsD, "B");
  r.set("comm.halo_msgs_per_step", haloMsgs / stepsD, "count");
  r.set("comm.steer_bytes_per_step", steerBytes / stepsD, "B");

  const std::uint64_t renders = deltas.empty() ? 0 : deltas[0].renders;
  const double perRender =
      renders > 0 ? 1e3 / static_cast<double>(renders) : 0.0;
  for (std::size_t i = 0; i < stageNames.size(); ++i) {
    double worst = 0.0;
    for (const auto& d : deltas) {
      if (i < d.stages.size()) worst = std::max(worst, d.stages[i]);
    }
    r.set("vis." + stageNames[i] + "_ms", worst * perRender, "ms");
  }
  r.set("vis.renders_per_100_steps",
        100.0 * static_cast<double>(renders) / stepsD, "count");
  r.set("comm.vis_bytes_per_render",
        renders > 0 ? visBytes / static_cast<double>(renders) : 0.0, "B");
}

double StepLog::renderExtra() const {
  std::vector<double> plain, render;
  for (std::size_t i = 0; i < wall.size(); ++i) {
    (rendered[i] ? render : plain).push_back(wall[i]);
  }
  if (plain.empty() || render.empty()) return 0.0;
  return median(render) - median(plain);
}

}  // namespace e2e

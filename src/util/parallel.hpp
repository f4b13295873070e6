#pragma once
/// \file parallel.hpp
/// \brief Contiguous-range fork/join for the pre-processing hot paths
/// (site-graph construction, k-way coarsening).
///
/// A job is split into at most hardware_concurrency() contiguous index
/// ranges, each carrying at least kMinWorkPerWorker units of work, so
/// test-sized inputs run inline on the calling thread. Callers pre-size
/// every buffer a worker writes: workers allocate nothing, so glibc creates
/// no per-thread malloc arena that would outlive the job.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace hemo::parallel {

/// Least work (graph edges) handed to one worker.
inline constexpr std::uint64_t kMinWorkPerWorker = 256 * 1024;

/// Workers for `work` units: one per kMinWorkPerWorker, at least one, at
/// most hardware_concurrency().
inline unsigned workerCount(std::uint64_t work) {
  const std::uint64_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::clamp<std::uint64_t>(work / kMinWorkPerWorker, 1, cores));
}

/// Split [0, n) into `parts` contiguous ranges of near-equal cost, where
/// `prefix(i)` is the nondecreasing cumulative cost of items [0, i).
/// Returns parts+1 bounds, first 0 and last n.
template <typename Prefix>
std::vector<std::size_t> splitRanges(std::size_t n, unsigned parts,
                                     const Prefix& prefix) {
  std::vector<std::size_t> bounds(parts + 1, n);
  bounds[0] = 0;
  const std::uint64_t total = prefix(n);
  for (unsigned k = 1; k < parts; ++k) {
    const std::uint64_t want = total / parts * k + total % parts * k / parts;
    std::size_t lo = bounds[k - 1];
    std::size_t hi = n;
    while (lo < hi) {  // first i with prefix(i) >= want
      const std::size_t mid = lo + (hi - lo) / 2;
      if (prefix(mid) < want) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bounds[k] = lo;
  }
  return bounds;
}

/// Run body(w) for every w in [0, workers): worker 0 on the calling thread,
/// the rest on their own threads. All are joined before returning; the
/// first exception a worker threw is then rethrown.
template <typename Body>
void runWorkers(unsigned workers, const Body& body) {
  if (workers <= 1) {
    body(0u);
    return;
  }
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  const auto guarded = [&](unsigned w) {
    try {
      body(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  try {
    for (unsigned w = 1; w < workers; ++w) threads.emplace_back(guarded, w);
  } catch (...) {  // thread creation failed: join what started, then fail
    for (auto& t : threads) t.join();
    throw;
  }
  guarded(0u);
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace hemo::parallel

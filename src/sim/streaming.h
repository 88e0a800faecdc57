// streaming.h — deterministic blocked map-reduce on an Executor.
//
// The streaming measurement backends reduce (group × index-range)
// workloads into one accumulator per group without materializing
// per-index samples. The index range of every group is split into
// fixed-size blocks; each block folds into a fresh accumulator, and the
// block accumulators merge into the group result in ascending block
// order. That fold sequence is the whole determinism contract, and it
// depends on the block size alone — which must not depend on the thread
// count (it is part of the caller's contract, like the RNG stream
// derivation) — so results are bit-identical for any thread count.
//
// One scheduler runs every reduction: a work queue of (group, block)
// items. Threads claim items in ascending order from one atomic counter
// and fold each into a fresh partial on the claiming thread. A partial
// that is next in its group's block order merges at once; one that
// finished early parks in its group's slot, and whichever thread
// completes the group's contiguous prefix merges the parked run in
// ascending block order. Skewed group costs cannot idle the pool (no
// thread ever owns a whole group), and a reduction with fewer groups
// than threads still spreads its blocks over every thread. Parking is
// capped (threads stop claiming while kParkedPerThread × threads
// partials are parked), so memory stays O(groups + threads)
// accumulators, never O(groups × blocks).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "sim/executor.h"

namespace divsec::sim {

namespace streaming_detail {
/// Fold telemetry. The per-group fold time is the same number handed to
/// the caller's completion callback (the dist:: cost model feed), so the
/// CostModel and the obs catalog can never disagree about fold cost.
inline obs::Counter& blocks_counter() {
  static obs::Counter& c = obs::counter("sim.streaming.blocks");
  return c;
}
inline obs::Counter& groups_counter() {
  static obs::Counter& c = obs::counter("sim.streaming.groups");
  return c;
}
inline obs::Histogram& group_fold_hist() {
  static obs::Histogram& h = obs::histogram("sim.streaming.group_fold_ns");
  return h;
}

/// The default completion callback of reduce_groups: ignore completions.
struct IgnoreDone {
  void operator()(std::size_t, double) const noexcept {}
};
}  // namespace streaming_detail

/// Default replications-per-block of the streaming backends. Small enough
/// that in-flight memory stays trivial, large enough that per-block
/// overhead (accumulator construction, merge) vanishes against the
/// simulation work.
inline constexpr std::size_t kDefaultReductionBlock = 256;

/// Parked block partials reduce_groups allows per executor thread; while
/// that many are parked, threads stop claiming new blocks.
inline constexpr std::size_t kParkedPerThread = 2;

/// Most block partials one reduce_groups call holds besides its group
/// results: one folding or merging per thread, the parked ones, and one
/// more per thread that passed the park cap just before it filled.
[[nodiscard]] inline std::size_t reduction_in_flight_bound(
    const Executor& executor) {
  return (kParkedPerThread + 2) * executor.thread_count();
}

/// Reduce indices [0, count) of each of `groups` groups into one
/// accumulator per group. make(g) builds an empty accumulator for group
/// g; fold(acc, g, i) folds index i of group g into acc; Acc::merge(const
/// Acc&) combines block partials. Group g's result is make(g) merged with
/// its block partials in ascending block order, whatever the thread count
/// or claim order. done(g, seconds), when given, runs exactly once per
/// group, on the thread that completes it, right after its last merge;
/// `seconds` is the sum of the group's block fold times. Calls for
/// different groups may run concurrently. The first exception thrown by
/// make, fold, merge or done stops further claims and is rethrown.
template <typename Acc, typename Make, typename Fold,
          typename Done = streaming_detail::IgnoreDone>
[[nodiscard]] std::vector<Acc> reduce_groups(const Executor& executor,
                                             std::size_t groups,
                                             std::size_t count,
                                             std::size_t block,
                                             const Make& make, const Fold& fold,
                                             const Done& done = {}) {
  if (block == 0) block = kDefaultReductionBlock;
  const std::size_t nblocks = count == 0 ? 0 : (count + block - 1) / block;

  std::vector<Acc> out;
  out.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) out.push_back(make(g));
  const std::size_t items = groups * nblocks;
  if (items == 0) {
    for (std::size_t g = 0; g < groups; ++g) done(g, 0.0);
    return out;
  }
  streaming_detail::blocks_counter().add(items);

  const std::size_t park_cap = kParkedPerThread * executor.thread_count();
  std::atomic<std::size_t> next_item{0};
  std::mutex mu;  // guards everything below
  std::condition_variable unparked;
  std::map<std::size_t, Acc> parked;  // item -> partial awaiting its turn
  std::vector<std::size_t> next_block(groups, 0);  // first unmerged block
  std::vector<double> seconds(groups, 0.0);
  bool failed = false;

  const auto work = [&] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        unparked.wait(lock,
                      [&] { return failed || parked.size() < park_cap; });
        if (failed) return;
      }
      const std::size_t item = next_item.fetch_add(1, std::memory_order_relaxed);
      if (item >= items) return;
      const std::size_t g = item / nblocks;
      const std::size_t b = item % nblocks;

      const auto start = std::chrono::steady_clock::now();
      Acc partial = make(g);
      const std::size_t hi = std::min(count, (b + 1) * block);
      for (std::size_t i = b * block; i < hi; ++i) fold(partial, g, i);
      const double fold_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();

      std::unique_lock<std::mutex> lock(mu);
      seconds[g] += fold_seconds;
      if (b != next_block[g]) {
        parked.emplace(item, std::move(partial));
        continue;
      }
      // This block is next in its group's order: merge it, then every
      // parked successor. Completers of later blocks keep parking until
      // next_block[g] moves past them, which only happens under the lock.
      for (;;) {
        lock.unlock();
        out[g].merge(partial);
        lock.lock();
        if (++next_block[g] == nblocks) break;
        const auto it = parked.find(g * nblocks + next_block[g]);
        if (it == parked.end()) break;
        partial = std::move(it->second);
        parked.erase(it);
        unparked.notify_all();
      }
      const bool complete = next_block[g] == nblocks;
      const double group_seconds = seconds[g];
      lock.unlock();
      if (complete) {
        streaming_detail::groups_counter().add(1);
        streaming_detail::group_fold_hist().observe(
            static_cast<std::uint64_t>(group_seconds * 1e9));
        done(g, group_seconds);
      }
    }
  };

  const std::size_t workers = std::min(executor.thread_count(), items);
  executor.parallel_for(0, workers, [&](std::size_t) {
    try {
      work();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        failed = true;
      }
      unparked.notify_all();
      throw;
    }
  });
  return out;
}

/// Single-group convenience: reduce [0, count) into one accumulator.
/// fold(acc, i) folds index i. A null executor runs the identical block
/// schedule serially (same merge sequence, same results).
template <typename Acc, typename Make, typename Fold>
[[nodiscard]] Acc blocked_reduce(const Executor* executor, std::size_t count,
                                 std::size_t block, const Make& make,
                                 const Fold& fold) {
  static const Executor serial{1};
  auto out = reduce_groups<Acc>(
      executor ? *executor : serial, 1, count, block,
      [&make](std::size_t) { return make(); },
      [&fold](Acc& acc, std::size_t, std::size_t i) { fold(acc, i); });
  return std::move(out.front());
}

}  // namespace divsec::sim

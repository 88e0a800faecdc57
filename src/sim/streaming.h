// streaming.h — deterministic blocked map-reduce on an Executor.
//
// The streaming measurement backends reduce (group × index-range)
// workloads into one accumulator per group without materializing
// per-index samples. The index range of every group is split into
// fixed-size blocks; each block's samples are added, in ascending index
// order, to a fresh accumulator, and the block accumulators merge into
// the group result in ascending block order. That fold sequence is the
// whole determinism contract, and it depends on the block size alone —
// which must not depend on the thread count (it is part of the caller's
// contract, like the RNG stream derivation) — so results are
// bit-identical for any thread count.
//
// One scheduler runs every reduction: a work queue of (group, block)
// items. Threads claim items in ascending order from one atomic counter
// and fold each into a fresh partial on the claiming thread. A partial
// that is next in its group's block order merges at once; one that
// finished early parks in its group's slot, and whichever thread
// completes the group's contiguous prefix merges the parked run in
// ascending block order. Skewed group costs cannot idle the pool (no
// thread ever owns a whole group).
//
// A short queue — fewer than kShortQueuePerThread × threads block items,
// e.g. one adaptive round over a few cells — would still leave threads
// idle, so its blocks split into fixed-order slices (the slice count
// follows from the queue length and the thread count alone) and the
// queue items become (group, block, slice). The first slice of a block
// adds its samples straight into the block partial; later slices buffer
// theirs, and whichever thread completes the block's contiguous slice
// prefix adds the buffered run in ascending index order — the same
// park-and-prefix rule, one level down, so every block partial sees the
// serial add sequence. Long queues keep one slice per block and never
// buffer; one thread never slices.
//
// Parking is capped (threads stop claiming while kParkedPerThread ×
// threads partials and slices are parked), so memory stays
// O(groups + threads) accumulators, never O(groups × blocks).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <type_traits>
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

/// Parked block partials and buffered slices reduce_groups allows per
/// executor thread; while that many are parked, threads stop claiming.
inline constexpr std::size_t kParkedPerThread = 2;

/// A reduce_groups call with fewer block items than this many per thread
/// is a short queue: its blocks split into slices.
inline constexpr std::size_t kShortQueuePerThread = 2;

/// Queue items per thread a short queue is sliced into.
inline constexpr std::size_t kSlicedItemsPerThread = 4;

/// Slices per block of a reduction over `items` block items of `block`
/// indices on `threads` threads: 1 for a long queue or one thread, else
/// enough that the queue offers about kSlicedItemsPerThread × threads
/// items (never more slices than indices per block).
[[nodiscard]] inline std::size_t slices_per_block(std::size_t threads,
                                                  std::size_t items,
                                                  std::size_t block) {
  if (threads < 2 || items == 0 || items >= kShortQueuePerThread * threads)
    return 1;
  const std::size_t want = (kSlicedItemsPerThread * threads + items - 1) / items;
  return std::max<std::size_t>(1, std::min(want, block));
}

/// Most block partials and buffered slices one reduce_groups call holds
/// besides its group results: one folding or merging per thread, the
/// parked ones, and one more per thread that passed the park cap just
/// before it filled.
[[nodiscard]] inline std::size_t reduction_in_flight_bound(
    const Executor& executor) {
  return (kParkedPerThread + 2) * executor.thread_count();
}

/// Reduce indices [0, count) of each of `groups` groups into one
/// accumulator per group. make(g) builds an empty accumulator for group
/// g; sample(g, i) computes index i of group g (any thread may run it);
/// add(acc, s) adds a sample to an accumulator; Acc::merge(const Acc&)
/// combines block partials. Group g's result is make(g) merged, in
/// ascending block order, with one partial per block: make(g) with the
/// block's samples added in ascending index order — whatever the thread
/// count, claim order or slicing. done(g, seconds), when given, runs
/// exactly once per group, on the thread that completes it, right after
/// its last merge; `seconds` is the sum of the group's block (or slice)
/// compute times. Calls for different groups may run concurrently. The
/// first exception thrown by make, sample, add, merge or done stops
/// further claims and is rethrown.
template <typename Acc, typename Make, typename Sample, typename Add,
          typename Done = streaming_detail::IgnoreDone>
[[nodiscard]] std::vector<Acc> reduce_groups(const Executor& executor,
                                             std::size_t groups,
                                             std::size_t count,
                                             std::size_t block,
                                             const Make& make,
                                             const Sample& sample,
                                             const Add& add,
                                             const Done& done = {}) {
  using S = std::invoke_result_t<const Sample&, std::size_t, std::size_t>;
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

  const std::size_t threads = executor.thread_count();
  const std::size_t slices = slices_per_block(threads, items, block);
  const std::size_t units = items * slices;
  const std::size_t park_cap = kParkedPerThread * threads;
  std::atomic<std::size_t> next_unit{0};
  std::mutex mu;  // guards everything below
  std::condition_variable unparked;
  std::map<std::size_t, Acc> parked;  // item -> block partial awaiting its turn
  std::map<std::size_t, Acc> open;    // item -> block partial awaiting a slice
  std::map<std::size_t, std::vector<S>> buffered;  // unit -> slice samples
  std::vector<std::size_t> next_slice(slices > 1 ? items : 0, 0);
  std::vector<std::size_t> next_block(groups, 0);  // first unmerged block
  std::vector<double> seconds(groups, 0.0);
  bool failed = false;
  const auto held = [&] {
    return parked.size() + open.size() + buffered.size();
  };

  const auto work = [&] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        unparked.wait(lock, [&] { return failed || held() < park_cap; });
        if (failed) return;
      }
      const std::size_t unit = next_unit.fetch_add(1, std::memory_order_relaxed);
      if (unit >= units) return;
      const std::size_t item = unit / slices;
      const std::size_t s = unit % slices;
      const std::size_t g = item / nblocks;
      const std::size_t b = item % nblocks;
      const std::size_t lo = b * block;
      const std::size_t n = std::min(count, lo + block) - lo;
      const std::size_t first = lo + n * s / slices;
      const std::size_t last = lo + n * (s + 1) / slices;

      // The first slice adds straight into a fresh block partial; later
      // slices buffer their samples until the block's prefix reaches them.
      const auto start = std::chrono::steady_clock::now();
      std::optional<Acc> partial;
      std::vector<S> samples;
      if (s == 0) {
        partial.emplace(make(g));
        for (std::size_t i = first; i < last; ++i) add(*partial, sample(g, i));
      } else {
        samples.reserve(last - first);
        for (std::size_t i = first; i < last; ++i)
          samples.push_back(sample(g, i));
      }
      const double fold_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();

      std::unique_lock<std::mutex> lock(mu);
      seconds[g] += fold_seconds;
      if (slices > 1) {
        if (s != next_slice[item]) {
          buffered.emplace(unit, std::move(samples));
          continue;
        }
        // This slice is next in its block: add it, then every buffered
        // successor. Buffered runs stay in `buffered` (and under the park
        // cap) until added; completers of later slices keep buffering
        // until next_slice[item] moves past them, which only happens
        // under the lock.
        if (s != 0) {
          const auto it = open.find(item);
          partial.emplace(std::move(it->second));
          open.erase(it);
          unparked.notify_all();
        }
        auto run = buffered.end();
        std::vector<S>* pending = &samples;
        for (;;) {
          lock.unlock();
          for (S& x : *pending) add(*partial, std::move(x));
          lock.lock();
          if (run != buffered.end()) {
            buffered.erase(run);
            unparked.notify_all();
          }
          if (++next_slice[item] == slices) break;
          run = buffered.find(item * slices + next_slice[item]);
          if (run == buffered.end()) break;
          pending = &run->second;
        }
        if (next_slice[item] != slices) {
          open.emplace(item, std::move(*partial));
          continue;
        }
      }
      if (b != next_block[g]) {
        parked.emplace(item, std::move(*partial));
        continue;
      }
      // This block is next in its group's order: merge it, then every
      // parked successor. Completers of later blocks keep parking until
      // next_block[g] moves past them, which only happens under the lock.
      for (;;) {
        lock.unlock();
        out[g].merge(*partial);
        lock.lock();
        if (++next_block[g] == nblocks) break;
        const auto it = parked.find(g * nblocks + next_block[g]);
        if (it == parked.end()) break;
        *partial = std::move(it->second);
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

  const std::size_t workers = std::min(threads, units);
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
/// sample(i) computes index i; add(acc, s) adds a sample. A null executor
/// runs the identical block schedule serially (same add and merge
/// sequence, same results).
template <typename Acc, typename Make, typename Sample, typename Add>
[[nodiscard]] Acc blocked_reduce(const Executor* executor, std::size_t count,
                                 std::size_t block, const Make& make,
                                 const Sample& sample, const Add& add) {
  static const Executor serial{1};
  auto out = reduce_groups<Acc>(
      executor ? *executor : serial, 1, count, block,
      [&make](std::size_t) { return make(); },
      [&sample](std::size_t, std::size_t i) { return sample(i); }, add);
  return std::move(out.front());
}

}  // namespace divsec::sim

// shard_plan.h — deterministic superblock partition of a (group × index)
// reduction space, the planning layer of the distributed sweep subsystem.
//
// The streaming backends reduce each group's index range through
// fixed-size blocks merged in ascending order (sim/streaming.h). That
// left-fold is deterministic but not decomposable: floating-point merges
// (parallel Welford, t-digest re-compression) are not associative, so
// a partial computed over an arbitrary block range cannot be combined
// with another partial bit-identically to the single left-fold.
//
// The superblock is the decomposition contract that fixes this. Each
// group's index range splits into fixed-size superblocks (a multiple of
// the block size; like the block size, NEVER derived from the thread or
// shard count). The reduction is defined two-level:
//   superblock partial = empty ⊕ (its block partials, ascending);
//   group result       = superblock partial 0 ⊕ partial 1 ⊕ … (ascending).
// A superblock partial depends only on (group, superblock index, the RNG
// stream contract) — not on which process computes it or with how many
// threads — so any assignment of whole superblocks to K OS processes,
// followed by a merge in ascending (group, superblock) order, reproduces
// the in-process result bit for bit. In-process execution is simply the
// K = 1 instance of the same plan, one code path for threads and
// processes alike. When a group's whole range fits one superblock the
// two-level fold degenerates to the original single-level fold, so small
// runs are bit-identical to the pre-superblock streaming backend too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/streaming.h"

namespace divsec::sim {

/// Default indices per superblock. Part of the determinism contract the
/// same way kDefaultReductionBlock is: changing it changes where shard
/// partial boundaries fall (and hence merge-order floating point), so it
/// is recorded in serialized shard state and validated at merge time.
inline constexpr std::size_t kDefaultSuperblockReps = 16384;

class ShardPlan {
 public:
  /// One unit of distributable work: indices [begin, end) of `group`,
  /// reduced into a single accumulator partial.
  struct Task {
    std::size_t group = 0;
    std::size_t superblock = 0;  // index within the group
    std::size_t begin = 0;       // index range within the group
    std::size_t end = 0;
  };

  ShardPlan() = default;

  /// Plan the (groups × count) space. block == 0 resolves to
  /// kDefaultReductionBlock; superblock == 0 resolves to
  /// kDefaultSuperblockReps rounded up to a block multiple. An explicit
  /// superblock must be a nonzero multiple of the block
  /// (std::invalid_argument otherwise) — a misaligned superblock would
  /// split a block across shards and change the fold sequence.
  [[nodiscard]] static ShardPlan make(std::size_t groups, std::size_t count,
                                      std::size_t block,
                                      std::size_t superblock) {
    ShardPlan p;
    p.groups_ = groups;
    p.count_ = count;
    p.block_ = block ? block : kDefaultReductionBlock;
    std::size_t sb = superblock;
    if (sb == 0)
      sb = ((kDefaultSuperblockReps + p.block_ - 1) / p.block_) * p.block_;
    if (sb < p.block_ || sb % p.block_ != 0)
      throw std::invalid_argument(
          "ShardPlan: superblock must be a nonzero multiple of the block");
    p.superblock_ = sb;
    p.per_group_ = count == 0 ? 0 : (count + sb - 1) / sb;
    return p;
  }

  [[nodiscard]] std::size_t groups() const noexcept { return groups_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t block() const noexcept { return block_; }
  [[nodiscard]] std::size_t superblock() const noexcept { return superblock_; }
  [[nodiscard]] std::size_t superblocks_per_group() const noexcept {
    return per_group_;
  }
  [[nodiscard]] std::size_t task_count() const noexcept {
    return groups_ * per_group_;
  }

  /// The uniform per-task iteration span handed to the blocked reduction:
  /// full superblocks normally, shrunk to the block-aligned range when
  /// every group fits one superblock so short runs schedule no empty
  /// block jobs. Tasks bound-check against their own [begin, end).
  [[nodiscard]] std::size_t task_span() const noexcept {
    if (per_group_ <= 1)
      return count_ == 0 ? 0 : ((count_ + block_ - 1) / block_) * block_;
    return superblock_;
  }

  /// Task t in canonical order: t = group * superblocks_per_group() +
  /// superblock. Ascending task order within a group is ascending index
  /// order — the merge sequence of the reducer.
  [[nodiscard]] Task task(std::size_t t) const {
    if (t >= task_count()) throw std::out_of_range("ShardPlan::task");
    Task out;
    out.group = t / per_group_;
    out.superblock = t % per_group_;
    out.begin = out.superblock * superblock_;
    out.end = std::min(count_, out.begin + superblock_);
    return out;
  }

  /// Contiguous balanced assignment of tasks to `shard_count` shards:
  /// shard i owns tasks [i·T/K, (i+1)·T/K). Deterministic in (plan,
  /// shard_count) only; shards past the task count are empty and valid.
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
      std::size_t shard, std::size_t shard_count) const {
    if (shard_count == 0 || shard >= shard_count)
      throw std::invalid_argument("ShardPlan::shard_range: need shard < K");
    const std::size_t t = task_count();
    return {t * shard / shard_count, t * (shard + 1) / shard_count};
  }

 private:
  std::size_t groups_ = 0;
  std::size_t count_ = 0;
  std::size_t block_ = kDefaultReductionBlock;
  std::size_t superblock_ = kDefaultSuperblockReps;
  std::size_t per_group_ = 0;
};

/// The exact reducer: combine the complete task-partial list (canonical
/// task order, e.g. concatenated from shard states sorted by task index)
/// into one accumulator per group. Group g's result is its first
/// superblock partial left-merged with the rest in ascending superblock
/// order — the same sequence for one process or many, any thread count.
/// make(g) supplies the empty accumulator only for groups with no tasks
/// (count == 0).
template <typename Acc, typename Make>
[[nodiscard]] std::vector<Acc> reduce_task_partials(const ShardPlan& plan,
                                                    std::vector<Acc> partials,
                                                    const Make& make) {
  if (partials.size() != plan.task_count())
    throw std::invalid_argument(
        "reduce_task_partials: partial count != task count");
  const std::size_t per_group = plan.superblocks_per_group();
  std::vector<Acc> out;
  out.reserve(plan.groups());
  for (std::size_t g = 0; g < plan.groups(); ++g) {
    if (per_group == 0) {
      out.push_back(make(g));
      continue;
    }
    Acc acc = std::move(partials[g * per_group]);
    for (std::size_t s = 1; s < per_group; ++s)
      acc.merge(partials[g * per_group + s]);
    out.push_back(std::move(acc));
  }
  return out;
}

}  // namespace divsec::sim

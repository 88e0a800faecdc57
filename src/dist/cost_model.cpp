#include "dist/cost_model.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "dist/fnv.h"
#include "dist/state_codec.h"

namespace divsec::dist {

void CostModel::merge(const CostModel& other) {
  if (other.cells.empty()) return;
  if (cells.empty()) {
    cells = other.cells;
    return;
  }
  if (cells.size() != other.cells.size())
    throw std::invalid_argument(
        "CostModel::merge: cell counts disagree (models from different "
        "sweeps?)");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].replications += other.cells[c].replications;
    cells[c].seconds += other.cells[c].seconds;
  }
}

double CostModel::sec_per_rep(std::size_t cell) const {
  if (cell < cells.size() && cells[cell].replications > 0 &&
      cells[cell].seconds > 0.0)
    return cells[cell].seconds / static_cast<double>(cells[cell].replications);
  std::uint64_t reps = 0;
  double seconds = 0.0;
  for (const auto& c : cells) {
    if (c.replications == 0 || !(c.seconds > 0.0)) continue;
    reps += c.replications;
    seconds += c.seconds;
  }
  return reps > 0 ? seconds / static_cast<double>(reps) : 1.0;
}

std::uint64_t cost_fingerprint(const SweepMeta& meta) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a_mix(h, meta.preset);
  fnv1a_mix(h, meta.threat);
  fnv1a_mix(h, static_cast<std::uint64_t>(meta.policies.size()));
  for (const auto p : meta.policies)
    fnv1a_mix(h, static_cast<std::uint64_t>(p));
  fnv1a_mix(h, meta.seed);
  fnv1a_mix(h, std::bit_cast<std::uint64_t>(meta.horizon_hours));
  fnv1a_mix(h, meta.cells);
  return h;
}

std::vector<std::vector<std::uint64_t>> cost_weighted_assignment(
    const sim::ShardPlan& plan, const CostModel& cost, std::size_t shards) {
  std::vector<std::uint64_t> all(plan.task_count());
  std::iota(all.begin(), all.end(), std::uint64_t{0});
  return cost_weighted_assignment(plan, cost, shards, all);
}

std::vector<std::vector<std::uint64_t>> cost_weighted_assignment(
    const sim::ShardPlan& plan, const CostModel& cost, std::size_t shards,
    const std::vector<std::uint64_t>& tasks) {
  if (shards == 0)
    throw std::invalid_argument("cost_weighted_assignment: need >= 1 shard");
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i] >= plan.task_count())
      throw std::out_of_range("cost_weighted_assignment: task outside plan");
    if (i > 0 && tasks[i] <= tasks[i - 1])
      throw std::invalid_argument(
          "cost_weighted_assignment: task list must be strictly ascending");
  }
  std::vector<double> estimate(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const sim::ShardPlan::Task task = plan.task(tasks[i]);
    estimate[i] = cost.sec_per_rep(task.group) *
                  static_cast<double>(task.end - task.begin);
  }

  // LPT: place tasks in descending estimated cost (ties by ascending id
  // for determinism) onto the least-loaded shard so far.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (estimate[a] != estimate[b]) return estimate[a] > estimate[b];
    return tasks[a] < tasks[b];
  });

  using Load = std::pair<double, std::size_t>;  // (seconds, shard)
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (std::size_t s = 0; s < shards; ++s) heap.push({0.0, s});

  std::vector<std::vector<std::uint64_t>> out(shards);
  for (const std::size_t i : order) {
    auto [load, shard] = heap.top();
    heap.pop();
    out[shard].push_back(tasks[i]);
    heap.push({load + estimate[i], shard});
  }
  for (auto& list : out) std::sort(list.begin(), list.end());
  return out;
}

std::vector<double> assignment_cost(
    const sim::ShardPlan& plan, const CostModel& cost,
    const std::vector<std::vector<std::uint64_t>>& assignment) {
  std::vector<double> out(assignment.size(), 0.0);
  for (std::size_t s = 0; s < assignment.size(); ++s)
    for (const std::uint64_t t : assignment[s]) {
      const sim::ShardPlan::Task task = plan.task(t);
      out[s] += cost.sec_per_rep(task.group) *
                static_cast<double>(task.end - task.begin);
    }
  return out;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

void require_fingerprint(std::uint64_t expected, std::uint64_t actual,
                         const std::string& what) {
  if (expected == actual) return;
  throw std::invalid_argument(
      what + " references a different sweep (fingerprint " +
      fingerprint_hex(actual) + ", this sweep is " + fingerprint_hex(expected) +
      "): the preset/policies/threat/seed/horizon flags must match the run "
      "that produced it");
}

std::string encode_task_plan(const TaskPlan& plan) {
  std::string out = "divsec-tasks v1\n";
  out += "fingerprint " + fingerprint_hex(plan.fingerprint) + "\n";
  out += "shards " + std::to_string(plan.shards.size()) + "\n";
  out += "tasks " + std::to_string(plan.task_count()) + "\n";
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    out += "shard " + std::to_string(s) + " " +
           std::to_string(plan.shards[s].size());
    for (const std::uint64_t t : plan.shards[s]) {
      out += ' ';
      out += std::to_string(t);
    }
    out += "\n";
  }
  return out;
}

TaskPlan decode_task_plan(std::string_view text) {
  std::istringstream in{std::string(text)};
  const auto fail = [](const std::string& why) -> void {
    throw std::runtime_error("task plan: " + why);
  };

  std::string line;
  if (!std::getline(in, line) || line != "divsec-tasks v1")
    fail("not a divsec task-plan file (missing 'divsec-tasks v1' header)");

  TaskPlan plan;
  std::string word, hex;
  if (!(in >> word >> hex) || word != "fingerprint" || hex.size() != 16)
    fail("malformed fingerprint line");
  std::size_t used = 0;
  try {
    plan.fingerprint = std::stoull(hex, &used, 16);
  } catch (const std::exception&) {
    fail("malformed fingerprint value");
  }
  if (used != hex.size()) fail("malformed fingerprint value");

  std::uint64_t shards = 0, tasks = 0;
  if (!(in >> word >> shards) || word != "shards" || shards == 0)
    fail("malformed shard count");
  // Plausibility bounds before any allocation: every shard contributes a
  // "shard i n" line (>= 8 bytes) and every assigned task >= 2 bytes of
  // text, so counts the file cannot possibly hold are corruption — fail
  // cleanly instead of letting a forged count drive resize()/reserve()
  // into bad_alloc.
  if (shards > text.size() / 8)
    fail("shard count exceeds the file size");
  if (!(in >> word >> tasks) || word != "tasks")
    fail("malformed task count");
  if (tasks > text.size())
    fail("task count exceeds the file size");

  std::vector<bool> seen(tasks, false);
  plan.shards.resize(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    std::uint64_t index = 0, count = 0;
    if (!(in >> word >> index >> count) || word != "shard" || index != s)
      fail("malformed shard line " + std::to_string(s));
    if (count > tasks)
      fail("shard " + std::to_string(s) + " claims more tasks than the sweep");
    auto& list = plan.shards[s];
    list.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t t = 0;
      if (!(in >> t)) fail("truncated task list of shard " + std::to_string(s));
      if (t >= tasks) fail("task " + std::to_string(t) + " outside the sweep");
      if (!list.empty() && t <= list.back())
        fail("task list of shard " + std::to_string(s) +
             " is not strictly ascending");
      if (seen[t])
        fail("task " + std::to_string(t) + " assigned to more than one shard");
      seen[t] = true;
      list.push_back(t);
    }
  }
  for (std::uint64_t t = 0; t < tasks; ++t)
    if (!seen[t])
      fail("task " + std::to_string(t) + " is not assigned to any shard");
  if (in >> word) fail("trailing content after the last shard line");
  return plan;
}

void write_task_plan(const std::string& path, const TaskPlan& plan) {
  const std::string text = encode_task_plan(plan);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_result = std::fclose(f);
  if (written != text.size() || close_result != 0)
    throw std::runtime_error("short write: " + path);
}

TaskPlan read_task_plan(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open: " + path);
  std::string text;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw std::runtime_error("read error: " + path);
  return decode_task_plan(text);
}

}  // namespace divsec::dist

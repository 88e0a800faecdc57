// divsec_sweep — distributed scenario sweeps from the command line.
//
// A sweep is named by its spec (preset, policy arms, threat, seed,
// replication/aggregation parameters); every process re-expands the
// identical plan from the scenario registry, so shards ship no topology
// bytes — only accumulator state. The three subcommands:
//
//   run     in-process sweep (no --shard): writes <out>_measurements.csv
//           and <out>_summary.json — the single-process reference.
//           With --shard i/K: computes shard i's superblock-task
//           partials and writes the versioned state file <out> (default
//           <preset>_shard<i>of<K>.state). With --tasks PLAN --shard i:
//           computes the explicit task list shard i owns in a
//           cost-weighted plan file instead of the contiguous range.
//   plan    cost-weighted shard planner: merges the per-cell cost models
//           measured by prior runs (--weights *.state, any compatible
//           sweep — cost transfers across replication counts) and deals
//           the superblock tasks to --shards K by LPT, writing a task
//           plan `run --tasks` executes. Every shard state records
//           costs, so the first (statically sharded) run of a sweep is
//           its own calibration.
//   merge   exact cross-process reducer: validates shard compatibility
//           and exact task coverage (contiguous ranges, LPT lists, or
//           any mix), folds partials in ascending (cell, superblock)
//           order, and writes <out>_measurements.csv +
//           <out>_summary.json + <out>_merged.state. Output is
//           bit-identical to the in-process `run` on the same spec —
//           for any shard count, including 1, and for any exact-coverage
//           assignment of tasks to shards.
//   adapt   variance-driven driver (dist/adaptive.h): multi-round loop
//           that measures only the unconverged cells' next superblocks
//           each round, deals their partials to K shards (LPT over the
//           cost measured so far) through the state codec, and retires a
//           cell once its CI half-width passes the stopping rule. Writes the merged artifacts plus
//           <out>_adaptive.state, whose per-cell achieved counts are the
//           reproducibility contract.
//           With --replay STATE, `run` re-executes exactly the recorded
//           achieved counts — any thread count, any --shard i/K cut —
//           and merging reproduces the adaptive CSV byte for byte.
//   inspect print a state file's JSON header, its per-section byte
//           breakdown (framing, meta, tasks, accumulators, cost, rounds)
//           with the compression ratio against the fixed-width
//           equivalent, per-cell summary lines (achieved replications,
//           measured sec/rep, termination round for adaptive states),
//           the adaptive round log, and the accumulator dump.
//
// Examples (long invocations wrapped for reading):
//   divsec_sweep run --preset enterprise1024 --replications 100000
//       --shard 0/8 --out s0.state            # ×8, one per process/host
//   divsec_sweep merge --out fleet s*.state
//   divsec_sweep plan --preset enterprise1024 --replications 100000
//       --shards 8 --weights fleet_merged.state --out fleet.tasks
//   divsec_sweep run --preset enterprise1024 --replications 100000
//       --tasks fleet.tasks --shard 0 --out e0.state   # ×8, elastic
//   divsec_sweep run --preset enterprise1024 --replications 100000
//       --out fleet_ref                       # the equality reference
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/threat.h"
#include "core/report.h"
#include "dist/adaptive.h"
#include "dist/sweep.h"
#include "scenario/presets.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/executor.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/version.h"

using namespace divsec;

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: divsec_sweep <run|plan|merge|adapt|inspect> [options]\n"
      "\n"
      "divsec_sweep run [sweep options] [--shard i/K | --tasks PLAN --shard i\n"
      "                 | --replay STATE [--shard i/K]] [--out PATH]\n"
      "  --preset NAME        scenario preset or family spec (default\n"
      "                       enterprise256)\n"
      "  --family SPEC        topology family spec, e.g. brownfield or\n"
      "                       hub-spoke:nodes=512,sites=8 (families:\n"
      "                       purdue-deep, mesh-flat, hub-spoke,\n"
      "                       brownfield); sets the preset to the\n"
      "                       canonical familyv1 form\n"
      "  --family-json ARG    same, from a flat JSON object — inline if\n"
      "                       ARG starts with '{', else a file path\n"
      "  --policies a,b,c     cell arms from {monoculture,zone-stratified,\n"
      "                       random-per-node,balanced-rotation} (aliases\n"
      "                       mono/zone/random/rotation; default the\n"
      "                       three-arm policy sweep)\n"
      "  --threat SPEC        threat spec: stuxnet|duqu|flame, optionally\n"
      "                       tuned — stuxnet:scan=2,dwell=0.5,\n"
      "                       stealth=0.8,channels=usb+http\n"
      "                       (default stuxnet)\n"
      "  --seed S             master seed (default 2013)\n"
      "  --replications N     replications per cell (default 1000)\n"
      "  --block B            replications per reduction block (default %zu)\n"
      "  --superblock SB      replications per distributable superblock\n"
      "                       (multiple of the block; default %zu)\n"
      "  --bins N             survival-estimator bins (default 64)\n"
      "  --horizon H          measurement horizon in hours (default 2160)\n"
      "  --threads T          executor threads (default DIVSEC_THREADS)\n"
      "  --shard i/K          compute only shard i of K (contiguous\n"
      "                       balanced ranges) and write its state file\n"
      "  --tasks PLAN         execute the task list --shard i owns in the\n"
      "                       plan file (from `divsec_sweep plan`); the\n"
      "                       plan's fingerprint must match the sweep flags\n"
      "  --replay STATE       re-execute the per-cell achieved counts an\n"
      "                       adaptive state recorded (sweep flags come\n"
      "                       from the state, not the command line); no\n"
      "                       --shard reproduces the CSV directly, --shard\n"
      "                       i/K writes shard i's slice of the achieved\n"
      "                       task list for a later `merge`\n"
      "  --out PATH           state-file path (sharded) or artifact prefix\n"
      "  --metrics PATH       write the obs:: metrics snapshot as JSON; a\n"
      "                       sharded run writes <out>.metrics.json even\n"
      "                       without the flag (merge aggregates sidecars)\n"
      "  --trace FILE         record obs:: spans and write a Chrome\n"
      "                       trace-event JSON (load in Perfetto)\n"
      "\n"
      "divsec_sweep plan [sweep options] --shards K [--weights STATE]...\n"
      "                  [--out PATH]\n"
      "  deals the sweep's superblock tasks to K shards by LPT over the\n"
      "  per-cell costs measured in the --weights state files (shard or\n"
      "  merged; replication counts may differ — cost is per replication).\n"
      "  Without --weights all tasks cost the same (balanced deal). Writes\n"
      "  the task plan to PATH (default <preset>_<K>shards.tasks)\n"
      "\n"
      "divsec_sweep merge [--out PREFIX] [--bench-json FILE]\n"
      "                   [--metrics PATH] STATE...\n"
      "  reduces shard state files to <PREFIX>_measurements.csv,\n"
      "  <PREFIX>_summary.json and <PREFIX>_merged.state; --bench-json\n"
      "  records per-shard wall times in BENCH json format. Aggregates the\n"
      "  inputs' <STATE>.metrics.json sidecars (plus this process's own\n"
      "  codec counters) into <PREFIX>_merged.state.metrics.json, or\n"
      "  --metrics PATH\n"
      "\n"
      "divsec_sweep adapt [sweep options] [--shards K] [--threads T]\n"
      "                   [--out PREFIX]\n"
      "  variance-driven sweep: rounds of one superblock per unconverged\n"
      "  cell, measured as one queue and dealt to K in-process shards by\n"
      "  LPT over measured cost (each shard's state round-trips the state\n"
      "  codec), until every cell's CI half-width meets the stopping rule\n"
      "  or hits the --replications budget. Writes\n"
      "  <PREFIX>_measurements.csv, <PREFIX>_summary.json and\n"
      "  <PREFIX>_adaptive.state\n"
      "  --shards K           coordinator shards per round (default 1)\n"
      "  --precision R        relative CI half-width target (default 0.05;\n"
      "                       0 disables the relative criterion)\n"
      "  --abs-floor A        absolute half-width floor in ratio units\n"
      "                       (scaled by the horizon for time indicators;\n"
      "                       default 0 = off) — a near-zero-mean cell\n"
      "                       converges on this even when R*|mean| ~ 0\n"
      "  --confidence C       CI confidence level (default 0.95)\n"
      "  --min N              replications before a cell may stop\n"
      "                       (default: one superblock)\n"
      "  --max N              per-cell cap (default: --replications)\n"
      "  --round N            replications added per round per cell\n"
      "                       (default: one superblock)\n"
      "  --metrics PATH       write the obs:: metrics snapshot as JSON\n"
      "  --trace FILE         record obs:: spans (adapt.round/shard/merge)\n"
      "                       and write Chrome trace-event JSON\n"
      "  (a per-round convergence line always goes to stderr; silence it\n"
      "  with DIVSEC_PROGRESS=0)\n"
      "\n"
      "divsec_sweep inspect [STATE] [--metrics FILE]\n"
      "  prints the JSON header, the per-section byte breakdown with the\n"
      "  compression ratio vs. the fixed-width equivalent, per-cell\n"
      "  summaries, the adaptive round log, and the accumulator dump.\n"
      "  --metrics FILE (or an existing <STATE>.metrics.json sidecar)\n"
      "  pretty-prints the metrics catalog: counters, gauges, and\n"
      "  histogram count/mean/p50/p99\n"
      "\n"
      "divsec_sweep --help | --version\n",
      sim::kDefaultReductionBlock, sim::kDefaultSuperblockReps);
}

[[noreturn]] void die_unknown(const std::string& flag) {
  std::fprintf(stderr, "divsec_sweep: unknown flag: %s\n", flag.c_str());
  usage(stderr);
  std::exit(2);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "divsec_sweep: %s\n", message.c_str());
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

scenario::VariantPolicy parse_policy(const std::string& name) {
  if (name == "monoculture" || name == "mono")
    return scenario::VariantPolicy::kMonoculture;
  if (name == "zone-stratified" || name == "zone")
    return scenario::VariantPolicy::kZoneStratified;
  if (name == "random-per-node" || name == "random")
    return scenario::VariantPolicy::kRandomPerNode;
  if (name == "balanced-rotation" || name == "rotation")
    return scenario::VariantPolicy::kBalancedRotation;
  die("unknown policy: " + name +
      " (policies: monoculture, zone-stratified, random-per-node, "
      "balanced-rotation)");
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  const std::optional<std::uint64_t> v = util::parse_u64(value);
  if (!v) die("bad value for " + flag + ": '" + value + "' (want an unsigned integer)");
  return *v;
}

double parse_f64(const std::string& flag, const std::string& value) {
  const std::optional<double> v = util::parse_f64(value);
  if (!v) die("bad value for " + flag + ": '" + value + "' (want a non-negative number)");
  return *v;
}

/// "i/K" with i < K.
std::pair<std::size_t, std::size_t> parse_shard(const std::string& value) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= value.size())
    die("--shard wants i/K, e.g. 0/4; got: " + value);
  const std::uint64_t i = parse_u64("--shard", value.substr(0, slash));
  const std::uint64_t k = parse_u64("--shard", value.substr(slash + 1));
  if (k == 0 || i >= k) die("--shard wants i < K; got: " + value);
  return {static_cast<std::size_t>(i), static_cast<std::size_t>(k)};
}

/// RAII around --trace FILE: spans record between construction and the
/// command's (possibly early) return, then flush as Chrome trace-event
/// JSON. A write failure warns instead of throwing (we are unwinding).
struct TraceGuard {
  std::string path;

  explicit TraceGuard(std::string p) : path(std::move(p)) {
    if (!path.empty()) obs::trace_start();
  }
  ~TraceGuard() {
    if (path.empty()) return;
    try {
      obs::trace_stop(path);
      obs::progress_line("trace -> %s", path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "divsec_sweep: trace write failed: %s\n", e.what());
    }
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;
};

/// Flush the process's metrics snapshot as a sidecar. Out-of-band by
/// construction: written after the CSV/state artifacts, read by nothing
/// in the measurement pipeline.
void write_metrics_sidecar(const std::string& path) {
  obs::write_metrics_file(path, obs::snapshot());
  obs::progress_line("metrics -> %s", path.c_str());
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f) std::fclose(f);
  return f != nullptr;
}

std::string read_text_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) die("cannot open: " + path);
  std::string bytes;
  char buf[1 << 12];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

/// Canonicalize --preset/--threat up front so a typo dies with the
/// registry listing and exit code 2 (a usage error), not an unhandled
/// exception bubbling out of plan expansion as exit 1.
void resolve_spec(dist::SweepSpec& spec) {
  try {
    spec.preset = scenario::resolve_preset_name(spec.preset);
    spec.threat = attack::canonical_threat_spec(spec.threat);
  } catch (const std::exception& e) {
    die(e.what());
  }
}

struct ArgReader {
  int argc;
  char** argv;
  int i;

  [[nodiscard]] std::string value(const std::string& flag) {
    if (i + 1 >= argc) die("missing value for " + flag);
    return argv[++i];
  }
};

/// The sweep-identity flags shared by `run` and `plan`. Returns false if
/// `flag` is not a sweep flag (the caller handles its own).
bool parse_sweep_flag(ArgReader& args, const std::string& flag,
                      dist::SweepSpec& spec) {
  if (flag == "--preset") spec.preset = args.value(flag);
  else if (flag == "--family") {
    try {
      spec.preset = scenario::FamilySpec::parse(args.value(flag)).canonical();
    } catch (const std::exception& e) {
      die(e.what());
    }
  } else if (flag == "--family-json") {
    const std::string arg = args.value(flag);
    const std::string text =
        !arg.empty() && arg[0] == '{' ? arg : read_text_file(arg);
    try {
      spec.preset = scenario::FamilySpec::from_json(text).canonical();
    } catch (const std::exception& e) {
      die(e.what());
    }
  } else if (flag == "--policies") {
    spec.policies.clear();
    for (const auto& p : split_csv(args.value(flag)))
      spec.policies.push_back(parse_policy(p));
  } else if (flag == "--threat") spec.threat = args.value(flag);
  else if (flag == "--seed") spec.seed = parse_u64(flag, args.value(flag));
  else if (flag == "--replications")
    spec.replications = parse_u64(flag, args.value(flag));
  else if (flag == "--block")
    spec.replication_block = parse_u64(flag, args.value(flag));
  else if (flag == "--superblock")
    spec.superblock = parse_u64(flag, args.value(flag));
  else if (flag == "--bins")
    spec.survival_bins = parse_u64(flag, args.value(flag));
  else if (flag == "--horizon")
    spec.horizon_hours = parse_f64(flag, args.value(flag));
  else return false;
  return true;
}

int cmd_run(int argc, char** argv) {
  dist::SweepSpec spec;
  bool sharded = false;
  std::string shard_value;
  std::size_t threads = 0;
  std::string out;
  std::string tasks_path;
  std::string replay_path;
  std::string metrics_path;
  std::string trace_path;

  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (parse_sweep_flag(args, flag, spec)) continue;
    else if (flag == "--threads")
      threads = parse_u64(flag, args.value(flag));
    else if (flag == "--shard") {
      shard_value = args.value(flag);
      sharded = true;
    } else if (flag == "--tasks") tasks_path = args.value(flag);
    else if (flag == "--replay") replay_path = args.value(flag);
    else if (flag == "--out") out = args.value(flag);
    else if (flag == "--metrics") metrics_path = args.value(flag);
    else if (flag == "--trace") trace_path = args.value(flag);
    else die_unknown(flag);
  }
  resolve_spec(spec);

  const TraceGuard trace(trace_path);
  const sim::Executor executor(threads);  // 0 = DIVSEC_THREADS default
  if (!replay_path.empty() || !tasks_path.empty() || sharded) {
    // Every task-selecting mode is one sequence: derive the task list and
    // the shard coordinates, run them, write the state (or, for an
    // unsharded replay, the CSV directly).
    if (!replay_path.empty() && !tasks_path.empty())
      die("--replay and --tasks are exclusive");
    std::vector<std::uint64_t> tasks;
    std::size_t shard = 0;
    std::size_t shard_count = 1;
    std::string source;  // where the task list came from, for the log line
    if (!tasks_path.empty()) {
      // Elastic mode: the task list shard i owns in the plan file.
      if (!sharded)
        die("run --tasks wants --shard i (which task list to execute)");
      if (shard_value.find('/') != std::string::npos)
        die("with --tasks, --shard wants a bare index i (K comes from the "
            "plan file); got: " + shard_value);
      shard = static_cast<std::size_t>(parse_u64("--shard", shard_value));
      dist::TaskPlan plan = dist::read_task_plan(tasks_path);
      // A task assignment is only valid for the exact sweep it was
      // planned for — running it against other flags would silently
      // mis-cover the task space.
      dist::require_fingerprint(dist::sweep_fingerprint(dist::make_meta(spec)),
                                plan.fingerprint, "task plan " + tasks_path);
      shard_count = plan.shards.size();
      if (shard >= shard_count)
        die("--shard " + std::to_string(shard) + " out of range: " +
            tasks_path + " plans " + std::to_string(shard_count) +
            " shard(s)");
      tasks = std::move(plan.shards[shard]);
      source = "cost-weighted plan " + tasks_path;
    } else if (!replay_path.empty()) {
      // Replay mode: the state file, not the command line, names the
      // sweep — its meta carries the flags AND the per-cell achieved
      // counts the adaptive run recorded. Re-running exactly those counts
      // through the ordinary task runner reproduces the adaptive CSV byte
      // for byte. Task ids are non-contiguous (each cell contributes only
      // its prefix), so shards slice list positions.
      const dist::ShardState recorded = dist::read_shard_state(replay_path);
      if (recorded.meta.achieved.empty())
        die("--replay wants an adaptive state (no per-cell achieved counts "
            "in " + replay_path + ")");
      spec = dist::spec_from_meta(recorded.meta);
      tasks = dist::achieved_tasks(recorded.meta);
      source = "achieved counts of " + replay_path;
    } else {
      tasks.resize(dist::sweep_shard_plan(dist::make_meta(spec)).task_count());
      for (std::size_t t = 0; t < tasks.size(); ++t) tasks[t] = t;
      source = "contiguous split";
    }
    if (tasks_path.empty()) {
      if (sharded) std::tie(shard, shard_count) = parse_shard(shard_value);
      // Contiguous balanced slice of the list: on the full task list this
      // is exactly ShardPlan::shard_range.
      const std::size_t n = tasks.size();
      tasks = std::vector<std::uint64_t>(
          tasks.begin() + static_cast<std::ptrdiff_t>(n * shard / shard_count),
          tasks.begin() +
              static_cast<std::ptrdiff_t>(n * (shard + 1) / shard_count));
    }

    const dist::ShardState state =
        dist::run_shard_tasks(spec, tasks, shard, shard_count, &executor);
    if (!sharded) {
      // Unsharded replay: reduce in process and write the CSV directly.
      if (out.empty()) out = spec.preset + "_replay";
      const dist::MergeResult merged = dist::merge_shards({state});
      core::save_to_file(out + "_measurements.csv",
                         dist::sweep_csv(merged.meta, merged.summaries));
      core::save_to_file(out + "_summary.json",
                         dist::summary_json(merged.meta, merged.summaries));
      if (!metrics_path.empty()) write_metrics_sidecar(metrics_path);
      std::printf("replayed %zu achieved task(s) of %s in %.1f ms -> "
                  "%s_{measurements.csv,summary.json}\n",
                  tasks.size(), spec.preset.c_str(), state.meta.wall_ms,
                  out.c_str());
      return 0;
    }
    if (out.empty())
      out = spec.preset + (replay_path.empty() ? "_shard" : "_replay_shard") +
            std::to_string(shard) + "of" + std::to_string(shard_count) +
            ".state";
    dist::write_shard_state(out, state);
    // A state-producing run always flushes its metrics next to the state
    // file (merge aggregates the sidecars); the in-process reference and
    // the unsharded replay only write metrics when asked.
    write_metrics_sidecar(metrics_path.empty() ? out + ".metrics.json"
                                               : metrics_path);
    std::printf("shard %zu/%zu: %zu task(s) (%s) of %s in %.1f ms -> %s\n",
                shard, shard_count, tasks.size(), source.c_str(),
                spec.preset.c_str(), state.meta.wall_ms, out.c_str());
    return 0;
  }

  if (out.empty()) out = spec.preset;
  dist::SweepMeta meta = dist::make_meta(spec);
  meta.threads = static_cast<std::uint32_t>(executor.thread_count());
  const std::vector<core::IndicatorSummary> summaries =
      dist::run_in_process(spec, &executor);
  core::save_to_file(out + "_measurements.csv",
                     dist::sweep_csv(meta, summaries));
  core::save_to_file(out + "_summary.json",
                     dist::summary_json(meta, summaries));
  if (!metrics_path.empty()) write_metrics_sidecar(metrics_path);
  std::printf("in-process sweep of %s (%llu cells x %llu reps) -> "
              "%s_{measurements.csv,summary.json}\n",
              spec.preset.c_str(), static_cast<unsigned long long>(meta.cells),
              static_cast<unsigned long long>(meta.replications), out.c_str());
  return 0;
}

int cmd_plan(int argc, char** argv) {
  dist::SweepSpec spec;
  std::size_t shards = 0;
  std::vector<std::string> weights;
  std::string out;

  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (parse_sweep_flag(args, flag, spec)) continue;
    else if (flag == "--shards")
      shards = parse_u64(flag, args.value(flag));
    else if (flag == "--weights") weights.push_back(args.value(flag));
    else if (flag == "--out") out = args.value(flag);
    else die_unknown(flag);
  }
  if (shards == 0) die("plan wants --shards K (K >= 1)");
  resolve_spec(spec);

  const dist::SweepMeta meta = dist::make_meta(spec);
  dist::CostModel cost;
  for (const auto& path : weights) {
    const dist::ShardState state = dist::read_shard_state(path);
    // Weights only need cost-compatibility (same cells, same dynamics):
    // seconds/rep is independent of replication counts and aggregation
    // sizes, so a cheap calibration run can weight a full-scale plan.
    dist::require_fingerprint(dist::cost_fingerprint(meta),
                              dist::cost_fingerprint(state.meta),
                              "weights file " + path);
    cost.merge(state.cost);
  }

  const sim::ShardPlan task_space = dist::sweep_shard_plan(meta);
  dist::TaskPlan plan;
  plan.fingerprint = dist::sweep_fingerprint(meta);
  plan.shards = dist::cost_weighted_assignment(task_space, cost, shards);
  if (out.empty())
    out = spec.preset + "_" + std::to_string(shards) + "shards.tasks";
  dist::write_task_plan(out, plan);

  const std::vector<double> estimate =
      dist::assignment_cost(task_space, cost, plan.shards);
  const bool weighted = cost.measured();
  std::printf("%s plan over %zu task(s) (%s costs) -> %s\n",
              weighted ? "cost-weighted LPT" : "balanced",
              static_cast<std::size_t>(task_space.task_count()),
              weighted ? "measured" : "uniform", out.c_str());
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    if (weighted)
      std::printf("  shard %zu: %4zu task(s)  ~%.2f s predicted\n", s,
                  plan.shards[s].size(), estimate[s]);
    else
      std::printf("  shard %zu: %4zu task(s)\n", s, plan.shards[s].size());
  }
  return 0;
}

int cmd_merge(int argc, char** argv) {
  std::string out = "merged";
  std::string bench_json;
  std::string metrics_path;
  std::vector<std::string> inputs;

  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (flag == "--out") out = args.value(flag);
    else if (flag == "--bench-json") bench_json = args.value(flag);
    else if (flag == "--metrics") metrics_path = args.value(flag);
    else if (flag.size() >= 2 && flag[0] == '-' && flag[1] == '-')
      die_unknown(flag);
    else inputs.push_back(flag);
  }
  if (inputs.empty()) die("merge wants at least one state file");

  std::vector<dist::ShardState> states;
  states.reserve(inputs.size());
  for (const auto& path : inputs)
    states.push_back(dist::read_shard_state(path));

  const auto t0 = std::chrono::steady_clock::now();
  const dist::MergeResult merged = dist::merge_shards(states);
  const double merge_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  core::save_to_file(out + "_measurements.csv",
                     dist::sweep_csv(merged.meta, merged.summaries));
  core::save_to_file(out + "_summary.json",
                     dist::summary_json(merged.meta, merged.summaries));
  dist::write_shard_state(out + "_merged.state", dist::merged_state(merged));

  // Aggregate the shards' metrics sidecars (counters sum, gauges max)
  // plus this process's own snapshot — the codec decode/encode counters
  // of the reduction itself — into one fleet-wide catalog.
  {
    obs::Snapshot fleet;
    std::size_t sidecars = 0;
    for (const auto& path : inputs) {
      const std::string sidecar = path + ".metrics.json";
      if (!file_exists(sidecar)) continue;
      obs::merge_into(fleet, obs::read_metrics_file(sidecar));
      ++sidecars;
    }
    if (sidecars > 0 || !metrics_path.empty()) {
      obs::merge_into(fleet, obs::snapshot());
      const std::string dest = metrics_path.empty()
                                   ? out + "_merged.state.metrics.json"
                                   : metrics_path;
      obs::write_metrics_file(dest, fleet);
      obs::progress_line("aggregated %zu metrics sidecar(s) -> %s", sidecars,
                         dest.c_str());
    }
  }

  if (!bench_json.empty()) {
    // Per-shard wall times plus the reduction itself: the distributed
    // speedup record CI tracks across commits. `speedup` on the merge row
    // is sum(shard walls) / (critical path = slowest shard + merge).
    std::vector<util::BenchRecord> records;
    double total_ms = 0.0, slowest_ms = 0.0;
    for (const auto& s : states) {
      util::BenchRecord r;
      r.name = "divsec_sweep/" + s.meta.preset + "/shard" +
               std::to_string(s.meta.shard) + "of" +
               std::to_string(s.meta.shard_count);
      r.wall_ms = s.meta.wall_ms;
      r.threads = static_cast<int>(s.meta.threads);
      records.push_back(r);
      total_ms += s.meta.wall_ms;
      slowest_ms = std::max(slowest_ms, s.meta.wall_ms);
    }
    util::BenchRecord m;
    m.name = "divsec_sweep/" + merged.meta.preset + "/merge";
    m.wall_ms = merge_ms;
    m.threads = 1;
    if (slowest_ms + merge_ms > 0.0)
      m.speedup = total_ms / (slowest_ms + merge_ms);
    records.push_back(m);
    util::write_bench_json(bench_json, records);
  }

  std::size_t tasks = 0;
  for (const auto& s : states) tasks += s.partials.size();
  std::printf("merged %zu shard state(s): %zu tasks -> %llu cells in "
              "%.1f ms -> %s_{measurements.csv,summary.json,merged.state}\n",
              states.size(), tasks,
              static_cast<unsigned long long>(merged.meta.cells), merge_ms,
              out.c_str());
  return 0;
}

int cmd_adapt(int argc, char** argv) {
  dist::SweepSpec spec;
  dist::AdaptiveSweepOptions options;
  std::size_t threads = 0;
  std::string out;
  std::string metrics_path;
  std::string trace_path;

  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (parse_sweep_flag(args, flag, spec)) continue;
    else if (flag == "--shards")
      options.shards = parse_u64(flag, args.value(flag));
    else if (flag == "--precision")
      options.relative_precision = parse_f64(flag, args.value(flag));
    else if (flag == "--abs-floor")
      options.absolute_precision = parse_f64(flag, args.value(flag));
    else if (flag == "--confidence")
      options.confidence_level = parse_f64(flag, args.value(flag));
    else if (flag == "--min")
      options.min_replications = parse_u64(flag, args.value(flag));
    else if (flag == "--max")
      options.max_replications = parse_u64(flag, args.value(flag));
    else if (flag == "--round")
      options.round_replications = parse_u64(flag, args.value(flag));
    else if (flag == "--threads")
      threads = parse_u64(flag, args.value(flag));
    else if (flag == "--out") out = args.value(flag);
    else if (flag == "--metrics") metrics_path = args.value(flag);
    else if (flag == "--trace") trace_path = args.value(flag);
    else die_unknown(flag);
  }
  if (options.shards == 0) die("adapt wants --shards K >= 1");
  if (!(options.confidence_level > 0.0 && options.confidence_level < 1.0))
    die("adapt wants --confidence C in (0, 1)");
  if (!(options.relative_precision > 0.0) &&
      !(options.absolute_precision > 0.0))
    die("adapt wants --precision R > 0 or --abs-floor A > 0");
  resolve_spec(spec);
  if (out.empty()) out = spec.preset;

  const TraceGuard trace(trace_path);
  const sim::Executor executor(threads);
  const dist::AdaptiveResult result =
      dist::run_adaptive(spec, options, &executor);

  core::save_to_file(out + "_measurements.csv",
                     dist::sweep_csv(result.meta, result.summaries));
  core::save_to_file(out + "_summary.json",
                     dist::summary_json(result.meta, result.summaries));
  dist::write_shard_state(out + "_adaptive.state",
                          dist::adaptive_state(result));
  if (!metrics_path.empty()) write_metrics_sidecar(metrics_path);

  const double savings =
      result.total_replications > 0
          ? static_cast<double>(result.budget_replications) /
                static_cast<double>(result.total_replications)
          : 0.0;
  std::printf("adaptive sweep of %s: %zu round(s), %llu of %llu budget "
              "replication(s) (%.2fx saved) across %zu shard(s) in %.1f ms "
              "-> %s_{measurements.csv,summary.json,adaptive.state}\n",
              spec.preset.c_str(), result.rounds.size(),
              static_cast<unsigned long long>(result.total_replications),
              static_cast<unsigned long long>(result.budget_replications),
              savings, options.shards, result.meta.wall_ms, out.c_str());
  for (std::size_t c = 0; c < result.meta.cells; ++c)
    std::printf("  cell %zu: %llu rep(s), stopped round %llu\n", c,
                static_cast<unsigned long long>(result.meta.achieved[c]),
                static_cast<unsigned long long>(result.cell_rounds[c]));
  return 0;
}

/// One JSON line per metric, sorted by name (sidecar order). Histograms
/// get count/sum plus the triage stats (mean, p50, p99 — log2-bucket
/// upper edges, exact within a factor of two).
void print_metrics_catalog(const std::string& metrics_path) {
  const obs::Snapshot snap = obs::read_metrics_file(metrics_path);
  std::printf("{\"metrics_file\": %s, \"counters\": %zu, \"gauges\": %zu, "
              "\"histograms\": %zu}\n",
              util::json_string(metrics_path).c_str(), snap.counters.size(),
              snap.gauges.size(), snap.histograms.size());
  for (const obs::CounterValue& c : snap.counters)
    std::printf("{\"counter\": %s, \"value\": %llu}\n",
                util::json_string(c.name).c_str(),
                static_cast<unsigned long long>(c.value));
  for (const obs::GaugeValue& g : snap.gauges)
    std::printf("{\"gauge\": %s, \"value\": %llu}\n",
                util::json_string(g.name).c_str(),
                static_cast<unsigned long long>(g.value));
  for (const obs::HistogramValue& h : snap.histograms)
    std::printf("{\"histogram\": %s, \"count\": %llu, \"sum\": %llu, "
                "\"mean\": %s, \"p50\": %s, \"p99\": %s}\n",
                util::json_string(h.name).c_str(),
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.sum),
                util::json_number_exact(h.mean()).c_str(),
                util::json_number_exact(h.quantile(0.5)).c_str(),
                util::json_number_exact(h.quantile(0.99)).c_str());
}

int cmd_inspect(int argc, char** argv) {
  std::string path;
  std::string metrics_path;
  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (flag == "--metrics") metrics_path = args.value(flag);
    else if (flag.size() >= 2 && flag[0] == '-' && flag[1] == '-')
      die_unknown(flag);
    else if (!path.empty()) die("inspect wants at most one state file");
    else path = flag;
  }
  if (path.empty() && metrics_path.empty())
    die("inspect wants a state file and/or --metrics FILE");
  // A state file's own sidecar rides along without being asked for.
  if (metrics_path.empty() && file_exists(path + ".metrics.json"))
    metrics_path = path + ".metrics.json";
  if (path.empty()) {
    print_metrics_catalog(metrics_path);
    return 0;
  }

  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) die("cannot open: " + path);
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  const dist::ShardState state = dist::decode_shard_state(bytes);
  std::printf("%s\n", dist::meta_json(state.meta).c_str());

  // Where the bytes went, and what the v4 packing bought over the
  // fixed-width encoding of the same content — the CLI view of the
  // codec-size contract the bench_e5 codec phase gates in CI.
  const dist::StateSectionSizes sizes = dist::state_section_sizes(bytes);
  const std::size_t equivalent = dist::uncompressed_equivalent_bytes(state);
  std::printf(
      "{\"sections\": {\"header\": %zu, \"meta\": %zu, \"tasks\": %zu, "
      "\"accumulators\": %zu, \"cost\": %zu, \"rounds\": %zu, "
      "\"checksum\": %zu}, \"total_bytes\": %zu, "
      "\"uncompressed_equivalent_bytes\": %zu, "
      "\"compression_ratio\": %.2f}\n",
      sizes.header, sizes.meta, sizes.tasks, sizes.accumulators, sizes.cost,
      sizes.rounds, sizes.checksum, sizes.total(), equivalent,
      static_cast<double>(equivalent) / static_cast<double>(sizes.total()));

  // One line per cell: the policy arm, the achieved replication count an
  // adaptive run recorded (and the round it stopped in), and the measured
  // cost. Cells with nothing to report (fixed-budget state, no cost
  // measured) are skipped.
  const std::vector<std::string> names =
      dist::cell_names(dist::spec_from_meta(state.meta));
  const bool adaptive = !state.meta.achieved.empty();
  for (std::size_t c = 0; c < state.meta.cells; ++c) {
    const bool costed =
        c < state.cost.cells.size() && state.cost.cells[c].replications > 0;
    if (!adaptive && !costed) continue;
    std::string line = "{\"cell\": " + std::to_string(c) + ", \"policy\": \"" +
                       names[c] + "\"";
    if (adaptive) {
      line += ", \"achieved\": " +
              std::to_string(static_cast<unsigned long long>(
                  state.meta.achieved[c]));
      if (c < state.cell_rounds.size())
        line += ", \"termination_round\": " +
                std::to_string(static_cast<unsigned long long>(
                    state.cell_rounds[c]));
    }
    if (costed) {
      const dist::CellCost& cell = state.cost.cells[c];
      line += ", \"cost_replications\": " +
              std::to_string(static_cast<unsigned long long>(
                  cell.replications)) +
              ", \"cost_seconds\": " + util::json_number_exact(cell.seconds) +
              ", \"sec_per_rep\": " +
              util::json_number_exact(state.cost.sec_per_rep(c));
    }
    line += "}";
    std::printf("%s\n", line.c_str());
  }

  for (const dist::RoundLog& r : state.rounds)
    std::printf("{\"round\": %llu, \"active_cells\": %llu, \"tasks\": %llu, "
                "\"replications\": %llu, \"wall_ms\": %s, \"merge_ms\": %s}\n",
                static_cast<unsigned long long>(r.round),
                static_cast<unsigned long long>(r.active_cells),
                static_cast<unsigned long long>(r.tasks),
                static_cast<unsigned long long>(r.replications),
                util::json_number_exact(r.wall_ms).c_str(),
                util::json_number_exact(r.merge_ms).c_str());

  for (std::size_t t = 0; t < state.partials.size(); ++t)
    std::printf("{\"task\": %llu, \"state\": %s}\n",
                static_cast<unsigned long long>(state.tasks[t]),
                dist::accumulator_json(state.partials[t]).c_str());

  if (!metrics_path.empty()) print_metrics_catalog(metrics_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage(stdout);
    return 0;
  }
  if (cmd == "--version") {
    std::printf("divsec_sweep %s (state format v%u)\n", util::kVersion,
                dist::kStateFormatVersion);
    return 0;
  }
  try {
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "plan") return cmd_plan(argc, argv);
    if (cmd == "merge") return cmd_merge(argc, argv);
    if (cmd == "adapt") return cmd_adapt(argc, argv);
    if (cmd == "inspect") return cmd_inspect(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "divsec_sweep: error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "divsec_sweep: unknown command: %s\n", cmd.c_str());
  usage(stderr);
  return 2;
}

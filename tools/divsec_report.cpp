// divsec_report — command-line front end for the three-step pipeline.
//
// Runs Attack Modeling -> DoE & Measurement -> ANOVA assessment on the
// SCoPE cooling-system description and writes the artifacts to disk:
//   <prefix>_measurements.csv   per-configuration indicator estimates
//   <prefix>_anova_success.csv  variance allocation for P[success]
//   <prefix>_anova_tta.csv      variance allocation for Time-To-Attack
//   <prefix>_anova_ttsf.csv     variance allocation for TTSF
//   <prefix>_report.md          human-readable assessment
//
// With --from-merged, skips measurement entirely and reports on the
// merged output of a distributed sweep (`divsec_sweep merge`'s
// *_merged.state): writes <prefix>_measurements.csv and
// <prefix>_report.md from the merged per-cell accumulators. The ANOVA
// step is not available on merged sweeps: the variance-allocation tables
// need per-replication responses grouped by a multi-factor DoE design,
// while a policy sweep has one factor (the policy arm) and its mergeable
// state intentionally retains only accumulator sketches, not per-
// replication samples. Per-cell means/variances and the censoring-aware
// survival estimates survive the merge exactly, so the measurement table
// is complete; the ANOVA sections are simply omitted.
//
// Usage:
//   divsec_report [--threat stuxnet|duqu|flame] [--engine san|campaign]
//                 [--replications N] [--seed S] [--levels L]
//                 [--components a,b,c] [--out prefix]
//   divsec_report --from-merged FILE_merged.state [--out prefix]
//   divsec_report --help | --version
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/report.h"
#include "dist/sweep.h"
#include "util/parse.h"
#include "util/version.h"

using namespace divsec;

namespace {

struct Args {
  std::string threat = "stuxnet";
  std::string engine = "san";
  std::size_t replications = 400;
  std::uint64_t seed = 2013;
  std::size_t levels = 0;  // 0 = all variant levels
  std::vector<std::string> components{"os.control", "plc.firmware", "firewall"};
  std::string out = "divsec";
  std::string from_merged;  // merged sweep state to report on instead
};

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

enum class ParseResult { kRun, kHelp, kVersion, kError };

ParseResult parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const auto need_u64 = [&](auto& out) {
      const char* v = need_value();
      if (!v) return false;
      const std::optional<std::uint64_t> n = util::parse_u64(v);
      if (!n) {
        std::fprintf(stderr, "bad value for %s: '%s' (want an unsigned integer)\n",
                     flag.c_str(), v);
        return false;
      }
      out = *n;
      return true;
    };
    if (flag == "--threat") {
      const char* v = need_value();
      if (!v) return ParseResult::kError;
      args.threat = v;
    } else if (flag == "--engine") {
      const char* v = need_value();
      if (!v) return ParseResult::kError;
      args.engine = v;
    } else if (flag == "--replications") {
      if (!need_u64(args.replications)) return ParseResult::kError;
    } else if (flag == "--seed") {
      if (!need_u64(args.seed)) return ParseResult::kError;
    } else if (flag == "--levels") {
      if (!need_u64(args.levels)) return ParseResult::kError;
    } else if (flag == "--components") {
      const char* v = need_value();
      if (!v) return ParseResult::kError;
      args.components = split_csv(v);
    } else if (flag == "--out") {
      const char* v = need_value();
      if (!v) return ParseResult::kError;
      args.out = v;
    } else if (flag == "--from-merged") {
      const char* v = need_value();
      if (!v) return ParseResult::kError;
      args.from_merged = v;
    } else if (flag == "--help" || flag == "-h") {
      return ParseResult::kHelp;
    } else if (flag == "--version") {
      return ParseResult::kVersion;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return ParseResult::kError;
    }
  }
  return ParseResult::kRun;
}

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: divsec_report [--threat stuxnet|duqu|flame] [--engine san|campaign]\n"
      "                     [--replications N] [--seed S] [--levels L]\n"
      "                     [--components a,b,c] [--out prefix]\n"
      "       divsec_report --from-merged FILE_merged.state [--out prefix]\n"
      "       divsec_report --help | --version\n"
      "\n"
      "--from-merged reports on a distributed sweep reduced by `divsec_sweep\n"
      "merge`: writes <prefix>_measurements.csv and <prefix>_report.md from\n"
      "the merged per-cell accumulators. ANOVA tables are omitted in this\n"
      "mode — variance allocation needs per-replication responses over a\n"
      "multi-factor design, which the mergeable accumulator state (by\n"
      "design) does not retain.\n");
}

/// Report on `divsec_sweep merge` output: the measurement table survives
/// the merge exactly; ANOVA does not apply (see usage()).
int report_from_merged(const Args& args) {
  const dist::ShardState merged = dist::read_shard_state(args.from_merged);
  const auto summaries = dist::summaries_from_merged(merged);
  const std::string csv = dist::sweep_csv(merged.meta, summaries);
  core::save_to_file(args.out + "_measurements.csv", csv);

  std::string md = "# Distributed sweep: " + merged.meta.preset + " vs " +
                   merged.meta.threat + "\n\n";
  md += "- cells: " + std::to_string(merged.meta.cells) +
        " policy arms, replications/cell: " +
        std::to_string(merged.meta.replications) + "\n";
  md += "- merged from a " + std::to_string(merged.meta.shard_count) +
        "-shard run (state format v" +
        std::to_string(dist::kStateFormatVersion) + ")\n";
  md += "- sweep fingerprint " +
        dist::fingerprint_hex(dist::sweep_fingerprint(merged.meta)) +
        ", cost fingerprint " +
        dist::fingerprint_hex(dist::cost_fingerprint(merged.meta)) + "\n";
  if (merged.cost.measured()) {
    md += "- measured cost (weights for `divsec_sweep plan`):";
    for (std::size_t c = 0; c < merged.cost.cells.size(); ++c) {
      if (merged.cost.cells[c].replications == 0) continue;
      char cost[96];
      std::snprintf(cost, sizeof(cost), "%s %s=%.3g s/rep",
                    c ? "," : "",
                    scenario::to_string(merged.meta.policies[c]),
                    merged.cost.sec_per_rep(c));
      md += cost;
    }
    md += "\n";
  }
  md += "\n";
  md += "| policy | P[success] | TTA rmean (h) | TTSF rmean (h) | final ratio |\n";
  md += "|---|---|---|---|---|\n";
  for (std::size_t c = 0; c < summaries.size(); ++c) {
    const auto& s = summaries[c];
    char row[256];
    std::snprintf(row, sizeof(row), "| %s | %.4f | %.2f | %.2f | %.4f |\n",
                  scenario::to_string(merged.meta.policies[c]),
                  s.attack_success_probability(),
                  s.tta_event.restricted_mean, s.ttsf_event.restricted_mean,
                  s.final_ratio.mean());
    md += row;
  }
  md += "\n_ANOVA omitted: merged sweep state carries per-cell accumulator\n"
        "sketches, not the per-replication multi-factor responses the\n"
        "variance-allocation tables require._\n";
  core::save_to_file(args.out + "_report.md", md);
  std::printf("wrote %s_measurements.csv and %s_report.md from %s\n",
              args.out.c_str(), args.out.c_str(), args.from_merged.c_str());
  std::printf("\n%s\n", md.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  switch (parse(argc, argv, args)) {
    case ParseResult::kHelp:
      usage(stdout);
      return 0;
    case ParseResult::kVersion:
      std::printf("divsec_report %s\n", util::kVersion);
      return 0;
    case ParseResult::kError:
      usage(stderr);
      return 2;
    case ParseResult::kRun:
      break;
  }

  if (!args.from_merged.empty()) {
    try {
      return report_from_merged(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  if (args.threat == "duqu") profile = attack::ThreatProfile::duqu();
  else if (args.threat == "flame") profile = attack::ThreatProfile::flame();
  else if (args.threat != "stuxnet") {
    std::fprintf(stderr, "unknown threat: %s\n", args.threat.c_str());
    return 2;
  }

  core::PipelineOptions po;
  if (args.engine == "san") po.measurement.engine = core::Engine::kStagedSan;
  else if (args.engine == "campaign") po.measurement.engine = core::Engine::kCampaign;
  else {
    std::fprintf(stderr, "unknown engine: %s\n", args.engine.c_str());
    return 2;
  }
  po.measurement.replications = args.replications;
  po.measurement.seed = args.seed;

  try {
    const divers::VariantCatalog catalog = divers::VariantCatalog::standard(args.seed);
    const core::SystemDescription desc = core::make_scope_description(catalog);
    const core::Pipeline pipeline(desc, profile, po);

    std::printf("measuring %s with the %s engine (%zu replications/config)...\n",
                args.threat.c_str(), args.engine.c_str(), args.replications);
    const auto result = pipeline.run(args.components, args.levels);

    core::save_to_file(args.out + "_measurements.csv",
                       core::measurement_csv(result.table));
    core::save_to_file(args.out + "_anova_success.csv",
                       core::anova_csv(result.assessment.success_anova));
    core::save_to_file(args.out + "_anova_tta.csv",
                       core::anova_csv(result.assessment.tta_anova));
    core::save_to_file(args.out + "_anova_ttsf.csv",
                       core::anova_csv(result.assessment.ttsf_anova));
    core::save_to_file(
        args.out + "_report.md",
        core::assessment_markdown(result.assessment,
                                  "Diversity assessment: " + args.threat +
                                      " vs SCoPE cooling system"));
    std::printf("wrote %s_{measurements,anova_*}.csv and %s_report.md\n",
                args.out.c_str(), args.out.c_str());
    std::printf("\n%s\n", result.assessment.report.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// campaign.h — network-level attack campaign simulation.
//
// Where san_model.h abstracts the whole system into one staged token,
// the campaign simulator plays the attack out node by node over the real
// topology: delivery through entry channels, per-node activation and
// privilege escalation (success probabilities derived from each node's
// deployed variants), worm-style lateral movement constrained by the
// firewall policy, PLC payload delivery from engineering/SCADA footholds,
// slow physical sabotage, and two detection channels (host IDS vs plant
// alarms, the latter suppressed by Stuxnet-style monitoring spoofing).
//
// It produces the paper's three indicators directly:
//   * Time-To-Attack            — sabotage completed,
//   * Time-To-Security-Failure  — first perceived manifestation,
//   * compromised ratio c(t)    — step curve of owned nodes over time.
//
// The simulator is built to run on generated enterprise fleets, not just
// the paper's 11-node plant: construction precomputes a per-scenario
// ReachabilityIndex and flat per-node exploit tables (success
// probability, delay rate, role flags — all indexed by NodeId), and each
// run() schedules the model's recurring Poisson processes as exact
// superpositions (worm scanning at rate lambda*R(t) over R roots,
// host-IDS first passage over the activated pool, and so on) next to a
// small heap of per-node retry events. No string labels, no per-node
// scans, no per-event catalog or firewall walks, no queue that grows
// with fleet compromise. The precomputed state is read-only, so one
// simulator serves any number of concurrent replications.
//
// A run's mutable storage (node states, retry heap, root and target
// pools) lives in a reusable per-thread scratch that the run hands back
// clean by resetting only the nodes it touched, so a run's set-up cost
// follows its events rather than the fleet size.
// tests/test_campaign_golden.cpp pins the results bit for bit.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "attack/threat.h"
#include "divers/variants.h"
#include "net/firewall.h"
#include "net/topology.h"
#include "stats/rng.h"

namespace divsec::net {
class ReachabilityIndex;
}

namespace divsec::attack {

/// Variant assignment for the software running on one node. Indices refer
/// to VariantCatalog entries of the respective kind.
struct NodeSoftware {
  std::size_t os = 0;
  std::size_t protocol = 0;
  std::optional<std::size_t> plc_firmware;  // PLC nodes
  std::optional<std::size_t> hmi;           // HMI nodes
  std::optional<std::size_t> historian;     // historian nodes

  bool operator==(const NodeSoftware&) const = default;
};

/// A concrete system under attack: topology + policy + deployed variants.
struct Scenario {
  net::Topology topology;
  net::Firewall firewall;
  std::size_t firewall_variant = 0;  // zone firewall's firmware variant
  std::vector<NodeSoftware> software;  // one entry per node
  std::vector<net::NodeId> entry_nodes;  // where initial delivery can land
  std::vector<net::NodeId> target_plcs;  // sabotage targets

  void validate(const divers::VariantCatalog& catalog) const;

  bool operator==(const Scenario&) const = default;
};

enum class NodeState : std::uint8_t { kClean, kDelivered, kActivated, kRoot };

/// What happened at a campaign event (dense enum; the old std::string
/// labels did not survive fleet-scale event volumes).
enum class CampaignEventKind : std::uint8_t {
  kDelivered,
  kDeliveredLateral,
  kActivated,
  kRoot,
  kPlcCompromised,
  kDeviceImpaired,
  kFailedExploitDetected,
  kHostIdsDetection,
  kPlantAlarmDetection,
};

inline constexpr std::size_t kEventKindCount = 9;

[[nodiscard]] const char* to_string(CampaignEventKind k) noexcept;

struct CampaignEvent {
  double time = 0.0;
  net::NodeId node = 0;
  CampaignEventKind kind = CampaignEventKind::kDelivered;
};

struct CampaignResult {
  std::optional<double> time_of_entry;
  std::optional<double> first_root;
  std::optional<double> first_plc_compromise;
  std::optional<double> time_to_attack;     // TTA: sabotage completed
  std::optional<double> time_to_detection;  // TTSF: perceived manifestation
  /// Step curve (time, compromised ratio); starts at (0, 0).
  std::vector<std::pair<double, double>> compromised_ratio;
  std::vector<CampaignEvent> events;  // only when record_events
  std::size_t hosts_compromised = 0;  // final count (>= activated)
  std::size_t plcs_compromised = 0;
  /// Scheduler events executed by this run (throughput accounting).
  std::size_t events_executed = 0;

  /// The attack completed sabotage before being detected and within the
  /// horizon — the paper's "successful attack".
  [[nodiscard]] bool attack_succeeded() const noexcept {
    return time_to_attack.has_value() &&
           (!time_to_detection.has_value() ||
            *time_to_attack <= *time_to_detection);
  }
  [[nodiscard]] bool detected() const noexcept {
    return time_to_detection.has_value();
  }
  /// Compromised ratio at time t (step interpolation).
  [[nodiscard]] double ratio_at(double t) const noexcept;
};

struct CampaignOptions {
  double t_max_hours = 2160.0;  // 90-day horizon
  bool record_events = false;
  /// Detection freezes attacker progress (incident response).
  bool detection_halts_attack = true;
};

/// Precomputed flat per-node campaign state (defined in campaign.cpp).
struct CampaignTables;

class CampaignSimulator {
 public:
  CampaignSimulator(Scenario scenario, ThreatProfile profile,
                    const divers::VariantCatalog& catalog,
                    DetectionModel detection = {}, CampaignOptions options = {});

  /// Shared-topology construction: reuse a prebuilt ReachabilityIndex
  /// instead of evaluating the all-pairs relation again. The index must
  /// have been built from this scenario's topology and firewall (node
  /// counts are validated; the caller owns the stronger equivalence —
  /// core::MeasurementEngine keys its cache on the full structural
  /// input). Construction consumes no randomness either way, so results
  /// are identical to the self-building constructor.
  CampaignSimulator(Scenario scenario, ThreatProfile profile,
                    const divers::VariantCatalog& catalog,
                    DetectionModel detection, CampaignOptions options,
                    std::shared_ptr<const net::ReachabilityIndex> shared_reach);
  ~CampaignSimulator();
  CampaignSimulator(CampaignSimulator&&) noexcept;

  /// Run one stochastic campaign; deterministic in `rng`. Thread-safe for
  /// concurrent calls on one simulator (all shared state is read-only).
  [[nodiscard]] CampaignResult run(stats::Rng& rng) const;

  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] const ThreatProfile& profile() const noexcept { return profile_; }

  /// The per-scenario reachability index built at construction; share it
  /// with net::MeanFieldEpidemic instead of recomputing all pairs.
  [[nodiscard]] const net::ReachabilityIndex& reachability() const noexcept;

  /// Owning handle on the same index, for sharing across simulators of
  /// the same topology (the MeasurementEngine context cache does this).
  [[nodiscard]] std::shared_ptr<const net::ReachabilityIndex>
  shared_reachability() const noexcept;

 private:
  Scenario scenario_;
  ThreatProfile profile_;
  const divers::VariantCatalog& catalog_;
  DetectionModel detection_;
  CampaignOptions options_;
  std::unique_ptr<const CampaignTables> tables_;
};

/// The SCoPE-like data-center cooling scenario used throughout the paper
/// reproduction: corporate zone (2 workstations), DMZ (historian mirror),
/// control zone (SCADA server, engineering workstation, HMI, historian),
/// field zone (2 cooling PLCs + sensor gateway); segmented firewall; USB
/// exposure on workstations and the engineering station. All components
/// start at the baseline (index 0) variants: the monoculture.
[[nodiscard]] Scenario make_scope_cooling_scenario();

}  // namespace divsec::attack

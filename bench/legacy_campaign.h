// legacy_campaign.h — the PRE-REFACTOR campaign inner loop, preserved
// verbatim as the independent oracle and speed yardstick of the campaign
// kernel (attack::CampaignSimulator).
//
// This is the PR-1 implementation: std::string event labels, per-node
// linear scans (compromised_count, effective_spoof, alarm polling, the
// per-attempt PLC candidate rebuild), per-call topology/firewall walks in
// can_reach, per-event VariantCatalog lookups, and the generic
// sim::Simulator core (std::function handlers + unordered_map + shared
// priority queue). The kernel samples the SAME indicator distributions
// through different RNG draws (exact superpositions over per-class
// streams, where this engine draws log-based exponentials from one
// stream), so per-replication results are NOT comparable seed by seed.
// bench_e5 --fleet-smoke asserts (a) statistical equivalence of the
// indicator means (5-sigma gate) and (b) a >= 5x per-replication speedup
// of the kernel on a generated enterprise fleet;
// tests/test_soa_campaign.cpp repeats (a).
//
// Bench-only code: nothing in src/ may include this header.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "net/reachability.h"
#include "sim/simulator.h"

namespace divsec::bench::legacy {

using attack::CampaignOptions;
using attack::DetectionModel;
using attack::NodeState;
using attack::Scenario;
using attack::ThreatProfile;
using divers::ComponentKind;
using net::NodeId;

struct LegacyEvent {
  double time = 0.0;
  net::NodeId node = 0;
  std::string what;  // the string labels the refactor replaced
};

struct LegacyResult {
  std::optional<double> time_of_entry;
  std::optional<double> first_root;
  std::optional<double> first_plc_compromise;
  std::optional<double> time_to_attack;
  std::optional<double> time_to_detection;
  std::vector<std::pair<double, double>> compromised_ratio;
  std::vector<LegacyEvent> events;
  std::size_t hosts_compromised = 0;
  std::size_t plcs_compromised = 0;
  std::size_t events_executed = 0;

  [[nodiscard]] bool attack_succeeded() const noexcept {
    return time_to_attack.has_value() &&
           (!time_to_detection.has_value() ||
            *time_to_attack <= *time_to_detection);
  }
};

class CampaignSimulator {
 public:
  CampaignSimulator(Scenario scenario, ThreatProfile profile,
                    const divers::VariantCatalog& catalog,
                    DetectionModel detection = {}, CampaignOptions options = {})
      : scenario_(std::move(scenario)),
        profile_(std::move(profile)),
        catalog_(catalog),
        detection_(detection),
        options_(options) {
    profile_.validate();
    detection_.validate();
    scenario_.validate(catalog_);
  }

  [[nodiscard]] LegacyResult run(stats::Rng& rng) const {
    RunState st(scenario_, profile_, catalog_, detection_, options_, rng);
    st.schedule_entry();
    st.result.events_executed = st.sim.run_until(options_.t_max_hours);
    st.result.hosts_compromised = 0;
    st.result.plcs_compromised = 0;
    for (NodeId n = 0; n < st.state.size(); ++n) {
      if (st.sc.topology.node(n).role == net::Role::kPlc) {
        if (st.plc_owned[n]) ++st.result.plcs_compromised;
      } else if (st.state[n] >= NodeState::kActivated) {
        ++st.result.hosts_compromised;
      }
    }
    return std::move(st.result);
  }

 private:
  struct RunState {
    const Scenario& sc;
    const ThreatProfile& pr;
    const divers::VariantCatalog& cat;
    const DetectionModel& det;
    const CampaignOptions& opt;
    sim::Simulator sim;
    stats::Rng& rng;
    LegacyResult result;

    std::vector<NodeState> state;
    std::vector<bool> plc_owned;
    bool halted = false;

    RunState(const Scenario& s, const ThreatProfile& p,
             const divers::VariantCatalog& c, const DetectionModel& d,
             const CampaignOptions& o, stats::Rng& r)
        : sc(s), pr(p), cat(c), det(d), opt(o), rng(r) {
      state.assign(sc.topology.node_count(), NodeState::kClean);
      plc_owned.assign(sc.topology.node_count(), false);
      result.compromised_ratio.emplace_back(0.0, 0.0);
    }

    void note(NodeId n, const char* what) {
      if (opt.record_events) result.events.push_back({sim.now(), n, what});
    }

    [[nodiscard]] double exp_delay(double rate) {
      return -std::log(1.0 - rng.uniform()) / rate;
    }

    [[nodiscard]] std::size_t compromised_count() const {
      std::size_t c = 0;
      for (NodeId n = 0; n < state.size(); ++n) {
        if (sc.topology.node(n).role == net::Role::kPlc) {
          if (plc_owned[n]) ++c;
        } else if (state[n] >= NodeState::kActivated) {
          ++c;
        }
      }
      return c;
    }

    void record_ratio() {
      const double r = static_cast<double>(compromised_count()) /
                       static_cast<double>(sc.topology.node_count());
      result.compromised_ratio.emplace_back(sim.now(), r);
    }

    void record_detection(const char* what) {
      if (result.time_to_detection) return;
      result.time_to_detection = sim.now();
      note(0, what);
      if (opt.detection_halts_attack) halted = true;
      maybe_finish();
    }

    void failed_attempt() {
      const double p = det.failed_attempt_detection;
      if (p > 0.0 && rng.bernoulli(p)) record_detection("failed-exploit-detected");
    }

    void maybe_finish() {
      const bool tta_settled = result.time_to_attack.has_value() || halted;
      if (tta_settled && result.time_to_detection.has_value()) sim.stop();
    }

    [[nodiscard]] bool effective_reach(NodeId from, NodeId to, net::Channel ch) {
      if (net::can_reach(sc.topology, sc.firewall, from, to, ch)) return true;
      if (ch == net::Channel::kUsb) return false;
      if (!sc.topology.linked(from, to)) return false;
      const double bypass =
          cat.exploit_success(pr.firewall_exploit, sc.firewall_variant);
      return rng.bernoulli(bypass);
    }

    void schedule_entry() {
      sim.schedule_in(exp_delay(pr.entry_rate), [this] {
        if (!halted) {
          const NodeId n = sc.entry_nodes[rng.below(sc.entry_nodes.size())];
          if (state[n] == NodeState::kClean) {
            state[n] = NodeState::kDelivered;
            if (!result.time_of_entry) result.time_of_entry = sim.now();
            note(n, "delivered");
            schedule_activation(n);
          }
        }
        schedule_entry();
      });
    }

    void schedule_activation(NodeId n) {
      const double wf =
          cat.exploit_work_factor(pr.activation_exploit, sc.software[n].os);
      sim.schedule_in(exp_delay(pr.activation_rate / wf), [this, n] {
        if (halted || state[n] != NodeState::kDelivered) return;
        const double p = cat.exploit_success(pr.activation_exploit, sc.software[n].os);
        if (rng.bernoulli(p)) {
          state[n] = NodeState::kActivated;
          note(n, "activated");
          record_ratio();
          schedule_privesc(n);
          schedule_host_detection(n);
        } else {
          failed_attempt();
          schedule_activation(n);
        }
      });
    }

    void schedule_privesc(NodeId n) {
      const double wf =
          cat.exploit_work_factor(pr.privesc_exploit, sc.software[n].os);
      sim.schedule_in(exp_delay(pr.privesc_rate / wf), [this, n] {
        if (halted || state[n] != NodeState::kActivated) return;
        const double p = cat.exploit_success(pr.privesc_exploit, sc.software[n].os);
        if (rng.bernoulli(p)) {
          state[n] = NodeState::kRoot;
          if (!result.first_root) result.first_root = sim.now();
          note(n, "root");
          schedule_propagation(n);
          if (can_deliver_payload(n)) schedule_payload(n);
        } else {
          failed_attempt();
          schedule_privesc(n);
        }
      });
    }

    void schedule_propagation(NodeId n) {
      sim.schedule_in(exp_delay(pr.propagation_rate), [this, n] {
        if (halted || state[n] != NodeState::kRoot) return;
        const NodeId v = static_cast<NodeId>(rng.below(sc.topology.node_count()));
        const net::Channel ch = pr.channels[rng.below(pr.channels.size())];
        const bool host_target = sc.topology.node(v).role != net::Role::kPlc &&
                                 sc.topology.node(v).role != net::Role::kSensorGateway;
        if (v != n && host_target && state[v] == NodeState::kClean &&
            effective_reach(n, v, ch)) {
          const double p = cat.exploit_success(pr.lateral_exploit, sc.software[v].os);
          if (rng.bernoulli(p)) {
            state[v] = NodeState::kDelivered;
            note(v, "delivered-lateral");
            schedule_activation(v);
          } else {
            failed_attempt();
          }
        }
        schedule_propagation(n);
      });
    }

    [[nodiscard]] bool can_deliver_payload(NodeId n) const {
      const net::Role r = sc.topology.node(n).role;
      return pr.has_sabotage_payload &&
             (r == net::Role::kEngineering || r == net::Role::kScadaServer);
    }

    void schedule_payload(NodeId n) {
      sim.schedule_in(exp_delay(pr.payload_rate), [this, n] {
        if (halted || state[n] != NodeState::kRoot) return;
        std::vector<NodeId> candidates;
        for (NodeId plc : sc.target_plcs)
          if (!plc_owned[plc]) candidates.push_back(plc);
        if (!candidates.empty()) {
          const NodeId plc = candidates[rng.below(candidates.size())];
          const bool via_project = effective_reach(n, plc, net::Channel::kProjectFile);
          const bool via_modbus =
              !via_project && effective_reach(n, plc, net::Channel::kModbus);
          if (via_project || via_modbus) {
            double p =
                cat.exploit_success(pr.plc_exploit, *sc.software[plc].plc_firmware);
            if (via_modbus)
              p *= cat.exploit_success(pr.protocol_exploit, sc.software[plc].protocol);
            if (rng.bernoulli(p)) {
              plc_owned[plc] = true;
              if (!result.first_plc_compromise)
                result.first_plc_compromise = sim.now();
              note(plc, "plc-compromised");
              record_ratio();
              schedule_sabotage(plc);
              schedule_alarm_detection();
            } else {
              failed_attempt();
            }
          }
        }
        schedule_payload(n);
      });
    }

    void schedule_sabotage(NodeId plc) {
      sim.schedule_in(exp_delay(1.0 / pr.sabotage_mean_hours), [this, plc] {
        if (halted || !plc_owned[plc]) return;
        if (!result.time_to_attack) {
          result.time_to_attack = sim.now();
          note(plc, "device-impaired");
          maybe_finish();
        }
      });
    }

    void schedule_host_detection(NodeId n) {
      const double rate = det.host_detection_rate * (1.0 - pr.stealth);
      if (rate <= 0.0) return;
      sim.schedule_in(exp_delay(rate), [this, n] {
        if (result.time_to_detection) return;
        if (state[n] >= NodeState::kActivated) {
          record_detection("host-ids-detection");
          return;
        }
        schedule_host_detection(n);
      });
    }

    [[nodiscard]] double effective_spoof() const {
      bool view_owned = false;
      for (NodeId n = 0; n < state.size(); ++n) {
        const net::Role r = sc.topology.node(n).role;
        if ((r == net::Role::kHmi || r == net::Role::kScadaServer ||
             r == net::Role::kEngineering) &&
            state[n] == NodeState::kRoot) {
          view_owned = true;
          break;
        }
      }
      return pr.spoof_effectiveness * (view_owned ? 1.0 : 0.5);
    }

    void schedule_alarm_detection() {
      if (det.alarm_detection_rate <= 0.0) return;
      sim.schedule_in(exp_delay(det.alarm_detection_rate), [this] {
        if (result.time_to_detection) return;
        bool any_owned = false;
        for (NodeId n = 0; n < plc_owned.size(); ++n)
          if (plc_owned[n]) any_owned = true;
        if (!any_owned) return;
        if (rng.bernoulli(1.0 - effective_spoof())) {
          record_detection("plant-alarm-detection");
          return;
        }
        schedule_alarm_detection();
      });
    }
  };

  Scenario scenario_;
  ThreatProfile profile_;
  const divers::VariantCatalog& catalog_;
  DetectionModel detection_;
  CampaignOptions options_;
};

}  // namespace divsec::bench::legacy

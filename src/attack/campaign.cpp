#include "attack/campaign.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "attack/campaign_rng.h"
#include "net/reachability_index.h"
#include "obs/metrics.h"

namespace divsec::attack {

using divers::ComponentKind;
using net::NodeId;

void Scenario::validate(const divers::VariantCatalog& catalog) const {
  if (software.size() != topology.node_count())
    throw std::invalid_argument("Scenario: software size != node count");
  if (entry_nodes.empty()) throw std::invalid_argument("Scenario: no entry nodes");
  if (firewall_variant >= catalog.count(ComponentKind::kFirewallFirmware))
    throw std::out_of_range("Scenario: firewall variant out of range");
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    const auto& sw = software[n];
    if (sw.os >= catalog.count(ComponentKind::kOs))
      throw std::out_of_range("Scenario: OS variant out of range");
    if (sw.protocol >= catalog.count(ComponentKind::kProtocolStack))
      throw std::out_of_range("Scenario: protocol variant out of range");
    if (sw.plc_firmware &&
        *sw.plc_firmware >= catalog.count(ComponentKind::kPlcFirmware))
      throw std::out_of_range("Scenario: PLC firmware variant out of range");
    if (sw.hmi && *sw.hmi >= catalog.count(ComponentKind::kHmiSoftware))
      throw std::out_of_range("Scenario: HMI variant out of range");
    if (sw.historian && *sw.historian >= catalog.count(ComponentKind::kHistorianDb))
      throw std::out_of_range("Scenario: historian variant out of range");
    if (topology.node(n).role == net::Role::kPlc && !sw.plc_firmware)
      throw std::invalid_argument("Scenario: PLC node without firmware variant");
  }
  for (NodeId n : entry_nodes)
    if (n >= topology.node_count())
      throw std::out_of_range("Scenario: entry node out of range");
  for (NodeId n : target_plcs) {
    if (n >= topology.node_count())
      throw std::out_of_range("Scenario: target PLC out of range");
    if (topology.node(n).role != net::Role::kPlc)
      throw std::invalid_argument("Scenario: sabotage target is not a PLC");
  }
}

const char* to_string(CampaignEventKind k) noexcept {
  switch (k) {
    case CampaignEventKind::kDelivered: return "delivered";
    case CampaignEventKind::kDeliveredLateral: return "delivered-lateral";
    case CampaignEventKind::kActivated: return "activated";
    case CampaignEventKind::kRoot: return "root";
    case CampaignEventKind::kPlcCompromised: return "plc-compromised";
    case CampaignEventKind::kDeviceImpaired: return "device-impaired";
    case CampaignEventKind::kFailedExploitDetected: return "failed-exploit-detected";
    case CampaignEventKind::kHostIdsDetection: return "host-ids-detection";
    case CampaignEventKind::kPlantAlarmDetection: return "plant-alarm-detection";
  }
  return "?";
}

double CampaignResult::ratio_at(double t) const noexcept {
  // The step curve is sorted by time: binary-search the first step past t.
  const auto it = std::upper_bound(
      compromised_ratio.begin(), compromised_ratio.end(), t,
      [](double value, const std::pair<double, double>& step) {
        return value < step.first;
      });
  return it == compromised_ratio.begin() ? 0.0 : std::prev(it)->second;
}

/// Everything run() reads per event, precomputed once per scenario into
/// structure-of-arrays tables indexed by NodeId. Deeply immutable after
/// construction: concurrent replications share one Tables instance
/// read-only, and simulators of the same topology share one
/// ReachabilityIndex through the shared_ptr.
struct CampaignTables {
  // Role-derived per-node flags, fused into one byte per node so the
  // hot loop touches a single contiguous array.
  enum : std::uint8_t {
    kFlagPlc = 1,            // counts only when owned
    kFlagHostTarget = 2,     // valid lateral victim
    kFlagMonitoring = 4,     // HMI / SCADA / engineering view
    kFlagPayloadSource = 8,  // can push a PLC payload
  };

  std::shared_ptr<const net::ReachabilityIndex> reach;

  std::size_t node_count = 0;

  std::vector<std::uint8_t> flags;

  // Exploit tables: per-session success probability and exponential
  // delay rate per node (the VariantCatalog walk, paid once).
  std::vector<double> activation_p, activation_rate;
  std::vector<double> privesc_p, privesc_rate;
  std::vector<double> lateral_p;
  std::vector<double> plc_direct_p;  // project-file route
  std::vector<double> plc_modbus_p;  // fieldbus route (x protocol stack)
  double firewall_bypass_p = 0.0;
  double host_detection_rate = 0.0;  // stealth-discounted

  // Thinned-scan weights: scan_w[i] / tunnel_w[i] count node i's
  // (channel, victim) scan slots over pr.channels — statically reachable
  // targets and linked-but-blocked (tunnel) targets respectively. A
  // root's slot range in the weighted victim pick is laid out
  // [direct slots][tunnel slots], channels in pr.channels order; the
  // aggregate scan clock fires at propagation_rate × total slots ×
  // scan_norm, the exact Poisson thinning of per-root uniform
  // (victim, channel) scanning.
  std::vector<std::uint64_t> scan_w, tunnel_w;
  double scan_norm = 0.0;  // 1 / (node_count × |pr.channels|)

  CampaignTables(const Scenario& sc, const ThreatProfile& pr,
                 const divers::VariantCatalog& cat, const DetectionModel& det,
                 std::shared_ptr<const net::ReachabilityIndex> shared_reach)
      : reach(shared_reach
                  ? std::move(shared_reach)
                  : std::make_shared<const net::ReachabilityIndex>(sc.topology,
                                                                   sc.firewall)),
        node_count(sc.topology.node_count()) {
    if (reach->node_count() != node_count)
      throw std::invalid_argument(
          "CampaignSimulator: shared ReachabilityIndex node count does not "
          "match the scenario topology");
    const std::size_t n = node_count;
    flags.assign(n, 0);
    activation_p.resize(n);
    activation_rate.resize(n);
    privesc_p.resize(n);
    privesc_rate.resize(n);
    lateral_p.resize(n);
    plc_direct_p.assign(n, 0.0);
    plc_modbus_p.assign(n, 0.0);
    for (NodeId i = 0; i < n; ++i) {
      const net::Role role = sc.topology.node(i).role;
      std::uint8_t f = 0;
      if (role == net::Role::kPlc) f |= kFlagPlc;
      if (role != net::Role::kPlc && role != net::Role::kSensorGateway)
        f |= kFlagHostTarget;
      if (role == net::Role::kHmi || role == net::Role::kScadaServer ||
          role == net::Role::kEngineering)
        f |= kFlagMonitoring;
      if (pr.has_sabotage_payload && (role == net::Role::kEngineering ||
                                      role == net::Role::kScadaServer))
        f |= kFlagPayloadSource;
      flags[i] = f;
      const std::size_t os = sc.software[i].os;
      activation_p[i] = cat.exploit_success(pr.activation_exploit, os);
      activation_rate[i] =
          pr.activation_rate / cat.exploit_work_factor(pr.activation_exploit, os);
      privesc_p[i] = cat.exploit_success(pr.privesc_exploit, os);
      privesc_rate[i] =
          pr.privesc_rate / cat.exploit_work_factor(pr.privesc_exploit, os);
      lateral_p[i] = cat.exploit_success(pr.lateral_exploit, os);
    }
    for (NodeId plc : sc.target_plcs) {
      plc_direct_p[plc] =
          cat.exploit_success(pr.plc_exploit, *sc.software[plc].plc_firmware);
      // The fieldbus route also has to abuse the protocol stack.
      plc_modbus_p[plc] =
          plc_direct_p[plc] *
          cat.exploit_success(pr.protocol_exploit, sc.software[plc].protocol);
    }
    firewall_bypass_p = cat.exploit_success(pr.firewall_exploit, sc.firewall_variant);
    host_detection_rate = det.host_detection_rate * (1.0 - pr.stealth);
    scan_w.assign(n, 0);
    tunnel_w.assign(n, 0);
    for (NodeId i = 0; i < n; ++i) {
      for (const net::Channel c : pr.channels) {
        scan_w[i] += reach->scan_count(c, i);
        tunnel_w[i] += reach->tunnel_targets(c, i).size();
      }
    }
    scan_norm = pr.channels.empty()
                    ? 0.0
                    : 1.0 / (static_cast<double>(n) *
                             static_cast<double>(pr.channels.size()));
  }
};

CampaignSimulator::CampaignSimulator(Scenario scenario, ThreatProfile profile,
                                     const divers::VariantCatalog& catalog,
                                     DetectionModel detection, CampaignOptions options)
    : CampaignSimulator(std::move(scenario), std::move(profile), catalog,
                        detection, options, nullptr) {}

CampaignSimulator::CampaignSimulator(
    Scenario scenario, ThreatProfile profile,
    const divers::VariantCatalog& catalog, DetectionModel detection,
    CampaignOptions options,
    std::shared_ptr<const net::ReachabilityIndex> shared_reach)
    : scenario_(std::move(scenario)),
      profile_(std::move(profile)),
      catalog_(catalog),
      detection_(detection),
      options_(options) {
  profile_.validate();
  detection_.validate();
  scenario_.validate(catalog_);
  if (!(options_.t_max_hours > 0.0))
    throw std::invalid_argument("CampaignOptions: t_max_hours must be > 0");
  tables_ = std::make_unique<const CampaignTables>(
      scenario_, profile_, catalog_, detection_, std::move(shared_reach));
}

CampaignSimulator::~CampaignSimulator() = default;
CampaignSimulator::CampaignSimulator(CampaignSimulator&&) noexcept = default;

const net::ReachabilityIndex& CampaignSimulator::reachability() const noexcept {
  return *tables_->reach;
}

std::shared_ptr<const net::ReachabilityIndex>
CampaignSimulator::shared_reachability() const noexcept {
  return tables_->reach;
}

namespace {

/// The campaign's stochastic processes are superposed Poisson streams,
/// and the engine schedules them as such instead of keeping one pending
/// event per node in a shared queue (what the generic sim::Simulator
/// forced). Per class:
///
///  * worm scanning   — every root scans at rate lambda_p; the
///    superposition is one aggregate process of rate lambda_p * R(t)
///    whose firing owner is uniform over the R roots (exponential race);
///  * payload pushes  — rate lambda_pl * S(t) over rooted
///    engineering/SCADA sources, same construction;
///  * host IDS        — each activated node is detected after an
///    exponential delay; only the FIRST detection matters, and before it
///    the hazard is rate_h * A(t) — one aggregate first-passage process;
///  * plant alarms    — one poll chain per owned PLC in the old model,
///    i.e. rate_a * P(t) aggregated, thinned by the current spoofing;
///  * sabotage        — first-passage of rate_s * P(t), owner uniform
///    over owned PLCs (constant hazards are memoryless).
///
/// When a membership count changes, the aggregate's next firing is
/// redrawn from `now` at the new rate — exact by memorylessness
/// (min(Exp(a), Exp(b)) ~ Exp(a+b), and the remaining wait of a Poisson
/// superposition at any instant is Exp(total rate)). The event law of
/// the model is exactly the per-node construction's; only the RNG draw
/// sequence differs. What remains per-node — activation and privilege
/// escalation retries — lives in a small binary heap that stays a few
/// entries deep, so the per-event cost no longer grows with fleet
/// compromise the way a per-node event queue's does.
struct QEvent {
  double at = 0.0;
  std::uint32_t seq = 0;  // FIFO tie-break among equal timestamps
  std::uint32_t node = 0;
  std::uint8_t kind = 0;  // 0 = activation, 1 = privesc
};

struct QLater {
  [[nodiscard]] bool operator()(const QEvent& x, const QEvent& y) const noexcept {
    if (x.at != y.at) return x.at > y.at;
    return x.seq > y.seq;
  }
};

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Per-thread storage reused by every run() on that thread, so a run's
/// set-up and tear-down cost follows its events, not the fleet: the
/// vectors keep their capacity across runs, and `state` is all kClean
/// between runs (RunState puts back exactly the nodes it moved), so it
/// is re-assigned only when the fleet size changes.
struct RunScratch {
  std::vector<NodeState> state;
  std::vector<NodeId> touched;  // nodes moved off kClean by this run
  std::vector<QEvent> heap;     // min-heap via std::push_heap/pop_heap
  std::vector<NodeId> roots;            // nodes at kRoot, in promotion order
  std::vector<std::uint64_t> root_cum;  // cumulative scan+tunnel slots per root
  std::vector<NodeId> payload_sources;  // rooted engineering/SCADA nodes
  std::vector<NodeId> owned_plcs;       // owned targets, in capture order
  std::vector<NodeId> unowned_copy;     // unowned targets after a capture
};

/// Mutable state of one run() over the read-only CampaignTables and a
/// thread's RunScratch. Every random decision draws from the
/// per-event-class facade (attack/campaign_rng.h) under the documented
/// draw-order contract.
struct RunState {
  const Scenario& sc;
  const ThreatProfile& pr;
  const DetectionModel& det;
  const CampaignOptions& opt;
  const CampaignTables& tb;
  CampaignRng rng;
  CampaignResult result;

  double now = 0.0;
  bool stopped = false;  // both terminal indicators settled

  // Aggregate process clocks (kNever = disarmed).
  double t_entry = kNever;
  double t_prop = kNever;
  double t_payload = kNever;
  double t_host = kNever;
  double t_alarm = kNever;
  double t_sabotage = kNever;

  // Per-node transient events (activation / privesc retries).
  std::vector<QEvent>& heap;
  std::uint32_t next_seq = 0;

  std::vector<NodeState>& state;
  std::vector<NodeId>& touched;
  std::vector<NodeId>& roots;
  std::vector<std::uint64_t>& root_cum;
  std::uint64_t scan_slots = 0;  // == root_cum.back() (0 when no roots)
  std::vector<NodeId>& payload_sources;
  std::vector<NodeId>& owned_plcs;
  // target_plcs minus owned PLCs, in swap-remove order (contract: the
  // pool order feeds later picks). Most runs never capture a PLC, so
  // the pool reads sc.target_plcs until the first capture copies it.
  std::span<const NodeId> unowned_targets;
  std::vector<NodeId>& unowned_copy;
  bool unowned_copied = false;
  std::size_t hosts_owned = 0;      // non-PLC nodes at >= kActivated
  std::size_t activated_count = 0;  // A(t): host-IDS exposure pool
  std::size_t monitoring_owned = 0;  // rooted monitoring-view nodes

  RunState(const Scenario& s, const ThreatProfile& p,
           const CampaignTables& t, const DetectionModel& d,
           const CampaignOptions& o, const stats::Rng& base,
           RunScratch& scratch)
      : sc(s),
        pr(p),
        det(d),
        opt(o),
        tb(t),
        rng(base),
        heap(scratch.heap),
        state(scratch.state),
        touched(scratch.touched),
        roots(scratch.roots),
        root_cum(scratch.root_cum),
        payload_sources(scratch.payload_sources),
        owned_plcs(scratch.owned_plcs),
        unowned_targets(s.target_plcs),
        unowned_copy(scratch.unowned_copy) {
    if (state.size() != tb.node_count)
      state.assign(tb.node_count, NodeState::kClean);
    heap.clear();
    roots.clear();
    root_cum.clear();
    payload_sources.clear();
    owned_plcs.clear();
    result.compromised_ratio.emplace_back(0.0, 0.0);
  }

  /// Hands the scratch back all-kClean: deliver() is the only transition
  /// out of kClean, and it records every node it moves.
  ~RunState() {
    for (const NodeId n : touched) state[n] = NodeState::kClean;
    touched.clear();
  }
  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  // Telemetry tallies: plain locals, flushed to the striped obs::
  // counters once per run (run_kernel), so the event loop never touches
  // an atomic. Observation only — results do not depend on them.
  std::array<std::uint64_t, kEventKindCount> kind_counts{};
  std::uint64_t scan_candidates = 0;  // thinned worm-scan firings
  std::uint64_t scan_accepted = 0;    // ... that attempted a lateral

  void note(NodeId n, CampaignEventKind kind) {
    ++kind_counts[static_cast<std::size_t>(kind)];
    if (opt.record_events) result.events.push_back({now, n, kind});
  }

  [[nodiscard]] double exp_delay(DrawClass c, double rate) {
    return rng.exp_std(c) / rate;
  }

  /// Next firing of an aggregate process at `rate`, from now. The draw
  /// belongs to the class of the process being armed.
  [[nodiscard]] double exp_in(DrawClass c, double rate) {
    return rate > 0.0 ? now + exp_delay(c, rate) : kNever;
  }

  void push(std::uint8_t kind, NodeId node, double delay) {
    heap.push_back(QEvent{now + delay, next_seq++,
                          static_cast<std::uint32_t>(node), kind});
    std::push_heap(heap.begin(), heap.end(), QLater{});
  }

  void record_ratio() {
    const double r = static_cast<double>(hosts_owned + owned_plcs.size()) /
                     static_cast<double>(tb.node_count);
    result.compromised_ratio.emplace_back(now, r);
  }

  void record_detection(CampaignEventKind what) {
    if (result.time_to_detection) return;
    result.time_to_detection = now;
    note(0, what);
    t_host = kNever;  // later detections would be ignored anyway
    t_alarm = kNever;
    maybe_finish();
  }

  /// A failed exploitation attempt may trip crash reporting / AV / IDS.
  /// Deliberately not stealth-discounted: crashes are loud. The draw
  /// belongs to the class of the handler whose attempt failed.
  void failed_attempt(DrawClass c) {
    const double p = det.failed_attempt_detection;
    if (p > 0.0 && rng.bernoulli(c, p))
      record_detection(CampaignEventKind::kFailedExploitDetected);
  }

  void maybe_finish() {
    // Stop once both terminal indicators are known — or once detection
    // triggered incident response (the attacker is frozen, so TTA can
    // never happen).
    if (result.time_to_detection.has_value() &&
        (result.time_to_attack.has_value() || opt.detection_halts_attack))
      stopped = true;
  }

  // --- Attack processes ------------------------------------------------

  [[nodiscard]] bool effective_reach(DrawClass c, NodeId from, NodeId to,
                                     net::Channel ch) {
    // Physical / policy reachability; a denied-by-policy hop can still be
    // attempted through a firewall exploit (tunnelling).
    if (tb.reach->can_reach(from, to, ch)) return true;
    if (ch == net::Channel::kUsb) return false;
    if (!tb.reach->linked(from, to)) return false;
    return rng.bernoulli(c, tb.firewall_bypass_p);
  }

  void deliver(NodeId n, CampaignEventKind kind) {
    state[n] = NodeState::kDelivered;
    touched.push_back(n);
    note(n, kind);
    push(0, n, exp_delay(DrawClass::kActivation, tb.activation_rate[n]));
  }

  void on_entry() {
    const NodeId n =
        sc.entry_nodes[rng.below(DrawClass::kEntry, sc.entry_nodes.size())];
    if (state[n] == NodeState::kClean) {
      if (!result.time_of_entry) result.time_of_entry = now;
      deliver(n, CampaignEventKind::kDelivered);
    }
    // Operators keep plugging media in.
    t_entry = exp_in(DrawClass::kEntry, pr.entry_rate);
  }

  void on_activation(NodeId n) {
    if (state[n] != NodeState::kDelivered) return;
    if (rng.bernoulli(DrawClass::kActivation, tb.activation_p[n])) {
      state[n] = NodeState::kActivated;
      if (!(tb.flags[n] & CampaignTables::kFlagPlc)) ++hosts_owned;
      ++activated_count;
      if (!result.time_to_detection && tb.host_detection_rate > 0.0)
        t_host = exp_in(DrawClass::kHostIds,
                        tb.host_detection_rate *
                            static_cast<double>(activated_count));
      note(n, CampaignEventKind::kActivated);
      record_ratio();
      push(1, n, exp_delay(DrawClass::kPrivesc, tb.privesc_rate[n]));
    } else {
      failed_attempt(DrawClass::kActivation);
      push(0, n, exp_delay(DrawClass::kActivation, tb.activation_rate[n]));
    }
  }

  void on_privesc(NodeId n) {
    if (state[n] != NodeState::kActivated) return;
    if (rng.bernoulli(DrawClass::kPrivesc, tb.privesc_p[n])) {
      state[n] = NodeState::kRoot;
      if (!result.first_root) result.first_root = now;
      note(n, CampaignEventKind::kRoot);
      roots.push_back(n);
      scan_slots += tb.scan_w[n] + tb.tunnel_w[n];
      root_cum.push_back(scan_slots);
      if (tb.flags[n] & CampaignTables::kFlagMonitoring) ++monitoring_owned;
      t_prop = exp_in(DrawClass::kPropagation,
                      pr.propagation_rate * static_cast<double>(scan_slots) *
                          tb.scan_norm);
      if (tb.flags[n] & CampaignTables::kFlagPayloadSource) {
        payload_sources.push_back(n);
        if (!unowned_targets.empty())
          t_payload =
              exp_in(DrawClass::kPayload,
                     pr.payload_rate *
                         static_cast<double>(payload_sources.size()));
      }
    } else {
      failed_attempt(DrawClass::kPrivesc);
      push(1, n, exp_delay(DrawClass::kPrivesc, tb.privesc_rate[n]));
    }
  }

  void on_propagation() {
    // One candidate firing of the thinned worm-scan process. The model
    // is "every root scans uniform (victim, channel) picks at rate λ" —
    // but ~95% of those scans hit an unreachable pair and change
    // nothing. Poisson thinning makes skipping them exact: the
    // sub-process of scans that land on a *statically possible* pair
    // (reachable, weight 1, or tunnel-linked, later accepted with the
    // bypass probability) is Poisson at rate λ × slots × scan_norm with
    // the pair uniform over the slot ranges, so one weighted word picks
    // root, channel and victim from the precomputed ReachabilityIndex
    // target lists and per-(root, victim, channel) intensities match the
    // unthinned scan exactly. A victim is eligible when it is a clean
    // host target (the lists never contain the owner, so v != n is
    // structural).
    const std::uint64_t x = rng.below(DrawClass::kPropagation, scan_slots);
    const std::size_t ri =
        static_cast<std::size_t>(std::upper_bound(root_cum.begin(),
                                                  root_cum.end(), x) -
                                 root_cum.begin());
    const NodeId n = roots[ri];
    std::uint64_t rem = x - (ri == 0 ? 0 : root_cum[ri - 1]);
    const bool direct = rem < tb.scan_w[n];
    if (!direct) rem -= tb.scan_w[n];
    NodeId v = 0;
    for (const net::Channel c : pr.channels) {
      const std::size_t count = direct ? tb.reach->scan_count(c, n)
                                       : tb.reach->tunnel_targets(c, n).size();
      if (rem < count) {
        v = direct ? tb.reach->scan_target(c, n, rem)
                   : tb.reach->tunnel_targets(c, n)[rem];
        break;
      }
      rem -= count;
    }
    const bool eligible = (tb.flags[v] & CampaignTables::kFlagHostTarget) &&
                          state[v] == NodeState::kClean;
    ++scan_candidates;
    if (eligible &&
        (direct || rng.bernoulli(DrawClass::kPropagation, tb.firewall_bypass_p))) {
      ++scan_accepted;
      if (rng.bernoulli(DrawClass::kPropagation, tb.lateral_p[v])) {
        deliver(v, CampaignEventKind::kDeliveredLateral);
      } else {
        failed_attempt(DrawClass::kPropagation);
      }
    }
    t_prop = exp_in(DrawClass::kPropagation,
                    pr.propagation_rate * static_cast<double>(scan_slots) *
                        tb.scan_norm);
  }

  void on_payload() {
    // One push of the aggregate payload process: a rooted
    // engineering/SCADA source tries an unowned target PLC over an
    // engineering or fieldbus channel. Once every target is owned the
    // process disarms — targets never refill, so later firings could
    // only ever be no-ops.
    if (!unowned_targets.empty()) {
      const NodeId n = payload_sources[rng.below(
          DrawClass::kPayload, payload_sources.size())];
      const std::size_t pick =
          rng.below(DrawClass::kPayload, unowned_targets.size());
      const NodeId plc = unowned_targets[pick];
      const bool via_project =
          effective_reach(DrawClass::kPayload, n, plc, net::Channel::kProjectFile);
      const bool via_modbus =
          !via_project &&
          effective_reach(DrawClass::kPayload, n, plc, net::Channel::kModbus);
      if (via_project || via_modbus) {
        const double p = via_modbus ? tb.plc_modbus_p[plc] : tb.plc_direct_p[plc];
        if (rng.bernoulli(DrawClass::kPayload, p)) {
          owned_plcs.push_back(plc);
          remove_unowned(pick);
          if (!result.first_plc_compromise) result.first_plc_compromise = now;
          note(plc, CampaignEventKind::kPlcCompromised);
          record_ratio();
          const double owned = static_cast<double>(owned_plcs.size());
          if (!result.time_to_attack)
            t_sabotage =
                exp_in(DrawClass::kSabotage, owned / pr.sabotage_mean_hours);
          if (!result.time_to_detection)
            t_alarm = exp_in(DrawClass::kAlarm, det.alarm_detection_rate * owned);
        } else {
          failed_attempt(DrawClass::kPayload);
        }
      }
    }
    t_payload = unowned_targets.empty()
                    ? kNever
                    : exp_in(DrawClass::kPayload,
                             pr.payload_rate *
                                 static_cast<double>(payload_sources.size()));
  }

  /// Swap-removes pool entry `pick`, copying the pool on first use.
  void remove_unowned(std::size_t pick) {
    if (!unowned_copied) {
      unowned_copy.assign(sc.target_plcs.begin(), sc.target_plcs.end());
      unowned_copied = true;
    }
    unowned_copy[pick] = unowned_copy.back();
    unowned_copy.pop_back();
    unowned_targets = unowned_copy;
  }

  void on_sabotage() {
    // First passage of the aggregate sabotage process: slow physical
    // damage develops on one owned PLC (uniform by symmetry of the
    // constant per-PLC hazards).
    const NodeId plc =
        owned_plcs[rng.below(DrawClass::kSabotage, owned_plcs.size())];
    result.time_to_attack = now;
    note(plc, CampaignEventKind::kDeviceImpaired);
    t_sabotage = kNever;
    maybe_finish();
  }

  // --- Detection processes ----------------------------------------------

  void on_host_detect() {
    // First passage of the aggregate host-IDS process over the activated
    // pool: any activated node suffices to raise the incident.
    record_detection(CampaignEventKind::kHostIdsDetection);
  }

  void on_alarm_detect() {
    // Thinning: poll at the undefended alarm rate (one chain per owned
    // PLC), accept with the current spoof-adjusted probability.
    // Full-strength spoofing needs an owned monitoring view (HMI, SCADA
    // server, or the engineering station running the vendor tools, where
    // Stuxnet actually hooked the s7otbxdx DLL); otherwise replaying
    // recorded signals is only half effective.
    const double spoof =
        pr.spoof_effectiveness * (monitoring_owned > 0 ? 1.0 : 0.5);
    if (rng.bernoulli(DrawClass::kAlarm, 1.0 - spoof)) {
      record_detection(CampaignEventKind::kPlantAlarmDetection);
      return;
    }
    t_alarm = exp_in(DrawClass::kAlarm,
                     det.alarm_detection_rate *
                         static_cast<double>(owned_plcs.size()));
  }

  void run_until(double t_max) {
    t_entry = exp_in(DrawClass::kEntry, pr.entry_rate);
    while (!stopped) {
      // Next event: min over the aggregate clocks and the retry heap.
      // Exact ties are measure-zero (all delays are continuous); the
      // scan order below fixes them deterministically.
      double at = t_entry;
      int which = 0;
      if (t_prop < at) { at = t_prop; which = 1; }
      if (t_payload < at) { at = t_payload; which = 2; }
      if (t_sabotage < at) { at = t_sabotage; which = 3; }
      if (t_host < at) { at = t_host; which = 4; }
      if (t_alarm < at) { at = t_alarm; which = 5; }
      if (!heap.empty() && heap.front().at < at) { at = heap.front().at; which = 6; }
      if (at > t_max) break;  // includes the all-disarmed (kNever) case
      now = at;
      ++result.events_executed;
      switch (which) {
        case 0: on_entry(); break;
        case 1: on_propagation(); break;
        case 2: on_payload(); break;
        case 3: on_sabotage(); break;
        case 4: on_host_detect(); break;
        case 5: on_alarm_detect(); break;
        case 6: {
          const QEvent ev = heap.front();
          std::pop_heap(heap.begin(), heap.end(), QLater{});
          heap.pop_back();
          if (ev.kind == 0)
            on_activation(ev.node);
          else
            on_privesc(ev.node);
          break;
        }
      }
    }
  }
};

/// One striped registry add per tally per run — ~20 relaxed fetch_adds
/// per replication, invisible next to the event loop itself (the
/// bench_e5 obs phase gates this at <= 2% wall).
struct CampaignCounters {
  obs::Counter& runs = obs::counter("campaign.runs");
  obs::Counter& events_executed = obs::counter("campaign.events.executed");
  obs::Counter& scan_candidates = obs::counter("campaign.scan.candidates");
  obs::Counter& scan_accepted = obs::counter("campaign.scan.accepted");
  std::array<obs::Counter*, kEventKindCount> kinds{};
  std::array<obs::Counter*, kDrawClassCount> rng_words{};

  CampaignCounters() {
    for (std::size_t k = 0; k < kEventKindCount; ++k)
      kinds[k] = &obs::counter(std::string("campaign.events.") +
                               to_string(static_cast<CampaignEventKind>(k)));
    static constexpr const char* kClassNames[kDrawClassCount] = {
        "entry",   "activation", "privesc",  "propagation",
        "payload", "sabotage",   "host_ids", "alarm"};
    for (std::size_t c = 0; c < kDrawClassCount; ++c)
      rng_words[c] =
          &obs::counter(std::string("campaign.rng_words.") + kClassNames[c]);
  }

  static const CampaignCounters& instance() {
    static const CampaignCounters counters;
    return counters;
  }
};

CampaignResult run_kernel(const Scenario& sc, const ThreatProfile& pr,
                          const CampaignTables& tb, const DetectionModel& det,
                          const CampaignOptions& opt, const stats::Rng& base) {
  thread_local RunScratch scratch;
  RunState st(sc, pr, tb, det, opt, base, scratch);
  st.run_until(opt.t_max_hours);
  st.result.hosts_compromised = st.hosts_owned;
  st.result.plcs_compromised = st.owned_plcs.size();

  const CampaignCounters& counters = CampaignCounters::instance();
  counters.runs.add(1);
  counters.events_executed.add(st.result.events_executed);
  counters.scan_candidates.add(st.scan_candidates);
  counters.scan_accepted.add(st.scan_accepted);
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    if (st.kind_counts[k]) counters.kinds[k]->add(st.kind_counts[k]);
  const auto words = st.rng.words_drawn();
  for (std::size_t c = 0; c < kDrawClassCount; ++c)
    if (words[c]) counters.rng_words[c]->add(words[c]);
  return std::move(st.result);
}

}  // namespace

CampaignResult CampaignSimulator::run(stats::Rng& rng) const {
  // The facade derives the class streams without consuming base state,
  // so run() leaves `rng` untouched — a (cell, rep) job stays a pure
  // function of Rng(cell.seed, rep).
  return run_kernel(scenario_, profile_, *tables_, detection_, options_, rng);
}

Scenario make_scope_cooling_scenario() {
  Scenario sc;
  auto& t = sc.topology;
  using net::Role;
  using net::Zone;
  // Corporate
  const auto ws1 = t.add_node("corp.ws1", Zone::kCorporate, Role::kWorkstation, true);
  const auto ws2 = t.add_node("corp.ws2", Zone::kCorporate, Role::kWorkstation, true);
  const auto mail = t.add_node("corp.server", Zone::kCorporate, Role::kServer, false);
  // DMZ
  const auto mirror = t.add_node("dmz.hist-mirror", Zone::kDmz, Role::kHistorian, false);
  // Control
  const auto scada = t.add_node("ctl.scada", Zone::kControl, Role::kScadaServer, false);
  const auto eng = t.add_node("ctl.eng", Zone::kControl, Role::kEngineering, true);
  const auto hmi = t.add_node("ctl.hmi", Zone::kControl, Role::kHmi, false);
  const auto hist = t.add_node("ctl.historian", Zone::kControl, Role::kHistorian, false);
  // Field
  const auto plc1 = t.add_node("fld.plc-chiller", Zone::kField, Role::kPlc, false);
  const auto plc2 = t.add_node("fld.plc-crac", Zone::kField, Role::kPlc, false);
  const auto gw = t.add_node("fld.sensor-gw", Zone::kField, Role::kSensorGateway, false);

  // Corporate LAN
  t.connect(ws1, ws2);
  t.connect(ws1, mail);
  t.connect(ws2, mail);
  // Corporate <-> DMZ <-> control
  t.connect(mail, mirror);
  t.connect(mirror, hist);
  // Control LAN
  t.connect(scada, eng);
  t.connect(scada, hmi);
  t.connect(scada, hist);
  t.connect(eng, hmi);
  // Control <-> field
  t.connect(scada, plc1);
  t.connect(scada, plc2);
  t.connect(eng, plc1);
  t.connect(eng, plc2);
  t.connect(scada, gw);

  sc.firewall = net::Firewall::segmented_ics();
  sc.firewall_variant = 0;
  sc.software.assign(t.node_count(), NodeSoftware{});
  sc.software[plc1].plc_firmware = 0;
  sc.software[plc2].plc_firmware = 0;
  sc.software[hmi].hmi = 0;
  sc.software[mirror].historian = 0;
  sc.software[hist].historian = 0;
  sc.entry_nodes = {ws1, ws2, eng};
  sc.target_plcs = {plc1, plc2};
  return sc;
}

}  // namespace divsec::attack

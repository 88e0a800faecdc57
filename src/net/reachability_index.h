// reachability_index.h — precomputed attack-surface queries in
// O(nodes + links) memory.
//
// reachability.h answers "can a reach b on channel c" by walking the
// adjacency vector and the firewall rule list on every call. That is fine
// for one 11-node plant and hopeless for the campaign simulator's inner
// loop on a generated enterprise fleet, where every propagation event
// probes a (node, node, channel) triple. ReachabilityIndex evaluates the
// relation once per scenario, so campaign and epidemic replications share
// one read-only index.
//
// The relation is never stored as a node x node matrix. A network
// channel is "a link, plus a (zone, zone, channel) firewall verdict", so
// the index keeps a sorted neighbour CSR, one zone byte per node and the
// (zone, zone, channel) verdict table, plus per-channel scan / tunnel
// target lists cut from the neighbour lists. USB reach is a clique over
// the media-exposed nodes, so it is stored implicitly as the ascending
// list of exposed nodes and each node's position in it: the k-th USB
// target of `a` is computed, never listed.
//
// Build cost is O(zones^2 * channels) firewall evaluations plus
// O(channels * (nodes + links)) list work; memory is O(channels *
// (nodes + links)). `linked` and network `can_reach` are a binary search
// over one neighbour list; USB queries are O(1). Instances are deeply
// immutable after construction and safe to share across executor
// threads.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "net/firewall.h"
#include "net/topology.h"

namespace divsec::net {

class ReachabilityIndex {
 public:
  /// Evaluates every (from, to, channel) triple of `topo` under `fw`.
  ReachabilityIndex(const Topology& topo, const Firewall& fw);

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

  /// Same relation as net::can_reach (link + policy; USB needs mutual
  /// removable-media exposure, no link). Precondition: a, b < node_count().
  [[nodiscard]] bool can_reach(NodeId a, NodeId b, Channel c) const noexcept {
    if (c == Channel::kUsb)
      return a != b && usb_pos_[a] != kNotExposed && usb_pos_[b] != kNotExposed;
    return allows(zone_[a], zone_[b], c) && linked(a, b);
  }

  /// Same relation as Topology::linked. Precondition: a, b < node_count().
  [[nodiscard]] bool linked(NodeId a, NodeId b) const noexcept {
    const std::uint32_t* first = nbr_.data() + nbr_off_[a];
    const std::uint32_t* last = nbr_.data() + nbr_off_[a + 1];
    const std::uint32_t* it = std::lower_bound(first, last, b);
    return it != last && *it == b;
  }

  /// Directed union adjacency over `channels`: out[i] lists, ascending,
  /// the nodes reachable from i over ANY of the given channels — the
  /// reachability_graph contract.
  [[nodiscard]] std::vector<std::vector<NodeId>> union_graph(
      const std::vector<Channel>& channels) const;

  /// Flat in-edge CSR over the union relation: the sources j with
  /// j -> i over ANY of `channels` occupy edge[off[i] .. off[i + 1]),
  /// ascending. Same relation as union_graph inverted, built without the
  /// vector-of-vectors intermediary — this is the adjacency
  /// MeanFieldEpidemic's Euler loop runs on.
  struct UnionInCsr {
    std::vector<std::size_t> off;  // node_count + 1 offsets
    std::vector<NodeId> edge;      // concatenated source lists
  };
  [[nodiscard]] UnionInCsr union_in_csr(const std::vector<Channel>& channels) const;

  /// The statically reachable targets of `a` on channel `c`, ascending,
  /// never containing `a` itself: scan_count(c, a) of them, the k-th
  /// being scan_target(c, a, k). The campaign kernel's thinned worm-scan
  /// process samples victims from these lists at the thinned Poisson
  /// rate instead of rejection-testing uniform (victim, channel) picks,
  /// which is exact by Poisson thinning and skips the ~95% of scans that
  /// cannot land. USB targets are the other exposed nodes, enumerated
  /// from the exposed-node list without storing the clique.
  [[nodiscard]] std::size_t scan_count(Channel c, NodeId a) const noexcept {
    if (c == Channel::kUsb)
      return usb_pos_[a] == kNotExposed ? 0 : usb_.size() - 1;
    return row_span(scan_[static_cast<std::size_t>(c)], a).size();
  }

  /// Precondition: k < scan_count(c, a).
  [[nodiscard]] NodeId scan_target(Channel c, NodeId a,
                                   std::size_t k) const noexcept {
    if (c == Channel::kUsb) return usb_[k + (k >= usb_pos_[a] ? 1 : 0)];
    const TargetCsr& csr = scan_[static_cast<std::size_t>(c)];
    return csr.tgt[csr.off[a] + k];
  }

  /// The linked-but-policy-blocked targets of `a` on channel `c`:
  /// reachable only by winning a firewall-bypass (tunnelling) exploit.
  /// Always empty for kUsb — removable media cannot tunnel a firewall.
  [[nodiscard]] std::span<const std::uint32_t> tunnel_targets(
      Channel c, NodeId a) const noexcept {
    if (c == Channel::kUsb) return {};
    return row_span(tunnel_[static_cast<std::size_t>(c)], a);
  }

  /// The exact structural input the constructor reads, in canonical form:
  /// two topologies/firewalls with equal keys produce identical indexes,
  /// so an index built for one may be shared with the other. This is the
  /// cache key of core::MeasurementEngine's shared-context path (compared
  /// in full on fingerprint hits — hashes alone never alias contexts).
  struct StructuralKey {
    std::size_t node_count = 0;
    /// Per node: zone in the low bits, usb_exposure in bit 7.
    std::vector<std::uint8_t> nodes;
    /// Undirected links as (min, max) pairs, sorted (link order and
    /// endpoint order in the Topology are not structural).
    std::vector<std::pair<NodeId, NodeId>> links;
    /// Firewall verdicts over (zone, zone, channel), flattened.
    std::array<bool, kZoneCount * kZoneCount * kChannelCount> allow{};

    bool operator==(const StructuralKey&) const = default;

    /// FNV-1a digest over the canonical form, for bucketing only.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept;
  };
  [[nodiscard]] static StructuralKey structural_key(const Topology& topo,
                                                   const Firewall& fw);

 private:
  /// Per-source target lists of one channel, CSR over uint32 node ids.
  struct TargetCsr {
    std::vector<std::uint32_t> off;  // node_count + 1 offsets
    std::vector<std::uint32_t> tgt;  // concatenated ascending target lists
  };

  static constexpr std::uint32_t kNotExposed =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] bool allows(std::uint8_t za, std::uint8_t zb,
                            Channel c) const noexcept {
    return allow_[(za * kZoneCount + zb) * kChannelCount +
                  static_cast<std::size_t>(c)];
  }

  [[nodiscard]] static std::span<const std::uint32_t> row_span(
      const TargetCsr& csr, NodeId a) noexcept {
    return {csr.tgt.data() + csr.off[a], csr.off[a + 1] - csr.off[a]};
  }

  /// A channel set's union relation: the zone-pair verdicts of its
  /// network channels OR-ed together, and whether it includes kUsb.
  struct UnionFilter {
    std::array<bool, kZoneCount * kZoneCount> pair_ok{};  // [from][to]
    bool usb = false;
  };
  [[nodiscard]] UnionFilter union_filter(const std::vector<Channel>& channels) const;

  /// Fills `row`, ascending, with the nodes `a` reaches under `f` — or,
  /// when `inbound`, the nodes reaching `a`: the policy-passing
  /// neighbours merged with the other exposed nodes when USB applies.
  void union_row(NodeId a, bool inbound, const UnionFilter& f,
                 std::vector<NodeId>& row) const;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> nbr_off_;  // node_count + 1 offsets
  std::vector<std::uint32_t> nbr_;      // ascending neighbour lists
  std::vector<std::uint8_t> zone_;      // per node
  std::array<bool, kZoneCount * kZoneCount * kChannelCount> allow_{};
  std::vector<std::uint32_t> usb_;      // media-exposed nodes, ascending
  std::vector<std::uint32_t> usb_pos_;  // index into usb_, or kNotExposed
  std::array<TargetCsr, kChannelCount> scan_;    // network channels only
  std::array<TargetCsr, kChannelCount> tunnel_;  // linked & ~allowed
};

}  // namespace divsec::net

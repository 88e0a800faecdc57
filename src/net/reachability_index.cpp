#include "net/reachability_index.h"

#include <algorithm>

namespace divsec::net {

ReachabilityIndex::ReachabilityIndex(const Topology& topo, const Firewall& fw)
    : n_(topo.node_count()) {
  // Policy is a pure (zone, zone, channel) relation: evaluate the rule
  // list once per triple instead of once per node pair.
  std::size_t i = 0;
  for (std::size_t za = 0; za < kZoneCount; ++za)
    for (std::size_t zb = 0; zb < kZoneCount; ++zb)
      for (std::size_t ch = 0; ch < kChannelCount; ++ch)
        allow_[i++] = fw.allows(static_cast<Zone>(za), static_cast<Zone>(zb),
                                static_cast<Channel>(ch));

  // Per-node zone and USB position; neighbour lists as one sorted CSR
  // (Topology::connect keeps links free of duplicates and self-loops).
  zone_.resize(n_);
  usb_pos_.assign(n_, kNotExposed);
  nbr_off_.assign(n_ + 1, 0);
  for (NodeId a = 0; a < n_; ++a) {
    const Node& node = topo.node(a);
    zone_[a] = static_cast<std::uint8_t>(node.zone);
    if (node.usb_exposure) {
      usb_pos_[a] = static_cast<std::uint32_t>(usb_.size());
      usb_.push_back(static_cast<std::uint32_t>(a));
    }
    nbr_off_[a + 1] =
        nbr_off_[a] + static_cast<std::uint32_t>(topo.neighbors(a).size());
  }
  nbr_.resize(nbr_off_[n_]);
  for (NodeId a = 0; a < n_; ++a) {
    const auto& adj = topo.neighbors(a);
    std::uint32_t* row = nbr_.data() + nbr_off_[a];
    std::copy(adj.begin(), adj.end(), row);
    std::sort(row, row + adj.size());
  }

  // Scan / tunnel target lists of the network channels: each neighbour
  // list split by the policy verdict, ascending because the neighbour
  // list is — the sampling substrate of the campaign kernel's thinned
  // worm scan. USB needs no list (scan_target computes it).
  for (std::size_t ch = 0; ch < kChannelCount; ++ch) {
    const Channel c = static_cast<Channel>(ch);
    if (c == Channel::kUsb) continue;
    TargetCsr& scan = scan_[ch];
    TargetCsr& tunnel = tunnel_[ch];
    scan.off.assign(n_ + 1, 0);
    tunnel.off.assign(n_ + 1, 0);
    for (NodeId a = 0; a < n_; ++a) {
      for (std::uint32_t k = nbr_off_[a]; k < nbr_off_[a + 1]; ++k) {
        const std::uint32_t b = nbr_[k];
        (allows(zone_[a], zone_[b], c) ? scan : tunnel).tgt.push_back(b);
      }
      scan.off[a + 1] = static_cast<std::uint32_t>(scan.tgt.size());
      tunnel.off[a + 1] = static_cast<std::uint32_t>(tunnel.tgt.size());
    }
  }
}

ReachabilityIndex::UnionFilter ReachabilityIndex::union_filter(
    const std::vector<Channel>& channels) const {
  UnionFilter f;
  for (const Channel c : channels) {
    if (c == Channel::kUsb) {
      f.usb = true;
      continue;
    }
    for (std::size_t za = 0; za < kZoneCount; ++za)
      for (std::size_t zb = 0; zb < kZoneCount; ++zb)
        if (allows(static_cast<std::uint8_t>(za), static_cast<std::uint8_t>(zb), c))
          f.pair_ok[za * kZoneCount + zb] = true;
  }
  return f;
}

void ReachabilityIndex::union_row(NodeId a, bool inbound, const UnionFilter& f,
                                  std::vector<NodeId>& row) const {
  row.clear();
  const std::size_t za = zone_[a];
  // Merge the policy-passing neighbours with the USB clique (every other
  // exposed node) when it applies; a node both linked and exposed once.
  auto u = usb_.begin();
  const auto u_end = f.usb && usb_pos_[a] != kNotExposed ? usb_.end() : u;
  const auto take_usb_below = [&](std::size_t bound) {
    for (; u != u_end && *u < bound; ++u)
      if (*u != a) row.push_back(*u);
  };
  for (std::uint32_t k = nbr_off_[a]; k < nbr_off_[a + 1]; ++k) {
    const std::uint32_t b = nbr_[k];
    const std::size_t zb = zone_[b];
    if (!f.pair_ok[inbound ? zb * kZoneCount + za : za * kZoneCount + zb])
      continue;
    take_usb_below(b);
    if (u != u_end && *u == b) ++u;
    row.push_back(b);
  }
  take_usb_below(n_);
}

std::vector<std::vector<NodeId>> ReachabilityIndex::union_graph(
    const std::vector<Channel>& channels) const {
  const UnionFilter f = union_filter(channels);
  std::vector<std::vector<NodeId>> out(n_);
  for (NodeId a = 0; a < n_; ++a) union_row(a, false, f, out[a]);
  return out;
}

ReachabilityIndex::UnionInCsr ReachabilityIndex::union_in_csr(
    const std::vector<Channel>& channels) const {
  // Each destination's source list is the union row read inbound — the
  // same relation union_graph lists outbound, inverted.
  const UnionFilter f = union_filter(channels);
  UnionInCsr csr;
  csr.off.assign(n_ + 1, 0);
  std::vector<NodeId> row;
  for (NodeId b = 0; b < n_; ++b) {
    union_row(b, true, f, row);
    csr.edge.insert(csr.edge.end(), row.begin(), row.end());
    csr.off[b + 1] = csr.edge.size();
  }
  return csr;
}

ReachabilityIndex::StructuralKey ReachabilityIndex::structural_key(
    const Topology& topo, const Firewall& fw) {
  StructuralKey key;
  key.node_count = topo.node_count();
  key.nodes.reserve(key.node_count);
  for (NodeId i = 0; i < key.node_count; ++i) {
    const Node& node = topo.node(i);
    key.nodes.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(node.zone) |
        (node.usb_exposure ? 0x80u : 0u)));
  }
  key.links.reserve(topo.links().size());
  for (const Link& l : topo.links())
    key.links.emplace_back(std::min(l.a, l.b), std::max(l.a, l.b));
  std::sort(key.links.begin(), key.links.end());
  key.links.erase(std::unique(key.links.begin(), key.links.end()),
                  key.links.end());
  std::size_t i = 0;
  for (std::size_t za = 0; za < kZoneCount; ++za)
    for (std::size_t zb = 0; zb < kZoneCount; ++zb)
      for (std::size_t ch = 0; ch < kChannelCount; ++ch)
        key.allow[i++] = fw.allows(static_cast<Zone>(za), static_cast<Zone>(zb),
                                   static_cast<Channel>(ch));
  return key;
}

std::uint64_t ReachabilityIndex::StructuralKey::fingerprint() const noexcept {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(node_count);
  for (std::uint8_t b : nodes) mix(b);
  for (const auto& [a, b] : links) {
    mix(a);
    mix(b);
  }
  for (bool v : allow) mix(v ? 1 : 0);
  return h;
}

}  // namespace divsec::net

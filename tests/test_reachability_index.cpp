// Tests for net/reachability_index.h — the precomputed reachability
// index must agree with the per-call reference relation (net::can_reach,
// Topology::linked) on every (node, node, channel) triple, hand-built or
// generated, and so must everything enumerated from it: the scan and
// tunnel target lists the campaign kernel samples and the union graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "attack/campaign.h"
#include "net/reachability.h"
#include "net/reachability_index.h"
#include "scenario/presets.h"

namespace divsec::net {
namespace {

/// The enumeration contract the campaign kernel samples from: for every
/// (node, channel), scan_target(c, a, k) over k < scan_count(c, a) lists
/// exactly the b with net::can_reach(a, b, c), ascending and without a;
/// tunnel_targets(c, a) lists exactly the linked b that the policy
/// blocks, and nothing on USB.
void expect_enumeration_matches_reference(const Topology& topo,
                                          const Firewall& fw) {
  const ReachabilityIndex index(topo, fw);
  for (NodeId a = 0; a < topo.node_count(); ++a) {
    for (std::size_t ch = 0; ch < kChannelCount; ++ch) {
      const Channel c = static_cast<Channel>(ch);
      std::vector<NodeId> want_scan, want_tunnel;
      for (NodeId b = 0; b < topo.node_count(); ++b) {
        if (can_reach(topo, fw, a, b, c))
          want_scan.push_back(b);
        else if (c != Channel::kUsb && a != b && topo.linked(a, b))
          want_tunnel.push_back(b);
      }
      std::vector<NodeId> got_scan;
      for (std::size_t k = 0; k < index.scan_count(c, a); ++k)
        got_scan.push_back(index.scan_target(c, a, k));
      const auto tunnel = index.tunnel_targets(c, a);
      const std::vector<NodeId> got_tunnel(tunnel.begin(), tunnel.end());
      EXPECT_EQ(got_scan, want_scan) << "scan " << a << " " << to_string(c);
      EXPECT_EQ(got_tunnel, want_tunnel)
          << "tunnel " << a << " " << to_string(c);
    }
  }
}

/// A nine-node, four-zone chain with two chords; `exposed` lists the
/// nodes with removable-media exposure.
Topology small_plant(const std::vector<NodeId>& exposed) {
  Topology t;
  constexpr std::size_t kNodes = 9;
  for (NodeId i = 0; i < kNodes; ++i) {
    const bool usb =
        std::find(exposed.begin(), exposed.end(), i) != exposed.end();
    t.add_node("n" + std::to_string(i), static_cast<Zone>(i * kZoneCount / kNodes),
               Role::kWorkstation, usb);
  }
  for (NodeId i = 0; i + 1 < kNodes; ++i) t.connect(i + 1, i);
  t.connect(8, 0);
  t.connect(2, 6);
  return t;
}

void expect_index_matches_reference(const Topology& topo, const Firewall& fw) {
  const ReachabilityIndex index(topo, fw);
  ASSERT_EQ(index.node_count(), topo.node_count());
  for (NodeId a = 0; a < topo.node_count(); ++a) {
    for (NodeId b = 0; b < topo.node_count(); ++b) {
      EXPECT_EQ(index.linked(a, b), a != b && topo.linked(a, b))
          << "linked(" << a << "," << b << ")";
      for (std::size_t ch = 0; ch < kChannelCount; ++ch) {
        const Channel channel = static_cast<Channel>(ch);
        EXPECT_EQ(index.can_reach(a, b, channel),
                  can_reach(topo, fw, a, b, channel))
            << "can_reach(" << a << "," << b << "," << to_string(channel) << ")";
      }
    }
  }
}

TEST(ReachabilityIndex, MatchesReferenceOnScopePlant) {
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  expect_index_matches_reference(sc.topology, sc.firewall);
}

TEST(ReachabilityIndex, MatchesReferenceOnPermissivePolicy) {
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  expect_index_matches_reference(sc.topology, Firewall::permissive());
}

TEST(ReachabilityIndex, MatchesReferenceOnGeneratedFleet) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const auto fleet = scenario::make_preset("plant_medium", cat, 7);
  expect_index_matches_reference(fleet.scenario.topology, fleet.scenario.firewall);
}

/// union_graph (out-lists) and union_in_csr (in-lists) against the
/// per-channel reference union, ascending.
void expect_unions_match_reference(const Topology& topo, const Firewall& fw,
                                   const std::vector<Channel>& channels) {
  const ReachabilityIndex index(topo, fw);
  const auto graph = index.union_graph(channels);
  const auto csr = index.union_in_csr(channels);
  const std::size_t n = topo.node_count();
  ASSERT_EQ(graph.size(), n);
  ASSERT_EQ(csr.off.size(), n + 1);
  const auto reaches = [&](NodeId a, NodeId b) {
    return std::any_of(channels.begin(), channels.end(), [&](Channel c) {
      return can_reach(topo, fw, a, b, c);
    });
  };
  for (NodeId i = 0; i < n; ++i) {
    std::vector<NodeId> out, in;
    for (NodeId j = 0; j < n; ++j) {
      if (reaches(i, j)) out.push_back(j);
      if (reaches(j, i)) in.push_back(j);
    }
    EXPECT_EQ(graph[i], out) << "out-list of " << i;
    const std::vector<NodeId> got_in(csr.edge.begin() + csr.off[i],
                                     csr.edge.begin() + csr.off[i + 1]);
    EXPECT_EQ(got_in, in) << "in-list of " << i;
  }
}

/// Every oracle — pointwise relation, enumeration, unions — on one input.
void expect_all_match_reference(const Topology& topo, const Firewall& fw) {
  expect_index_matches_reference(topo, fw);
  expect_enumeration_matches_reference(topo, fw);
  const std::vector<Channel> all{Channel::kUsb,         Channel::kSmbShare,
                                 Channel::kPrintSpooler, Channel::kProjectFile,
                                 Channel::kModbus,      Channel::kHttp};
  expect_unions_match_reference(topo, fw, all);
  expect_unions_match_reference(topo, fw, {Channel::kUsb, Channel::kSmbShare});
  expect_unions_match_reference(topo, fw, {Channel::kHttp, Channel::kModbus});
}

TEST(ReachabilityIndex, EnumerationMatchesReferenceOnScopePlant) {
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  expect_enumeration_matches_reference(sc.topology, sc.firewall);
  expect_enumeration_matches_reference(sc.topology, Firewall::permissive());
}

TEST(ReachabilityIndex, EnumerationMatchesReferenceOnGeneratedFleet) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const auto fleet = scenario::make_preset("plant_medium", cat, 7);
  expect_enumeration_matches_reference(fleet.scenario.topology,
                                       fleet.scenario.firewall);
}

TEST(ReachabilityIndex, MatchesReferenceOnEveryFamily) {
  // One spec per generation family; hub-spoke's corporate hub gives the
  // neighbour-list binary search its high-degree rows.
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  for (const char* spec :
       {"purdue-deep:nodes=128,depth=3", "mesh-flat:nodes=96,density=0.25",
        "hub-spoke:nodes=192,sites=6,usb=0.5",
        "brownfield:nodes=160,segmentation=0.5"}) {
    SCOPED_TRACE(spec);
    const auto fleet = scenario::make_preset(spec, cat, 2013);
    expect_all_match_reference(fleet.scenario.topology, fleet.scenario.firewall);
  }
}

TEST(ReachabilityIndex, MatchesReferenceOnUsbEdgeCases) {
  // No exposed node, exactly one (an empty clique row), and exposure on
  // the first and last node ids — the boundaries of the implicit USB
  // enumeration's skip-self step.
  const std::vector<std::vector<NodeId>> cases = {
      {}, {4}, {0}, {8}, {0, 8}, {0, 3, 8}, {0, 1, 2, 3, 4, 5, 6, 7, 8}};
  for (const auto& exposed : cases) {
    SCOPED_TRACE(::testing::PrintToString(exposed));
    const Topology t = small_plant(exposed);
    expect_all_match_reference(t, Firewall::segmented_ics());
    expect_all_match_reference(t, Firewall::permissive());
    const ReachabilityIndex index(t, Firewall::segmented_ics());
    for (NodeId a = 0; a < t.node_count(); ++a) {
      const bool on = std::find(exposed.begin(), exposed.end(), a) != exposed.end();
      EXPECT_EQ(index.scan_count(Channel::kUsb, a), on ? exposed.size() - 1 : 0);
    }
  }
}

TEST(ReachabilityIndex, UnionGraphMatchesPerChannelUnion) {
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  const std::vector<Channel> channels{Channel::kUsb, Channel::kSmbShare,
                                      Channel::kHttp};
  const ReachabilityIndex index(sc.topology, sc.firewall);
  const auto graph = index.union_graph(channels);
  ASSERT_EQ(graph.size(), sc.topology.node_count());
  for (NodeId a = 0; a < sc.topology.node_count(); ++a) {
    std::vector<NodeId> expected;
    for (NodeId b = 0; b < sc.topology.node_count(); ++b)
      for (Channel c : channels)
        if (can_reach(sc.topology, sc.firewall, a, b, c)) {
          expected.push_back(b);
          break;
        }
    EXPECT_EQ(graph[a], expected) << "node " << a;
    // Ascending, as documented.
    EXPECT_TRUE(std::is_sorted(graph[a].begin(), graph[a].end()));
  }
}

TEST(ReachabilityIndex, ReachabilityGraphDelegatesToTheSameRelation) {
  // reachability_graph is now a thin wrapper; keep its public contract.
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  const std::vector<Channel> channels{Channel::kUsb, Channel::kSmbShare};
  const auto via_function = reachability_graph(sc.topology, sc.firewall, channels);
  const auto via_index =
      ReachabilityIndex(sc.topology, sc.firewall).union_graph(channels);
  EXPECT_EQ(via_function, via_index);
}

TEST(ReachabilityIndex, CampaignSimulatorExposesItsIndex) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  const attack::CampaignSimulator sim(sc, attack::ThreatProfile::stuxnet(), cat);
  const ReachabilityIndex& index = sim.reachability();
  EXPECT_EQ(index.node_count(), sc.topology.node_count());
  // USB between the two exposed workstations, no modbus corp -> field.
  const NodeId ws1 = sc.topology.node_by_name("corp.ws1");
  const NodeId ws2 = sc.topology.node_by_name("corp.ws2");
  const NodeId plc = sc.topology.node_by_name("fld.plc-chiller");
  EXPECT_TRUE(index.can_reach(ws1, ws2, Channel::kUsb));
  EXPECT_FALSE(index.can_reach(ws1, plc, Channel::kModbus));
}

}  // namespace
}  // namespace divsec::net

// topology.h — ICS network model: nodes, security zones, links, channels.
//
// Models the classic Purdue-style segmentation of a monitoring & control
// network: corporate IT, DMZ, control (SCADA servers, engineering
// workstations, HMIs) and field (PLCs, RTUs). Malware propagation (the
// paper's "network propagation" stage) moves across links subject to the
// firewall policy (firewall.h) and per-channel constraints; USB is the
// air-gap-crossing channel Stuxnet is famous for and is modelled as a
// linkless channel between nodes flagged with removable-media exposure.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace divsec::net {

using NodeId = std::size_t;

/// Security zone (Purdue-ish level).
enum class Zone : std::uint8_t { kCorporate, kDmz, kControl, kField };

inline constexpr std::size_t kZoneCount = 4;
static_assert(static_cast<std::size_t>(Zone::kField) + 1 == kZoneCount,
              "update kZoneCount when adding Zone enumerators");

[[nodiscard]] const char* to_string(Zone z) noexcept;

/// Functional role of a node; used by attack targeting and the SCADA
/// binding (a PLC node hosts PLC firmware, an HMI node hosts HMI software).
enum class Role : std::uint8_t {
  kWorkstation,      // office PC
  kServer,           // generic IT server
  kScadaServer,      // SCADA master / data acquisition
  kEngineering,      // engineering workstation (PLC programming)
  kHmi,              // operator console
  kHistorian,        // time-series archive
  kPlc,              // programmable logic controller
  kSensorGateway,    // field I/O concentrator
};

[[nodiscard]] const char* to_string(Role r) noexcept;

/// Propagation / communication channel.
enum class Channel : std::uint8_t {
  kUsb,           // removable media (human-carried; crosses air gaps)
  kSmbShare,      // network shares
  kPrintSpooler,  // the MS10-061-style spooler path
  kProjectFile,   // infected PLC project files (engineering tools)
  kModbus,        // control protocol traffic
  kHttp,          // generic IT traffic / C2
};

inline constexpr std::size_t kChannelCount = 6;
static_assert(static_cast<std::size_t>(Channel::kHttp) + 1 == kChannelCount,
              "update kChannelCount when adding Channel enumerators");

[[nodiscard]] const char* to_string(Channel c) noexcept;

struct Node {
  std::string name;
  Zone zone = Zone::kCorporate;
  Role role = Role::kWorkstation;
  /// Whether operators plug removable media into this node.
  bool usb_exposure = false;

  bool operator==(const Node&) const = default;
};

struct Link {
  NodeId a = 0;
  NodeId b = 0;

  bool operator==(const Link&) const = default;
};

/// Undirected multigraph of nodes and links. Value type; cheap to copy.
class Topology {
 public:
  NodeId add_node(std::string name, Zone zone, Role role, bool usb_exposure = false);

  /// Pre-size internal storage for `nodes` nodes (fleet generation).
  void reserve(std::size_t nodes);

  /// Undirected link; both endpoints must exist; self-links are rejected.
  void connect(NodeId a, NodeId b);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] const Node& node(NodeId n) const { return nodes_.at(n); }
  [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }

  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId n) const {
    return adjacency_.at(n);
  }

  [[nodiscard]] bool linked(NodeId a, NodeId b) const;

  /// Find a node by name; throws std::out_of_range if absent.
  [[nodiscard]] NodeId node_by_name(const std::string& name) const;

  /// All nodes with the given role.
  [[nodiscard]] std::vector<NodeId> nodes_with_role(Role r) const;

  /// All nodes in the given zone.
  [[nodiscard]] std::vector<NodeId> nodes_in_zone(Zone z) const;

  /// Same nodes and links in the same order (adjacency and the name index
  /// follow from them).
  bool operator==(const Topology& o) const {
    return nodes_ == o.nodes_ && links_ == o.links_;
  }

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::unordered_map<std::string, NodeId> name_index_;  // O(1) name lookup
};

}  // namespace divsec::net

// Controller<->AP backhaul protocol messages (paper §3).
//
// Everything the WGTT control and data planes exchange over Ethernet is one
// of these message types. Sizes are modelled so backhaul serialization time
// is accounted for.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "channel/link_channel.h"
#include "net/ids.h"
#include "net/packet.h"
#include "net/packet_pool.h"

namespace wgtt::net {

/// Controller -> AP: a downlink data packet, tunnelled, carrying the
/// client's 12-bit index number for the cyclic queue (§3.1.2). The payload
/// is a counted reference into the sender's PacketPool (DESIGN.md §10), so
/// a message destroyed anywhere frees its share of the packet.
struct DownlinkData {
  std::uint16_t index = 0;  // m = 12-bit index number
  PacketPool::Ref payload;
  /// Wire size, cached so backhaul latency accounting never reads the pool.
  std::uint32_t tunnel_bytes = 0;
};

/// AP -> controller: an overheard uplink packet, tunnelled with the AP's
/// addresses so the controller knows the receiving AP (§3.2.2).
struct UplinkData {
  ApId from_ap{};
  Packet packet;
};

/// AP -> controller: CSI of one received uplink frame (§3.1.1); the
/// controller computes ESNR from this.
struct CsiReport {
  ApId from_ap{};
  ClientId client{};
  channel::CsiMeasurement measurement;
};

/// Controller -> old AP: cease sending to client c; tells it who the new
/// serving AP is (step 1 of the switching protocol).
///
/// `epoch` is a per-client monotonically increasing switch counter minted by
/// the controller at initiation and carried through the whole stop -> start
/// -> ack chain. It is what makes the handshake idempotent on a lossy
/// backhaul: an AP that already answered epoch e replays its recorded answer
/// on a retransmit (same epoch) and discards anything from an older epoch,
/// and the controller only completes a switch on the ack whose epoch matches
/// the switch it actually has outstanding.
struct StopMsg {
  ClientId client{};
  ApId new_ap{};
  std::uint32_t epoch = 0;
};

/// Old AP -> new AP: first unsent index k for client c (step 2). Also sent
/// controller -> first AP at bootstrap, with the fan-out index captured at
/// initiation.
struct StartMsg {
  ClientId client{};
  ApId from_ap{};
  std::uint16_t first_unsent_index = 0;
  std::uint32_t epoch = 0;
};

/// New AP -> controller: switch complete (step 3). Echoes the epoch of the
/// start it answers.
struct SwitchAck {
  ClientId client{};
  ApId from_ap{};
  std::uint32_t epoch = 0;
  // Set when a controller relays an ack that reached it for a client another
  // domain owns (the AP is homed here but the switch was driven elsewhere).
  // Relayed acks are never re-forwarded. Bookkeeping only, not wire bytes.
  bool relayed = false;
};

/// Overhearing AP -> serving AP: a block ACK heard in monitor mode
/// (§3.2.1): client address, starting sequence number, and the bitmap.
struct BlockAckForward {
  ClientId client{};
  ApId from_ap{};
  std::uint16_t start_seq = 0;
  std::uint64_t bitmap = 0;
  std::uint64_t ba_uid = 0;  // identity of the over-the-air BA frame, for
                             // duplicate suppression at the serving AP
};

/// First-associating AP -> all others: replicated association state
/// (paper §4.3, the hostapd sta_info transfer).
struct AssocSync {
  ClientId client{};
  ApId from_ap{};
};

/// Controller -> AP: liveness probe. `seq` is a per-AP monotonically
/// increasing counter; the AP echoes it in a HeartbeatAck so the controller
/// can both detect misses and measure backhaul round-trip time.
struct Heartbeat {
  std::uint32_t seq = 0;
};

/// AP -> controller: heartbeat echo. Answered immediately on receipt (no
/// processing-queue delay) so the RTT sample measures the backhaul path.
struct HeartbeatAck {
  ApId from_ap{};
  std::uint32_t seq = 0;
};

// --- inter-controller (multi-domain) messages (DESIGN.md §12) ---------------

/// Non-owner controller -> believed owner: a CSI report that arrived at a
/// foreign domain's AP. Forwarded exactly once (the receiver never
/// re-forwards) so routing loops cannot form while ownership is in motion.
struct CsiForward {
  std::uint32_t src_domain = 0;
  CsiReport report;
};

/// Non-owner controller -> believed owner: an uplink data packet overheard
/// by a foreign domain's AP.
struct UplinkForward {
  std::uint32_t src_domain = 0;
  UplinkData data;
};

/// Non-owner controller -> believed owner: a downlink packet that the server
/// handed to the wrong domain while ownership was in motion.
struct DownlinkForward {
  std::uint32_t src_domain = 0;
  Packet packet;
};

/// Source domain -> target domain: the inter-domain handover state transfer
/// (step 1). Carries everything the target needs to continue the client's
/// downlink stream without a 12-bit index regression: the client's switch
/// epoch, the controller watermark (`next_index`, pre-rewound by the
/// configured replay margin), and a seed of the uplink dedup ring so
/// in-flight duplicates don't leak through right after the switch.
/// `seq` makes retransmits idempotent at the target.
struct HandoverRequest {
  ClientId client{};
  std::uint32_t src_domain = 0;
  ApId target_ap{};
  std::uint32_t epoch = 0;
  std::uint16_t next_index = 0;
  std::uint64_t downlink_sent = 0;
  std::vector<std::uint32_t> dedup_seed;
  std::uint32_t seq = 0;
};

/// Target domain -> source domain: handover accepted/refused (step 2).
/// Echoes `seq` so the source can match it to the request it has
/// outstanding; `epoch` is the (higher) epoch the target minted.
struct HandoverAck {
  ClientId client{};
  std::uint32_t from_domain = 0;
  bool accepted = false;
  std::uint32_t seq = 0;
  std::uint32_t epoch = 0;
};

/// Controller -> peer controller: liveness probe. The controller judges
/// peers with the same heartbeat state machine as its APs; the peer probe
/// keeps its own message kind so fault plans can tell the two apart.
struct DomainHeartbeat {
  std::uint32_t src_domain = 0;
  std::uint32_t seq = 0;
};

/// Peer controller -> controller: heartbeat echo, answered immediately.
struct DomainHeartbeatAck {
  std::uint32_t src_domain = 0;
  std::uint32_t seq = 0;
};

/// Controller -> neighbor controllers: periodic ownership gossip. Each entry
/// names a client this domain believes it owns plus the client's current
/// epoch and watermark, so a neighbor that must adopt the client after a
/// crash can bootstrap from the last-gossiped state, and so split-brain
/// after a lossy handover resolves by yielding to the higher epoch.
struct DomainSync {
  struct Entry {
    ClientId client{};
    /// The domain claiming ownership. Usually the sender itself; an entry
    /// with owner != src_domain is a RELAY — the sender republishing its
    /// last record of a now-dead owner, so the dead domain's adopter
    /// learns of clients whose ownership transfer it never observed.
    /// Relayed entries update belief but never trigger ownership yields.
    std::uint32_t owner = 0;
    std::uint32_t epoch = 0;
    std::uint16_t next_index = 0;
    std::uint64_t downlink_sent = 0;
    /// The AP currently draining this client, if any. A crash adopter keeps
    /// that data plane running instead of force-bootstrapping next to it —
    /// without this the dead domain's AP would keep serving forever.
    bool has_serving = false;
    ApId serving{};
  };
  std::uint32_t src_domain = 0;
  std::vector<Entry> entries;
};

/// Adopting controller -> AP: re-home the AP to a new controller domain. The
/// AP re-points its uplink/CSI/ack destination at the new domain's address.
struct AdoptAp {
  std::uint32_t new_domain = 0;
};

using BackhaulMessage =
    std::variant<DownlinkData, UplinkData, CsiReport, StopMsg, StartMsg,
                 SwitchAck, BlockAckForward, AssocSync, Heartbeat,
                 HeartbeatAck, CsiForward, UplinkForward, DownlinkForward,
                 HandoverRequest, HandoverAck, DomainHeartbeat,
                 DomainHeartbeatAck, DomainSync, AdoptAp>;

/// Message-type tag, in variant-alternative order; keys the backhaul's
/// per-type fault-injection plans.
enum class MsgKind : std::uint8_t {
  kDownlinkData,
  kUplinkData,
  kCsiReport,
  kStop,
  kStart,
  kSwitchAck,
  kBlockAckForward,
  kAssocSync,
  kHeartbeat,
  kHeartbeatAck,
  kCsiForward,
  kUplinkForward,
  kDownlinkForward,
  kHandoverRequest,
  kHandoverAck,
  kDomainHeartbeat,
  kDomainHeartbeatAck,
  kDomainSync,
  kAdoptAp,
};
inline constexpr std::size_t kNumMsgKinds = 19;

[[nodiscard]] MsgKind kind_of(const BackhaulMessage& msg);

/// Serialized size on the backhaul wire, for latency accounting.
[[nodiscard]] std::size_t wire_bytes(const BackhaulMessage& msg);

/// Control messages (stop/start/ack) bypass data queues in the AP
/// (paper §3.1.2: "incoming control packets are prioritized").
[[nodiscard]] bool is_control(const BackhaulMessage& msg);

}  // namespace wgtt::net

// Simulated switched-Ethernet backhaul connecting the controller and APs.
//
// Unicast store-and-forward through one switch: per-message latency =
// serialization at line rate + switch forwarding overhead (+ optional
// jitter). The backhaul is reliable by default but carries two layers of
// fault injection to exercise the switching protocol's 30 ms retransmission
// timeout: a uniform `loss_rate` over all messages, and per-message-type
// FaultPlans (loss, extra delay, duplication, deterministic first-N drops).
// Faults preserve the per-(src,dst) FIFO discipline — a delayed message
// holds back the rest of its flow, and a duplicate arrives after the
// original — because a switched-Ethernet path never reorders a flow and the
// WGTT index stream depends on that. The one deliberate exception is
// FaultPlan::reorder_rate, which models a misbehaving switch by letting a
// message escape the FIFO clamp. Whole-node faults (AP crash, partition)
// are modelled by taking a node's link down via set_node_up().
//
// Two opt-in extensions (DESIGN.md §10), both off by default so seeded runs
// stay byte-identical to the infinite-pipe engine:
//
//  * Per-link bandwidth/queue model (`link_rate_mbps` > 0): each directed
//    (src, dst) link is a FIFO serializer at the configured rate with a
//    bounded byte queue. Backlog is tracked analytically as a busy-until
//    virtual clock — no extra scheduler events — and a message that would
//    push the queued bytes past `link_queue_bytes` is dropped at send time
//    (counted in queue_drops()).
//
//  * Fan-out batching (`batching`): unfaulted DownlinkData messages on one
//    link coalesce into an open batch that flushes after `batch_window`,
//    at `batch_max_msgs`, or immediately when any other traffic hits the
//    link (so control messages can never overtake queued data of the same
//    flow). A flushed batch is ONE delivery event invoking the receiver
//    once per message in send order — event count stops scaling with
//    fan-out width x packet rate. Delay-, reorder- or dup-faulted messages
//    flush the open batch and take the per-message path, so fault
//    semantics (and the per-flow FIFO, reorder excepted) are preserved.
//
// The backhaul knows nothing of payload pools: a DownlinkData payload is a
// counted PacketPool::Ref, so a message lost, cut or left unhandled drops
// its reference when it is destroyed, and a duplicate's copy adds one.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/messages.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace wgtt::net {

/// Fault injection for one message type. Faults are drawn independently per
/// send; RNG draws happen only for nonzero knobs, so an all-zero plan leaves
/// seeded runs bit-identical to a fault-free backhaul.
struct FaultPlan {
  double loss_rate = 0.0;   // drop probability
  double dup_rate = 0.0;    // probability of delivering a second copy
  double delay_rate = 0.0;  // probability of adding extra delay
  Time delay_max = Time::zero();  // extra delay ~ U[0, delay_max)
  /// Deterministically drop the first N matching sends (then behave
  /// normally). The surgical knob regression tests use to lose exactly one
  /// control message.
  int drop_first = 0;
  /// Opt-in reordering: with this probability the message takes an extra
  /// U[0, reorder_max) delay AND bypasses the per-flow FIFO clamp, so
  /// later sends on the same flow can overtake it. Off by default — a
  /// healthy switched-Ethernet path never reorders a flow — but a
  /// misbehaving switch or a routing flap can, and the epoch guards must
  /// survive that.
  double reorder_rate = 0.0;
  Time reorder_max = Time::zero();
};

class Backhaul {
 public:
  struct Config {
    double line_rate_mbps = 1000.0;     // GigE
    Time switch_overhead = Time::us(30);  // forwarding + host stack
    Time jitter_max = Time::us(20);
    double loss_rate = 0.0;             // uniform loss over all messages
    /// Per-message-type fault plans, indexed by MsgKind.
    std::array<FaultPlan, kNumMsgKinds> faults{};

    // --- Per-link bandwidth/queue model (DESIGN.md §10) ---
    /// Rate of each directed (src, dst) link. 0 (the default) = the legacy
    /// infinite pipe: serialization at line_rate_mbps, no queueing, no
    /// drops — byte-identical to the pre-model engine.
    double link_rate_mbps = 0.0;
    /// Byte bound of each link's send queue; a message that would push the
    /// analytically-tracked backlog past this is dropped at send time.
    /// Read only when link_rate_mbps > 0.
    std::size_t link_queue_bytes = 256 * 1024;

    // --- Fan-out batching (DESIGN.md §10) ---
    /// Coalesce unfaulted DownlinkData per link into single delivery
    /// events. Off by default (byte-identity).
    bool batching = false;
    /// How long an open batch may wait for more traffic before flushing.
    Time batch_window = Time::us(500);
    /// Flush as soon as a batch holds this many messages.
    std::size_t batch_max_msgs = 32;

    [[nodiscard]] FaultPlan& fault(MsgKind kind) {
      return faults[static_cast<std::size_t>(kind)];
    }
    [[nodiscard]] const FaultPlan& fault(MsgKind kind) const {
      return faults[static_cast<std::size_t>(kind)];
    }
  };

  using Handler = std::function<void(NodeId from, BackhaulMessage msg)>;

  Backhaul(sim::Scheduler& sched, const Config& config, Rng rng);

  /// Registers the message handler for `node`. Re-registering replaces.
  void attach(NodeId node, Handler handler);

  /// Sends `msg` from `from` to `to`; delivery is scheduled on the
  /// simulator. Sending to an unattached node is an error.
  void send(NodeId from, NodeId to, BackhaulMessage msg);

  /// Marks a node's backhaul link up or down (all links start up). While
  /// down, sends from or to the node are dropped at send time, and messages
  /// already in flight toward it are dropped at delivery time — a cable cut
  /// loses what is on the wire. A pure map lookup: taking links down and up
  /// never consumes RNG draws, so fault-free runs stay bit-identical.
  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool node_up(NodeId node) const {
    return !down_nodes_.contains(node);
  }

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t messages_delayed() const { return delayed_; }
  /// Drops attributable to a FaultPlan (excluded from the uniform
  /// `loss_rate` drops, which `messages_dropped` also counts).
  [[nodiscard]] std::uint64_t fault_dropped() const { return fault_dropped_; }
  /// Drops attributable to a downed link (send-time and in-flight).
  [[nodiscard]] std::uint64_t link_dropped() const { return link_dropped_; }
  /// Messages that bypassed the FIFO clamp via FaultPlan::reorder_rate.
  [[nodiscard]] std::uint64_t messages_reordered() const { return reordered_; }
  /// Drops by the per-link byte-queue bound (link model only); also counted
  /// in messages_dropped.
  [[nodiscard]] std::uint64_t queue_drops() const { return queue_drops_; }
  /// Batches flushed / messages that rode in a batch (batching only).
  [[nodiscard]] std::uint64_t batches_flushed() const { return batches_flushed_; }
  [[nodiscard]] std::uint64_t messages_batched() const { return batched_msgs_; }
  /// Lifetime serialization-busy fraction of the busiest directed link
  /// (the `backhaul.link_utilization` gauge). 0 while the link model is off
  /// or no time has elapsed.
  [[nodiscard]] double max_link_utilization(Time now) const;

 private:
  /// Hashed directed-link key; indexes the FIFO watermark, the link
  /// serializer state, and the open batch.
  [[nodiscard]] static std::uint64_t flow_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(std::hash<NodeId>{}(from)) << 32) ^
           std::hash<NodeId>{}(to);
  }

  /// Schedules one delivery at >= `arrival`, clamped to the flow's FIFO
  /// unless `bypass_fifo` (a reorder-faulted message) is set.
  void deliver(NodeId from, NodeId to, BackhaulMessage msg, Time arrival,
               bool bypass_fifo = false);

  // Batching machinery.
  void flush_batch(std::uint64_t key);
  void flush_batch_if(std::uint64_t key, std::uint64_t gen);
  void deliver_batch_parked(std::uint32_t slot);

  /// In-flight message parked between send() and its delivery event. Kept in
  /// a free-listed slab so the scheduled callback captures only
  /// (this, slot index) — it stays within InlineCallback's inline buffer, and
  /// the steady state allocates nothing per message (DESIGN.md §8).
  struct PendingDelivery {
    NodeId from{};
    NodeId to{};
    BackhaulMessage msg;
  };
  std::uint32_t park(NodeId from, NodeId to, BackhaulMessage msg);
  void deliver_parked(std::uint32_t slot);

  /// One directed link's serializer state (link model only).
  struct LinkState {
    Time busy_until = Time::zero();   // virtual clock of the FIFO serializer
    std::uint64_t busy_ns = 0;        // lifetime serialization time
  };

  /// An open (not yet flushed) batch on one link.
  struct Batch {
    NodeId from{};
    NodeId to{};
    std::vector<BackhaulMessage> msgs;
    Time ready = Time::zero();  // latest serialization finish among members
    std::uint64_t gen = 0;      // stales the pending window-flush event
    bool open = false;
  };
  /// A flushed batch parked until its single delivery event.
  struct PendingBatch {
    NodeId from{};
    NodeId to{};
    std::vector<BackhaulMessage> msgs;
  };

  sim::Scheduler& sched_;
  Config config_;
  Rng rng_;
  std::unordered_map<NodeId, Handler> handlers_;
  std::vector<PendingDelivery> in_flight_;    // grows to the high-water mark
  std::vector<std::uint32_t> free_in_flight_;
  std::vector<PendingBatch> batch_in_flight_;
  std::vector<std::uint32_t> free_batch_in_flight_;
  // FIFO discipline per (src, dst): a switched-Ethernet path never reorders
  // packets of one flow, and the WGTT index stream depends on that.
  std::unordered_map<std::uint64_t, Time> last_delivery_;
  std::unordered_map<std::uint64_t, LinkState> links_;
  std::unordered_map<std::uint64_t, Batch> batches_;
  std::unordered_set<NodeId> down_nodes_;
  std::array<int, kNumMsgKinds> drop_first_remaining_{};
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t link_dropped_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t batches_flushed_ = 0;
  std::uint64_t batched_msgs_ = 0;
};

}  // namespace wgtt::net

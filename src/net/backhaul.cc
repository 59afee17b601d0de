#include "net/backhaul.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wgtt::net {

std::size_t wire_bytes(const BackhaulMessage& msg) {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DownlinkData>) {
          return m.tunnel_bytes;
        } else if constexpr (std::is_same_v<T, UplinkData>) {
          return m.packet.tunnel_bytes();
        } else if constexpr (std::is_same_v<T, CsiReport>) {
          // 56 subcarriers x 2 bytes + UDP/IP + metadata (paper §3.1.1).
          return 56 * 2 + 28 + 16;
        } else if constexpr (std::is_same_v<T, StopMsg>) {
          return 64;  // two L2 addresses + framing
        } else if constexpr (std::is_same_v<T, StartMsg>) {
          return 64;
        } else if constexpr (std::is_same_v<T, SwitchAck>) {
          return 64;
        } else if constexpr (std::is_same_v<T, BlockAckForward>) {
          return 28 + 2 + 8 + 14;  // UDP/IP + start seq + bitmap + addresses
        } else if constexpr (std::is_same_v<T, AssocSync>) {
          return 256;  // sta_info struct transfer
        } else if constexpr (std::is_same_v<T, Heartbeat>) {
          return 64;  // UDP/IP + seq + framing
        } else if constexpr (std::is_same_v<T, HeartbeatAck>) {
          return 64;
        } else if constexpr (std::is_same_v<T, CsiForward>) {
          // The inner report plus the forwarding header.
          return 56 * 2 + 28 + 16 + 8;
        } else if constexpr (std::is_same_v<T, UplinkForward>) {
          return m.data.packet.tunnel_bytes() + 8;
        } else if constexpr (std::is_same_v<T, DownlinkForward>) {
          return m.packet.tunnel_bytes() + 8;
        } else if constexpr (std::is_same_v<T, HandoverRequest>) {
          // Fixed state-transfer header plus the dedup-ring seed.
          return 96 + m.dedup_seed.size() * 4;
        } else if constexpr (std::is_same_v<T, HandoverAck>) {
          return 64;
        } else if constexpr (std::is_same_v<T, DomainHeartbeat>) {
          return 64;
        } else if constexpr (std::is_same_v<T, DomainHeartbeatAck>) {
          return 64;
        } else if constexpr (std::is_same_v<T, DomainSync>) {
          return 64 + m.entries.size() * 24;
        } else {
          static_assert(std::is_same_v<T, AdoptAp>);
          return 64;
        }
      },
      msg);
}

bool is_control(const BackhaulMessage& msg) {
  return std::holds_alternative<StopMsg>(msg) ||
         std::holds_alternative<StartMsg>(msg) ||
         std::holds_alternative<SwitchAck>(msg) ||
         std::holds_alternative<Heartbeat>(msg) ||
         std::holds_alternative<HeartbeatAck>(msg) ||
         std::holds_alternative<HandoverRequest>(msg) ||
         std::holds_alternative<HandoverAck>(msg) ||
         std::holds_alternative<DomainHeartbeat>(msg) ||
         std::holds_alternative<DomainHeartbeatAck>(msg) ||
         std::holds_alternative<DomainSync>(msg) ||
         std::holds_alternative<AdoptAp>(msg);
}

MsgKind kind_of(const BackhaulMessage& msg) {
  // The variant index IS the kind; a static_assert pins the correspondence.
  static_assert(std::variant_size_v<BackhaulMessage> == kNumMsgKinds);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kStop), BackhaulMessage>,
                StopMsg>);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kAssocSync),
                    BackhaulMessage>,
                AssocSync>);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kHeartbeatAck),
                    BackhaulMessage>,
                HeartbeatAck>);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kHandoverRequest),
                    BackhaulMessage>,
                HandoverRequest>);
  static_assert(std::is_same_v<std::variant_alternative_t<
                    static_cast<std::size_t>(MsgKind::kAdoptAp),
                    BackhaulMessage>,
                AdoptAp>);
  return static_cast<MsgKind>(msg.index());
}

Backhaul::Backhaul(sim::Scheduler& sched, const Config& config, Rng rng)
    : sched_(sched), config_(config), rng_(rng) {
  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    drop_first_remaining_[k] = config_.faults[k].drop_first;
  }
}

void Backhaul::attach(NodeId node, Handler handler) {
  handlers_[node] = std::move(handler);
}

void Backhaul::set_node_up(NodeId node, bool up) {
  if (up) {
    down_nodes_.erase(node);
  } else {
    down_nodes_.insert(node);
  }
}

double Backhaul::max_link_utilization(Time now) const {
  if (now <= Time::zero()) return 0.0;
  double best = 0.0;
  for (const auto& [key, link] : links_) {
    best = std::max(best, static_cast<double>(link.busy_ns) /
                              static_cast<double>(now.count_ns()));
  }
  return best;
}

void Backhaul::send(NodeId from, NodeId to, BackhaulMessage msg) {
  if (!handlers_.contains(to)) {
    throw std::logic_error("Backhaul::send to unattached node");
  }
  ++sent_;
  // Link-down drops happen before any RNG draw so that a run where no node
  // ever goes down consumes the identical draw sequence.
  if (!down_nodes_.empty() &&
      (down_nodes_.contains(from) || down_nodes_.contains(to))) {
    ++dropped_;
    ++link_dropped_;
    return;
  }
  if (rng_.chance(config_.loss_rate)) {
    ++dropped_;
    return;
  }
  const auto kind = static_cast<std::size_t>(kind_of(msg));
  const FaultPlan& plan = config_.faults[kind];
  if (drop_first_remaining_[kind] > 0) {
    --drop_first_remaining_[kind];
    ++dropped_;
    ++fault_dropped_;
    return;
  }
  // RNG draws are gated on nonzero knobs so an all-zero plan keeps seeded
  // runs bit-identical to a Backhaul built before fault injection existed.
  if (plan.loss_rate > 0.0 && rng_.chance(plan.loss_rate)) {
    ++dropped_;
    ++fault_dropped_;
    return;
  }

  // --- link admission (DESIGN.md §10; consumes no RNG draws) -----------
  // With link_rate_mbps == 0 this reduces exactly to the legacy formula:
  // serialization at line rate, no queueing, no drops.
  const std::uint64_t key = flow_key(from, to);
  const auto bytes = static_cast<double>(wire_bytes(msg));
  Time queue_wait = Time::zero();
  double ser_us;
  if (config_.link_rate_mbps > 0.0) {
    LinkState& link = links_[key];
    const Time now = sched_.now();
    const Time backlog =
        link.busy_until > now ? link.busy_until - now : Time::zero();
    // The queue bound is enforced analytically: pending bytes are the
    // backlog interval times the drain rate, so no per-byte bookkeeping
    // (and no extra events) is needed.
    const double backlog_bytes = static_cast<double>(backlog.count_ns()) *
                                 config_.link_rate_mbps / 8000.0;
    if (backlog_bytes + bytes > static_cast<double>(config_.link_queue_bytes)) {
      ++dropped_;
      ++queue_drops_;
      return;
    }
    ser_us = bytes * 8.0 / config_.link_rate_mbps;
    const Time ser = Time::micros(ser_us);
    queue_wait = backlog;
    link.busy_until = now + backlog + ser;
    link.busy_ns += static_cast<std::uint64_t>(ser.count_ns());
  } else {
    ser_us = bytes * 8.0 / config_.line_rate_mbps;
  }

  if (config_.batching) {
    if (std::holds_alternative<DownlinkData>(msg)) {
      // Fault draws still happen per message at send time, so batching
      // changes scheduling only, never which messages fault. A faulted
      // message cannot ride a batch (its latency differs from its
      // batchmates'), so it flushes the open batch — earlier sends deliver
      // first — and takes the per-message path below.
      Time extra = Time::zero();
      bool faulted = false;
      bool reorder = false;
      if (plan.delay_rate > 0.0 && plan.delay_max > Time::zero() &&
          rng_.chance(plan.delay_rate)) {
        faulted = true;
        ++delayed_;
        extra += Time::ns(static_cast<std::int64_t>(
            rng_.uniform() * static_cast<double>(plan.delay_max.count_ns())));
      }
      if (plan.reorder_rate > 0.0 && plan.reorder_max > Time::zero() &&
          rng_.chance(plan.reorder_rate)) {
        faulted = true;
        reorder = true;
        ++reordered_;
        extra += Time::ns(static_cast<std::int64_t>(
            rng_.uniform() * static_cast<double>(plan.reorder_max.count_ns())));
      }
      const bool duplicate = plan.dup_rate > 0.0 && rng_.chance(plan.dup_rate);
      if (!faulted && !duplicate) {
        const Time ser_done = sched_.now() + queue_wait + Time::micros(ser_us);
        Batch& b = batches_[key];
        if (!b.open) {
          b.open = true;
          b.from = from;
          b.to = to;
          b.msgs.clear();
          b.ready = ser_done;
          const std::uint64_t gen = ++b.gen;
          sched_.schedule_at(
              sched_.now() + config_.batch_window,
              [this, key, gen] { flush_batch_if(key, gen); },
              sim::EventCategory::kBackhaul);
        }
        b.msgs.push_back(std::move(msg));
        if (ser_done > b.ready) b.ready = ser_done;
        ++batched_msgs_;
        if (b.msgs.size() >= config_.batch_max_msgs) flush_batch(key);
        return;
      }
      flush_batch(key);
      Time latency =
          queue_wait + config_.switch_overhead + Time::micros(ser_us) + extra;
      if (config_.jitter_max > Time::zero()) {
        latency += Time::ns(static_cast<std::int64_t>(
            rng_.uniform() *
            static_cast<double>(config_.jitter_max.count_ns())));
      }
      const Time arrival = sched_.now() + latency;
      if (duplicate) {
        ++duplicated_;
        BackhaulMessage copy = msg;
        deliver(from, to, std::move(msg), arrival, reorder);
        deliver(from, to, std::move(copy), arrival + config_.switch_overhead,
                reorder);
      } else {
        deliver(from, to, std::move(msg), arrival, reorder);
      }
      return;
    }
    // Non-batchable traffic (control, uplink) on this link empties the open
    // batch first: a stop/start must never overtake data queued before it.
    flush_batch(key);
  }

  Time latency = config_.switch_overhead + Time::micros(ser_us) + queue_wait;
  if (config_.jitter_max > Time::zero()) {
    latency += Time::ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(config_.jitter_max.count_ns())));
  }
  if (plan.delay_rate > 0.0 && plan.delay_max > Time::zero() &&
      rng_.chance(plan.delay_rate)) {
    ++delayed_;
    latency += Time::ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(plan.delay_max.count_ns())));
  }
  // A reordered message takes an extra delay and skips the FIFO clamp in
  // deliver(): it neither waits for earlier messages nor holds back later
  // ones, so the flow genuinely reorders around it.
  bool reorder = false;
  if (plan.reorder_rate > 0.0 && plan.reorder_max > Time::zero() &&
      rng_.chance(plan.reorder_rate)) {
    reorder = true;
    ++reordered_;
    latency += Time::ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(plan.reorder_max.count_ns())));
  }
  const bool duplicate = plan.dup_rate > 0.0 && rng_.chance(plan.dup_rate);
  const Time arrival = sched_.now() + latency;
  if (duplicate) {
    ++duplicated_;
    BackhaulMessage copy = msg;
    deliver(from, to, std::move(msg), arrival, reorder);
    // The copy trails the original; the FIFO clamp in deliver() keeps it
    // behind both the original and anything sent meanwhile.
    deliver(from, to, std::move(copy), arrival + config_.switch_overhead,
            reorder);
  } else {
    deliver(from, to, std::move(msg), arrival, reorder);
  }
}

void Backhaul::deliver(NodeId from, NodeId to, BackhaulMessage msg,
                       Time arrival, bool bypass_fifo) {
  // Enforce per-(src,dst) FIFO: neither jitter nor injected delay may
  // reorder a flow (a delayed message stalls everything behind it). A
  // reorder-faulted message skips both the clamp and the watermark update,
  // so messages sent after it can overtake it.
  if (!bypass_fifo) {
    auto [it, inserted] = last_delivery_.try_emplace(flow_key(from, to), arrival);
    if (!inserted) {
      if (arrival <= it->second) arrival = it->second + Time::ns(1);
      it->second = arrival;
    }
  }
  // Park the message in the slab and schedule a 16-byte (this, slot)
  // trampoline: the message body never rides inside the callback, so the
  // event stays in InlineCallback's inline buffer.
  const std::uint32_t slot = park(from, to, std::move(msg));
  sched_.schedule_at(arrival, [this, slot] { deliver_parked(slot); },
                     sim::EventCategory::kBackhaul);
}

void Backhaul::flush_batch(std::uint64_t key) {
  const auto it = batches_.find(key);
  if (it == batches_.end() || !it->second.open) return;
  Batch& b = it->second;
  b.open = false;
  ++b.gen;  // stales the pending window-flush event
  ++batches_flushed_;
  // One serialization tail + one switch crossing + one jitter draw for the
  // whole batch: the coalesced deliveries share a wire departure.
  Time arrival = std::max(sched_.now(), b.ready) + config_.switch_overhead;
  if (config_.jitter_max > Time::zero()) {
    arrival += Time::ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(config_.jitter_max.count_ns())));
  }
  // The batch clamps against the same per-flow watermark single deliveries
  // use, so batched and unbatched traffic of one flow share one FIFO.
  auto [w, inserted] = last_delivery_.try_emplace(key, arrival);
  if (!inserted) {
    if (arrival <= w->second) arrival = w->second + Time::ns(1);
    w->second = arrival;
  }
  std::uint32_t slot;
  if (free_batch_in_flight_.empty()) {
    batch_in_flight_.push_back(PendingBatch{b.from, b.to, std::move(b.msgs)});
    slot = static_cast<std::uint32_t>(batch_in_flight_.size() - 1);
  } else {
    slot = free_batch_in_flight_.back();
    free_batch_in_flight_.pop_back();
    batch_in_flight_[slot] = PendingBatch{b.from, b.to, std::move(b.msgs)};
  }
  b.msgs = {};
  sched_.schedule_at(arrival, [this, slot] { deliver_batch_parked(slot); },
                     sim::EventCategory::kBackhaul);
}

void Backhaul::flush_batch_if(std::uint64_t key, std::uint64_t gen) {
  const auto it = batches_.find(key);
  if (it != batches_.end() && it->second.open && it->second.gen == gen) {
    flush_batch(key);
  }
}

std::uint32_t Backhaul::park(NodeId from, NodeId to, BackhaulMessage msg) {
  if (free_in_flight_.empty()) {
    in_flight_.push_back(PendingDelivery{from, to, std::move(msg)});
    return static_cast<std::uint32_t>(in_flight_.size() - 1);
  }
  const std::uint32_t slot = free_in_flight_.back();
  free_in_flight_.pop_back();
  in_flight_[slot] = PendingDelivery{from, to, std::move(msg)};
  return slot;
}

void Backhaul::deliver_parked(std::uint32_t slot) {
  // Move everything out and recycle the slot before invoking: the handler
  // may send() reentrantly, which can grow in_flight_.
  PendingDelivery d = std::move(in_flight_[slot]);
  free_in_flight_.push_back(slot);
  // A message in flight toward a node whose link went down meanwhile is
  // lost with the cable.
  if (!down_nodes_.empty() && down_nodes_.contains(d.to)) {
    ++dropped_;
    ++link_dropped_;
    return;
  }
  // Handler looked up at delivery time: attach order vs send order must
  // not matter, and a handler may be replaced mid-run.
  auto it = handlers_.find(d.to);
  if (it != handlers_.end()) it->second(d.from, std::move(d.msg));
}

void Backhaul::deliver_batch_parked(std::uint32_t slot) {
  PendingBatch b = std::move(batch_in_flight_[slot]);
  free_batch_in_flight_.push_back(slot);
  if (!down_nodes_.empty() && down_nodes_.contains(b.to)) {
    // The cable cut loses the whole batch on the wire.
    dropped_ += b.msgs.size();
    link_dropped_ += b.msgs.size();
    return;
  }
  const auto it = handlers_.find(b.to);
  if (it == handlers_.end()) return;
  // One event, many messages: invoked in send order so the receiver sees
  // exactly the per-message sequence, just on one timestamp.
  for (BackhaulMessage& m : b.msgs) it->second(b.from, std::move(m));
}

}  // namespace wgtt::net

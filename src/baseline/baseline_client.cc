#include "baseline/baseline_client.h"

#include "phy/rate_control.h"

namespace wgtt::baseline {

BaselineClient::BaselineClient(net::ClientId id, sim::Scheduler& sched,
                               mac::Medium& medium, Rng rng, Config config,
                               const mobility::Trajectory* trajectory)
    : id_(id),
      sched_(sched),
      config_(config),
      trajectory_(trajectory),
      mac_(sched, medium, rng.fork(), config.mac) {
  radio_ = mac_.attach([this] { return trajectory_->position(sched_.now()); });
  mac_.on_deliver = [this](mac::RadioId, const net::Packet& p) {
    if (on_downlink) on_downlink(p);
  };
  mac_.on_heard = [this](const mac::Frame& f, bool,
                         const channel::CsiMeasurement& csi) {
    on_heard(f, csi);
  };
  mac_.on_mgmt = [this](mac::RadioId from, mac::MgmtFrame f) {
    if (f.kind == mac::MgmtFrame::Kind::kAssocResp) on_assoc_resp(from);
  };
  assoc_timer_ = std::make_unique<sim::Timer>(sched_, [this] {
    if (!assoc_target_) return;
    if (assoc_tries_ >= config_.assoc_max_retries) {
      // Handover failed (the Figure 4a outcome at speed): blacklist the
      // target briefly and fall back to scanning.
      ++stats_.handovers_failed;
      aps_[*assoc_target_].blacklist_until = sched_.now() + Time::ms(500);
      assoc_target_.reset();
      return;
    }
    send_assoc_req();
  });
  eval_timer_ = std::make_unique<sim::Timer>(sched_, [this] {
    evaluate();
    eval_timer_->start(config_.evaluation_period);
  });
}

void BaselineClient::start() { eval_timer_->start(config_.evaluation_period); }

void BaselineClient::send_uplink(net::Packet packet) {
  if (!serving_) return;  // no association, no uplink (packet lost)
  packet.client = id_;
  packet.downlink = false;
  packet.ip_id = next_ip_id_++;
  if (packet.created == Time::zero()) packet.created = sched_.now();
  mac_.enqueue(*serving_, std::move(packet));
}

void BaselineClient::on_heard(const mac::Frame& frame,
                              const channel::CsiMeasurement& csi) {
  if (!std::holds_alternative<mac::BeaconFrame>(frame.body)) return;
  auto [it, inserted] =
      aps_.try_emplace(frame.from, ApRecord{Ewma{config_.rssi_ewma_alpha},
                                            Time::zero(), Time::max(),
                                            Time::zero()});
  ApRecord& rec = it->second;
  rec.rssi.add(csi.rssi_dbm);
  rec.last_beacon = sched_.now();
  // Track how long this AP has been below the switching threshold (stock
  // 802.11r's slow decision history).
  if (rec.rssi.value() < config_.rssi_threshold_dbm) {
    if (rec.below_threshold_since == Time::max()) {
      rec.below_threshold_since = sched_.now();
    }
  } else {
    rec.below_threshold_since = Time::max();
  }
}

std::optional<mac::RadioId> BaselineClient::best_candidate() const {
  std::optional<mac::RadioId> best;
  double best_rssi = -1e9;
  const Time now = sched_.now();
  for (const auto& [radio, rec] : aps_) {
    if (now - rec.last_beacon > config_.beacon_staleness) continue;
    if (rec.blacklist_until > now) continue;
    if (!rec.rssi.initialized()) continue;
    if (rec.rssi.value() > best_rssi) {
      best_rssi = rec.rssi.value();
      best = radio;
    }
  }
  return best;
}

void BaselineClient::evaluate() {
  if (assoc_target_) return;  // association attempt in flight

  const auto best = best_candidate();
  if (!best) return;

  if (!serving_) {
    begin_association(*best);
    return;
  }
  if (*best == *serving_) return;
  if (sched_.now() - last_switch_ < config_.min_switch_interval) return;

  const auto cur = aps_.find(*serving_);
  if (cur == aps_.end()) return;

  // The current AP's RSSI must have been below threshold for the whole
  // hysteresis window (or its beacons must have vanished entirely) before
  // the client decides to move — the paper's item (2).
  const bool beacons_gone =
      sched_.now() - cur->second.last_beacon > config_.beacon_staleness;
  if (!beacons_gone) {
    if (cur->second.below_threshold_since == Time::max()) return;
    if (sched_.now() - cur->second.below_threshold_since <
        config_.below_threshold_persistence) {
      return;
    }
  }
  begin_association(*best);
}

void BaselineClient::begin_association(mac::RadioId target) {
  assoc_target_ = target;
  assoc_tries_ = 0;
  ++stats_.handovers_attempted;
  send_assoc_req();
}

void BaselineClient::send_assoc_req() {
  if (!assoc_target_) return;
  ++assoc_tries_;
  ++stats_.assoc_req_sent;
  mac_.send_mgmt(*assoc_target_, mac::MgmtFrame{mac::MgmtFrame::Kind::kAssocReq});
  assoc_timer_->start(config_.assoc_retry_timeout);
}

void BaselineClient::on_assoc_resp(mac::RadioId from) {
  if (!assoc_target_ || from != *assoc_target_) return;
  assoc_timer_->cancel();
  assoc_target_.reset();
  // Make-before-break: the old association simply lapses.
  if (serving_ && *serving_ != from) {
    mac_.flush_peer(*serving_);
    mac_.remove_peer(*serving_);
  }
  if (!mac_.has_peer(from)) {
    mac_.add_peer(from);
    mac_.set_rate_controller(from, std::make_unique<phy::MinstrelLite>(
                                       phy::MinstrelLite::Config{},
                                       Rng{static_cast<std::uint64_t>(
                                           sched_.now().count_ns() + 17)}));
  }
  serving_ = from;
  last_switch_ = sched_.now();
  ++stats_.handovers_completed;
  if (on_associated) on_associated(from, sched_.now());
}

}  // namespace wgtt::baseline

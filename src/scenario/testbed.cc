#include "scenario/testbed.h"

#include <stdexcept>

#include "phy/esnr.h"

namespace wgtt::scenario {

TestbedGeometry::TestbedGeometry(const GeometryConfig& config)
    : config_(config), rng_(config.seed) {
  if (config.num_aps <= 0) throw std::invalid_argument("need at least one AP");
  installs_.reserve(static_cast<std::size_t>(config.num_aps));
  for (int i = 0; i < config.num_aps; ++i) {
    ApInstall inst;
    inst.aim_offset_m = rng_.normal(0.0, config.aim_jitter_m);
    inst.gain_delta_db = rng_.normal(0.0, config.gain_jitter_db);
    installs_.push_back(inst);
  }
}

channel::Vec2 TestbedGeometry::ap_position(int ap) const {
  return {ap * config_.ap_spacing_m, config_.ap_setback_m};
}

std::unique_ptr<channel::LinkChannel> TestbedGeometry::make_link(
    int ap, Rng& rng) const {
  const channel::Vec2 pos = ap_position(ap);
  const ApInstall& inst = installs_[static_cast<std::size_t>(ap)];
  const channel::Vec2 target{pos.x + inst.aim_offset_m,
                             config_.boresight_lane_y};
  channel::LinkChannel::Config link_cfg = config_.link;
  link_cfg.budget.ap_antenna_peak_dbi += inst.gain_delta_db;
  return std::make_unique<channel::LinkChannel>(pos, target, link_cfg, rng);
}

std::uint64_t TestbedGeometry::link_seed(int ap, int client) const {
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(client)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(ap));
  // splitmix64 over (seed ^ golden-ratio-spread pair): decorrelates
  // neighbouring (ap, client) pairs.
  std::uint64_t z = config_.seed ^ (pair * 0x9e3779b97f4a7c15ULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int TestbedGeometry::add_client(const mobility::Trajectory* trajectory) {
  const int idx = static_cast<int>(clients_.size());
  clients_.push_back(trajectory);
  auto& row = channels_.emplace_back();
  if (config_.lazy_links) {
    // Null slots; link() materialises each one on first use from its own
    // (seed, ap, client)-derived RNG.
    row.resize(static_cast<std::size_t>(config_.num_aps));
    return idx;
  }
  row.reserve(static_cast<std::size_t>(config_.num_aps));
  for (int ap = 0; ap < config_.num_aps; ++ap) {
    row.push_back(make_link(ap, rng_));
  }
  return idx;
}

const channel::LinkChannel& TestbedGeometry::link(int ap, int client) const {
  auto& slot = channels_.at(static_cast<std::size_t>(client))
                   .at(static_cast<std::size_t>(ap));
  if (slot == nullptr) {
    Rng rng(link_seed(ap, client));
    slot = make_link(ap, rng);
  }
  return *slot;
}

channel::Vec2 TestbedGeometry::client_position(int client, Time now) const {
  return clients_.at(static_cast<std::size_t>(client))->position(now);
}

const mobility::Trajectory& TestbedGeometry::trajectory(int client) const {
  return *clients_.at(static_cast<std::size_t>(client));
}

double TestbedGeometry::esnr_db(int ap, int client, Time now) const {
  const auto m = link(ap, client).measure(client_position(client, now), now);
  return phy::esnr_metric_db(m.subcarrier_snr_db);
}

int TestbedGeometry::optimal_ap(int client, Time now) const {
  int best = 0;
  double best_esnr = -1e9;
  for (int ap = 0; ap < config_.num_aps; ++ap) {
    const double e = esnr_db(ap, client, now);
    if (e > best_esnr) {
      best_esnr = e;
      best = ap;
    }
  }
  return best;
}

channel::CsiMeasurement TestbedGeometry::sample(std::optional<LinkIndex> l,
                                                Time now) const {
  if (l) return link(l->ap, l->client).measure(client_position(l->client, now), now);
  channel::CsiMeasurement m;
  m.when = now;
  m.subcarrier_snr_db.fill(0.0);
  m.rssi_dbm = -94.0;
  m.mean_snr_db = 0.0;
  return m;
}

double TestbedGeometry::snr_ceiling_db(std::optional<LinkIndex> l,
                                       Time now) const {
  return l ? link(l->ap, l->client).snr_ceiling_db(client_position(l->client, now))
           : 0.0;
}

double TestbedGeometry::large_scale_snr_db(int ap, channel::Vec2 at) const {
  if (channels_.empty()) {
    throw std::logic_error("add a client before sampling the heatmap");
  }
  return link(ap, 0).large_scale_snr_db(at);
}

}  // namespace wgtt::scenario

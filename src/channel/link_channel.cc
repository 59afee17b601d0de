#include "channel/link_channel.h"

#include <algorithm>
#include <cmath>

namespace wgtt::channel {

namespace {
/// measure()'s per-subcarrier fade floor (-40 dB), linear power.
constexpr double kFadeFloor = 1e-4;
/// Covers the rounding in measure()'s power and dB arithmetic: one tap with
/// one sinusoid can line up with the LoS and meet the bound to within
/// rounding (seen 4e-14 dB from it).
constexpr double kCeilingSlackDb = 1e-6;
}  // namespace

LinkChannel::LinkChannel(Vec2 ap_position, Vec2 boresight_target,
                         const Config& config, Rng& rng)
    : ap_position_(ap_position),
      config_(config),
      ap_antenna_(config.budget.ap_antenna_peak_dbi,
                  config.budget.ap_beamwidth_deg,
                  angle_of(boresight_target - ap_position)),
      pathloss_(config.pathloss_exponent),
      shadowing_(config.shadowing_sigma_db, config.shadowing_decorrelation_m,
                 rng.next_u64()),
      fading_(config.fading, rng),
      fade_ceiling_db_(std::max(20.0 * std::log10(fading_.peak_magnitude()),
                                to_db(kFadeFloor)) +
                       kCeilingSlackDb) {}

double LinkChannel::large_scale_rx_dbm(Vec2 client_pos) const {
  const auto& b = config_.budget;
  const double d = distance(ap_position_, client_pos);
  return b.tx_power_dbm + ap_antenna_.gain_toward(ap_position_, client_pos) +
         b.client_antenna_dbi - b.system_loss_db - pathloss_.loss_db(d) +
         shadowing_.sample_db(client_pos);
}

double LinkChannel::large_scale_snr_db(Vec2 client_pos) const {
  return large_scale_rx_dbm(client_pos) - config_.budget.noise_floor_dbm;
}

CsiMeasurement LinkChannel::measure(Vec2 client_pos, Time t) const {
  const double rx_dbm = large_scale_rx_dbm(client_pos);
  const CsiSnapshot snap = fading_.csi(client_pos, t);

  CsiMeasurement m;
  m.when = t;
  const double base_snr_db = rx_dbm - config_.budget.noise_floor_dbm;
  double mean_power = 0.0;
  double mean_snr_lin = 0.0;
  for (std::size_t i = 0; i < snap.gains.size(); ++i) {
    const double p = std::norm(snap.gains[i]);
    mean_power += p;
    // Floor the per-subcarrier fade at -40 dB to keep the dB math finite in
    // a deep null.
    const double snr_db = base_snr_db + to_db(std::max(p, kFadeFloor));
    m.subcarrier_snr_db[i] = snr_db;
    mean_snr_lin += from_db(snr_db);
  }
  mean_power /= static_cast<double>(snap.gains.size());
  m.rssi_dbm = rx_dbm + to_db(std::max(mean_power, kFadeFloor));
  m.mean_snr_db = to_db(mean_snr_lin / static_cast<double>(snap.gains.size()));
  return m;
}

}  // namespace wgtt::channel

// LinkChannel: the complete radio channel between one AP and one client,
// combining the link budget (tx power, antenna patterns, cable/splitter
// losses), log-distance path loss, shadowing, and the frequency-selective
// fast-fading field. Channel reciprocity is assumed within a coherence time
// (as the paper does: downlink delivery is predicted from uplink CSI), so
// one LinkChannel serves both directions.
//
// measure() is const/pure: the channel at (position, time) is a fixed
// realization, so protocol code and ground-truth measurement code can both
// sample it without disturbing each other.
#pragma once

#include <array>

#include "channel/antenna.h"
#include "channel/fading.h"
#include "channel/geometry.h"
#include "channel/pathloss.h"
#include "util/rng.h"
#include "util/units.h"

namespace wgtt::channel {

/// Fixed gains/losses on the AP-client link.
struct LinkBudget {
  double tx_power_dbm = 18.0;         // TP-Link N750 class
  double ap_antenna_peak_dbi = 14.0;  // Laird parabolic
  double ap_beamwidth_deg = 21.0;
  double client_antenna_dbi = 0.0;
  /// Splitter (~5 dB for the 3-way Mini-Circuits combiner), cables, vehicle
  /// body penetration. Folded into one implementation-loss number.
  double system_loss_db = 23.0;
  double noise_floor_dbm = -94.0;  // kTB over 20 MHz + 7 dB noise figure
};

/// What an AP's NIC reports for one received frame: per-subcarrier SNR plus
/// the scalar RSSI legacy systems (the Enhanced 802.11r baseline) use.
///
/// The SNR vector is a fixed-size array (the subcarrier count is a PHY
/// constant): measure() allocates nothing per frame, and a measurement can
/// be copied into a CsiReport backhaul message as one flat memcpy-able
/// block (DESIGN.md §8).
struct CsiMeasurement {
  Time when;
  std::array<double, kNumSubcarriers> subcarrier_snr_db{};
  double rssi_dbm = 0.0;
  double mean_snr_db = 0.0;
};

class LinkChannel {
 public:
  struct Config {
    LinkBudget budget{};
    double pathloss_exponent = 2.9;
    double shadowing_sigma_db = 2.5;
    double shadowing_decorrelation_m = 8.0;
    TappedDelayChannel::Config fading{};
  };

  /// `boresight_target`: road point the AP's dish is aimed at.
  LinkChannel(Vec2 ap_position, Vec2 boresight_target, const Config& config,
              Rng& rng);

  /// Full CSI measurement for a frame heard at time t with the client at
  /// `client_pos` (either direction, by reciprocity).
  [[nodiscard]] CsiMeasurement measure(Vec2 client_pos, Time t) const;

  /// Mean received power over fading (large-scale only), dBm. This is what
  /// a long RSSI average converges to.
  [[nodiscard]] double large_scale_rx_dbm(Vec2 client_pos) const;

  /// Mean SNR over fading, dB (large-scale only).
  [[nodiscard]] double large_scale_snr_db(Vec2 client_pos) const;

  /// Upper bound on every subcarrier SNR measure(client_pos, t) can report,
  /// at any t: large-scale SNR plus the fade ceiling, a per-link constant
  /// (DESIGN.md §14). Costs a large-scale evaluation, no CSI synthesis.
  [[nodiscard]] double snr_ceiling_db(Vec2 client_pos) const {
    return large_scale_snr_db(client_pos) + fade_ceiling_db_;
  }

  [[nodiscard]] Vec2 ap_position() const { return ap_position_; }
  [[nodiscard]] const LinkBudget& budget() const { return config_.budget; }

 private:
  Vec2 ap_position_;
  Config config_;
  ParabolicAntenna ap_antenna_;
  LogDistancePathLoss pathloss_;
  ShadowField shadowing_;
  TappedDelayChannel fading_;
  /// max(20 log10 of the fading's peak magnitude, measure()'s -40 dB fade
  /// floor) plus rounding slack.
  double fade_ceiling_db_ = 0.0;
};

}  // namespace wgtt::channel

#include "phy/rate_control.h"

#include <algorithm>
#include <array>

namespace wgtt::phy {

MinstrelLite::MinstrelLite(const Config& config, Rng rng)
    : config_(config), rng_(rng) {
  success_.fill(config_.initial_success);
}

Mcs MinstrelLite::select() {
  if (rng_.chance(config_.sample_fraction)) {
    return static_cast<Mcs>(rng_.uniform_int(kNumMcs));
  }
  double best_tput = -1.0;
  Mcs best = Mcs::kMcs0;
  for (const auto& info : all_mcs()) {
    const double tput =
        info.data_rate_mbps * success_[static_cast<std::size_t>(info.index)];
    if (tput > best_tput) {
      best_tput = tput;
      best = info.index;
    }
  }
  return best;
}

void MinstrelLite::report(Mcs used, int attempted, int delivered) {
  if (attempted <= 0) return;
  const double rate = static_cast<double>(delivered) / attempted;
  double& s = success_[static_cast<std::size_t>(used)];
  s = config_.ewma_alpha * rate + (1.0 - config_.ewma_alpha) * s;
}

double MinstrelLite::success_estimate(Mcs mcs) const {
  return success_[static_cast<std::size_t>(mcs)];
}

EsnrRateSelector::EsnrRateSelector(std::size_t reference_mpdu_bytes,
                                   double margin_db)
    : reference_bytes_(reference_mpdu_bytes), margin_db_(margin_db) {}

Mcs EsnrRateSelector::select() { return current_; }

void EsnrRateSelector::report(Mcs used, int attempted, int delivered) {
  if (attempted <= 0) return;
  // Track recent failure rate to add margin when CSI is stale: if the last
  // few aggregates mostly failed, retreat one MCS until fresh CSI arrives.
  failure_backoff_.add(1.0 - static_cast<double>(delivered) / attempted);
  if (failure_backoff_.value() > 0.6 && used == current_ &&
      current_ != Mcs::kMcs0) {
    current_ = static_cast<Mcs>(static_cast<int>(current_) - 1);
  }
}

void EsnrRateSelector::observe_csi(std::span<const double> subcarrier_snr_db) {
  // Derate the CSI by the staleness margin, then pick the expected-goodput
  // maximizer. CSI is at most kNumSubcarriers wide, so the derated copy
  // lives in fixed scratch — this runs per received frame and must not
  // allocate.
  std::array<double, kNumSubcarriers> scratch;
  const std::size_t n = std::min(subcarrier_snr_db.size(), scratch.size());
  for (std::size_t i = 0; i < n; ++i) {
    scratch[i] = subcarrier_snr_db[i] - margin_db_;
  }
  const std::span<const double> derated(scratch.data(), n);
  // The table lists MCSs grouped by modulation, and an MCS's ESNR depends
  // only on its modulation: evaluate it once per group (4 times, not 8).
  Modulation esnr_modulation = all_mcs().front().modulation;
  double esnr_db = effective_snr_db(derated, esnr_modulation);
  double best_goodput = -1.0;
  Mcs best = Mcs::kMcs0;
  for (const auto& info : all_mcs()) {
    if (info.modulation != esnr_modulation) {
      esnr_modulation = info.modulation;
      esnr_db = effective_snr_db(derated, esnr_modulation);
    }
    const double g =
        info.data_rate_mbps *
        mpdu_delivery_probability(esnr_db, info.index, reference_bytes_);
    if (g > best_goodput) {
      best_goodput = g;
      best = info.index;
    }
  }
  current_ = best;
  failure_backoff_.reset();
}

}  // namespace wgtt::phy

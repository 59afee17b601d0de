// Transmit rate control. The testbed keeps the NIC's default controller
// (paper §4: "without modification of the default rate control algorithm"),
// a Minstrel-style statistics sampler; we provide that, plus a CSI-driven
// selector used for ablations ("better packet switching decisions, instead
// of physical-layer bit rate adaptation, are responsible for most of
// WGTT's gain" — Table 2 discussion).
#pragma once

#include <array>
#include <span>

#include "phy/esnr.h"
#include "phy/mcs.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace wgtt::phy {

class RateController {
 public:
  virtual ~RateController() = default;

  /// Rate for the next transmission attempt.
  [[nodiscard]] virtual Mcs select() = 0;

  /// Feedback from the MAC: `delivered` of `attempted` MPDUs at `used` got
  /// through (from the block-ACK bitmap).
  virtual void report(Mcs used, int attempted, int delivered) = 0;

  /// Fresh CSI observed on the client's uplink. Samplers ignore it, so the
  /// default does nothing.
  virtual void observe_csi(std::span<const double> /*subcarrier_snr_db*/) {}

  /// Whether observe_csi reads its argument. The MAC draws CSI before a
  /// transmission only for controllers that do.
  [[nodiscard]] virtual bool uses_csi() const { return false; }
};

/// Minstrel-flavoured sampler: EWMA per-rate success probability, pick the
/// best expected-throughput rate, and spend a fraction of frames probing
/// other rates.
class MinstrelLite final : public RateController {
 public:
  struct Config {
    /// Stock Minstrel refreshes statistics on a 100 ms interval; per-frame
    /// EWMA with a small alpha approximates that sluggishness.
    double ewma_alpha = 0.12;
    double sample_fraction = 0.1;
    double initial_success = 0.5;
  };

  MinstrelLite(const Config& config, Rng rng);

  [[nodiscard]] Mcs select() override;
  void report(Mcs used, int attempted, int delivered) override;

  [[nodiscard]] double success_estimate(Mcs mcs) const;

 private:
  Config config_;
  Rng rng_;
  std::array<double, kNumMcs> success_{};
};

/// ESNR-driven selector: chooses the highest MCS whose expected goodput for
/// the latest CSI is maximal. Models what a CSI-capable AP can do, and is
/// the selector used by the WGTT APs (they have per-frame CSI anyway).
class EsnrRateSelector final : public RateController {
 public:
  /// margin_db derates the observed ESNR before selection: CSI is a few
  /// milliseconds stale by the time the A-MPDU airs, which at vehicular
  /// speed is a coherence time. 2-3 dB absorbs typical decorrelation.
  explicit EsnrRateSelector(std::size_t reference_mpdu_bytes = 1500,
                            double margin_db = 2.5);

  [[nodiscard]] Mcs select() override;
  void report(Mcs used, int attempted, int delivered) override;
  void observe_csi(std::span<const double> subcarrier_snr_db) override;
  [[nodiscard]] bool uses_csi() const override { return true; }

 private:
  std::size_t reference_bytes_;
  double margin_db_;
  Mcs current_ = Mcs::kMcs0;
  Ewma failure_backoff_{0.3};
};

}  // namespace wgtt::phy

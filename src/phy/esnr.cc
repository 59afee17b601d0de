#include "phy/esnr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/units.h"

namespace wgtt::phy {

namespace {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

/// The x with Q(x) = p, for p in (0, 0.5]: Acklam's rational approximation
/// of the normal quantile (relative error < 1.2e-9), refined by one Halley
/// step on q_function itself, so the result inverts the same erfc that
/// bit_error_rate evaluates.
double q_inverse(double p) {
  const double sqrt_2pi = std::sqrt(2.0 * std::numbers::pi);
  if (p >= 0.02425) {
    const double q = p - 0.5;
    const double r = q * q;
    const double x =
        -(((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r -
             2.759285104469687e+02) * r + 1.383577518672690e+02) * r -
           3.066479806614716e+01) * r + 2.506628277459239e+00) * q /
        (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r -
            1.556989798598866e+02) * r + 6.680131188771972e+01) * r -
          1.328068155288572e+01) * r + 1.0);
    // Halley: u = (Q(x) - p) / phi(x), x += u / (1 - x u / 2).
    const double u = (q_function(x) - p) * sqrt_2pi * std::exp(0.5 * x * x);
    return x + u / (1.0 - 0.5 * x * u);
  }
  const double log_p = std::log(p);
  const double q = std::sqrt(-2.0 * log_p);
  const double x =
      -(((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q -
           2.400758277161838e+00) * q - 2.549732539343734e+00) * q +
         4.374664141464968e+00) * q + 2.938163982698783e+00) /
      ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q +
         2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1.0);
  // Same step, but exp(x^2 / 2) overflows once p is subnormal, so form
  // p / phi(x) = sqrt(2 pi) exp(log p + x^2 / 2) from the bounded exponent.
  const double u = (q_function(x) / p - 1.0) * sqrt_2pi *
                   std::exp(log_p + 0.5 * x * x);
  return x + u / (1.0 - 0.5 * x * u);
}

/// Each modulation's uncoded BER over AWGN is scale * Q(sqrt(g / k)) at
/// linear SNR g. The square QAMs use the Gray-coded nearest-neighbour
/// approximation.
struct BerModel {
  double scale;
  double k;
};

constexpr std::array<BerModel, 4> kBerModels = {{
    {1.0, 0.5},          // BPSK: Q(sqrt(2 g))
    {1.0, 1.0},          // QPSK: Q(sqrt(g))
    {0.75, 5.0},         // 16-QAM
    {7.0 / 12.0, 21.0},  // 64-QAM
}};

const BerModel& ber_model(Modulation m) {
  return kBerModels.at(static_cast<std::size_t>(m));
}

}  // namespace

double bit_error_rate(Modulation m, double snr_linear) {
  const BerModel& model = ber_model(m);
  const double g = std::max(snr_linear, 0.0);
  return model.scale * q_function(std::sqrt(g / model.k));
}

double snr_for_ber(Modulation m, double ber) {
  if (!(ber > 0.0)) throw std::invalid_argument("ber must be positive");
  const double target = std::min(ber, 0.5);
  // The inverse is clamped to a generous range (-30 dB .. +60 dB).
  constexpr double kLo = 1e-3;
  constexpr double kHi = 1e6;
  if (bit_error_rate(m, kLo) <= target) return kLo;
  if (bit_error_rate(m, kHi) >= target) return kHi;
  // Invert scale * Q(sqrt(g / k)) in closed form.
  const BerModel& model = ber_model(m);
  const double x = q_inverse(target / model.scale);
  return model.k * x * x;
}

double effective_snr_db(std::span<const double> subcarrier_snr_db,
                        Modulation m) {
  if (subcarrier_snr_db.empty()) {
    throw std::invalid_argument("effective_snr_db on empty CSI");
  }
  double mean_ber = 0.0;
  for (double snr_db : subcarrier_snr_db) {
    mean_ber += bit_error_rate(m, from_db(snr_db));
  }
  mean_ber /= static_cast<double>(subcarrier_snr_db.size());
  // Clamp: all-subcarriers-perfect gives BER 0; report a high ceiling.
  if (mean_ber < 1e-12) return 45.0;
  return to_db(snr_for_ber(m, mean_ber));
}

double esnr_ceiling_db(double max_subcarrier_snr_db, Modulation m) {
  // Mean BER >= BER(best subcarrier) and the inverse map is monotone, so
  // the result is at most the best subcarrier's SNR, raised to
  // snr_for_ber's floor. (Its 60 dB cap only lowers the result; leaving it
  // out keeps an infinite input meaning no bound.) The slack covers the
  // closed-form inverse's 1e-12 relative error, which can put a flat
  // channel's ESNR a few 1e-12 dB above its SNR.
  constexpr double kSlackDb = 1e-9;
  const double ceiling = std::max(max_subcarrier_snr_db, kEsnrFloorDb) + kSlackDb;
  // The 45 dB return needs a mean BER below 1e-12, so BER(best) below it
  // too; 2e-12 is margin for the mean's rounding.
  if (bit_error_rate(m, from_db(max_subcarrier_snr_db)) < 2e-12) {
    return std::max(ceiling, 45.0);
  }
  return ceiling;
}

double esnr_metric_db(std::span<const double> subcarrier_snr_db) {
  return effective_snr_db(subcarrier_snr_db, Modulation::kQam64);
}

double mpdu_delivery_probability(double esnr_db, Mcs mcs,
                                 std::size_t psdu_bytes) {
  const McsInfo& info = mcs_info(mcs);
  // Logistic success curve centred at the MCS sensitivity point; ~1.2 dB
  // transition width matches measured 802.11n waterfall curves.
  const double x = (esnr_db - info.min_esnr_db) / 1.2;
  const double p_ref = 1.0 / (1.0 + std::exp(-x));
  // Length scaling relative to the 1500 B reference frame: longer frames
  // expose more bits to the residual error rate. Floored at 1/4 of the
  // reference: even a minimal frame still needs its preamble, headers and
  // FCS intact, so arbitrarily short frames do not become arbitrarily
  // robust.
  const double ratio = std::max(
      static_cast<double>(std::max<std::size_t>(psdu_bytes, 1)) / 1500.0, 0.25);
  return std::pow(p_ref, ratio);
}

}  // namespace wgtt::phy

// Effective SNR (Halperin et al., SIGCOMM 2010): the link metric at the
// heart of WGTT's AP selection (§3.1.1).
//
// A frequency-selective channel delivers different SNR on each OFDM
// subcarrier. Averaging SNR in dB (or using RSSI) over-estimates delivery
// probability when a few subcarriers are deeply faded. ESNR instead:
//   1. maps each subcarrier's SNR to a bit error rate for the modulation,
//   2. averages the BERs across subcarriers,
//   3. inverts the BER->SNR map to get the flat-channel SNR that would have
//      produced the same average BER.
// The result predicts packet delivery far better under strong multipath —
// exactly the regime the roadside picocells live in.
#pragma once

#include <span>

#include "phy/mcs.h"

namespace wgtt::phy {

/// Uncoded bit error rate of `m` over AWGN at linear SNR `snr`.
[[nodiscard]] double bit_error_rate(Modulation m, double snr_linear);

/// Inverse of bit_error_rate in its SNR argument. Returns linear SNR, clamped
/// to [1e-3, 1e6] (-30 .. +60 dB). BER must be positive (NaN throws); values
/// above 0.5 are treated as 0.5. Closed form: each modulation's BER is
/// scale * Q(sqrt(g / k)), so g = k * Q^-1(ber / scale)^2, with Q^-1 from a
/// rational estimate plus one Halley step on the same erfc — within 1e-12
/// relative of a 48-step bisection wherever the BER is a normal double.
[[nodiscard]] double snr_for_ber(Modulation m, double ber);

/// Effective SNR in dB for modulation `m` given per-subcarrier SNRs in dB.
[[nodiscard]] double effective_snr_db(std::span<const double> subcarrier_snr_db,
                                      Modulation m);

/// The lowest value effective_snr_db returns: snr_for_ber's -30 dB floor.
inline constexpr double kEsnrFloorDb = -30.0;

/// Upper bound on effective_snr_db(csi, m) over every CSI whose subcarrier
/// SNRs are all at most `max_subcarrier_snr_db` (DESIGN.md §14). ESNR never
/// exceeds the best subcarrier's SNR, except through its clamps: the 45 dB
/// return for a near-zero mean BER and snr_for_ber's -30 dB floor. +inf in
/// gives +inf out.
[[nodiscard]] double esnr_ceiling_db(double max_subcarrier_snr_db,
                                     Modulation m);

/// The scalar link metric WGTT's controller tracks: ESNR evaluated for
/// 64-QAM. The highest-order modulation keeps discriminating between links
/// deep into the SNR range where lower orders' BER saturates to zero — a
/// saturated metric cannot rank two good APs and causes selection
/// ping-pong (see bench_abl_selection_metric).
[[nodiscard]] double esnr_metric_db(std::span<const double> subcarrier_snr_db);

/// Probability that an MPDU of `psdu_bytes` at `mcs` is received given
/// effective SNR `esnr_db` (for the MCS's modulation). Combines the coded
/// sensitivity ladder in the MCS table with a logistic roll-off and a
/// frame-length correction.
[[nodiscard]] double mpdu_delivery_probability(double esnr_db, Mcs mcs,
                                               std::size_t psdu_bytes);

}  // namespace wgtt::phy

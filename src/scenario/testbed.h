// The roadside testbed geometry (paper §4, Figure 9): eight APs on a
// building facade overlooking the road, 7.5 m apart, each aiming a 21°
// parabolic antenna at its patch of road; cells ~5.2 m wide with 6-10 m of
// radio overlap between neighbours.
//
// TestbedGeometry owns the per-(AP, client) LinkChannel matrix and the
// ground-truth helpers (instantaneous optimal AP, ESNR heatmaps) used by
// the evaluation harness. Both the WGTT system and the baseline system
// build on it, so comparisons run over identical radio environments when
// given the same seed.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "channel/link_channel.h"
#include "mobility/trajectory.h"
#include "util/rng.h"
#include "util/units.h"

namespace wgtt::scenario {

struct GeometryConfig {
  int num_aps = 8;
  double ap_spacing_m = 7.5;
  double ap_setback_m = 15.0;   // perpendicular distance facade -> road
  double boresight_lane_y = 0.0;
  /// Installation imperfections, drawn once per AP: dish aiming error along
  /// the road and peak-gain spread. These make the coverage patchy and
  /// uneven like the paper's measured Figure 10 heatmaps (some AP pairs
  /// overlap 10 m, others barely 6 m) rather than perfectly periodic.
  double aim_jitter_m = 1.5;
  double gain_jitter_db = 1.5;
  channel::LinkChannel::Config link{};
  std::uint64_t seed = 1;
  /// Build each (AP, client) LinkChannel on first use instead of eagerly in
  /// add_client. Each lazy link draws from a private RNG seeded from
  /// (seed, ap, client), so the realization is deterministic and
  /// independent of access order — but DIFFERENT from the eager build,
  /// which draws all links sequentially from one shared stream. Default off
  /// (eager) keeps every existing seeded scenario byte-identical; the
  /// city-scale bench opts in because an eager 1024 x 256 matrix of
  /// multipath taps would dwarf the links that are ever actually used
  /// (each client only ever exercises the handful of APs in sense range).
  bool lazy_links = false;
};

/// One (AP, client) pair of the channel matrix.
struct LinkIndex {
  int ap = 0;
  int client = 0;
};

class TestbedGeometry {
 public:
  explicit TestbedGeometry(const GeometryConfig& config);

  /// Adds a client slot; builds its channel to every AP. Returns the index.
  int add_client(const mobility::Trajectory* trajectory);

  [[nodiscard]] int num_aps() const { return config_.num_aps; }
  [[nodiscard]] int num_clients() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] channel::Vec2 ap_position(int ap) const;
  [[nodiscard]] const channel::LinkChannel& link(int ap, int client) const;
  [[nodiscard]] channel::Vec2 client_position(int client, Time now) const;
  [[nodiscard]] const mobility::Trajectory& trajectory(int client) const;

  /// Road x-coordinate of the last AP (the first sits at 0), for aligning
  /// measurement windows with the transit.
  [[nodiscard]] double last_ap_x() const {
    return (config_.num_aps - 1) * config_.ap_spacing_m;
  }

  /// Ground truth: the AP with maximal instantaneous ESNR to the client
  /// (the "optimal AP" of the paper's switching-accuracy metric, Table 2).
  [[nodiscard]] int optimal_ap(int client, Time now) const;

  /// Instantaneous ESNR of one link (pure; does not disturb anything).
  [[nodiscard]] double esnr_db(int ap, int client, Time now) const;

  /// Large-scale mean SNR (no fast fading), e.g. for the Figure 10 heatmap.
  [[nodiscard]] double large_scale_snr_db(int ap, channel::Vec2 at) const;

  /// What a radio's MAC samples on `link` at `now` (WifiMac's channel
  /// sampler), and the SNR ceiling it wires beside it. nullopt is a pair the
  /// geometry does not model (AP-AP, client-client): a weak flat 0 dB
  /// channel, so decode draws almost always fail, whose ceiling is 0 dB.
  [[nodiscard]] channel::CsiMeasurement sample(std::optional<LinkIndex> link,
                                               Time now) const;
  [[nodiscard]] double snr_ceiling_db(std::optional<LinkIndex> link,
                                      Time now) const;

  [[nodiscard]] const GeometryConfig& config() const { return config_; }

 private:
  struct ApInstall {
    double aim_offset_m = 0.0;   // boresight target slid along the road
    double gain_delta_db = 0.0;  // peak gain deviation
  };

  [[nodiscard]] std::unique_ptr<channel::LinkChannel> make_link(int ap,
                                                               Rng& rng) const;
  /// Per-link seed for lazy construction: a splitmix-style combine of the
  /// geometry seed with (ap, client), so every link realization is fixed by
  /// configuration alone, never by who touched which link first.
  [[nodiscard]] std::uint64_t link_seed(int ap, int client) const;

  GeometryConfig config_;
  Rng rng_;
  std::vector<ApInstall> installs_;
  std::vector<const mobility::Trajectory*> clients_;
  // channels_[client][ap]; slots are null until first use in lazy mode,
  // hence mutable — materialising a link through the const accessor is not
  // an observable mutation.
  mutable std::vector<std::vector<std::unique_ptr<channel::LinkChannel>>>
      channels_;
};

/// One candidate of a pruned argmax: an upper bound on its exact score.
struct BoundedCandidate {
  double ceiling = 0.0;
  int index = 0;
};

/// The index of the maximal `exact(index)` over `candidates`, ties to the
/// lower index — a full scan's answer — evaluating `exact` only while a
/// candidate's ceiling can still reach the best score found. Candidates are
/// visited by descending ceiling (then ascending index), and the scan stops
/// at the first ceiling strictly below the best score, so a candidate that
/// could tie is still evaluated. Reorders `candidates`; -1 when empty.
template <class Exact>
int pruned_argmax(std::vector<BoundedCandidate>& candidates, Exact&& exact) {
  std::sort(candidates.begin(), candidates.end(),
            [](const BoundedCandidate& a, const BoundedCandidate& b) {
              if (a.ceiling != b.ceiling) return a.ceiling > b.ceiling;
              return a.index < b.index;
            });
  int best = -1;
  double best_score = 0.0;
  for (const BoundedCandidate& c : candidates) {
    if (best >= 0 && c.ceiling < best_score) break;
    const double score = exact(c.index);
    if (best < 0 || score > best_score ||
        (score == best_score && c.index < best)) {
      best = c.index;
      best_score = score;
    }
  }
  return best;
}

}  // namespace wgtt::scenario

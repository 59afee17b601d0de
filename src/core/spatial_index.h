// Road-segment spatial index over the AP array (DESIGN.md §9).
//
// The deployment is a linear corridor: every AP sits at a fixed road
// coordinate x (the y setback is shared), and a client's position along the
// road determines the only APs that can matter to it — everything else is
// out of sense range. This index is built once from the scenario geometry
// and answers three questions in O(log A) or O(1):
//
//   * nearest(x)        — the AP a client at x would associate with,
//                         byte-identical to the brute-force ascending-index
//                         strict-< scan it replaces (ties on |dx| go to the
//                         lowest AP index);
//   * neighbors(x, r)   — every AP within r metres of x along the road,
//                         returned in ascending AP-index order (callers rely
//                         on this to keep scheduled event order identical to
//                         the unindexed path);
//   * segment_of(x)     — the grid cell (road segment) containing x; the
//                         multi-domain partition cuts on segment boundaries
//                         and the parallel city keys its corridors by it.
//
// The index is immutable after build(): APs do not move. Positions are
// stored both by AP index and sorted by (x, index) so nearest/neighbors are
// binary searches over a contiguous array.
#pragma once

#include <vector>

namespace wgtt::core {

class SpatialIndex {
 public:
  SpatialIndex() = default;

  /// Builds the index over `ap_x[i]` = road coordinate of AP index i.
  /// `cell_m` is the segment (grid cell) width; it only affects segment_of
  /// (where domain cuts may fall), never nearest/neighbors results.
  void build(std::vector<double> ap_x, double cell_m);

  [[nodiscard]] bool empty() const { return ap_x_.empty(); }
  [[nodiscard]] int num_aps() const { return static_cast<int>(ap_x_.size()); }
  [[nodiscard]] int num_segments() const { return num_segments_; }
  [[nodiscard]] double ap_x(int ap) const {
    return ap_x_[static_cast<std::size_t>(ap)];
  }

  /// Segment containing road coordinate x, clamped to [0, num_segments()-1]
  /// so off-array positions (lead-in, overrun) land in the edge segments.
  [[nodiscard]] int segment_of(double x) const;
  [[nodiscard]] int segment_of_ap(int ap) const {
    return seg_of_ap_[static_cast<std::size_t>(ap)];
  }

  /// AP index minimising |ap_x - x|; ties broken toward the lowest AP
  /// index, matching a brute-force ascending scan with strict <.
  [[nodiscard]] int nearest(double x) const;

  /// Appends every AP index with |ap_x - x| <= radius_m to `out`, in
  /// ascending AP-index order (`out` is not cleared).
  void neighbors(double x, double radius_m, std::vector<int>& out) const;
  [[nodiscard]] std::vector<int> neighbors(double x, double radius_m) const {
    std::vector<int> out;
    neighbors(x, radius_m, out);
    return out;
  }

 private:
  double cell_m_ = 30.0;
  double min_x_ = 0.0;
  int num_segments_ = 0;
  std::vector<double> ap_x_;      // by AP index
  std::vector<int> seg_of_ap_;    // by AP index
  std::vector<int> order_;        // AP indices sorted by (x, index)
  std::vector<double> sorted_x_;  // ap_x_[order_[i]], ascending
};

}  // namespace wgtt::core

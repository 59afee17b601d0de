// Partition of the roadside AP array into controller domains (DESIGN.md §12).
//
// A domain owns a contiguous stretch of APs. The split is derived from the
// SpatialIndex's road segments when one is available — domain cuts land on
// segment boundaries so the per-segment scan structures never straddle two
// controllers — and falls back to an even split of the AP array otherwise.
// Like the SpatialIndex, the map is immutable after build(): controller
// crash/adoption re-homes APs at the protocol layer (AdoptAp), never by
// mutating the map.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.h"

namespace wgtt::core {

class SpatialIndex;

class DomainMap {
 public:
  /// Even split of `num_aps` APs into `num_domains` contiguous stretches.
  void build(std::uint32_t num_aps, std::uint32_t num_domains);

  /// Split aligned to the index's road segments: each domain gets a
  /// contiguous run of whole segments whose AP count is as close as possible
  /// to num_aps / num_domains. Falls back to the even split when the index
  /// is empty or has fewer segments than domains.
  void build(const SpatialIndex& index, std::uint32_t num_domains);

  [[nodiscard]] bool empty() const { return first_ap_.empty(); }
  [[nodiscard]] std::uint32_t num_domains() const {
    return first_ap_.empty()
               ? 0
               : static_cast<std::uint32_t>(first_ap_.size() - 1);
  }
  [[nodiscard]] std::uint32_t num_aps() const {
    return first_ap_.empty() ? 0 : first_ap_.back();
  }

  /// Home domain of an AP (the domain that owns it at build time).
  [[nodiscard]] std::uint32_t domain_of_ap(net::ApId ap) const {
    return domain_of_[net::index_of(ap)];
  }

  /// Half-open AP-index range [first, last) homed in domain d.
  [[nodiscard]] std::uint32_t first_ap(std::uint32_t d) const {
    return first_ap_[d];
  }
  [[nodiscard]] std::uint32_t last_ap(std::uint32_t d) const {
    return first_ap_[d + 1];
  }

  /// The alive domain nearest (in domain index distance) to `dead`, or
  /// num_domains() when every other domain is down. Ties break toward the
  /// lower index so every alive controller computes the same adopter.
  [[nodiscard]] std::uint32_t nearest_alive(
      std::uint32_t dead, const std::vector<bool>& alive) const;

 private:
  // first_ap_[d] .. first_ap_[d+1] is domain d's stretch; one trailing
  // sentinel entry equals num_aps.
  std::vector<std::uint32_t> first_ap_;
  std::vector<std::uint32_t> domain_of_;  // per-AP home domain
};

}  // namespace wgtt::core

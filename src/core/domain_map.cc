#include "core/domain_map.h"

#include <algorithm>
#include <stdexcept>

#include "core/spatial_index.h"

namespace wgtt::core {

void DomainMap::build(std::uint32_t num_aps, std::uint32_t num_domains) {
  if (num_domains == 0 || num_aps == 0) {
    throw std::invalid_argument("DomainMap: need at least one AP and domain");
  }
  num_domains = std::min(num_domains, num_aps);
  first_ap_.assign(num_domains + 1, 0);
  // Even split, remainder spread over the leading domains.
  const std::uint32_t base = num_aps / num_domains;
  const std::uint32_t extra = num_aps % num_domains;
  for (std::uint32_t d = 0; d < num_domains; ++d) {
    first_ap_[d + 1] = first_ap_[d] + base + (d < extra ? 1 : 0);
  }
  domain_of_.assign(num_aps, 0);
  for (std::uint32_t d = 0; d < num_domains; ++d) {
    for (std::uint32_t a = first_ap_[d]; a < first_ap_[d + 1]; ++a) {
      domain_of_[a] = d;
    }
  }
}

void DomainMap::build(const SpatialIndex& index, std::uint32_t num_domains) {
  const auto num_aps = static_cast<std::uint32_t>(index.num_aps());
  const auto num_segments = static_cast<std::uint32_t>(index.num_segments());
  if (index.empty() || num_segments < num_domains) {
    build(num_aps, num_domains);
    return;
  }
  num_domains = std::min(num_domains, num_aps);
  // Per-segment AP counts; APs are sorted by x inside the index so a run of
  // whole segments is a contiguous run of AP indices.
  std::vector<std::uint32_t> seg_count(num_segments, 0);
  for (std::uint32_t a = 0; a < num_aps; ++a) {
    ++seg_count[static_cast<std::uint32_t>(
        index.segment_of_ap(static_cast<int>(a)))];
  }
  first_ap_.assign(num_domains + 1, 0);
  domain_of_.assign(num_aps, 0);
  // Greedy cut: close a domain once it holds >= its proportional share of
  // the remaining APs, leaving at least one segment per remaining domain.
  std::uint32_t d = 0;
  std::uint32_t placed = 0;
  std::uint32_t in_domain = 0;
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    in_domain += seg_count[s];
    placed += seg_count[s];
    const std::uint32_t remaining_domains = num_domains - d - 1;
    const std::uint32_t remaining_segments = num_segments - s - 1;
    const std::uint32_t target =
        (num_aps - first_ap_[d] + remaining_domains) / (remaining_domains + 1);
    if (remaining_domains > 0 && in_domain >= target &&
        remaining_segments >= remaining_domains) {
      first_ap_[d + 1] = placed;
      ++d;
      in_domain = 0;
    }
  }
  for (; d < num_domains; ++d) first_ap_[d + 1] = num_aps;
  for (std::uint32_t dd = 0; dd < num_domains; ++dd) {
    for (std::uint32_t a = first_ap_[dd]; a < first_ap_[dd + 1]; ++a) {
      domain_of_[a] = dd;
    }
  }
}

std::uint32_t DomainMap::nearest_alive(std::uint32_t dead,
                                       const std::vector<bool>& alive) const {
  const std::uint32_t n = num_domains();
  std::uint32_t best = n;
  std::uint32_t best_dist = n + 1;
  for (std::uint32_t d = 0; d < n; ++d) {
    if (d == dead || !alive[d]) continue;
    const std::uint32_t dist = d > dead ? d - dead : dead - d;
    if (dist < best_dist) {  // strict: ties keep the lower index
      best_dist = dist;
      best = d;
    }
  }
  return best;
}

}  // namespace wgtt::core

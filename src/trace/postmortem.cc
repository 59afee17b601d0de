#include "trace/postmortem.h"

#include <filesystem>
#include <fstream>

#include "core/controller.h"
#include "net/ids.h"

namespace wgtt::trace {

namespace {

std::string_view liveness_name(core::Controller::ApLiveness state) {
  using L = core::Controller::ApLiveness;
  switch (state) {
    case L::kAlive: return "alive";
    case L::kSuspect: return "suspect";
    case L::kDead: return "dead";
    case L::kRecovering: return "recovering";
  }
  return "?";
}

}  // namespace

bool write_postmortem(const std::string& dir, scenario::WgttSystem& system,
                      const scenario::InvariantReport& report,
                      const Tracer* tracer,
                      const obs::MetricsRegistry* metrics) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  const std::filesystem::path base(dir);
  bool ok = true;

  {
    std::ofstream out(base / "invariants.txt");
    if (out) {
      out << "sim_time_s " << system.now().to_seconds() << '\n'
          << "stalled_switches " << report.stalled_switches << '\n'
          << "duplicate_serving " << report.duplicate_serving << '\n'
          << "serving_disagreements " << report.serving_disagreements << '\n'
          << "index_regressions " << report.index_regressions << '\n'
          << "dead_ap_deliveries " << report.dead_ap_deliveries << '\n'
          << "dead_serving " << report.dead_serving << '\n'
          << "violations " << report.violations.size() << '\n';
      for (const auto& v : report.violations) out << v << '\n';
    } else {
      ok = false;
    }
  }

  if (tracer != nullptr) {
    std::ofstream out(base / "trace_tail.csv");
    if (out) {
      out << "# retained " << tracer->size() << " dropped "
          << tracer->dropped() << '\n';
      tracer->write_csv(out);
    } else {
      ok = false;
    }
  }

  if (metrics != nullptr) {
    std::ofstream out(base / "metrics.json");
    if (out) {
      metrics->write_json(out);
    } else {
      ok = false;
    }
  }

  {
    std::ofstream out(base / "liveness.txt");
    if (out) {
      for (int i = 0; i < system.num_aps(); ++i) {
        const auto h = system.ap_controller(static_cast<std::size_t>(i))
                           .ap_health(net::ApId{static_cast<std::uint32_t>(i)});
        out << "ap " << i << ' ' << liveness_name(h.state) << " since_s "
            << h.since.to_seconds() << " crashed "
            << (system.ap(i).crashed() ? 1 : 0) << '\n';
      }
    } else {
      ok = false;
    }
  }

  {
    std::ofstream out(base / "clients.txt");
    if (out) {
      for (int c = 0; c < system.num_clients(); ++c) {
        const auto debug = system.route_controller(c).client_debug(
            net::ClientId{static_cast<std::uint32_t>(c)});
        if (!debug) continue;
        const auto& d = *debug;
        out << "client " << c << " serving "
            << (d.serving ? static_cast<int>(net::index_of(*d.serving)) : -1)
            << " epoch " << d.epoch << " next_index " << d.next_index
            << " downlink_sent " << d.downlink_sent << " switch_pending "
            << (d.switch_pending ? 1 : 0) << " pending_forced "
            << (d.pending_forced ? 1 : 0);
        if (d.switch_pending) {
          out << " pending_from " << net::index_of(d.pending_from)
              << " pending_target " << net::index_of(d.pending_target)
              << " pending_since_s " << d.pending_since.to_seconds()
              << " pending_first_index " << d.pending_first_index;
        }
        out << " last_switch_completed_s "
            << d.last_switch_completed.to_seconds() << '\n';
      }
    } else {
      ok = false;
    }
  }

  return ok;
}

}  // namespace wgtt::trace

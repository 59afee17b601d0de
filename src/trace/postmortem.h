// Black-box forensics (DESIGN.md §6.6): when an invariant trips, dump
// everything a post-mortem needs into a directory, so a PR-5-style failover
// bug is diagnosable from artifacts instead of rerun-and-printf.
//
// The bundle:
//   invariants.txt   the InvariantReport — per-check counts plus one
//                    human-readable line per breach
//   trace_tail.csv   the flight-recorder ring's retained events (Tracer
//                    CSV; the tail of a long run, drop-oldest)
//   metrics.json     wgtt.metrics.v1 snapshot at dump time
//   liveness.txt     per-AP liveness verdict of the controller homing the
//                    AP + crash state
//   clients.txt      per-client control-plane state from the controller
//                    owning the client: serving AP, epoch, fan-out
//                    watermark, pending-switch bookkeeping
// Sections whose source is absent (no tracer attached, no metrics
// registry) are skipped, never empty-filed.
//
// run_drive triggers a dump when check_invariants fails and either
// DriveConfig::postmortem_dir is set or WGTT_DUMP_ON_VIOLATION names a
// directory in the environment.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "scenario/wgtt_system.h"
#include "trace/tracer.h"

namespace wgtt::trace {

/// Writes the post-mortem bundle into `dir` (created, parents included, if
/// missing). `tracer` and `metrics` may be null — their files are skipped.
/// Returns false if the directory could not be created or a file could not
/// be opened; partial bundles are possible on I/O errors mid-way.
bool write_postmortem(const std::string& dir, scenario::WgttSystem& system,
                      const scenario::InvariantReport& report,
                      const Tracer* tracer, const obs::MetricsRegistry* metrics);

}  // namespace wgtt::trace

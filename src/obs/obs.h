// The observability bundle handed to instrumented components.
//
// One Observability instance per experiment (the bench harness owns it; see
// bench/bench_util.h). Components receive it, together with the online
// invariant checker, through one Sinks value passed to their Attach() — a
// null pointer means "not observed" (or "not checked") and costs one branch
// per instrumentation site.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gimbal::check {
class InvariantChecker;
}  // namespace gimbal::check

namespace gimbal::obs {

struct Observability {
  MetricsRegistry metrics;
  EventTracer tracer;
};

// Everything a component reports to: the metrics/trace bundle and the
// invariant checker (either may be null), plus the label its series and
// checker ledgers carry — the ssd (pipeline) index for device-facing
// components, the instance id for KV ones, -1 where the component labels
// per tenant/pipeline itself. Whoever builds a component hands it one
// Sinks once, before the simulation runs; owners pass it down to their
// parts, relabelled where a part carries its own label.
struct Sinks {
  Observability* obs = nullptr;
  check::InvariantChecker* chk = nullptr;
  int32_t label = -1;
};

}  // namespace gimbal::obs

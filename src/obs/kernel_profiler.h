#pragma once

// Kernel profiler: flight-recorder series for the event kernel itself
// (DESIGN.md §14). Where the metrics registry watches the modelled system,
// this watches the machine running it: how deep the event queue is, how far
// the kernel can jump before the next event (its "event-loop lag" — a long
// lookahead means an idle kernel, a zero lookahead means a saturated one),
// how many bytes the heap + slot arrays have grown to, and — when a tracer
// is supplied — where request latency is accumulating per Figure-2 bucket,
// so a scheduling stall is attributable to the component causing it.
//
// attach() only registers series on the recorder; sampling rides the
// recorder's own deterministic sim-time tick, so profiling a run cannot
// perturb it.

#include "sim/time.h"

namespace mcs::sim {
class Simulator;
}  // namespace mcs::sim

namespace mcs::obs {

class FlightRecorder;
class Tracer;

// Registers kernel series on `rec`:
//   kernel.pending          events waiting in the queue
//   kernel.executed         cumulative events run
//   kernel.lookahead_us     next_time() - now(): 0 while saturated
//   kernel.footprint_bytes  heap + slot arrays reserved bytes
// and, with a tracer, one "profile.self.<bucket>_us" series per Figure-2
// bucket plus "profile.self.unattributed_us": the tracer's breakdown() so
// far, which sums to the latency of the requests closed by then. `sim` and
// `tracer` must outlive the recorder.
void attach_kernel_profiler(FlightRecorder& rec, const sim::Simulator& sim,
                            const Tracer* tracer = nullptr);

}  // namespace mcs::obs

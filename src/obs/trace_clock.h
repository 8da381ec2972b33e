#pragma once

// The obs exporters' timestamp conversion, in one deliberately small file.
//
// Simulation time is the only timeline traces are written in: every span
// timestamp is sim::Time converted to microseconds here. Nothing here reads
// the host clock, so exported traces stay byte-identical across reruns.

#include "sim/time.h"

namespace mcs::obs {

// Sim-clock -> trace timestamp: Chrome trace-event "ts"/"dur" are
// microsecond doubles.
inline double trace_ts_us(sim::Time t) { return t.to_micros(); }

}  // namespace mcs::obs

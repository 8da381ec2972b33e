#include "obs/kernel_profiler.h"

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/util.h"

namespace mcs::obs {

void attach_kernel_profiler(FlightRecorder& rec, const sim::Simulator& sim,
                            const Tracer* tracer) {
  const sim::Simulator* s = &sim;
  rec.add_series("kernel.pending",
                 [s] { return static_cast<double>(s->pending()); });
  rec.add_series("kernel.executed",
                 [s] { return static_cast<double>(s->executed()); });
  rec.add_series("kernel.lookahead_us",
                 [s] { return (s->next_time() - s->now()).to_micros(); });
  rec.add_series("kernel.footprint_bytes",
                 [s] { return static_cast<double>(s->footprint_bytes()); });
  if (tracer == nullptr) return;
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    rec.add_series(sim::strf("profile.self.%s_us", bucket_name(b)),
                   [tracer, b] { return tracer->breakdown().bucket_us[b]; });
  }
  rec.add_series("profile.self.unattributed_us",
                 [tracer] { return tracer->breakdown().unattributed_us; });
}

}  // namespace mcs::obs

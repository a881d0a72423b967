// telemetry_check fixture (gaps case): consumes samples_delivered and
// prefetch.units_issued only, assigns samples and half_done only, writes
// the "samples" key only.

#include "result.hpp"
#include "stats.hpp"

namespace fixture {

void aggregate(const InstanceStats& st, RunResult& r) {
  r.samples += st.samples_delivered;
  r.half_done += st.samples_delivered / 2 + st.prefetch.units_issued;
}

const char* json_keys() { return "\"samples\""; }

}  // namespace fixture

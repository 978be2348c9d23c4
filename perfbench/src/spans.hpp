// In-memory span recorder for the traced run (--trace 1). A Span marks one
// call into a layer from the benchmark's own code: name, start, end, the
// enclosing span on the same thread, and the op it belongs to. Spans stay
// in memory and are written out once, as Chrome-trace JSON, at exit. With
// tracing off a Span costs one branch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

void tracing_enable(bool on);
bool tracing_enabled();

/// Op id stamped on spans opened by this thread; -1 marks set-up work.
void set_current_op(std::int64_t op);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

struct SelfTime {
  std::string name;
  double self_ms = 0.0;  ///< span time minus time covered by child spans
  std::uint64_t count = 0;
};

/// Self time per span name over spans of timed ops (op id >= 0), sorted by
/// descending self time.
std::vector<SelfTime> self_times();

/// Self time of one span name over timed ops (0 when never recorded).
double self_ms(const std::vector<SelfTime>& table, const std::string& name);

/// Writes every recorded span (set-up included) as Chrome-trace JSON.
void write_chrome_trace(const std::string& path);

}  // namespace perfbench

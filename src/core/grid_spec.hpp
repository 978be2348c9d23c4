// The shared sweep-dimension spec: thread counts × paradigms × schedules ×
// chunk sizes, used by SweepGrid (which embeds it by inheritance), the
// advisor's AdviseOptions::grid and the CLI/serve request parsers.
//
// Name parsing stays where it always was: the table-driven parsers in
// serve/protocol.hpp (parse_method / parse_paradigm / parse_schedule) are
// shared by the CLI flags and the wire protocol, and both fill this struct.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/iter_sched.hpp"
#include "util/types.hpp"

namespace pprophet::core {

/// The paradigm axis (historically declared in core/prophet.hpp, which
/// re-exports it; it lives here so the grid spec is self-contained).
enum class Paradigm : std::uint8_t { OpenMP, CilkPlus };

const char* to_string(Paradigm p);

struct GridSpec {
  std::vector<CoreCount> thread_counts{2, 4, 6, 8, 10, 12};
  std::vector<Paradigm> paradigms{Paradigm::OpenMP, Paradigm::CilkPlus};
  std::vector<runtime::OmpSchedule> schedules{
      runtime::OmpSchedule::StaticCyclic, runtime::OmpSchedule::StaticBlock,
      runtime::OmpSchedule::Dynamic, runtime::OmpSchedule::Guided};
  /// Chunk sizes for the chunked schedules. An empty list means "inherit
  /// the base options' chunk" to the consumers that carry base options
  /// (the advisor normalizes it that way).
  std::vector<std::uint64_t> chunks{1};
};

}  // namespace pprophet::core

// EngineOptions is the single source of engine configuration: both
// PredictOptions and ProphetConfig embed it, so the engine block copies
// between the two structs as one unit.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/prophet.hpp"

namespace pprophet::core {
namespace {

TEST(EngineOptions, ProphetConfigSharesTheSameBase) {
  ProphetConfig c;
  // ProphetConfig defaults: simulated Westmere with the memory model on.
  EXPECT_TRUE(c.memory_model);
  c.schedule = runtime::OmpSchedule::StaticBlock;

  // The whole engine block copies as one unit between the two structs.
  PredictOptions o;
  static_cast<EngineOptions&>(o) = c;
  EXPECT_EQ(o.schedule, runtime::OmpSchedule::StaticBlock);
  EXPECT_TRUE(o.memory_model);
  EXPECT_EQ(o.machine.cores, c.machine.cores);
}

}  // namespace
}  // namespace pprophet::core

// Serve-path coverage for the v2 "advise" op: full result shape, result
// caching by tree digest, the chunk-less candidate wire shape, and the
// not_found path.
#include <gtest/gtest.h>

#include <string>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace pprophet::serve {
namespace {

ServerConfig advise_config(const char* tag) {
  ServerConfig cfg;
  cfg.socket_path = testing::TempDir() + "pp_advise_" + tag + ".sock";
  cfg.workers = 2;
  cfg.sweep_workers = 1;
  return cfg;
}

JsonValue advise_request(const std::string& key) {
  JsonValue req;
  req.set("op", JsonValue("advise"));
  req.set("key", JsonValue(key));
  req.set("threads", JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4),
                                                JsonValue(8)}));
  return req;
}

TEST(AdviseServe, FullResultShapeAndDigestKeyedCache) {
  Server server(advise_config("shape"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());

  JsonValue req = advise_request(key);
  req.set("target_threads", JsonValue(4));
  const JsonValue resp = c.call(req);
  ASSERT_TRUE(resp.at("ok").as_bool()) << json_dump(resp);
  EXPECT_FALSE(resp.at("cached").as_bool());

  const JsonValue& result = resp.at("result");
  EXPECT_EQ(result.at("target_threads").as_u64(), 4u);
  for (const char* cand : {"baseline", "best", "economical"}) {
    const JsonValue& v = result.at(cand);
    EXPECT_GT(v.at("speedup").as_double(), 0.0) << cand;
    EXPECT_GT(v.at("threads").as_u64(), 0u) << cand;
  }
  EXPECT_EQ(result.at("baseline").at("threads").as_u64(), 4u);
  EXPECT_FALSE(result.at("sweep").as_array().empty());

  const JsonValue& profile = result.at("profile");
  EXPECT_GT(profile.at("serial_cycles").as_u64(), 0u);
  ASSERT_FALSE(profile.at("sections").as_array().empty());
  const JsonValue& section = profile.at("sections").as_array().front();
  EXPECT_GT(section.at("work").as_u64(), 0u);
  EXPECT_GE(section.at("parallelism").as_double(), 1.0);
  EXPECT_NE(section.find("locks"), nullptr);

  for (const JsonValue& a : result.at("actions").as_array()) {
    EXPECT_FALSE(a.at("kind").as_string().empty());
    EXPECT_FALSE(a.at("describe").as_string().empty());
    EXPECT_GT(a.at("speedup_after").as_double(), 0.0);
  }
  const JsonValue& stats = result.at("stats");
  EXPECT_GT(stats.at("grid_points").as_u64(), 0u);
  EXPECT_GE(stats.at("section_lookups").as_u64(),
            stats.at("section_evals").as_u64());
  EXPECT_NE(stats.find("memo_hits"), nullptr);

  // The identical request must be served from the result cache, verbatim.
  const JsonValue again = c.call(req);
  ASSERT_TRUE(again.at("ok").as_bool());
  EXPECT_TRUE(again.at("cached").as_bool());
  EXPECT_EQ(json_dump(again.at("result")), json_dump(resp.at("result")));

  // A different grid is a different cache entry, not a stale hit.
  JsonValue other = advise_request(key);
  const JsonValue oresp = c.call(other);
  ASSERT_TRUE(oresp.at("ok").as_bool());
  EXPECT_FALSE(oresp.at("cached").as_bool());
  server.stop();
}

TEST(AdviseServe, CandidatesOmitTheDefaultChunk) {
  Server server(advise_config("compat"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());

  const JsonValue resp = c.call(advise_request(key));
  ASSERT_TRUE(resp.at("ok").as_bool()) << json_dump(resp);
  // The configuration search sweeps no chunk axis, so Candidate::chunk is
  // the default and stays off the wire: candidates carry exactly the
  // chunk-less keys.
  const JsonValue& best = resp.at("result").at("best");
  EXPECT_EQ(best.find("chunk"), nullptr);
  for (const JsonValue& cand : resp.at("result").at("sweep").as_array()) {
    EXPECT_EQ(cand.find("chunk"), nullptr);
    EXPECT_NE(cand.find("paradigm"), nullptr);
    EXPECT_NE(cand.find("schedule"), nullptr);
    EXPECT_NE(cand.find("threads"), nullptr);
    EXPECT_NE(cand.find("speedup"), nullptr);
    EXPECT_NE(cand.find("efficiency"), nullptr);
  }
  server.stop();
}

TEST(AdviseServe, UnknownKeyAndBadGridAreStructuredErrors) {
  Server server(advise_config("errors"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);

  const JsonValue missing = c.call(advise_request("deadbeef"));
  EXPECT_FALSE(missing.at("ok").as_bool());
  EXPECT_EQ(missing.at("error").as_string(), kErrNotFound);

  const std::string key = c.upload(sample_pptb());
  JsonValue empty_grid = advise_request(key);
  empty_grid.set("threads", JsonValue(JsonValue::Array{}));
  const JsonValue bad = c.call(empty_grid);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").as_string(), kErrBadRequest);
  server.stop();
}

}  // namespace
}  // namespace pprophet::serve

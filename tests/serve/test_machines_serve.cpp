// The serve protocol's machine-preset axis (docs/MEMMODEL.md): a v2 sweep
// request may carry "machines", pricing the stored tree on every named
// preset. Bad names get the same one-line diagnostic the CLI prints, and
// the result cache keys on the machine list.
#include <gtest/gtest.h>

#include <string>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace pprophet::serve {
namespace {

class MachinesServeTest : public ::testing::Test {
 protected:
  ServerConfig base_config(const char* tag) {
    ServerConfig cfg;
    cfg.socket_path = testing::TempDir() + "pp_machines_" + tag + ".sock";
    cfg.workers = 2;
    cfg.sweep_workers = 1;
    return cfg;
  }

  static JsonValue sweep_req(const std::string& key,
                             std::initializer_list<const char*> machines) {
    JsonValue req;
    req.set("op", JsonValue("sweep"));
    req.set("v", JsonValue(kProtocolVersion));
    req.set("key", JsonValue(key));
    req.set("threads", JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4)}));
    JsonValue::Array names;
    for (const char* m : machines) names.emplace_back(m);
    if (names.size() > 0) req.set("machines", JsonValue(std::move(names)));
    return req;
  }
};

TEST_F(MachinesServeTest, SweepOverPresetsKeysCellsByMachine) {
  Server server(base_config("sweep"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());

  const JsonValue r = c.call(sweep_req(key, {"westmere", "epyc"}));
  ASSERT_TRUE(r.at("ok").as_bool()) << json_dump(r);
  const JsonValue& cells = r.at("result").at("cells");
  ASSERT_TRUE(cells.is_array());
  // Full grid (2 thread counts) per preset, every cell naming its machine.
  ASSERT_EQ(cells.as_array().size(), 4u);
  std::size_t westmere = 0, epyc = 0;
  for (const JsonValue& cell : cells.as_array()) {
    const std::string& m = cell.at("machine").as_string();
    if (m == "westmere") ++westmere;
    if (m == "epyc") ++epyc;
  }
  EXPECT_EQ(westmere, 2u);
  EXPECT_EQ(epyc, 2u);
  server.stop();
}

TEST_F(MachinesServeTest, UnknownPresetIsBadRequestWithSharedMessage) {
  Server server(base_config("bad"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());

  const JsonValue r = c.call(sweep_req(key, {"westmere", "nope"}));
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("error").as_string(), kErrBadRequest);
  EXPECT_EQ(r.at("message").as_string(),
            "machines: unknown machine preset 'nope' (valid: westmere, "
            "nehalem, sandybridge, skylake, epyc)");

  // An explicitly empty list is refused too (omit the field instead).
  JsonValue req = sweep_req(key, {});
  req.set("machines", JsonValue(JsonValue::Array{}));
  const JsonValue r2 = c.call(req);
  EXPECT_FALSE(r2.at("ok").as_bool());
  EXPECT_EQ(r2.at("message").as_string(), "machines: empty list");
  server.stop();
}

TEST_F(MachinesServeTest, CacheKeyIncludesMachineList) {
  Server server(base_config("cache"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());

  // Same grid without machines: fills one cache slot.
  const JsonValue plain = c.call(sweep_req(key, {}));
  ASSERT_TRUE(plain.at("ok").as_bool());
  EXPECT_FALSE(plain.at("cached").as_bool());

  // With machines: different canonical grid, must compute fresh.
  const JsonValue first = c.call(sweep_req(key, {"westmere"}));
  ASSERT_TRUE(first.at("ok").as_bool()) << json_dump(first);
  EXPECT_FALSE(first.at("cached").as_bool());

  // Identical machine request: served from cache, identical payload.
  const JsonValue again = c.call(sweep_req(key, {"westmere"}));
  ASSERT_TRUE(again.at("ok").as_bool());
  EXPECT_TRUE(again.at("cached").as_bool());
  EXPECT_EQ(first.at("result"), again.at("result"));

  // Different preset list: its own slot.
  const JsonValue other = c.call(sweep_req(key, {"skylake"}));
  ASSERT_TRUE(other.at("ok").as_bool());
  EXPECT_FALSE(other.at("cached").as_bool());
  server.stop();
}

}  // namespace
}  // namespace pprophet::serve

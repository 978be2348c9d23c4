// CLI surface of the machine-preset axis (docs/MEMMODEL.md): predict
// --machine, sweep --machines, and the shared one-line unknown-preset
// error (machine/presets.hpp) every entry point must emit verbatim.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "reuse/histogram.hpp"
#include "tree/builder.hpp"
#include "tree/serialize.hpp"
#include "util/fnv.hpp"

namespace pprophet::cli {
namespace {

constexpr char kUnknownNope[] =
    "pprophet: unknown machine preset 'nope' (valid: westmere, nehalem, "
    "sandybridge, skylake, epyc)\n";

class MachinesCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_path_ = testing::TempDir() + "cli_machines.ptree";
    tree::TreeBuilder b;
    b.u(500);
    b.begin_sec("loop");
    b.begin_task("t").u(800).end_task().repeat_last(32);
    tree::SectionCounters c;
    c.instructions = 100'000;
    c.cycles = 25'600;
    c.llc_misses = 60;
    c.llc_writebacks = 12;
    b.counters(c).end_sec();
    tree::ProgramTree t = b.finish();

    reuse::ReuseHistogram h;
    h.config = reuse::ProfiledConfig{};
    h.cold = 30;
    for (int i = 0; i < 200; ++i) h.record(300'000);  // beyond a 12 MB LLC
    t.root->child(1)->set_reuse_profile(h);

    std::ofstream f(tree_path_);
    tree::write_tree(f, t);
  }

  void TearDown() override { std::remove(tree_path_.c_str()); }

  int run_cmd(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    const auto o = parse_args(args, err_);
    if (!o) return -1;
    return run(*o, out_, err_);
  }

  std::string tree_path_;
  std::ostringstream out_, err_;
};

TEST_F(MachinesCliTest, ParseMachineAndMachinesFlags) {
  std::ostringstream err;
  const auto p = parse_args(
      {"predict", "--tree", tree_path_, "--machine", "epyc"}, err);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->machine, "epyc");

  const auto s = parse_args(
      {"sweep", "--tree", tree_path_, "--machines", "westmere,skylake"}, err);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->machines,
            (std::vector<std::string>{"westmere", "skylake"}));
}

TEST_F(MachinesCliTest, UnknownPresetOneLinerEverywhere) {
  // predict --machine, sweep --machines, client --machines: same line.
  EXPECT_EQ(run_cmd({"predict", "--tree", tree_path_, "--machine", "nope"}),
            1);
  EXPECT_EQ(err_.str(), kUnknownNope);

  EXPECT_EQ(run_cmd({"sweep", "--tree", tree_path_, "--machines",
                     "westmere,nope"}),
            1);
  EXPECT_EQ(err_.str(), kUnknownNope);
}

TEST_F(MachinesCliTest, PredictOnPresetReportsItsMachine) {
  ASSERT_EQ(run_cmd({"predict", "--tree", tree_path_, "--machine", "epyc",
                     "--threads", "2,4"}),
            0);
  // The preset is the whole machine: its core count, not the default 12.
  EXPECT_NE(out_.str().find("machine epyc (32 cores)"), std::string::npos)
      << out_.str();
}

TEST_F(MachinesCliTest, SweepMachinesAddsLeadingMachineColumn) {
  ASSERT_EQ(run_cmd({"sweep", "--tree", tree_path_, "--machines",
                     "westmere,skylake", "--threads", "2,4", "--csv", "-"}),
            0);
  const std::string csv = out_.str();
  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.rfind("machine,", 0), 0u) << header;
  std::size_t westmere_rows = 0, skylake_rows = 0, rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    ++rows;
    if (line.rfind("westmere,", 0) == 0) ++westmere_rows;
    if (line.rfind("skylake,", 0) == 0) ++skylake_rows;
  }
  // Full grid (2 thread counts) per machine, machine name keying each row.
  EXPECT_EQ(rows, 4u);
  EXPECT_EQ(westmere_rows, 2u);
  EXPECT_EQ(skylake_rows, 2u);
  // Status goes to stderr under `--csv -`, with the projection count.
  EXPECT_NE(err_.str().find("2 machines"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("section counter projection"), std::string::npos);
}

TEST_F(MachinesCliTest, ClassicSweepSchemaUnchangedWithoutMachines) {
  ASSERT_EQ(run_cmd({"sweep", "--tree", tree_path_, "--threads", "2",
                     "--csv", "-"}),
            0);
  std::istringstream lines(out_.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.rfind("method,", 0), 0u) << header;
}

// Goldens for the pricing step predict, sweep and advise share: preset
// projection, Ψ/Φ calibration on the machine the command predicts on, β
// attachment and compilation. FNV-64 of stdout, recorded before the three
// commands shared one helper; the three SYN outputs were re-recorded once when
// DES progress became exact (their parallel cycles dropped by 1-3 cycles of
// drift). The tree is built, not profiled, so no host address reaches these
// bytes.
TEST_F(MachinesCliTest, MemoryModelOutputsMatchGoldens) {
  const std::string path = testing::TempDir() + "cli_memory_bound.ptree";
  {
    tree::TreeBuilder b;
    b.u(2'000);
    b.begin_sec("stream");
    b.begin_task("t").u(4'000).end_task().repeat_last(48);
    tree::SectionCounters c;
    c.instructions = 150'000;
    c.cycles = 192'000;
    c.llc_misses = 9'000;
    c.llc_writebacks = 3'000;
    b.counters(c).end_sec();
    b.u(1'000);
    b.begin_sec("compute");
    b.begin_task("t").u(2'500).l(1, 100).end_task().repeat_last(24);
    tree::SectionCounters k;
    k.instructions = 90'000;
    k.cycles = 62'400;
    k.llc_misses = 40;
    b.counters(k).end_sec();
    tree::ProgramTree t = b.finish();

    reuse::ReuseHistogram h;
    h.config = reuse::ProfiledConfig{};
    h.cold = 2'000;
    for (int i = 0; i < 4'000; ++i) h.record(i % 4 == 0 ? 64 : 400'000);
    t.root->child(1)->set_reuse_profile(h);
    std::ofstream f(path);
    tree::write_tree(f, t);
  }
  const struct {
    std::vector<std::string> args;
    std::uint64_t digest;
  } kCases[] = {
      {{"sweep", "--memory-model", "--csv", "-"}, 5744189176102462682ULL},
      {{"sweep", "--machines", "westmere,epyc", "--memory-model", "--csv", "-"},
       2984277477880596856ULL},
      {{"predict", "--machine", "skylake", "--memory-model", "--csv", "-"},
       5394275934031736586ULL},
      {{"advise", "--memory-model"}, 1121994840201550687ULL},
  };
  for (const auto& c : kCases) {
    std::vector<std::string> args = c.args;
    args.insert(args.begin() + 1, {"--tree", path});
    SCOPED_TRACE(args[0] + " " + args[3]);
    ASSERT_EQ(run_cmd(args), 0) << err_.str();
    EXPECT_EQ(util::fnv64(out_.str()), c.digest) << out_.str();
  }
  // The goldens see the memory model: the memory-bound section prices
  // differently with it off.
  ASSERT_EQ(run_cmd({"sweep", "--tree", path, "--memory-model", "--csv", "-"}),
            0);
  const std::string on = out_.str();
  ASSERT_EQ(run_cmd({"sweep", "--tree", path, "--csv", "-"}), 0);
  EXPECT_NE(out_.str(), on);
  std::remove(path.c_str());
}

TEST_F(MachinesCliTest, BadMachinesListRejectedAtParse) {
  std::ostringstream err;
  EXPECT_FALSE(
      parse_args({"sweep", "--tree", tree_path_, "--machines", ""}, err)
          .has_value());
  EXPECT_NE(err.str().find("--machines"), std::string::npos);
}

}  // namespace
}  // namespace pprophet::cli

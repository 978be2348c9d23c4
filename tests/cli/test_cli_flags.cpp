// Property suite for the CLI flag parser: every numeric flag accepts exactly
// its documented range, written as a plain decimal with nothing around it,
// and every rejected command line costs exactly one "pprophet: ..." line.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "util/rng.hpp"

namespace pprophet::cli {
namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// One numeric flag, its inclusive range and where parse_args stores it.
struct NumericFlag {
  const char* name;
  std::uint64_t lo;
  std::uint64_t hi;
  std::uint64_t (*stored)(const Options&);
  const char* hint = "";  ///< the "(use e.g. ...)" text of its diagnostic
};

const std::vector<NumericFlag>& numeric_flags() {
  static const std::vector<NumericFlag> kFlags = {
      {"--chunk", 1, kU64Max, [](const Options& o) { return o.chunk; }},
      {"--cores", 1, kU32Max,
       [](const Options& o) -> std::uint64_t { return o.cores; }},
      {"--target-threads", 1, kU32Max,
       [](const Options& o) -> std::uint64_t { return o.target_threads; }},
      {"--threads", 1, kU32Max,
       [](const Options& o) -> std::uint64_t { return o.threads.at(0); },
       " (use e.g. 2,4,8)"},
      {"--chunks", 1, kU64Max,
       [](const Options& o) { return o.chunks.at(0); }, " (use e.g. 1,4)"},
      {"--workers", 0, SIZE_MAX,
       [](const Options& o) -> std::uint64_t { return o.workers; }},
      {"--serve-workers", 1, SIZE_MAX,
       [](const Options& o) -> std::uint64_t { return o.serve_workers; }},
      {"--queue-limit", 1, SIZE_MAX,
       [](const Options& o) -> std::uint64_t { return o.queue_limit; }},
      // cmd_serve shifts the budget left by 20 bits.
      {"--cache-mb", 1, SIZE_MAX >> 20,
       [](const Options& o) -> std::uint64_t { return o.cache_mb; }},
      {"--deadline-ms", 1, kU64Max,
       [](const Options& o) { return o.deadline_ms; }},
      // cmd_serve multiplies the threshold by 1000.
      {"--slow-ms", 0, kU64Max / 1000,
       [](const Options& o) { return o.slow_ms; }},
      {"--log-sample", 1, kU64Max,
       [](const Options& o) { return o.log_sample; }},
      // cmd_stats sleeps this many std::chrono::seconds.
      {"--watch", 1,
       static_cast<std::uint64_t>(std::chrono::seconds::max().count()),
       [](const Options& o) { return o.watch_secs; }},
      {"--samples", 1, kU64Max,
       [](const Options& o) { return o.watch_samples; }},
  };
  return kFlags;
}

std::string below(std::uint64_t lo) {
  return lo == 0 ? "-1" : std::to_string(lo - 1);
}

std::string above(std::uint64_t hi) {
  return hi == kU64Max ? "18446744073709551616" : std::to_string(hi + 1);
}

/// Lines written to `err`, or -1 when the last one is unterminated.
long lines(const std::string& err) {
  if (!err.empty() && err.back() != '\n') return -1;
  return std::count(err.begin(), err.end(), '\n');
}

class CliFlagsTest : public ::testing::Test {
 protected:
  /// parse_args over `serve FLAG VALUE`: serve needs no --tree, and the
  /// flag table is shared by every command.
  std::optional<Options> parse(const std::string& flag,
                               const std::string& value) {
    err_.str("");
    return parse_args({"serve", flag, value}, err_);
  }

  void expect_bad(const NumericFlag& f, const std::string& value) {
    SCOPED_TRACE(std::string(f.name) + " '" + value + "'");
    EXPECT_FALSE(parse(f.name, value).has_value());
    EXPECT_EQ(err_.str(), std::string("pprophet: bad ") + f.name + f.hint +
                              "\n");
  }

  std::ostringstream err_;
};

TEST_F(CliFlagsTest, EveryNumericFlagAcceptsExactlyItsRange) {
  for (const NumericFlag& f : numeric_flags()) {
    SCOPED_TRACE(f.name);
    for (const std::uint64_t v : {f.lo, f.hi}) {
      const auto o = parse(f.name, std::to_string(v));
      ASSERT_TRUE(o.has_value()) << err_.str();
      EXPECT_EQ(f.stored(*o), v);
      EXPECT_EQ(err_.str(), "");
    }
    expect_bad(f, below(f.lo));
    expect_bad(f, above(f.hi));
  }
}

TEST_F(CliFlagsTest, ValuesThatOnlyFitAWiderTypeAreRejected) {
  for (const NumericFlag& f : numeric_flags()) {
    // 2^32 + 1 used to be read as a long and cast to 1 core.
    if (f.hi < 4294967297ULL) expect_bad(f, "4294967297");
    expect_bad(f, "18446744073709551617");
    expect_bad(f, "99999999999999999999999999");
  }
}

TEST_F(CliFlagsTest, NumbersAreTheWholeTokenWithNoSign) {
  for (const NumericFlag& f : numeric_flags()) {
    const std::string one = std::to_string(std::max<std::uint64_t>(f.lo, 1));
    for (const std::string& v : std::vector<std::string>{
             one + "x", one + " ", " " + one, "+" + one, "-" + one, one + ".5",
             "0x" + one, "", "abc", one + ",", "1e3"}) {
      // A trailing comma is the one list spelling std::getline forgives.
      const bool list = std::string(f.name) == "--threads" ||
                        std::string(f.name) == "--chunks";
      if (list && v == one + ",") continue;
      expect_bad(f, v);
    }
  }
}

TEST_F(CliFlagsTest, ListsCheckEveryElement) {
  const NumericFlag* threads = nullptr;
  for (const NumericFlag& f : numeric_flags()) {
    if (std::string(f.name) == "--threads") threads = &f;
  }
  ASSERT_NE(threads, nullptr);
  for (const char* v : {"2,4x", "2,,4", ",2", "2,0", "2,4294967296", "2;4",
                        "2, 4"}) {
    expect_bad(*threads, v);
  }
  const auto o = parse("--threads", "2,4,4294967295");
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->threads, (std::vector<CoreCount>{2, 4, 4294967295u}));
}

TEST_F(CliFlagsTest, ToleranceIsAFractionInZeroToOne) {
  for (const char* v : {"0", "0.05", "1", "1.0", "5e-1"}) {
    SCOPED_TRACE(v);
    const auto o = parse("--tolerance", v);
    ASSERT_TRUE(o.has_value()) << err_.str();
    EXPECT_DOUBLE_EQ(o->tolerance, std::stod(v));
  }
  for (const char* v : {"abc", "", "-0.01", "1.01", "7", "0.5x", "+0.5",
                        "nan", "inf", " 0.5"}) {
    SCOPED_TRACE(v);
    EXPECT_FALSE(parse("--tolerance", v).has_value());
    EXPECT_EQ(err_.str(), "pprophet: bad --tolerance\n");
  }
}

TEST_F(CliFlagsTest, MissingValueIsOneLine) {
  for (const char* flag :
       {"--tree", "-o", "--method", "--paradigm", "--schedule", "--chunk",
        "--threads", "--cores", "--methods", "--machines", "--tolerance",
        "--csv", "--trace-out", "--socket", "--cache-mb", "--slow-ms",
        "--watch"}) {
    SCOPED_TRACE(flag);
    err_.str("");
    EXPECT_FALSE(parse_args({"serve", flag}, err_).has_value());
    EXPECT_EQ(err_.str(),
              std::string("pprophet: ") + flag + " needs a value\n");
  }
}

// The command lines that used to run with a wrapped or truncated value each
// exit 1 with one diagnostic and nothing on stdout.
TEST_F(CliFlagsTest, FormerlyAcceptedValuesExitOneWithOneLine) {
  const struct {
    std::vector<const char*> argv;
    const char* err;
  } kCases[] = {
      {{"predict", "--cores", "4294967297"}, "pprophet: bad --cores\n"},
      {{"predict", "--cores", "8x"}, "pprophet: bad --cores\n"},
      {{"predict", "--threads", "2,4x"},
       "pprophet: bad --threads (use e.g. 2,4,8)\n"},
      {{"predict", "--chunk", "3abc"}, "pprophet: bad --chunk\n"},
      {{"sweep", "--workers", "1z"}, "pprophet: bad --workers\n"},
      {{"compress", "--tolerance", "abc"}, "pprophet: bad --tolerance\n"},
      {{"serve", "--cache-mb", "17592186044416"}, "pprophet: bad --cache-mb\n"},
  };
  for (const auto& c : kCases) {
    std::vector<const char*> argv{"pprophet"};
    argv.insert(argv.end(), c.argv.begin(), c.argv.end());
    argv.insert(argv.end(), {"--tree", "unused.ptree"});
    SCOPED_TRACE(std::string(c.argv[1]) + " " + c.argv[2]);
    std::ostringstream out, err;
    EXPECT_EQ(main_impl(static_cast<int>(argv.size()), argv.data(), out, err),
              1);
    EXPECT_EQ(out.str(), "");
    EXPECT_EQ(err.str(), c.err);
  }
}

// Seeded random command lines drawn from real flag names, boundary numbers
// and junk: parse_args either returns Options without a word, or rejects
// with exactly one "pprophet: " line.
TEST_F(CliFlagsTest, RandomArgvGivesOptionsOrOneLine) {
  const std::vector<std::string> commands = {
      "predict", "inspect", "compress", "advise", "timeline", "sweep",
      "serve",   "client",  "stats",    "help",   "bogus",    ""};
  std::vector<std::string> tokens = {
      "--tree", "-o", "--output", "--method", "--paradigm", "--schedule",
      "--methods", "--paradigms", "--schedules", "--machine", "--machines",
      "--memory-model", "--lossy", "--csv", "--metrics", "--metrics=",
      "--metrics=m.json", "--trace-out", "--trace-out=", "--trace-out=t.json",
      "--listen", "--connect", "--op", "--key", "--log", "--tolerance",
      "--zap", "-", "--", "ff", "syn,real", "omp", "cilk,omp", "static1",
      "dynamic,guided", "skylake", "westmere,,epyc", ",", "", "0", "1", "-1",
      "+1", "0.5", "1.5", "nan", "8x", "2,4", "2,4x", "4294967295",
      "4294967296", "4294967297", "17592186044415", "17592186044416",
      "18446744073709551615", "18446744073709551616", "ping", "stats"};
  for (const NumericFlag& f : numeric_flags()) tokens.emplace_back(f.name);

  util::Xoshiro256 rng(0x5eed'c11fULL);
  std::size_t accepted = 0;
  constexpr int kRuns = 4000;
  for (int run = 0; run < kRuns; ++run) {
    std::vector<std::string> argv;
    if (rng.uniform_u64(0, 20) != 0) {
      argv.push_back(commands[rng.uniform_u64(0, commands.size() - 1)]);
      const std::uint64_t n = rng.uniform_u64(0, 6);
      for (std::uint64_t k = 0; k < n; ++k) {
        argv.push_back(tokens[rng.uniform_u64(0, tokens.size() - 1)]);
      }
      // Most tree commands need --tree; give it often enough that whole
      // command lines get through.
      if (rng.bernoulli(0.7)) argv.insert(argv.begin() + 1, {"--tree", "t"});
    }
    std::ostringstream err;
    const auto o = parse_args(argv, err);
    std::string line;
    for (const auto& a : argv) line += "'" + a + "' ";
    SCOPED_TRACE(line);
    if (o.has_value()) {
      ++accepted;
      EXPECT_EQ(err.str(), "");
    } else {
      EXPECT_EQ(lines(err.str()), 1) << err.str();
      EXPECT_EQ(err.str().rfind("pprophet: ", 0), 0u) << err.str();
    }
  }
  // The generator reaches both outcomes.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kRuns));
}

}  // namespace
}  // namespace pprophet::cli

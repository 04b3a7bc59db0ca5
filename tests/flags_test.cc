// The strict number and flag parser (common/flags.h): every value is taken
// whole or refused with a typed error, never read as 0 or wrapped.
#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace numdist {
namespace {

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

TEST(ParseUintTest, TakesDecimalDigitsUpToMax) {
  EXPECT_EQ(ParseUint("0").ValueOrDie(), 0u);
  EXPECT_EQ(ParseUint("65535", 65535).ValueOrDie(), 65535u);
  EXPECT_FALSE(ParseUint("65536", 65535).ok());
  EXPECT_EQ(ParseUint("18446744073709551615").ValueOrDie(), kU64Max);
  EXPECT_FALSE(ParseUint("18446744073709551616").ok());
  EXPECT_FALSE(ParseUint("99999999999999999999").ok());
}

TEST(ParseUintTest, RefusesAnythingButDigits) {
  for (const char* text : {"", "-0", "-1", "+1", " 1", "1 ", "0x10", "1e3",
                           "1.0", "abc", "1x"}) {
    const Result<uint64_t> parsed = ParseUint(text);
    ASSERT_FALSE(parsed.ok()) << "'" << text << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(std::string("'") + text + "'"),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(ParseFiniteTest, TakesFiniteDecimals) {
  EXPECT_EQ(ParseFinite("1").ValueOrDie(), 1.0);
  EXPECT_EQ(ParseFinite("-0.5").ValueOrDie(), -0.5);
  EXPECT_EQ(ParseFinite(".5").ValueOrDie(), 0.5);
  EXPECT_EQ(ParseFinite("1e-3").ValueOrDie(), 1e-3);
  EXPECT_EQ(ParseFinite("0.1").ValueOrDie(), 0.1);
}

TEST(ParseFiniteTest, RefusesNonFiniteAndTrailingBytes) {
  for (const char* text :
       {"1e400", "-1e400", "inf", "-inf", "nan", "NaN", "1.5x", "", " 1",
        "+1", "abc"}) {
    const Result<double> parsed = ParseFinite(text);
    ASSERT_FALSE(parsed.ok()) << "'" << text << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SplitListTest, KeepsEmptyItemsAsViews) {
  const std::string text = "a,,b,";
  const std::vector<std::string_view> items = SplitList(text);
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0], "a");
  EXPECT_EQ(items[1], "");
  EXPECT_EQ(items[2], "b");
  EXPECT_EQ(items[3], "");
  EXPECT_EQ(SplitList("").size(), 1u);
  EXPECT_EQ(SplitList("7:5:0.5", ':').size(), 3u);
}

// Runs ParseFlags over `args`, argv[0] being the program name.
Status ParseArgs(std::vector<std::string> args,
                 std::initializer_list<Flag> table) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseFlags(static_cast<int>(argv.size()), argv.data(), table);
}

struct Targets {
  bool csv = false;
  std::string name = "default";
  uint64_t seed = 1;
  uint32_t tenant = 2;
  int timeout = 3;
  double epsilon = 4.0;
  std::vector<std::string> list;
};

Status Parse(std::vector<std::string> args, Targets* t) {
  return ParseArgs(
      std::move(args),
      {{"--csv", &t->csv},
       {"--name", &t->name},
       {"--seed", &t->seed},
       {"--tenant", &t->tenant},
       {"--timeout", &t->timeout},
       {"--epsilon", &t->epsilon},
       {"--list", [t](std::string_view value) -> Status {
          if (value.empty()) return Status::InvalidArgument("empty list");
          const std::vector<std::string_view> items = SplitList(value);
          t->list.assign(items.begin(), items.end());
          return Status::OK();
        }}});
}

// The error of a refused argv, which must name `flag`.
std::string Refusal(std::vector<std::string> args, const std::string& flag) {
  Targets t;
  const Status st = Parse(std::move(args), &t);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find(flag), std::string::npos) << st.message();
  return st.message();
}

TEST(ParseFlagsTest, SetsEveryKindOfTarget) {
  Targets t;
  ASSERT_TRUE(Parse({"--csv", "--name=", "--seed=18446744073709551615",
                     "--tenant=4294967295", "--timeout=2147483647",
                     "--epsilon=0.25", "--list=a,b"},
                    &t)
                  .ok());
  EXPECT_TRUE(t.csv);
  EXPECT_EQ(t.name, "") << "an empty value is a string";
  EXPECT_EQ(t.seed, kU64Max);
  EXPECT_EQ(t.tenant, 4294967295u);
  EXPECT_EQ(t.timeout, 2147483647);
  EXPECT_EQ(t.epsilon, 0.25);
  EXPECT_EQ(t.list, (std::vector<std::string>{"a", "b"}));
}

TEST(ParseFlagsTest, NoFlagsLeavesDefaults) {
  Targets t;
  ASSERT_TRUE(Parse({}, &t).ok());
  EXPECT_FALSE(t.csv);
  EXPECT_EQ(t.seed, 1u);
  EXPECT_EQ(t.epsilon, 4.0);
}

TEST(ParseFlagsTest, RepeatedFlagKeepsTheLastValue) {
  Targets t;
  ASSERT_TRUE(Parse({"--seed=5", "--seed=9", "--list=a", "--list=b,c"}, &t)
                  .ok());
  EXPECT_EQ(t.seed, 9u);
  EXPECT_EQ(t.list, (std::vector<std::string>{"b", "c"}));
}

TEST(ParseFlagsTest, RefusesMalformedArguments) {
  EXPECT_NE(Refusal({"--bogus=1"}, "--bogus=1").find("unknown flag"),
            std::string::npos);
  Refusal({"seed=1"}, "seed=1");
  Refusal({"--csv=1"}, "--csv");
  Refusal({"--seed"}, "--seed");
  Refusal({"--seed="}, "--seed");
  Refusal({"--epsilon="}, "--epsilon");
  Refusal({"--seed=abc"}, "--seed");
  Refusal({"--seed=-3"}, "--seed");
  Refusal({"--seed=1x"}, "--seed");
  Refusal({"--seed=18446744073709551616"}, "--seed");
  Refusal({"--tenant=4294967296"}, "--tenant");
  Refusal({"--timeout=2147483648"}, "--timeout");
  Refusal({"--timeout=-1"}, "--timeout");
  Refusal({"--epsilon=nan"}, "--epsilon");
  Refusal({"--epsilon=1e400"}, "--epsilon");
}

TEST(ParseFlagsTest, HandlerErrorIsPrefixedWithTheFlag) {
  EXPECT_EQ(Refusal({"--list="}, "--list"), "--list: empty list");
}

TEST(ParseFlagsTest, StopsAtTheFirstBadFlag) {
  Targets t;
  EXPECT_FALSE(Parse({"--seed=7", "--tenant=x", "--epsilon=2"}, &t).ok());
  EXPECT_EQ(t.seed, 7u);
  EXPECT_EQ(t.epsilon, 4.0);
}

TEST(ParseFlagsTest, ANameCanBeASwitchAndTakeAValue) {
  bool bare = false;
  std::string files;
  ASSERT_TRUE(
      ParseArgs({"--merge"}, {{"--merge", &bare}, {"--merge", &files}}).ok());
  EXPECT_TRUE(bare);
  EXPECT_EQ(files, "");
  bare = false;
  ASSERT_TRUE(
      ParseArgs({"--merge=a,b"}, {{"--merge", &bare}, {"--merge", &files}})
          .ok());
  EXPECT_FALSE(bare);
  EXPECT_EQ(files, "a,b");
}

}  // namespace
}  // namespace numdist

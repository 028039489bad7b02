#include "cli/flags.h"

#include <gtest/gtest.h>

namespace dbscout::cli {
namespace {

Result<Flags> ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "dbscout");
  return Flags::Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, ParsesCommandAndFlags) {
  auto flags = ParseArgs({"detect", "--eps=1.5", "--min-pts=5", "--scores"});
  ASSERT_TRUE(flags.ok()) << flags.status();
  EXPECT_EQ(flags->command(), "detect");
  EXPECT_TRUE(flags->Has("eps"));
  EXPECT_TRUE(flags->GetBool("scores"));
  EXPECT_FALSE(flags->GetBool("missing"));
  EXPECT_DOUBLE_EQ(*flags->GetDouble("eps", 0.0), 1.5);
  EXPECT_EQ(*flags->GetUint("min-pts", 0, 5), 5u);
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  auto flags = ParseArgs({"detect"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("engine", "sequential"), "sequential");
  EXPECT_DOUBLE_EQ(*flags->GetDouble("eps", 2.5), 2.5);
  EXPECT_EQ(*flags->GetUint("k", 7, 7), 7u);
}

TEST(FlagsTest, RejectsMissingCommand) {
  const char* argv[] = {"dbscout"};
  EXPECT_FALSE(Flags::Parse(1, argv).ok());
}

TEST(FlagsTest, RejectsPositionalArguments) {
  auto flags = ParseArgs({"detect", "input.csv"});
  EXPECT_FALSE(flags.ok());
}

TEST(FlagsTest, RejectsMalformedValues) {
  auto flags = ParseArgs({"detect", "--eps=abc", "--min-pts=1.5"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->GetDouble("eps", 0.0).ok());
  EXPECT_FALSE(flags->GetUint("min-pts", 0, UINT64_MAX).ok());
}

TEST(FlagsTest, GetUintChecksTheBound) {
  auto flags = ParseArgs({"detect", "--port=65535", "--id=65536"});
  ASSERT_TRUE(flags.ok());
  auto at_max = flags->GetUint("port", 0, 65535);
  ASSERT_TRUE(at_max.ok()) << at_max.status();
  EXPECT_EQ(*at_max, 65535u);
  auto over = flags->GetUint("id", 0, 65535);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().message().find("--id"), std::string::npos);
}

TEST(FlagsTest, ParseFlagsTakesNoCommand) {
  const char* argv[] = {"dbscout_serve", "--eps=1", "--data-dir=d"};
  auto flags = Flags::ParseFlags(3, argv);
  ASSERT_TRUE(flags.ok()) << flags.status();
  EXPECT_EQ(flags->command(), "");
  EXPECT_EQ(flags->GetString("data-dir"), "d");
  const char* positional[] = {"dbscout_serve", "--eps=1", "extra"};
  EXPECT_FALSE(Flags::ParseFlags(3, positional).ok());
}

TEST(FlagsTest, ValueWithEqualsSign) {
  auto flags = ParseArgs({"generate", "--output=a=b.csv"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("output"), "a=b.csv");
}

TEST(FlagsTest, CheckAllowedCatchesTypos) {
  auto flags = ParseArgs({"detect", "--epz=1"});
  ASSERT_TRUE(flags.ok());
  const Status status = flags->CheckAllowed({"eps", "min-pts"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--epz"), std::string::npos);
}

TEST(FlagsTest, CheckRequiredNamesTheMissingFlag) {
  auto flags = ParseArgs({"detect", "--eps=1"});
  ASSERT_TRUE(flags.ok());
  const Status status = flags->CheckRequired({"eps", "input"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--input"), std::string::npos);
}

}  // namespace
}  // namespace dbscout::cli

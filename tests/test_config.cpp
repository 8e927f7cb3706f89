// Tests for the key=value config store.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/config.hpp"
#include "core/error.hpp"

namespace dynmo {
namespace {

TEST(Config, ParsesTypedValues) {
  const auto cfg = Config::parse(
      "# a comment\n"
      "stages = 8\n"
      "ratio = 0.25  # trailing comment\n"
      "name = early_exit\n"
      "repack = true\n"
      "\n");
  EXPECT_EQ(cfg.size(), 4u);
  EXPECT_EQ(cfg.get_int("stages"), 8);
  EXPECT_EQ(cfg.get_string("ratio"), "0.25");
  EXPECT_EQ(cfg.get_string("name"), "early_exit");
  EXPECT_TRUE(cfg.get_bool("repack"));
}

TEST(Config, BoolSpellings) {
  const auto cfg = Config::parse("a=YES\nb=off\nc=1\nd=False");
  EXPECT_TRUE(cfg.get_bool("a"));
  EXPECT_FALSE(cfg.get_bool("b"));
  EXPECT_TRUE(cfg.get_bool("c"));
  EXPECT_FALSE(cfg.get_bool("d"));
  EXPECT_THROW((void)Config::parse("e=maybe").get_bool("e"), Error);
}

TEST(Config, DefaultsAndMissing) {
  const auto cfg = Config::parse("x = 1");
  EXPECT_EQ(cfg.get_int("x", 7), 1);
  EXPECT_EQ(cfg.get_int("y", 7), 7);
  EXPECT_THROW((void)cfg.get_int("y"), Error);
}

TEST(Config, RejectsMalformed) {
  EXPECT_THROW((void)Config::parse("no equals sign"), Error);
  EXPECT_THROW((void)Config::parse("= value"), Error);
  EXPECT_THROW((void)Config::parse("n = 12x").get_int("n"), Error);
}

TEST(Config, UnknownKeysDetected) {
  const auto cfg = Config::parse("stages=8\nstagse=4");
  const auto unknown = cfg.unknown_keys({"stages", "layers"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "stagse");
}

TEST(Config, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "dynmo_cfg_test.conf";
  {
    std::ofstream out(path);
    out << "layers = 48\nmode = dynmo\n";
  }
  const auto cfg = Config::load(path.string());
  EXPECT_EQ(cfg.get_int("layers"), 48);
  EXPECT_EQ(cfg.get_string("mode"), "dynmo");
  std::filesystem::remove(path);
  EXPECT_THROW((void)Config::load(path.string()), Error);
}

}  // namespace
}  // namespace dynmo

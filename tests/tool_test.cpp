// Smoke tests for the skyloader_tool CLI: generate -> lint -> verify ->
// load round trip against real files on disk, plus usage errors.
// The binary path is injected by CMake (SKYLOADER_TOOL_PATH).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "htm/htm.h"

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class ToolTest : public ::testing::Test {
 protected:
  ToolTest() : tool_(SKYLOADER_TOOL_PATH) {
    dir_ = std::filesystem::temp_directory_path() /
           ("skyloader_tool_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~ToolTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string tool_;
  std::filesystem::path dir_;
};

TEST_F(ToolTest, UsageOnNoCommand) {
  const auto result = run_command(tool_);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(ToolTest, GenerateLintVerifyLoadRoundTrip) {
  // generate: reference + 28 nightly files.
  const auto generate = run_command(
      tool_ + " generate --night 9 --megabytes 1 --seed 7 --out " +
      dir_.string());
  ASSERT_EQ(generate.exit_code, 0) << generate.output;
  EXPECT_NE(generate.output.find("reference.cat"), std::string::npos);
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".cat") ++files;
  }
  EXPECT_EQ(files, 29);  // reference + 28

  // lint: clean files pass.
  const auto lint = run_command(
      tool_ + " lint " + (dir_ / "night9_file00.cat").string());
  EXPECT_EQ(lint.exit_code, 0) << lint.output;
  EXPECT_NE(lint.output.find("0 parse errors"), std::string::npos);

  // verify: loads everything into a throwaway repository, audits it.
  const auto verify = run_command(
      tool_ + " verify " + (dir_ / "*.cat").string());
  EXPECT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("integrity audit: OK"), std::string::npos);

  // load with a Markdown report and a persisted WAL. The loader follows the
  // production profile: the columnar run path, whose redo is one
  // kInsertBatch record per sub-run.
  const auto report_path = dir_ / "report.md";
  const auto wal_path = dir_ / "repo.wal";
  const auto load = run_command(
      tool_ + " load --parallel 2 --report " + report_path.string() +
      " --wal " + wal_path.string() + " " + (dir_ / "*.cat").string());
  EXPECT_EQ(load.exit_code, 0) << load.output;
  EXPECT_NE(load.output.find("ingest: columnar path, batch=4000, array=4000"),
            std::string::npos)
      << load.output;
  const auto wal_line = load.output.find("WAL persisted to");
  ASSERT_NE(wal_line, std::string::npos) << load.output;
  const auto batch_count = load.output.find("records, ", wal_line);
  ASSERT_NE(batch_count, std::string::npos) << load.output;
  EXPECT_GT(std::stoll(load.output.substr(batch_count + 9)), 0)
      << load.output;
  std::ifstream report(report_path);
  ASSERT_TRUE(report.good());
  std::string contents((std::istreambuf_iterator<char>(report)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("# Load report"), std::string::npos);
  EXPECT_NE(contents.find("| objects |"), std::string::npos);

  // --batch / --array override the profile's sizes only when given.
  const auto row_sized = run_command(
      tool_ + " verify --batch 40 --array 1000 " + (dir_ / "*.cat").string());
  EXPECT_EQ(row_sized.exit_code, 0) << row_sized.output;
  EXPECT_NE(row_sized.output.find("ingest: columnar path, batch=40, array=1000"),
            std::string::npos)
      << row_sized.output;
}

// `cone` loads like `load` and queries a pinned snapshot: its match count
// equals a brute-force distance count over every OBJ row of the night, and
// it prints one line of per-stage wall times.
TEST_F(ToolTest, ConeMatchesBruteForceCount) {
  const auto generate = run_command(
      tool_ + " generate --night 4 --megabytes 1 --seed 11 --out " +
      dir_.string());
  ASSERT_EQ(generate.exit_code, 0) << generate.output;

  // (ra, dec) of every object, straight from the catalog text:
  // OBJ|object_id|frame_id|ra|dec|...
  std::vector<std::pair<double, double>> positions;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("OBJ|", 0) != 0) continue;
      std::vector<std::string> fields;
      std::stringstream stream(line);
      for (std::string field; std::getline(stream, field, '|');) {
        fields.push_back(field);
      }
      ASSERT_GE(fields.size(), 5u) << line;
      positions.emplace_back(std::stod(fields[3]), std::stod(fields[4]));
    }
  }
  ASSERT_FALSE(positions.empty());
  const auto [ra, dec] = positions[positions.size() / 2];
  const double radius = 0.3;
  const sky::htm::Vec3 center = sky::htm::radec_to_vector(ra, dec);
  long long expected = 0;
  for (const auto& [obj_ra, obj_dec] : positions) {
    if (sky::htm::angular_distance_deg(
            center, sky::htm::radec_to_vector(obj_ra, obj_dec)) <= radius) {
      ++expected;
    }
  }
  ASSERT_GT(expected, 0);

  char args[128];
  std::snprintf(args, sizeof(args), " cone --ra %.17g --dec %.17g --radius %g ",
                ra, dec, radius);
  const auto cone =
      run_command(tool_ + args + (dir_ / "*.cat").string());
  ASSERT_EQ(cone.exit_code, 0) << cone.output;
  const auto total = cone.output.find("total matches within");
  ASSERT_NE(total, std::string::npos) << cone.output;
  const auto colon = cone.output.find(": ", total);
  ASSERT_NE(colon, std::string::npos) << cone.output;
  EXPECT_EQ(std::stoll(cone.output.substr(colon + 2)), expected)
      << cone.output;
  EXPECT_NE(cone.output.find("cone stages (wall): cover "), std::string::npos)
      << cone.output;
  EXPECT_NE(cone.output.find(" ranges, range reads "), std::string::npos)
      << cone.output;
  EXPECT_NE(cone.output.find(" us, filter "), std::string::npos)
      << cone.output;
}

TEST_F(ToolTest, LintFlagsDirtyFile) {
  const auto path = dir_ / "dirty.cat";
  {
    std::ofstream out(path);
    out << "OBS|1|1|1|1|1|1000|1.2|0.5\n";
    out << "XXX|not|a|real|tag\n";
    out << "OBS|malformed\n";
  }
  const auto lint = run_command(tool_ + " lint " + path.string());
  EXPECT_NE(lint.exit_code, 0);
  EXPECT_NE(lint.output.find("2 parse errors"), std::string::npos);
}

TEST_F(ToolTest, VerifyFailsOnMissingFile) {
  const auto result = run_command(tool_ + " verify /no/such/file.cat");
  EXPECT_NE(result.exit_code, 0);
}

}  // namespace

// Per-test scratch paths for the suites that write files.
//
// gtest_discover_tests runs every TEST as its own process and
// `ctest -j` runs those processes side by side, so a fixed file name
// under ::testing::TempDir() would be shared by tests running at the
// same time. tmpPath() gives each test a directory of its own, named by
// the process id and the running test (or, from SetUpTestSuite, the
// running suite); the process removes its directories when it exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace fepia::testing {

/// `leaf` inside the running test's own scratch directory, which is
/// created on first use.
inline std::string tmpPath(const std::string& leaf) {
  struct ProcessRoot {
    std::string path =
        ::testing::TempDir() + "fepia-" + std::to_string(::getpid());
    ~ProcessRoot() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ProcessRoot root;
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  std::string name = "global";
  if (const ::testing::TestInfo* test = unit.current_test_info()) {
    name = std::string(test->test_suite_name()) + "." + test->name();
  } else if (const ::testing::TestSuite* suite = unit.current_test_suite()) {
    name = suite->name();
  }
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  const std::string dir = root.path + "/" + name;
  std::filesystem::create_directories(dir);
  return dir + "/" + leaf;
}

}  // namespace fepia::testing

/**
 * @file
 * Per-test scratch paths for the gtest suites.
 *
 * ctest runs every gtest case as its own process, several at once
 * under `ctest -j`, so a fixed file name under ::testing::TempDir() is
 * shared by every case (and every concurrent run) that uses it.
 * tempPath() instead places files in a directory owned by the running
 * test: named from the suite, the test and the process id, created on
 * first use and removed with its contents when the test ends.
 */

#ifndef SPARCH_TESTS_SUPPORT_TEMP_DIR_HH
#define SPARCH_TESTS_SUPPORT_TEMP_DIR_HH

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace sparch
{
namespace test
{

namespace detail
{

/** Scratch directory name for `info` (null: outside any test). */
inline std::string
dirFor(const ::testing::TestInfo *info)
{
    std::string tag = "sparch";
    if (info != nullptr) {
        tag += std::string(".") + info->test_suite_name() + "." +
               info->name();
    }
    for (char &c : tag) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' || c == '_';
        if (!keep)
            c = '_';
    }
    return ::testing::TempDir() + tag + "." +
           std::to_string(::getpid()) + "/";
}

} // namespace detail

/** The running test's scratch directory (with a trailing '/'). */
inline std::string
testTempDir()
{
    const std::string dir = detail::dirFor(
        ::testing::UnitTest::GetInstance()->current_test_info());
    std::filesystem::create_directories(dir);
    return dir;
}

/** A fresh path for `name` in the test's directory (stale file gone). */
inline std::string
tempPath(const std::string &name)
{
    const std::string path = testTempDir() + name;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return path;
}

/** Removes each test's scratch directory when the test ends. */
class TempDirCleaner : public ::testing::EmptyTestEventListener
{
    void
    OnTestEnd(const ::testing::TestInfo &info) override
    {
        std::error_code ec;
        std::filesystem::remove_all(detail::dirFor(&info), ec);
    }
};

inline const bool kTempDirCleanerInstalled = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new TempDirCleaner);
    return true;
}();

} // namespace test
} // namespace sparch

#endif // SPARCH_TESTS_SUPPORT_TEMP_DIR_HH

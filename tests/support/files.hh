/**
 * @file
 * File and CSV helpers shared by the gtest suites.
 *
 * writeFile() creates a file in the running test's scratch directory
 * (see temp_dir.hh), fileBytes() reads a file back byte for byte, and
 * csvOf() renders batch records in the writeCsv schema, the form in
 * which suites compare whole sweeps. Files are opened in binary mode
 * and truncated on write; a file that cannot be opened fails the
 * running test.
 */

#ifndef SPARCH_TESTS_SUPPORT_FILES_HH
#define SPARCH_TESTS_SUPPORT_FILES_HH

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/batch_runner.hh"
#include "temp_dir.hh"

namespace sparch
{
namespace test
{

/** Write `contents` to a fresh scratch file `name`; returns its path. */
inline std::string
writeFile(const std::string &name, const std::string &contents)
{
    const std::string path = tempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    EXPECT_TRUE(static_cast<bool>(out)) << "cannot create " << path;
    out << contents;
    return path;
}

/** The whole content of the file at `path`. */
inline std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** `records` as BatchRunner::writeCsv renders them. */
inline std::string
csvOf(const std::vector<driver::BatchRecord> &records)
{
    std::ostringstream out;
    driver::BatchRunner::writeCsv(records, out);
    return out.str();
}

} // namespace test
} // namespace sparch

#endif // SPARCH_TESTS_SUPPORT_FILES_HH

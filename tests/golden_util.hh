/**
 * @file
 * Shared golden-fixture helpers for the byte-identity tests. Fixtures
 * live in the source tree (tests/golden/, path injected via the
 * COSCALE_GOLDEN_DIR compile definition) so a mismatch shows up as a
 * reviewable diff; COSCALE_REGEN_GOLDEN=1 in the environment rewrites
 * them in place. The Digest accumulator folds kernel counters into
 * the KernelPin.* pins (test_golden.cc).
 */

#ifndef COSCALE_TESTS_GOLDEN_UTIL_HH
#define COSCALE_TESTS_GOLDEN_UTIL_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef COSCALE_GOLDEN_DIR
#error "targets using golden_util.hh must define COSCALE_GOLDEN_DIR"
#endif

namespace coscale {

/** FNV-1a accumulator over typed words (doubles hashed bit-exact). */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (v >> (8 * i)) & 0xffU;
            state *= 0x100000001b3ULL;
        }
    }

    void add(int v) { add(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(v))); }
    void add(bool v) { add(std::uint64_t(v ? 1 : 0)); }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    void
    add(const std::string &s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        for (char c : s) {
            state ^= static_cast<unsigned char>(c);
            state *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

/**
 * Byte-compare @p got against the checked-in fixture, or rewrite the
 * fixture when COSCALE_REGEN_GOLDEN is set in the environment.
 */
inline void
checkGolden(const std::string &fixture, const std::string &got)
{
    std::string path = std::string(COSCALE_GOLDEN_DIR) + "/" + fixture;
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe in a test harness
    if (std::getenv("COSCALE_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write fixture " << path;
        out << got;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << "; create it with COSCALE_REGEN_GOLDEN=1";
    std::ostringstream want;
    want << in.rdbuf();
    ASSERT_EQ(got.size(), want.str().size())
        << fixture << " changed size; if the simulator change is "
        << "intentional, regenerate with COSCALE_REGEN_GOLDEN=1 and "
        << "commit the diff";
    EXPECT_TRUE(got == want.str())
        << fixture << " changed content; if the simulator change is "
        << "intentional, regenerate with COSCALE_REGEN_GOLDEN=1 and "
        << "commit the diff";
}

} // namespace coscale

#endif // COSCALE_TESTS_GOLDEN_UTIL_HH

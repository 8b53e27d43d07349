// Mutation and truncation fuzzing of the text and file parsers, in the
// style of test_wire's frame loops: every damaged input must either
// parse or be rejected with phls::error (parse_error, cache_file_error,
// ...).  No other exception may escape: a std::out_of_range from a
// number conversion or a std::bad_alloc from a size read off the input
// would reach a CLI user as a crash instead of a diagnostic.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <typeinfo>

#include "cdfg/benchmarks.h"
#include "cdfg/textio.h"
#include "library/library.h"
#include "serve/manifest.h"
#include "support/errors.h"
#include "support/rng.h"
#include "task/set.h"

namespace phls {
namespace {

/// How the damaged inputs of one parser fared.
struct fuzz_tally {
    int parsed = 0;
    int rejected = 0;
};

/// Feeds `parse` every single-byte mutation (at every position below 64
/// and every 7th after, each XORed with 0x5A or replaced by a byte the
/// grammar treats specially), every truncation and 300 random
/// multi-byte mutations of `good`.  Fails on any exception that is not
/// a phls::error.
fuzz_tally fuzz(const std::string& good, const std::function<void(const std::string&)>& parse)
{
    fuzz_tally tally;
    const auto attempt = [&](const std::string& input, const std::string& what) {
        try {
            parse(input);
            ++tally.parsed;
        } catch (const error&) {
            ++tally.rejected;
        } catch (const std::exception& e) {
            ADD_FAILURE() << what << ": escaped " << typeid(e).name() << ": " << e.what();
        }
    };
    const std::string specials = std::string("\n -9.e") + '\0';
    for (std::size_t i = 0; i < good.size(); i += (i < 64 ? 1 : 7)) {
        std::string mutated = good;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5A);
        attempt(mutated, "xor at " + std::to_string(i));
        for (const char c : specials) {
            mutated[i] = c;
            attempt(mutated, "byte " + std::to_string(static_cast<int>(c)) + " at " +
                                 std::to_string(i));
        }
    }
    for (std::size_t n = 0; n < good.size(); ++n)
        attempt(good.substr(0, n), "length " + std::to_string(n));
    rng r(good.size());
    for (int k = 0; k < 300; ++k) {
        std::string mutated = good;
        const int flips = r.uniform_int(2, 6);
        for (int f = 0; f < flips; ++f) {
            const int at = r.uniform_int(0, static_cast<int>(good.size()) - 1);
            mutated[static_cast<std::size_t>(at)] = static_cast<char>(r.uniform_int(0, 255));
        }
        attempt(mutated, "random mutation " + std::to_string(k));
    }
    return tally;
}

TEST(parser_fuzz, cdfg_text_parses_or_throws_phls_errors)
{
    const std::string good = write_cdfg_string(make_elliptic());
    ASSERT_NO_THROW(parse_cdfg_string(good));
    const fuzz_tally t = fuzz(good, [](const std::string& s) { parse_cdfg_string(s); });
    EXPECT_GT(t.rejected, 0);
    EXPECT_GT(t.parsed, 0);
}

TEST(parser_fuzz, library_text_parses_or_throws_phls_errors)
{
    const std::string good = write_library_string(table1_library());
    ASSERT_NO_THROW(parse_library_string(good));
    const fuzz_tally t = fuzz(good, [](const std::string& s) { parse_library_string(s); });
    EXPECT_GT(t.rejected, 0);
    EXPECT_GT(t.parsed, 0);
}

TEST(parser_fuzz, task_set_text_parses_or_throws_phls_errors)
{
    const std::string good = "taskset smoke\n"
                             "envelope 9.0\n"
                             "battery beta 0.1 cycle 0.5 idle 4\n"
                             "task rx hal deadline 60\n"
                             "task dsp cosine deadline 200 release 10 iterations 2\n";
    ASSERT_NO_THROW(task::parse_task_set_string(good));
    const fuzz_tally t = fuzz(good, [](const std::string& s) { task::parse_task_set_string(s); });
    EXPECT_GT(t.rejected, 0);
    EXPECT_GT(t.parsed, 0);
}

TEST(parser_fuzz, manifest_files_load_or_throw_phls_errors)
{
    const std::string path = std::string(::testing::TempDir()) + "parser_fuzz.phlsman";
    serve::sweep_manifest m;
    m.problem_hash = 0x1234abcd5678ef00ull;
    m.space_size = 40;
    m.done_ranges = {{0, 10}, {20, 40}};
    m.cache_files = {"shard0.phlscache", "shard2.phlscache"};
    serve::save_manifest(path, m);
    std::ostringstream bytes;
    bytes << std::ifstream(path, std::ios::binary).rdbuf();
    const std::string good = bytes.str();
    ASSERT_NO_THROW(serve::load_manifest(path));
    const fuzz_tally t = fuzz(good, [&](const std::string& s) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << s;
        serve::load_manifest(path);
    });
    // The checksum catches every damaged body, so nothing but the
    // original parses.
    EXPECT_GT(t.rejected, 0);
    std::remove(path.c_str());
}

} // namespace
} // namespace phls

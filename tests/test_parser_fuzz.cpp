// Mutation and truncation fuzzing of the text and file parsers, in the
// style of test_wire's frame loops: every damaged input must either
// parse or be rejected with phls::error (parse_error, cache_file_error,
// ...).  No other exception may escape: a std::out_of_range from a
// number conversion or a std::bad_alloc from a size read off the input
// would reach a CLI user as a crash instead of a diagnostic.
//
// The CDFG, library and task-set readers are also differential: on
// every input they must agree with the seed-era readers of
// reference_readers.h -- both parse and write the same bytes, or both
// throw the same exception type with the same message, line number
// included.  The inputs add "\r\n" endings, blank and comment lines
// before the damage, a last line without '\n', and the 10k-op DAG.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <typeinfo>

#include "cdfg/benchmarks.h"
#include "cdfg/textio.h"
#include "library/library.h"
#include "reference_readers.h"
#include "serve/manifest.h"
#include "support/errors.h"
#include "support/rng.h"
#include "task/set.h"
#include "ten_k_reference.h"

namespace phls {
namespace {

/// How the damaged inputs of one parser fared.
struct fuzz_tally {
    int parsed = 0;
    int rejected = 0;
};

/// A reader under test: parses its input and returns the bytes its
/// writer makes of the result.
using reader = std::function<std::string(const std::string&)>;

/// What a reader made of one input: the written bytes, or the dynamic
/// type and message of the exception it threw.
struct verdict {
    bool parsed = false;
    bool phls_error = false;
    std::string type;
    std::string text;
};

verdict verdict_of(const reader& read, const std::string& input)
{
    try {
        return {true, false, "", read(input)};
    } catch (const error& e) {
        return {false, true, typeid(e).name(), e.what()};
    } catch (const std::exception& e) {
        return {false, false, typeid(e).name(), e.what()};
    }
}

/// Runs `read` on `input` and tallies the outcome; fails on an exception
/// that is not a phls::error and, given a `reference`, on any
/// disagreement with it.
void attempt(const reader& read, const std::optional<reader>& reference,
             const std::string& input, const std::string& what, fuzz_tally& tally)
{
    const verdict got = verdict_of(read, input);
    if (got.parsed)
        ++tally.parsed;
    else if (got.phls_error)
        ++tally.rejected;
    else
        ADD_FAILURE() << what << ": escaped " << got.type << ": " << got.text;
    if (!reference) return;
    const verdict want = verdict_of(*reference, input);
    EXPECT_EQ(got.parsed, want.parsed) << what << ": " << got.text << " vs " << want.text;
    EXPECT_EQ(got.type, want.type) << what;
    EXPECT_EQ(got.text, want.text) << what;
}

/// Feeds `read` every single-byte mutation (at every position below 64
/// and every 7th after, each XORed with 0x5A or replaced by a byte the
/// grammar treats specially), every truncation and 300 random
/// multi-byte mutations of `good`.  Fails on any exception that is not
/// a phls::error, and on any disagreement with `reference` if given.
fuzz_tally fuzz(const std::string& good, const reader& read,
                const std::optional<reader>& reference = std::nullopt)
{
    fuzz_tally tally;
    const std::string specials = std::string("\n\r -9.e") + '\0';
    for (std::size_t i = 0; i < good.size(); i += (i < 64 ? 1 : 7)) {
        std::string mutated = good;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5A);
        attempt(read, reference, mutated, "xor at " + std::to_string(i), tally);
        for (const char c : specials) {
            mutated[i] = c;
            attempt(read, reference, mutated,
                    "byte " + std::to_string(static_cast<int>(c)) + " at " + std::to_string(i),
                    tally);
        }
    }
    for (std::size_t n = 0; n < good.size(); ++n)
        attempt(read, reference, good.substr(0, n), "length " + std::to_string(n), tally);
    rng r(good.size());
    for (int k = 0; k < 300; ++k) {
        std::string mutated = good;
        const int flips = r.uniform_int(2, 6);
        for (int f = 0; f < flips; ++f) {
            const int at = r.uniform_int(0, static_cast<int>(good.size()) - 1);
            mutated[static_cast<std::size_t>(at)] = static_cast<char>(r.uniform_int(0, 255));
        }
        attempt(read, reference, mutated, "random mutation " + std::to_string(k), tally);
    }
    return tally;
}

/// `text` with "\r\n" line endings, a comment and a blank line in front
/// of every third line, and no '\n' after its last line.
std::string decorate(const std::string& text)
{
    std::string out;
    int line = 0;
    for (std::size_t at = 0; at < text.size();) {
        std::size_t end = text.find('\n', at);
        if (end == std::string::npos) end = text.size();
        if (line++ % 3 == 0) out += "# note\r\n \t\r\n";
        out.append(text, at, end - at);
        at = end + 1;
        if (at < text.size()) out += "\r\n";
    }
    return out;
}

const reader read_cdfg = [](const std::string& s) {
    return write_cdfg_string(parse_cdfg_string(s));
};
const reader read_cdfg_reference = [](const std::string& s) {
    return write_cdfg_string(reference::parse_cdfg_string(s));
};
const reader read_library = [](const std::string& s) {
    return write_library_string(parse_library_string(s));
};
const reader read_library_reference = [](const std::string& s) {
    return write_library_string(reference::parse_library_string(s));
};
/// A parsed task set, field by field.  write_task_set_string would
/// round the numbers (%g) and refuses graphs read from files, so the
/// comparison renders every field the reader sets, exactly.
std::string render(const task::task_set& set)
{
    std::string out = strf("taskset %s %.17g %.17g %.17g %.17g %d %.17g\n", set.name.c_str(),
                           set.envelope,
                           set.battery.beta, set.battery.voltage, set.battery.cycle_seconds,
                           set.battery.idle_cycles, set.battery.alpha);
    for (const task::task_spec& t : set.tasks) {
        out += strf("task %s %d %d %d %d %s %s\n", t.name.c_str(), t.release, t.deadline,
                    t.iterations, t.caps, t.synthesizer.c_str(), t.scheduler.c_str());
        for (const int lat : t.latencies) out += strf(" %d", lat);
        out += '\n' + write_cdfg_string(t.g) + write_library_string(t.lib);
    }
    return out;
}
const reader read_task_set = [](const std::string& s) {
    return render(task::parse_task_set_string(s));
};
const reader read_task_set_reference = [](const std::string& s) {
    return render(reference::parse_task_set_string(s));
};

TEST(parser_fuzz, cdfg_text_parses_or_throws_phls_errors)
{
    const std::string good = write_cdfg_string(make_elliptic());
    ASSERT_NO_THROW(parse_cdfg_string(good));
    const fuzz_tally t = fuzz(good, read_cdfg, read_cdfg_reference);
    EXPECT_GT(t.rejected, 0);
    EXPECT_GT(t.parsed, 0);
    const std::string decorated = decorate(good);
    EXPECT_EQ(read_cdfg(decorated), good);
    const fuzz_tally d = fuzz(decorated, read_cdfg, read_cdfg_reference);
    EXPECT_GT(d.rejected, 0);
    EXPECT_GT(d.parsed, 0);
}

TEST(parser_fuzz, library_text_parses_or_throws_phls_errors)
{
    const std::string good = write_library_string(table1_library());
    ASSERT_NO_THROW(parse_library_string(good));
    const fuzz_tally t = fuzz(good, read_library, read_library_reference);
    EXPECT_GT(t.rejected, 0);
    EXPECT_GT(t.parsed, 0);
    const std::string decorated = decorate(good);
    EXPECT_EQ(read_library(decorated), good);
    const fuzz_tally d = fuzz(decorated, read_library, read_library_reference);
    EXPECT_GT(d.rejected, 0);
    EXPECT_GT(d.parsed, 0);
}

TEST(parser_fuzz, task_set_text_parses_or_throws_phls_errors)
{
    const std::string good = "taskset smoke\n"
                             "envelope 9.0\n"
                             "battery beta 0.1 cycle 0.5 idle 4\n"
                             "task rx hal deadline 60\n"
                             "task dsp cosine deadline 200 release 10 iterations 2\n";
    ASSERT_NO_THROW(task::parse_task_set_string(good));
    const fuzz_tally t = fuzz(good, read_task_set, read_task_set_reference);
    EXPECT_GT(t.rejected, 0);
    EXPECT_GT(t.parsed, 0);
    const std::string decorated = decorate(good);
    EXPECT_EQ(read_task_set(decorated), read_task_set(good));
    const fuzz_tally d = fuzz(decorated, read_task_set, read_task_set_reference);
    EXPECT_GT(d.rejected, 0);
    EXPECT_GT(d.parsed, 0);
}

TEST(parser_fuzz, readers_agree_with_the_reference_on_line_structure)
{
    fuzz_tally tally;
    const auto both = [&](const reader& read, const reader& ref, const std::string& text) {
        attempt(read, ref, text, "'" + text + "'", tally);
    };
    for (const std::string& text : {
             std::string(""), std::string("\n"), std::string("\r\n"),
             std::string("cdfg t\r\nnode x input\r\n\r\nnode y output\r\nedge x y"),
             std::string("\n\n# c\n  # d\ncdfg t\n\t\nbogus x\n"),
             std::string("cdfg t\nnode x input\n\n\nnode y output\nedge x ghost\n"),
             std::string("cdfg t\nnode x input\nnode y output\nedge x y\nnode x add\n"),
             std::string("cdfg t\rnode x input\n"), std::string("cdfg\vt\fu\n"),
             std::string("cdfg t\nnode x INPUT\nnode y Out\nedge x y")})
        both(read_cdfg, read_cdfg_reference, text);
    for (const std::string& text : {
             std::string("library l\r\nmodule a ADD area 1 cycles 1 power 1"),
             std::string("# x\n\nlibrary l\n\nmodule a add area 1 cycles 1\n"),
             std::string("library l\nmodule a add area 1 cycles 1 power 1\n\n"
                         "module a add area 1 cycles 1 power 1\n")})
        both(read_library, read_library_reference, text);
    for (const std::string& text : {
             std::string("taskset s\r\ntask a hal deadline 60\r\n"),
             std::string("taskset s\n\n# c\ntask a hal deadline 60 latency 9..3\n"),
             std::string("taskset s\ntask a hal deadline 60\n\n\ntask a hal deadline 70")})
        both(read_task_set, read_task_set_reference, text);
    EXPECT_GT(tally.parsed, 0);
    EXPECT_GT(tally.rejected, 0);
}

TEST(parser_fuzz, ten_k_dag_text_agrees_with_the_reference)
{
    const std::string good = write_cdfg_string(make_ten_k_workload().g);
    fuzz_tally tally;
    attempt(read_cdfg, read_cdfg_reference, good, "10k text", tally);
    attempt(read_cdfg, read_cdfg_reference, decorate(good), "decorated 10k text", tally);
    rng r(10000);
    for (int k = 0; k < 6; ++k) {
        std::string mutated = good;
        const std::size_t at = static_cast<std::size_t>(
            r.uniform_int(0, static_cast<int>(good.size()) - 1));
        mutated[at] = static_cast<char>(mutated[at] ^ 0x5A);
        attempt(read_cdfg, read_cdfg_reference, mutated, "mutation at " + std::to_string(at),
                tally);
        attempt(read_cdfg, read_cdfg_reference, good.substr(0, at),
                "length " + std::to_string(at), tally);
    }
    EXPECT_GE(tally.parsed, 2);
    EXPECT_GT(tally.rejected, 0);
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
        return std::string();
    });
    // The checksum catches every damaged body, so nothing but the
    // original parses.
    EXPECT_GT(t.rejected, 0);
    std::remove(path.c_str());
}

} // namespace
} // namespace phls

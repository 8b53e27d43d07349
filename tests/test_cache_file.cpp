// Cache files on the two layers that write them.
//
// The streamed checksummed-file writer (support/checksummed_file.h):
// a body passed in pieces is written as the same body passed whole,
// with the fault sites at the same bytes, and pieces that do not add up
// to the declared size leave no file behind.
//
// The cache-file merge contract (explore_cache::merge_files) on
// hand-made v4 files of shapes no sweep writes: records out of
// fingerprint order, one key twice in one file, keys that two inputs
// share with different records, one input listed twice, and an output
// path that is also one of the inputs.  The merged bytes and every
// cache_merge_stats field must be those of an ordered-map union that
// keeps the first record of each key, inputs in order and each file in
// its own order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "support/checksummed_file.h"
#include "support/codec.h"
#include "support/faultpoints.h"

namespace phls {
namespace {

/// The cache-file framing (flow/explore_cache.cpp), with fault sites of
/// its own so no armed cache site can reach these writes.
const checksummed_format cache_format{
    .magic = "phls-explore-cache",
    .version = 4,
    .sites = "cache_file_test",
    .noun = "cache file",
    .header = "cache-file header",
    .foreign = "not a phls cache file",
    .temporary = "temporary file",
};

const std::string graph_text = "the merge test's graph";
const std::string lib_text = "the merge test's library";

/// A quiet NaN with a payload: put_metric_record writes every NaN as
/// the one canonical NaN, so only a hand-made file holds this.
constexpr std::uint64_t payload_nan_bits = 0x7ff8000000000123ull;

using records = std::vector<std::pair<std::string, metric_record>>;

/// A record whose fields all depend on `seed`; a negative seed gives a
/// NaN cap.
metric_record record(int seed)
{
    metric_record m;
    if (seed % 3 == 0) m.st = status::infeasible("over the cap at seed " + std::to_string(seed));
    m.strategy = seed % 2 == 0 ? "greedy" : "two-step";
    m.constraints = {10 + seed, seed < 0 ? std::numeric_limits<double>::quiet_NaN() : 1.5 * seed};
    m.has_design = seed % 3 != 0;
    m.optimal = seed % 4 == 0;
    if (seed % 2 == 0) m.note = "note of record " + std::to_string(seed);
    m.area = 100.0 + seed;
    m.peak = 2.0 + 0.25 * seed;
    m.latency = 10 + seed % 5;
    m.has_lifetime = seed % 5 != 0;
    m.lifetime_seconds = 3600.0 / (seed * seed + 1);
    m.battery_alpha = 7.5;
    return m;
}

/// A cache-file body holding `rs` in the order given.  A NaN cap is
/// written as payload_nan_bits.
std::string hand_made_body(const records& rs)
{
    byte_writer body;
    body.str(graph_text);
    body.str(lib_text);
    body.u32(static_cast<std::uint32_t>(rs.size()));
    for (const auto& [fp, m] : rs) {
        byte_writer w;
        w.str(fp);
        put_metric_record(w, m);
        std::string bytes = w.take();
        if (std::isnan(m.constraints.max_power)) {
            // status code, message, strategy, latency bound, then the cap.
            const std::size_t cap_at =
                4 + fp.size() + 1 + 4 + m.st.message.size() + 4 + m.strategy.size() + 4;
            byte_writer canonical, payload;
            canonical.f64(m.constraints.max_power);
            payload.u64(payload_nan_bits);
            EXPECT_EQ(bytes.substr(cap_at, 8), canonical.bytes());
            bytes.replace(cap_at, 8, payload.bytes());
        }
        body.raw(bytes);
    }
    return body.take();
}

std::string file_bytes(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

/// What merge_files(out, paths) must do when paths[i] holds `inputs[i]`:
/// the merged file's bytes, written at `out`, and the stats.
cache_merge_stats ordered_map_union(const std::string& out,
                                    const std::vector<std::string>& paths,
                                    const std::vector<records>& inputs)
{
    cache_merge_stats stats;
    std::map<std::string, metric_record> merged;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        cache_merge_stats::input in;
        in.path = paths[i];
        in.metrics = inputs[i].size();
        for (const auto& [fp, m] : inputs[i]) in.new_metrics += merged.try_emplace(fp, m).second;
        stats.inputs.push_back(in);
    }
    stats.metric_total = merged.size();

    byte_writer body;
    body.str(graph_text);
    body.str(lib_text);
    body.u32(static_cast<std::uint32_t>(merged.size()));
    for (const auto& [fp, m] : merged) {
        body.str(fp);
        put_metric_record(body, m);
    }
    write_checksummed_file(out, cache_format, body.bytes());
    return stats;
}

/// Disarms every fault site when it goes out of scope.
struct fault_guard {
    explicit fault_guard(const char* spec) { fault_arm(spec); }
    ~fault_guard() { fault_clear(); }
};

/// A 1,000-byte body, and where write_in_pieces() cuts it: an empty
/// piece, and a piece holding the middle byte, which `.save.corrupt`
/// flips.
const std::string streamed_body = [] {
    std::string body;
    for (int i = 0; i < 1000; ++i) body += static_cast<char>(i * 7);
    return body;
}();
const std::vector<std::size_t> cuts = {0, 100, 100, 490, 510, 1000};

/// streamed_body written to `path` in pieces, with `declared` bytes
/// declared.
void write_in_pieces(const std::string& path, std::uint64_t declared)
{
    write_checksummed_file(path, cache_format, declared, [](const body_sink& put) {
        for (std::size_t i = 1; i < cuts.size(); ++i)
            put(std::string_view(streamed_body).substr(cuts[i - 1], cuts[i] - cuts[i - 1]));
    });
}

TEST(cache_file, a_streamed_body_is_written_as_the_whole_body_would_be)
{
    const std::string dir = ::testing::TempDir();
    const std::string whole = dir + "cache_file_whole.bin";
    const std::string pieces = dir + "cache_file_pieces.bin";
    write_checksummed_file(whole, cache_format, streamed_body);
    write_in_pieces(pieces, streamed_body.size());
    const std::string clean = file_bytes(whole);
    EXPECT_EQ(file_bytes(pieces), clean);
    const std::size_t header = clean.size() - streamed_body.size() - 8;

    // The running checksum is of the body before the flip, so both
    // writes flip the middle byte of a checksummed body.
    for (const bool streamed : {false, true}) {
        const fault_guard corrupt("cache_file_test.save.corrupt:1");
        if (streamed)
            write_in_pieces(pieces, streamed_body.size());
        else
            write_checksummed_file(whole, cache_format, streamed_body);
        EXPECT_TRUE(fault_fired("cache_file_test.save.corrupt"));
    }
    std::string flipped = clean;
    flipped[header + streamed_body.size() / 2] ^= 0x40;
    EXPECT_EQ(file_bytes(whole), flipped);
    EXPECT_EQ(file_bytes(pieces), flipped);
    try {
        read_checksummed_file(pieces, cache_format, [](byte_reader& r) { r.raw(r.remaining()); });
        FAIL() << "a flipped body must fail its checksum";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::corrupt);
    }

    // A tear leaves the first half of the file in the temporary file
    // and `path` as it was.
    write_checksummed_file(pieces, cache_format, "old");
    const std::string old = file_bytes(pieces);
    {
        const fault_guard tear("cache_file_test.save.tear:1");
        EXPECT_THROW(write_in_pieces(pieces, streamed_body.size()), cache_file_error);
    }
    EXPECT_EQ(file_bytes(pieces), old);
    EXPECT_EQ(file_bytes(pieces + ".tmp"), clean.substr(0, clean.size() / 2));
    for (const std::string& path : {whole, pieces, pieces + ".tmp"}) std::remove(path.c_str());
}

TEST(cache_file, a_streamed_body_must_add_up_to_its_declared_size)
{
    const std::string dir = ::testing::TempDir();
    const std::string kept = dir + "cache_file_kept.bin";
    const std::string fresh = dir + "cache_file_fresh.bin";
    write_checksummed_file(kept, cache_format, "old");
    const std::string old = file_bytes(kept);
    std::remove(fresh.c_str());
    // One byte more declared than passed, and one byte fewer.
    for (const std::uint64_t declared : {streamed_body.size() + 1, streamed_body.size() - 1}) {
        for (const std::string& path : {kept, fresh}) {
            SCOPED_TRACE(path + " declared " + std::to_string(declared));
            try {
                write_in_pieces(path, declared);
                FAIL() << "pieces that do not add up must throw";
            } catch (const cache_file_error& e) {
                FAIL() << "a size mismatch is a caller's error, not a file's: " << e.what();
            } catch (const error&) {
            }
            EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
        }
        EXPECT_EQ(file_bytes(kept), old);
        EXPECT_FALSE(std::filesystem::exists(fresh));
    }
    std::remove(kept.c_str());
}

TEST(cache_file, merge_matches_an_ordered_map_union)
{
    const std::string dir = ::testing::TempDir();
    const std::string a = dir + "cache_file_merge_a.phlscache";
    const std::string b = dir + "cache_file_merge_b.phlscache";
    const std::string c = dir + "cache_file_merge_c.phlscache";
    const std::string merged = dir + "cache_file_merge_out.phlscache";
    const std::string expected = dir + "cache_file_merge_expected.phlscache";

    // Out of fingerprint order, "k1" twice with two records, and a NaN
    // cap with a payload.
    const records in_a = {{"k3", record(3)}, {"k1", record(1)}, {"k2", record(2)},
                          {"k1", record(11)}, {"kn", record(-1)}};
    // "k2" and "kn" are a's keys with other records.
    const records in_b = {{"k2", record(22)}, {"k0", record(0)}, {"k5", record(5)},
                          {"kn", record(-2)}};
    // "k0" is b's key with another record; "" is the smallest key.
    const records in_c = {{"k6", record(6)}, {"k0", record(40)}, {"", record(7)},
                          {"k4", record(4)}};
    const std::map<std::string, records> contents = {{a, in_a}, {b, in_b}, {c, in_c}};

    struct merge_case {
        std::vector<std::string> inputs;
        std::string out;
        std::vector<std::size_t> new_metrics; ///< per input
    };
    const std::vector<merge_case> cases = {
        // a listed twice; the output replaces an input.
        {{a, b, a, c}, c, {4, 2, 0, 3}},
        {{c, b, a}, merged, {4, 3, 2}},
        // One file: sorted, and its first "k1" kept.
        {{a}, merged, {4}},
        {{b, c, b}, b, {4, 3, 0}},
    };
    for (const merge_case& mc : cases) {
        std::vector<records> inputs;
        for (const auto& [path, rs] : contents)
            write_checksummed_file(path, cache_format, hand_made_body(rs));
        for (const std::string& path : mc.inputs) inputs.push_back(contents.at(path));
        const cache_merge_stats want = ordered_map_union(expected, mc.inputs, inputs);

        const cache_merge_stats got = explore_cache::merge_files(mc.out, mc.inputs);
        SCOPED_TRACE("merge into " + mc.out);
        EXPECT_EQ(file_bytes(mc.out), file_bytes(expected));
        EXPECT_EQ(got.metric_total, want.metric_total);
        EXPECT_EQ(got.skipped_inputs, 0u);
        ASSERT_EQ(got.inputs.size(), want.inputs.size());
        for (std::size_t i = 0; i < want.inputs.size(); ++i) {
            EXPECT_EQ(got.inputs[i].path, want.inputs[i].path) << i;
            EXPECT_EQ(got.inputs[i].metrics, want.inputs[i].metrics) << i;
            EXPECT_EQ(got.inputs[i].new_metrics, want.inputs[i].new_metrics) << i;
            EXPECT_EQ(want.inputs[i].new_metrics, mc.new_metrics[i]) << i;
            EXPECT_FALSE(got.inputs[i].skipped) << i;
            EXPECT_EQ(got.inputs[i].skip_reason, "") << i;
        }
    }
    for (const std::string& path : {a, b, c, merged, expected}) std::remove(path.c_str());
}

} // namespace
} // namespace phls

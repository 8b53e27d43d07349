// Tests for the byte codec every binary format shares (support/codec.h):
// the canonical double rules on degenerate inputs (NaN, -0.0, ±inf) that
// keep memo keys well-defined, the length-prefixed string framing, the
// bounds-checked reader and its count guard, and golden bytes of a
// one-record cache file (format v4) and a one-range sweep manifest
// (format v2), so any layout drift fails here and needs a version bump.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <string>

#include "cdfg/benchmarks.h"
#include "cdfg/textio.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "serve/manifest.h"
#include "support/codec.h"
#include "support/errors.h"
#include "sweep_util.h"

namespace phls {
namespace {

std::string enc_double(double v)
{
    byte_writer w;
    w.f64(v);
    return w.take();
}

std::string bytes_of(std::initializer_list<unsigned> raw)
{
    std::string s;
    for (const unsigned b : raw) s.push_back(static_cast<char>(b));
    return s;
}

// The smallest problem a cache file can hold: one input wired to one
// output, and a library covering just those.  Both texts are canonical
// (they write back as themselves), so they appear verbatim in the file.
const char* const tiny_graph_text = "cdfg tiny\nnode x input\nnode o output\nedge x o\n";
const char* const tiny_lib_text = "library io\nmodule in input area 1 cycles 1 power 1\n"
                                  "module out output area 1 cycles 1 power 1\n";

std::string file_bytes(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

// ------------------------------------------------------- normalisation

TEST(memo_key, negative_zero_collides_with_positive_zero)
{
    // -0.0 == 0.0 everywhere the library compares a cap or a cost, so
    // the two describe the same scheduling problem and must share a key.
    EXPECT_EQ(enc_double(-0.0), enc_double(0.0));
    EXPECT_EQ(canonical_bits(-0.0), canonical_bits(0.0));
    EXPECT_EQ(hal17().fingerprint({17, -0.0}), hal17().fingerprint({17, 0.0}));
}

TEST(memo_key, all_nan_payloads_collide)
{
    // Every NaN behaves identically in comparisons, so every NaN input
    // is the same (degenerate) problem: one canonical encoding.
    const double quiet = std::numeric_limits<double>::quiet_NaN();
    const double signalling = std::numeric_limits<double>::signaling_NaN();
    EXPECT_EQ(enc_double(quiet), enc_double(signalling));
    EXPECT_EQ(enc_double(quiet), enc_double(-quiet));
    EXPECT_EQ(enc_double(quiet), enc_double(std::nan("0x42")));
    EXPECT_EQ(hal17().fingerprint({17, quiet}), hal17().fingerprint({17, -quiet}));
    // ...and it stays a NaN through the decoder.
    const std::string key = enc_double(signalling);
    byte_reader r(key);
    EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(memo_key, infinities_are_distinct_from_each_other_and_from_finite)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_NE(enc_double(inf), enc_double(-inf));
    EXPECT_NE(enc_double(inf), enc_double(std::numeric_limits<double>::max()));
    EXPECT_NE(enc_double(inf), enc_double(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_NE(hal17().fingerprint({17, inf}), hal17().fingerprint({17, -inf}));
}

TEST(memo_key, distinct_finite_values_stay_distinct)
{
    EXPECT_NE(enc_double(7.0), enc_double(7.0000000000000009));
    EXPECT_NE(enc_double(0.0), enc_double(std::numeric_limits<double>::denorm_min()));
    EXPECT_NE(hal17().fingerprint({17, 7.0}), hal17().fingerprint({17, 7.0000000000000009}));
}

TEST(memo_key, strings_are_length_prefixed_so_fields_cannot_run_together)
{
    // ("ab", "c") and ("a", "bc") must encode differently.
    byte_writer k1, k2;
    k1.str("ab");
    k1.str("c");
    k2.str("a");
    k2.str("bc");
    EXPECT_NE(k1.bytes(), k2.bytes());
}

// ------------------------------------------------------------ decoding

TEST(memo_key, reader_round_trips_every_encoder)
{
    byte_writer w;
    w.i64(-42);
    w.f64(3.25);
    w.str(std::string("hello\0world", 11)); // an embedded NUL survives
    w.f64(std::numeric_limits<double>::infinity());
    const std::string key = w.take();

    byte_reader r(key);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_EQ(r.str(), std::string("hello\0world", 11));
    EXPECT_TRUE(std::isinf(r.f64()));
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(memo_key, reader_throws_on_truncation_instead_of_returning_garbage)
{
    byte_writer w;
    w.i64(7);
    w.str("abcdef");
    const std::string key = w.take();

    // Cut inside the string body.
    const std::string cut = key.substr(0, key.size() - 3);
    byte_reader r(cut);
    EXPECT_EQ(r.i64(), 7);
    EXPECT_THROW(r.str(), decode_error);

    // Cut inside a fixed-width field.
    const std::string short_cut = key.substr(0, 4);
    byte_reader r2(short_cut);
    EXPECT_THROW(r2.i64(), decode_error);

    // The largest length prefix is corruption, not a huge allocation.
    byte_writer evil;
    evil.u32(0xFFFFFFFFu);
    const std::string evil_bytes = evil.take();
    byte_reader r3(evil_bytes);
    EXPECT_THROW(r3.str(), decode_error);
}

// --------------------------------------------------------------- codec

TEST(codec, writer_reader_round_trip_all_primitives)
{
    byte_writer w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(-7);
    w.i64(-5'000'000'000ll);
    w.f64(2.75);
    w.boolean(true);
    w.str("hello wire");
    w.str("");
    const std::string payload = w.bytes();

    byte_reader r(payload);
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i32(), -7);
    EXPECT_EQ(r.i64(), -5'000'000'000ll);
    EXPECT_EQ(r.f64(), 2.75);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.str(), "hello wire");
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_NO_THROW(r.expect_end());
    EXPECT_THROW(r.u8(), decode_error);
}

TEST(codec, fields_are_fixed_width_little_endian)
{
    byte_writer w;
    w.u32(0x01020304u);
    w.i64(-2);
    w.f64(-0.0); // canonical +0.0
    w.f64(2.5);
    w.str("ab");
    w.boolean(false);
    EXPECT_EQ(w.bytes(), bytes_of({
                             0x04, 0x03, 0x02, 0x01,                         // u32
                             0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // i64 -2
                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // +0.0
                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, // 2.5
                             0x02, 0x00, 0x00, 0x00, 0x61, 0x62,             // "ab"
                             0x00,                                           // false
                         }));
}

TEST(codec, reader_rejects_bad_booleans_leftovers_and_hostile_counts)
{
    const std::string two = bytes_of({0x02});
    byte_reader b(two);
    EXPECT_THROW(b.boolean(), decode_error);

    const std::string leftover = bytes_of({0x05, 0x00, 0x00, 0x00});
    byte_reader l(leftover);
    EXPECT_THROW(l.expect_end(), decode_error);

    // The largest count a u32 can declare, of one-byte items, over a
    // payload of three bytes: rejected before anything is sized by it.
    const std::string huge = bytes_of({0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00});
    byte_reader c(huge);
    try {
        (void)c.count(1, "item count");
        ADD_FAILURE() << "a count the payload cannot hold was accepted";
    } catch (const decode_error& e) {
        EXPECT_STREQ(e.what(), "item count exceeds payload");
    }
    // A count the payload holds exactly is fine.
    const std::string three = bytes_of({0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03});
    byte_reader ok(three);
    EXPECT_EQ(ok.count(1, "item count"), 3u);
}

// ----------------------------------------------------- golden file bytes

TEST(codec, golden_one_record_cache_file_v4)
{
    const graph g = parse_cdfg_string(tiny_graph_text);
    const module_library lib = parse_library_string(tiny_lib_text);
    explore_cache cache(g, lib);
    flow_report r;
    r.st = status::infeasible("cap");
    r.strategy = "greedy";
    r.constraints = {3, 2.5};
    cache.report_store("fp", std::make_shared<const flow_report>(r), r.constraints);
    const std::string path = std::string(::testing::TempDir()) + "codec_golden.phlscache";
    ASSERT_EQ(cache.save(path), 1u);

    const std::string graph_text = tiny_graph_text;
    const std::string lib_text = tiny_lib_text;
    ASSERT_EQ(write_cdfg_string(g), graph_text);
    ASSERT_EQ(write_library_string(lib), lib_text);
    const std::string expected =
        bytes_of({0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}) + // u64 magic length
        "phls-explore-cache" +
        bytes_of({
            0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // i64 version 4
            0xe6, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // i64 body length 230
            0x2e, 0x00, 0x00, 0x00,                         // u32 graph text length
        }) +
        graph_text + bytes_of({0x5d, 0x00, 0x00, 0x00}) + lib_text +
        bytes_of({
            0x01, 0x00, 0x00, 0x00,                         // u32 record count
            0x02, 0x00, 0x00, 0x00, 0x66, 0x70,             // fingerprint "fp"
            0x01,                                           // status infeasible
            0x03, 0x00, 0x00, 0x00, 0x63, 0x61, 0x70,       // message "cap"
            0x06, 0x00, 0x00, 0x00, 0x67, 0x72, 0x65, 0x65, 0x64, 0x79, // "greedy"
            0x03, 0x00, 0x00, 0x00,                         // i32 latency bound 3
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, // f64 cap 2.5
            0x00, 0x00,                                     // has_design, optimal
            0x00, 0x00, 0x00, 0x00,                         // note ""
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // f64 area
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // f64 peak
            0x00, 0x00, 0x00, 0x00,                         // i32 latency
            0x00,                                           // has_lifetime
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // f64 lifetime
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // f64 battery alpha
            0x59, 0x06, 0xf6, 0x0f, 0x2a, 0x7a, 0x8d, 0x88, // u64 FNV-1a of the body
        });
    EXPECT_EQ(file_bytes(path), expected);

    // The golden file loads back into a fresh cache.
    explore_cache fresh(g, lib);
    EXPECT_EQ(fresh.load(path), 1u);
}

TEST(codec, cache_file_of_smallest_records_round_trips)
{
    // Records with an empty fingerprint and empty strings are the
    // smallest the count guard has to admit.
    const graph g = parse_cdfg_string(tiny_graph_text);
    const module_library lib = parse_library_string(tiny_lib_text);
    explore_cache cache(g, lib);
    cache.report_store("", std::make_shared<const flow_report>(), synthesis_constraints{});
    const std::string path = std::string(::testing::TempDir()) + "codec_smallest.phlscache";
    ASSERT_EQ(cache.save(path), 1u);
    explore_cache fresh(g, lib);
    EXPECT_EQ(fresh.load(path), 1u);
    flow_report m;
    bool metric_only = false;
    EXPECT_TRUE(fresh.report_lookup("", &m, &metric_only));
    EXPECT_TRUE(metric_only);
}

TEST(codec, golden_one_range_manifest_v2)
{
    serve::sweep_manifest m;
    m.problem_hash = 0x0123456789abcdefull;
    m.space_size = 8;
    m.done_ranges = {{0, 8}};
    m.cache_files = {"a"};
    const std::string path = std::string(::testing::TempDir()) + "codec_golden.phlsman";
    serve::save_manifest(path, m);

    const std::string expected =
        bytes_of({0x13, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}) + // u64 magic length
        "phls-sweep-manifest" +
        bytes_of({
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // i64 version 2
            0x2d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // i64 body length 45
            0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, // u64 problem hash
            0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // u64 space size
            0x01, 0x00, 0x00, 0x00,                         // u32 range count
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // u64 begin
            0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // u64 end
            0x01, 0x00, 0x00, 0x00,                         // u32 file count
            0x01, 0x00, 0x00, 0x00, 0x61,                   // "a"
            0x89, 0xf2, 0x93, 0xa5, 0x47, 0x54, 0x75, 0xaa, // u64 FNV-1a of the body
        });
    EXPECT_EQ(file_bytes(path), expected);

    const serve::sweep_manifest back = serve::load_manifest(path);
    EXPECT_EQ(back.problem_hash, m.problem_hash);
    EXPECT_EQ(back.space_size, 8u);
    ASSERT_EQ(back.done_ranges.size(), 1u);
    EXPECT_EQ(back.done_ranges[0].end, 8u);
    EXPECT_EQ(back.cache_files, m.cache_files);
}

} // namespace
} // namespace phls

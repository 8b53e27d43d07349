// Tests for the serve wire format: golden frame bytes, primitive and
// payload round trips, the channel transport over pipes, and a
// malformed-frame fuzz loop asserting every mutation is rejected with a
// clean wire_error (never a crash, never silently-wrong data).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "cdfg/benchmarks.h"
#include "dse/space.h"
#include "flow/flow.h"
#include "serve/wire.h"
#include "support/errors.h"

namespace phls {
namespace {

using namespace serve;

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

flow hal17() { return flow::on(make_hal()).with_library(lib()).latency(17); }

std::string bytes_of(std::initializer_list<unsigned> raw)
{
    std::string s;
    for (unsigned b : raw) s.push_back(static_cast<char>(b));
    return s;
}

/// Two connected channels over a pair of pipes: what `first` sends,
/// `second` receives and vice versa.
struct pipe_pair {
    channel first;
    channel second;
};

pipe_pair make_pipes()
{
    int ab[2];
    int ba[2];
    if (::pipe(ab) != 0 || ::pipe(ba) != 0) throw error("cannot create test pipes");
    return {channel(ba[0], ab[1]), channel(ab[0], ba[1])};
}

// ------------------------------------------------------- golden frames

// The on-wire byte layouts below are load-bearing: a server and client
// built from different checkouts must agree on them, so any layout
// drift has to show up as a failing golden test plus a version bump.

TEST(wire, golden_hello_frame)
{
    const std::string expected = bytes_of({
        0x50, 0x48, 0x4c, 0x53,       // magic "PHLS", little-endian u32
        0x01,                         // frame_type::hello
        0x04, 0x00, 0x00, 0x00,       // payload length 4
        0x01, 0x00, 0x00, 0x00,       // protocol version 1
        0xa2, 0x74, 0x6c, 0x30, 0x98, 0x9a, 0x59, 0x91, // fnv1a(payload)
    });
    EXPECT_EQ(encode_frame(frame_type::hello, encode_hello(1)), expected);
    EXPECT_EQ(wire_protocol_version, 1u);
}

TEST(wire, golden_reject_frame)
{
    const std::string expected = bytes_of({
        0x50, 0x48, 0x4c, 0x53,       // magic
        0x06,                         // frame_type::reject
        0x08, 0x00, 0x00, 0x00,       // payload length 8
        0x04, 0x00, 0x00, 0x00,       // string length 4
        0x6e, 0x6f, 0x70, 0x65,       // "nope"
        0x33, 0xbc, 0xf4, 0x38, 0x91, 0x7e, 0x30, 0x88, // fnv1a(payload)
    });
    EXPECT_EQ(encode_frame(frame_type::reject, encode_reject("nope")), expected);
    EXPECT_EQ(decode_reject(encode_reject("nope")).message, "nope");
}

TEST(wire, golden_bye_frame_is_empty_payload)
{
    const std::string expected = bytes_of({
        0x50, 0x48, 0x4c, 0x53,       // magic
        0x07,                         // frame_type::bye
        0x00, 0x00, 0x00, 0x00,       // payload length 0
        0x83, 0x03, 0x9d, 0x73, 0xb0, 0x0f, 0x65, 0x14, // fnv1a("")
    });
    EXPECT_EQ(encode_frame(frame_type::bye, ""), expected);
}

// ------------------------------------------------------ payload codec

TEST(wire, doubles_travel_as_canonical_cache_key_bits)
{
    // Payloads use the memo-key codec: -0.0 folds into +0.0 and every
    // NaN becomes the one canonical NaN, so a round-tripped point hits
    // exactly the cache entry its local twin would.
    const double specials[] = {0.0, -0.0, 1e-300, -1e300,
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN(),
                               unbounded_power};
    for (const double v : specials) {
        metric_record m;
        m.constraints = {17, v};
        const std::string payload = encode_report(1, m);
        const double back = decode_report(payload).metrics.constraints.max_power;
        if (std::isnan(v)) {
            EXPECT_TRUE(std::isnan(back));
        } else if (v == 0.0) {
            EXPECT_FALSE(std::signbit(back)); // -0.0 normalised
        } else {
            EXPECT_EQ(back, v);
        }
        // Stability: re-encoding the decoded value is byte-identical, and
        // the point's fingerprint is its local twin's.
        m.constraints.max_power = back;
        EXPECT_EQ(encode_report(1, m), payload);
        EXPECT_EQ(hal17().fingerprint({17, back}), hal17().fingerprint({17, v}));
    }
}

TEST(wire, reader_rejects_leftover_and_overrun)
{
    // A codec failure inside a payload is a wire_error, worded as the
    // malformed frame it is.
    const auto expect_wire_error = [](auto decode, const char* message) {
        try {
            decode();
            ADD_FAILURE() << "accepted: " << message;
        } catch (const wire_error& e) {
            EXPECT_STREQ(e.what(), message);
        }
    };
    const std::string hello = encode_hello(5);
    expect_wire_error([&] { (void)decode_hello(hello + "xyz"); },
                      "malformed frame: 3 trailing payload bytes");
    expect_wire_error([&] { (void)decode_hello(hello.substr(0, 2)); },
                      "malformed frame: payload truncated");
    // A string whose length prefix points past the payload.
    expect_wire_error([&] { (void)decode_reject(bytes_of({0xe8, 0x03, 0x00, 0x00})); },
                      "malformed frame: string runs past the end");
    // A front count the payload cannot hold, rejected before allocation.
    expect_wire_error(
        [&] {
            (void)decode_front(bytes_of({0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}));
        },
        "malformed frame: point count exceeds payload");
    // A boolean field that is neither 0 nor 1.
    std::string report = encode_report(1, metric_record{});
    report[8 + 1 + 4 + 4 + 4 + 8] = 2; // has_design, after the cap
    expect_wire_error([&] { (void)decode_report(report); },
                      "malformed frame: boolean field is 2");
}

// ------------------------------------------------- payload round trips

metric_record sample_metrics()
{
    metric_record m;
    m.st = status::infeasible("power cap too tight");
    m.strategy = "greedy";
    m.constraints = {19, 6.5};
    m.has_design = true;
    m.optimal = false;
    m.note = "locked after 3 merges";
    m.area = 331.0;
    m.peak = 5.9;
    m.latency = 18;
    m.has_lifetime = true;
    m.lifetime_seconds = 1234.5;
    m.battery_alpha = 42.0;
    return m;
}

TEST(wire, report_frame_round_trip)
{
    const metric_record m = sample_metrics();
    const std::string payload = encode_report(77, m);
    const report_frame f = decode_report(payload);
    EXPECT_EQ(f.index, 77u);
    EXPECT_EQ(f.metrics.st.code, m.st.code);
    EXPECT_EQ(f.metrics.st.message, m.st.message);
    EXPECT_EQ(f.metrics.strategy, m.strategy);
    EXPECT_EQ(f.metrics.constraints.latency, m.constraints.latency);
    EXPECT_EQ(f.metrics.constraints.max_power, m.constraints.max_power);
    EXPECT_EQ(f.metrics.has_design, m.has_design);
    EXPECT_EQ(f.metrics.optimal, m.optimal);
    EXPECT_EQ(f.metrics.note, m.note);
    EXPECT_EQ(f.metrics.area, m.area);
    EXPECT_EQ(f.metrics.peak, m.peak);
    EXPECT_EQ(f.metrics.latency, m.latency);
    EXPECT_EQ(f.metrics.has_lifetime, m.has_lifetime);
    EXPECT_EQ(f.metrics.lifetime_seconds, m.lifetime_seconds);
    EXPECT_EQ(f.metrics.battery_alpha, m.battery_alpha);
    // Canonical: re-encoding the decoded frame is byte-identical.
    EXPECT_EQ(encode_report(f.index, f.metrics), payload);
}

TEST(wire, front_delta_round_trip)
{
    front_delta d;
    d.index = 12;
    d.entered.push_back({12, 17, 7.5, 230.0, 6.4, 17, false, 0.0});
    d.left.push_back({3, 17, 7.5, 260.0, 6.4, 17, true, 99.5});
    d.left.push_back({5, 19, 8.0, 231.0, 7.9, 19, false, 0.0});
    const std::string payload = encode_front(d);
    const front_delta back = decode_front(payload);
    EXPECT_EQ(back.index, d.index);
    ASSERT_EQ(back.entered.size(), 1u);
    ASSERT_EQ(back.left.size(), 2u);
    EXPECT_TRUE(back.entered[0] == d.entered[0]);
    EXPECT_TRUE(back.left[0] == d.left[0]);
    EXPECT_TRUE(back.left[1] == d.left[1]);
    EXPECT_EQ(encode_front(back), payload);
}

TEST(wire, done_frame_round_trip)
{
    done_frame d;
    d.space_size = 120;
    d.evaluated = 120;
    d.feasible = 88;
    d.metric_served = 60;
    d.counters = {10, 2, 30, 4, 50, 6, 7};
    d.front.push_back({0, 17, 5.5, 200.0, 5.4, 17, false, 0.0});
    d.front.push_back({7, 17, 9.5, 150.0, 9.0, 17, false, 0.0});
    const std::string payload = encode_done(d);
    const done_frame back = decode_done(payload);
    EXPECT_EQ(back.space_size, d.space_size);
    EXPECT_EQ(back.evaluated, d.evaluated);
    EXPECT_EQ(back.feasible, d.feasible);
    EXPECT_EQ(back.metric_served, d.metric_served);
    EXPECT_EQ(back.counters.hits, 10);
    EXPECT_EQ(back.counters.misses, 2);
    EXPECT_EQ(back.counters.committed_hits, 30);
    EXPECT_EQ(back.counters.committed_misses, 4);
    EXPECT_EQ(back.counters.report_hits, 50);
    EXPECT_EQ(back.counters.report_misses, 6);
    EXPECT_EQ(back.counters.metric_hits, 7);
    ASSERT_EQ(back.front.size(), 2u);
    EXPECT_TRUE(back.front[0] == d.front[0]);
    EXPECT_TRUE(back.front[1] == d.front[1]);
    EXPECT_EQ(encode_done(back), payload);
}

TEST(wire, job_round_trip_preserves_the_whole_problem)
{
    flow proto = hal17().power_cap(7.5).emit_netlist().estimate_lifetime({});
    const dse::space sp = dse::cross({17, 19, 21}, {5.5, 7.5, 9.5});
    job_request job = make_job(proto, sp);
    job.threads = 3;
    job.save_cache_path = "/tmp/some.phlscache";

    const std::string payload = encode_job(job);
    const job_request back = decode_job(payload);

    EXPECT_EQ(back.graph_text, job.graph_text);
    EXPECT_EQ(back.library_text, job.library_text);
    EXPECT_EQ(back.synthesizer, job.synthesizer);
    EXPECT_EQ(back.scheduler, job.scheduler);
    EXPECT_EQ(back.want_netlist, true);
    EXPECT_EQ(back.want_lifetime, true);
    EXPECT_EQ(back.threads, 3);
    EXPECT_EQ(back.save_cache_path, job.save_cache_path);
    // The space survives point-for-point with its indices.
    ASSERT_EQ(back.space.size(), sp.size());
    for (std::size_t i = 0; i < sp.size(); ++i) {
        EXPECT_EQ(back.space.at(i).latency, sp.at(i).latency) << i;
        EXPECT_EQ(back.space.at(i).max_power, sp.at(i).max_power) << i;
    }
    // Canonical encoding: decode-then-encode is byte-identical.
    EXPECT_EQ(encode_job(back), payload);
    // The rebuilt flow runs the same problem: same fingerprint per point.
    const flow rebuilt = job_flow(back);
    EXPECT_EQ(rebuilt.fingerprint({17, 7.5}), proto.fingerprint({17, 7.5}));
}

TEST(wire, job_round_trip_with_list_space_and_nondefault_options)
{
    flow proto = hal17();
    synthesis_options so;
    so.policy = prospect_policy::cheapest_fit;
    so.try_both_prospects = false;
    so.enable_backtrack_lock = false;
    so.allow_cheapest_rebind = false;
    so.max_merge_attempts = 12;
    proto.options(so);
    const std::vector<synthesis_constraints> points = {
        {17, 5.5}, {17, unbounded_power}, {21, 9.25}};
    job_request job = make_job(proto, dse::list(points));

    const job_request back = decode_job(encode_job(job));
    EXPECT_EQ(back.options.policy, prospect_policy::cheapest_fit);
    EXPECT_FALSE(back.options.try_both_prospects);
    EXPECT_FALSE(back.options.enable_backtrack_lock);
    EXPECT_FALSE(back.options.allow_cheapest_rebind);
    EXPECT_EQ(back.options.max_merge_attempts, 12);
    ASSERT_EQ(back.space.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(back.space.at(i).latency, points[i].latency) << i;
        EXPECT_EQ(back.space.at(i).max_power, points[i].max_power) << i;
    }
}

TEST(wire, random_metric_records_round_trip_canonically)
{
    std::mt19937 rng(20260808u);
    std::uniform_real_distribution<double> dbl(-1e6, 1e6);
    std::uniform_int_distribution<int> small(0, 40);
    for (int iter = 0; iter < 200; ++iter) {
        metric_record m;
        m.st = (iter % 3 == 0) ? status::success()
                               : status::infeasible(std::to_string(small(rng)) + " over");
        m.strategy = (iter % 2) ? "greedy" : "exact";
        m.constraints = {small(rng), dbl(rng)};
        m.has_design = (iter % 2) != 0;
        m.optimal = (iter % 5) == 0;
        m.note = std::string(static_cast<std::size_t>(small(rng)), 'x');
        m.area = dbl(rng);
        m.peak = dbl(rng);
        m.latency = small(rng);
        m.has_lifetime = (iter % 4) == 0;
        m.lifetime_seconds = dbl(rng);
        m.battery_alpha = dbl(rng);
        const std::string payload = encode_report(static_cast<std::uint64_t>(iter), m);
        const report_frame back = decode_report(payload);
        EXPECT_EQ(encode_report(back.index, back.metrics), payload) << iter;
    }
}

// ------------------------------------------------------------ channel

TEST(wire, channel_frames_round_trip_over_pipes)
{
    pipe_pair p = make_pipes();
    p.first.send(frame_type::report, encode_report(5, sample_metrics()));
    p.first.send(frame_type::bye, "");
    const std::optional<channel::frame> f1 = p.second.recv();
    ASSERT_TRUE(f1.has_value());
    EXPECT_EQ(f1->type, frame_type::report);
    EXPECT_EQ(decode_report(f1->payload).index, 5u);
    const std::optional<channel::frame> f2 = p.second.recv();
    ASSERT_TRUE(f2.has_value());
    EXPECT_EQ(f2->type, frame_type::bye);
    EXPECT_TRUE(f2->payload.empty());
}

TEST(wire, clean_eof_at_frame_boundary_is_nullopt)
{
    pipe_pair p = make_pipes();
    p.first.send(frame_type::bye, "");
    p.first.close();
    EXPECT_TRUE(p.second.recv().has_value());  // the bye
    EXPECT_FALSE(p.second.recv().has_value()); // then clean EOF
}

TEST(wire, hello_handshake_and_version_mismatch)
{
    {
        pipe_pair p = make_pipes();
        send_hello(p.first);
        EXPECT_EQ(expect_hello(p.second), wire_protocol_version);
    }
    {
        pipe_pair p = make_pipes();
        p.first.send(frame_type::hello, encode_hello(99));
        EXPECT_THROW(expect_hello(p.second), wire_error);
    }
    {
        // A non-hello opening frame is a handshake failure too.
        pipe_pair p = make_pipes();
        p.first.send(frame_type::bye, "");
        EXPECT_THROW(expect_hello(p.second), wire_error);
    }
}

void expect_recv_rejects(const std::string& raw)
{
    pipe_pair p = make_pipes();
    p.first.send_raw(raw);
    p.first.close(); // no more bytes: a short read becomes EOF, not a hang
    EXPECT_THROW(p.second.recv(), wire_error) << "raw bytes accepted";
}

TEST(wire, malformed_frames_are_rejected_cleanly)
{
    const std::string good = encode_frame(frame_type::hello, encode_hello(1));

    expect_recv_rejects(good.substr(0, 3));  // header cut mid-magic
    expect_recv_rejects(good.substr(0, 10)); // payload cut short
    expect_recv_rejects(good.substr(0, good.size() - 2)); // checksum cut short

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    expect_recv_rejects(bad_magic);

    std::string bad_type = good;
    bad_type[4] = 0;
    expect_recv_rejects(bad_type);
    bad_type[4] = 99;
    expect_recv_rejects(bad_type);

    std::string oversized = good;
    // Length field of 0x7FFFFFFF: rejected before any allocation.
    oversized[5] = '\xff';
    oversized[6] = '\xff';
    oversized[7] = '\xff';
    oversized[8] = '\x7f';
    expect_recv_rejects(oversized);

    std::string bad_payload = good;
    bad_payload[9] ^= 0x01; // checksum no longer matches
    expect_recv_rejects(bad_payload);

    std::string bad_checksum = good;
    bad_checksum.back() = static_cast<char>(bad_checksum.back() ^ 0x40);
    expect_recv_rejects(bad_checksum);
}

TEST(wire, fuzzed_frame_mutations_never_crash_the_receiver)
{
    // Every single-byte mutation of a real job frame must either be
    // caught by the transport (bad magic / type / length / checksum) or
    // decode to *something* without undefined behaviour.  With a
    // checksummed payload the transport catches all payload flips, so
    // the decoder only ever sees intact payloads here.
    const job_request job = make_job(hal17(), dse::cross({17, 19}, {5.5, 7.5}));
    const std::string good = encode_frame(frame_type::job, encode_job(job));

    for (std::size_t i = 0; i < good.size(); i += (i < 64 ? 1 : 17)) {
        std::string mutated = good;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5A);
        pipe_pair p = make_pipes();
        p.first.send_raw(mutated);
        p.first.close();
        try {
            const std::optional<channel::frame> f = p.second.recv();
            if (f && f->type == frame_type::job) (void)decode_job(f->payload);
        } catch (const error&) {
            // rejected cleanly -- the expected outcome for most flips
        }
    }
}

TEST(wire, fuzzed_payload_truncations_never_crash_the_decoder)
{
    // Truncation slips past the framing when the length and checksum
    // are recomputed (a buggy or hostile peer): every decoder must then
    // fail its bounds checks, not read stale memory.
    const job_request job = make_job(hal17(), dse::list({{17, 5.5}, {19, 7.5}}));
    const std::string payload = encode_job(job);
    for (std::size_t n = 0; n < payload.size(); n += (n < 64 ? 1 : 13)) {
        const std::string cut = payload.substr(0, n);
        EXPECT_THROW((void)decode_job(cut), error) << "length " << n;
    }
    const std::string report = encode_report(3, sample_metrics());
    for (std::size_t n = 0; n < report.size(); ++n)
        EXPECT_THROW((void)decode_report(report.substr(0, n)), error) << n;
    // Trailing garbage after a complete payload is rejected too.
    EXPECT_THROW((void)decode_report(report + "x"), error);
    EXPECT_THROW((void)decode_job(payload + std::string(1, '\0')), error);
}

} // namespace
} // namespace phls

// Tests for the long-lived exploration server: handshake and job flow
// over unix and TCP listeners, warm session sharing across clients,
// concurrent clients, and graceful degradation — a malformed client or
// a rejected job must never take the server (or other clients) down —
// plus the client's checks on what a server streams back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "cdfg/benchmarks.h"
#include "dse/session.h"
#include "flow/flow.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/errors.h"
#include "sweep_util.h"

namespace phls {
namespace {

using namespace serve;

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// Threads of this process right now (one /proc/self/task entry each).
std::size_t live_threads()
{
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

/// A unix-socket server running for the duration of one test, with
/// `threads` workers per job (serve_limits::threads).
struct test_server {
    explicit test_server(const char* name, int threads = 1)
    {
        server_options opts;
        opts.limits.threads = threads;
        opts.socket_path = std::string(::testing::TempDir()) + name;
        std::remove(opts.socket_path.c_str());
        srv = std::make_unique<server>(opts);
        srv->start();
    }
    ~test_server()
    {
        srv->stop();
        std::remove(srv->socket_path().c_str());
    }
    client connect()
    {
        return client([path = srv->socket_path()] { return connect_unix(path); });
    }
    std::unique_ptr<server> srv;
};

// ---------------------------------------------------------- happy path

TEST(serve, served_sweep_matches_local_explore)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(4);
    const std::vector<front_point> want = reference_front(grid);
    test_server ts("serve_basic.sock");

    client c = ts.connect();
    std::vector<std::size_t> indices;
    std::vector<front_delta> deltas;
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report&) { indices.push_back(i); };
    sk.on_front = [&](const front_delta& d) { deltas.push_back(d); };
    const dse::explore_summary sum = c.explore(make_job(hal17(), dse::list(grid)), sk);
    c.bye();

    EXPECT_EQ(sum.space_size, grid.size());
    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_EQ(indices.size(), grid.size());
    EXPECT_EQ(sum.front, want);
    // Replaying the streamed deltas reconstructs the summary's front.
    EXPECT_EQ(replay_front(deltas), sum.front);
    // No front crosses the wire, yet the client's deltas are the ones a
    // local one-worker sweep emits (the server runs one worker too).
    std::vector<front_delta> local;
    dse::sink local_sk;
    local_sk.on_front = [&](const front_delta& d) { local.push_back(d); };
    dse::session(hal17()).explore(dse::list(grid), local_sk, 1);
    ASSERT_EQ(deltas.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ(deltas[i].index, local[i].index) << i;
        EXPECT_EQ(deltas[i].entered, local[i].entered) << i;
        EXPECT_EQ(deltas[i].left, local[i].left) << i;
    }

    const server::stats_snapshot st = ts.srv->stats();
    EXPECT_EQ(st.jobs, 1u);
    EXPECT_EQ(st.rejects, 0u);
    EXPECT_EQ(st.protocol_errors, 0u);
    EXPECT_EQ(st.sessions, 1u);
}

TEST(serve, duplicate_jobs_share_one_warm_session)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(3);
    test_server ts("serve_warm.sock");
    const job_request job = make_job(hal17(), dse::list(grid));

    client first = ts.connect();
    const dse::explore_summary cold = first.explore(job);
    first.bye();
    EXPECT_EQ(cold.evaluated, grid.size());

    client second = ts.connect();
    const dse::explore_summary warm = second.explore(job);
    second.bye();

    // Same problem, same pool slot: the whole second sweep is answered
    // from the warm session's report memo, and the fronts agree exactly.
    EXPECT_EQ(warm.front, cold.front);
    EXPECT_GT(warm.counters.report_hits, cold.counters.report_hits);
    EXPECT_EQ(ts.srv->stats().sessions, 1u);
    EXPECT_EQ(ts.srv->stats().jobs, 2u);
}

TEST(serve, concurrent_clients_all_get_the_single_process_front)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(3);
    const std::vector<front_point> want = reference_front(grid);
    test_server ts("serve_concurrent.sock");
    const job_request job = make_job(hal17(), dse::list(grid));

    constexpr int clients = 4;
    std::vector<dse::explore_summary> done(clients);
    std::vector<std::string> failures(clients);
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&, i] {
            try {
                client c = ts.connect();
                done[static_cast<std::size_t>(i)] = c.explore(job);
                c.bye();
            } catch (const std::exception& e) {
                failures[static_cast<std::size_t>(i)] = e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();

    for (int i = 0; i < clients; ++i) {
        EXPECT_EQ(failures[static_cast<std::size_t>(i)], "") << "client " << i;
        EXPECT_EQ(done[static_cast<std::size_t>(i)].front, want);
    }
    const server::stats_snapshot st = ts.srv->stats();
    EXPECT_EQ(st.jobs, static_cast<std::size_t>(clients));
    EXPECT_EQ(st.sessions, 1u); // all four shared one warm session
    EXPECT_EQ(st.clients, static_cast<std::size_t>(clients));
}

TEST(serve, tcp_loopback_with_ephemeral_port)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(2);
    const std::vector<front_point> want = reference_front(grid);

    server_options opts;
    opts.port = 0; // ephemeral
    server srv(opts);
    ASSERT_GT(srv.port(), 0);
    srv.start();

    client c([port = srv.port()] { return connect_tcp("127.0.0.1", port); });
    const dse::explore_summary sum = c.explore(make_job(hal17(), dse::list(grid)));
    c.bye();
    EXPECT_EQ(sum.front, want);
    srv.stop();
    srv.stop(); // idempotent
}

TEST(serve, job_threads_are_capped_at_the_server_limit)
{
    // A client may ask for any worker count; serve_limits::threads is
    // the ceiling.  The result channel samples this process's threads
    // while the server's pool runs the job.
    const flow f = flow::on(make_elliptic()).with_library(lib()).latency(22);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(256)) grid.push_back({22, cap});
    job_request job = make_job(f, dse::list(grid));

    const auto run = [&](const char* name, int limit, int asked, long* extra) {
        test_server ts(name, limit);
        // A finished job on another problem opens the connection, so the
        // server's thread for it runs before the count, and the measured
        // job still meets a cold session.
        client c = ts.connect();
        c.explore(make_job(hal17(), dse::list({{17, 7.5}})));
        const long before = static_cast<long>(live_threads());
        std::vector<flow_report> reports(grid.size());
        dse::sink sk;
        sk.on_result = [&](std::size_t i, const flow_report& r) {
            reports[i] = r;
            *extra = std::max(*extra, static_cast<long>(live_threads()) - before);
        };
        job.threads = asked;
        c.explore(job, sk);
        c.bye();
        return reports;
    };
    long extra = 0;
    const std::vector<flow_report> capped = run("serve_cap.sock", 2, 64, &extra);
    // At most the two workers the server allows, never the 64 asked for.
    EXPECT_LE(extra, 2);

    long unused = 0;
    const std::vector<flow_report> single = run("serve_cap_one.sock", 1, 1, &unused);
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(capped[i].to_string(), single[i].to_string()) << i;
}

// ----------------------------------------------- graceful degradation

TEST(serve, malformed_client_is_dropped_but_the_server_keeps_serving)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(2);
    test_server ts("serve_malformed.sock");

    {
        // A hostile peer: valid transport, then garbage bytes.
        channel raw = connect_unix(ts.srv->socket_path());
        send_hello(raw);
        EXPECT_EQ(expect_hello(raw), wire_protocol_version);
        raw.send_raw("this is not a frame at all.....");
        // The server answers with a best-effort reject and closes only
        // this connection; reading to EOF must not hang or crash.
        try {
            while (raw.recv()) {
            }
        } catch (const wire_error&) {
        }
    }

    // The next well-formed client is served normally.
    client c = ts.connect();
    const dse::explore_summary sum = c.explore(make_job(hal17(), dse::list(grid)));
    c.bye();
    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_GE(ts.srv->stats().protocol_errors, 1u);
    EXPECT_EQ(ts.srv->stats().jobs, 1u);
}

TEST(serve, version_mismatch_is_rejected_before_any_job_bytes)
{
    test_server ts("serve_version.sock");
    {
        channel raw = connect_unix(ts.srv->socket_path());
        EXPECT_EQ(expect_hello(raw), wire_protocol_version);
        raw.send(frame_type::hello, encode_hello(99));
        // The server drops the connection (after a best-effort reject).
        try {
            while (raw.recv()) {
            }
        } catch (const wire_error&) {
        }
    }
    EXPECT_GE(ts.srv->stats().protocol_errors, 1u);

    // And a current-version client still gets served.
    client c = ts.connect();
    const dse::explore_summary sum = c.explore(make_job(hal17(), dse::list({{17, 7.5}})));
    c.bye();
    EXPECT_EQ(sum.evaluated, 1u);
}

TEST(serve, bad_jobs_are_rejected_and_the_connection_survives)
{
    test_server ts("serve_reject.sock");
    client c = ts.connect();

    job_request bad = make_job(hal17(), dse::list({{17, 7.5}}));
    bad.graph_text = "this does not parse";
    EXPECT_THROW(c.explore(bad), error);

    // Same connection, next job: served normally.
    const dse::explore_summary sum = c.explore(make_job(hal17(), dse::list({{17, 7.5}})));
    c.bye();
    EXPECT_EQ(sum.evaluated, 1u);
    EXPECT_EQ(ts.srv->stats().rejects, 1u);
    EXPECT_EQ(ts.srv->stats().jobs, 1u);
    EXPECT_EQ(ts.srv->stats().protocol_errors, 0u);
}

TEST(serve, unknown_strategy_names_are_rejected_cleanly)
{
    test_server ts("serve_strategy.sock");
    client c = ts.connect();
    job_request bad = make_job(hal17(), dse::list({{17, 7.5}}));
    bad.synthesizer = "no-such-strategy";
    try {
        c.explore(bad);
        FAIL() << "job with an unknown strategy was accepted";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos);
    }
    c.bye();
    EXPECT_EQ(ts.srv->stats().rejects, 1u);
}

TEST(serve, stop_disconnects_idle_clients_promptly)
{
    test_server ts("serve_stop.sock");
    channel idle = connect_unix(ts.srv->socket_path());
    send_hello(idle);
    EXPECT_EQ(expect_hello(idle), wire_protocol_version);

    // stop() shuts the client socket down; the pending read sees EOF (or
    // an error), never a hang.
    ts.srv->stop();
    try {
        while (idle.recv()) {
        }
    } catch (const wire_error&) {
    }
    SUCCEED();
}

// ------------------------------------------------- what a client checks

/// A connector to a scripted server: the far end of a socketpair,
/// loaded up front with a hello and then `answer` (the client's own
/// hello and job fit in the socket buffer unread).  `far` keeps that
/// end open, so the client reads the script and never an EOF.
client::connector scripted_server(const std::vector<std::string>& answer, channel& far)
{
    return [&answer, &far] {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw error("cannot create a socketpair");
        far = channel(fds[1], fds[1]);
        send_hello(far);
        for (const std::string& frame : answer) far.send_raw(frame);
        return channel(fds[0], fds[0]);
    };
}

std::string report_bytes(std::uint64_t index)
{
    return encode_frame(frame_type::report, encode_report(index, metric_record{}));
}

std::string done_bytes(std::size_t evaluated)
{
    dse::explore_summary sum;
    sum.space_size = 2;
    sum.evaluated = evaluated;
    return encode_frame(frame_type::done, encode_done(sum));
}

/// Runs a two-point job against `answer`, a whole conversation, and
/// returns the wire_error the client must raise, after checking that
/// only the `delivered` first reports reached the sink.
std::string scripted_failure(const std::vector<std::string>& answer, std::size_t delivered)
{
    channel far(-1, -1);
    client c(scripted_server(answer, far));
    std::size_t reports = 0;
    dse::sink sk;
    sk.on_result = [&](std::size_t, const flow_report&) { ++reports; };
    try {
        c.explore(make_job(hal17(), dse::list({{17, 7.5}, {17, 9.5}})), sk);
    } catch (const wire_error& e) {
        EXPECT_EQ(reports, delivered);
        return e.what();
    }
    ADD_FAILURE() << "the client accepted the script";
    return "";
}

TEST(serve, client_rejects_a_report_index_outside_its_job)
{
    EXPECT_EQ(scripted_failure({report_bytes(2), done_bytes(1)}, 0),
              "protocol violation: report index 2 outside the job");
}

TEST(serve, client_rejects_a_summary_counting_unstreamed_points)
{
    EXPECT_EQ(scripted_failure({report_bytes(0), done_bytes(2)}, 1),
              "protocol violation: done frame claims 2 evaluated points for 1 streamed "
              "report(s)");
}

} // namespace
} // namespace phls

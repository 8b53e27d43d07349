// Tests for the long-lived exploration server: handshake and job flow
// over unix and TCP listeners, warm session sharing across clients,
// concurrent clients, and graceful degradation — a malformed client or
// a rejected job must never take the server (or other clients) down.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cdfg/benchmarks.h"
#include "dse/session.h"
#include "flow/flow.h"
#include "serve/client.h"
#include "serve/server.h"
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

/// A duplicate-heavy point list: every grid point appears twice.
std::vector<synthesis_constraints> duplicated_grid(int points)
{
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(points)) grid.push_back({17, cap});
    const std::vector<synthesis_constraints> once = grid;
    grid.insert(grid.end(), once.begin(), once.end());
    return grid;
}

std::vector<front_point> reference_front(const std::vector<synthesis_constraints>& grid)
{
    dse::session session(hal17());
    return session.explore(dse::list(grid), {}, 1).front;
}

void expect_same_front(const std::vector<front_point>& got,
                       const std::vector<front_point>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i] == want[i]) << "front point " << i;
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
    client connect() { return client(connect_unix(srv->socket_path())); }
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
    const done_frame done = c.explore(make_job(hal17(), dse::list(grid)), sk);
    c.bye();

    EXPECT_EQ(done.space_size, grid.size());
    EXPECT_EQ(done.evaluated, grid.size());
    EXPECT_EQ(indices.size(), grid.size());
    expect_same_front(done.front, want);

    // Replaying the streamed deltas reconstructs the done frame's front.
    std::vector<front_point> rebuilt;
    for (const front_delta& d : deltas) {
        for (const front_point& p : d.left) {
            const auto it = std::find_if(rebuilt.begin(), rebuilt.end(),
                                         [&](const front_point& q) { return q == p; });
            ASSERT_NE(it, rebuilt.end());
            rebuilt.erase(it);
        }
        for (const front_point& p : d.entered) rebuilt.push_back(p);
    }
    std::sort(rebuilt.begin(), rebuilt.end(), [](const front_point& a, const front_point& b) {
        if (a.peak != b.peak) return a.peak < b.peak;
        if (a.area != b.area) return a.area < b.area;
        return a.index < b.index;
    });
    expect_same_front(rebuilt, done.front);

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
    const done_frame cold = first.explore(job);
    first.bye();
    EXPECT_EQ(cold.evaluated, grid.size());

    client second = ts.connect();
    const done_frame warm = second.explore(job);
    second.bye();

    // Same problem, same pool slot: the whole second sweep is answered
    // from the warm session's report memo, and the fronts agree exactly.
    expect_same_front(warm.front, cold.front);
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
    std::vector<done_frame> done(clients);
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
        expect_same_front(done[static_cast<std::size_t>(i)].front, want);
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

    client c{connect_tcp("127.0.0.1", srv.port())};
    const done_frame done = c.explore(make_job(hal17(), dse::list(grid)));
    c.bye();
    expect_same_front(done.front, want);
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
        client c = ts.connect(); // the server's thread for it is running
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
    const done_frame done = c.explore(make_job(hal17(), dse::list(grid)));
    c.bye();
    EXPECT_EQ(done.evaluated, grid.size());
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
    const done_frame done =
        c.explore(make_job(hal17(), dse::list({{17, 7.5}})));
    c.bye();
    EXPECT_EQ(done.evaluated, 1u);
}

TEST(serve, bad_jobs_are_rejected_and_the_connection_survives)
{
    test_server ts("serve_reject.sock");
    client c = ts.connect();

    job_request bad = make_job(hal17(), dse::list({{17, 7.5}}));
    bad.graph_text = "this does not parse";
    EXPECT_THROW(c.explore(bad), error);

    // Same connection, next job: served normally.
    const done_frame done = c.explore(make_job(hal17(), dse::list({{17, 7.5}})));
    c.bye();
    EXPECT_EQ(done.evaluated, 1u);
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

} // namespace
} // namespace phls

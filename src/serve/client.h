// Client side of the distributed exploration service.
//
// A serve::client speaks the wire protocol to a running `phls serve`
// (or any serve_connection() endpoint) and delivers like a local
// dse::session: per-point reports and Pareto front deltas stream into a
// dse::sink while the remote sweep runs, and explore() returns a
// dse::explore_summary.  Remote reports are metric-only (status +
// achieved metrics, no datapath) — exactly what a warm local session
// serves, so sweep tables, fronts and exports built from them are
// byte-identical to local ones.  The front deltas and the summary's
// front are the client's own fold of the reports it delivered.
//
//   serve::client c([] { return serve::connect_unix("/tmp/phls.sock"); });
//   const dse::explore_summary sum =
//       c.explore(serve::make_job(prototype, space), {.on_result = ...});
//   c.bye();
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "dse/session.h"
#include "serve/wire.h"

namespace phls::serve {

/// Connects to a unix-domain serve socket.  @throws wire_error on
/// failure (no server, refused, path too long).
channel connect_unix(const std::string& path);

/// Connects to a TCP serve port.  @throws wire_error on failure.
channel connect_tcp(const std::string& host, int port);

/// Reconnect policy of a client.
struct reconnect_options {
    /// Reconnect attempts per explore() after a transport failure
    /// (wire_error) — dial failures and mid-job drops alike.  0, the
    /// default, fails fast.
    int max_retries = 0;
    /// Delay before the first reconnect, doubled per attempt.
    int backoff_ms = 100;
    /// Ceiling of the doubling backoff.
    int backoff_cap_ms = 2000;
};

/// One conversation with a server: dials and handshakes on first use,
/// then runs any number of jobs.  Not thread-safe (one conversation,
/// one thread).
///
/// On wire_error (server restarted, connection dropped mid-stream, dial
/// refused) the client redials via its connector with capped
/// exponential backoff and resubmits the job, up to max_retries times
/// per explore().  Delivery stays byte-identical to a fault-free run:
/// reports are deduplicated by space index across attempts (a
/// restarted job re-streams points the first connection already
/// delivered — the warm server serves them from its memo), and the
/// front is folded locally from the deduplicated reports, which arrive
/// in the server's own fold order.  Job rejections (phls::error) are
/// not retried — a resubmission would be rejected identically.
class client {
public:
    /// Dials one fresh connection; called on first use and per
    /// reconnect.  @throws wire_error when the peer is unreachable.
    using connector = std::function<channel()>;

    explicit client(connector dial, const reconnect_options& opts = {});

    /// Submits `job` and streams the results into `sk` as they arrive:
    /// on_result gets each evaluated point once, as a metric-only
    /// flow_report, and on_front each change of the client's fold of
    /// them.  Returns the server's summary counts and cache counters
    /// with that fold's front.  @throws phls::error with the server's
    /// message when the job is rejected; wire_error once the retry
    /// budget is spent.
    dse::explore_summary explore(const job_request& job, const dse::sink& sk = {});

    /// Ends the conversation politely (no-op when disconnected).
    void bye();

    /// Reconnections performed so far (observability for tests/tools).
    std::size_t reconnects() const { return reconnects_; }

private:
    void ensure_connected();

    connector dial_;
    reconnect_options opts_;
    channel ch_{-1, -1};
    bool connected_ = false;
    std::size_t reconnects_ = 0;
};

} // namespace phls::serve

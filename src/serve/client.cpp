#include "serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace phls::serve {

channel connect_unix(const std::string& path)
{
    if (path.size() >= sizeof(sockaddr_un{}.sun_path))
        throw wire_error("unix socket path too long: " + path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw wire_error(std::string("cannot create socket: ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw wire_error("cannot connect to '" + path + "': " + why);
    }
    return channel(fd, fd);
}

channel connect_tcp(const std::string& host, int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw wire_error(std::string("cannot create socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        // Not a dotted quad: resolve it (covers "localhost").
        addrinfo hints{};
        hints.ai_family = AF_INET;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo* found = nullptr;
        if (::getaddrinfo(host.c_str(), nullptr, &hints, &found) != 0 || !found) {
            ::close(fd);
            throw wire_error("cannot resolve host '" + host + "'");
        }
        addr.sin_addr = reinterpret_cast<sockaddr_in*>(found->ai_addr)->sin_addr;
        ::freeaddrinfo(found);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw wire_error("cannot connect to " + host + ":" + std::to_string(port) +
                         ": " + why);
    }
    return channel(fd, fd);
}

client::client(connector dial, const reconnect_options& opts)
    : dial_(std::move(dial)), opts_(opts)
{
    check(static_cast<bool>(dial_), "client needs a connector");
    check(opts_.max_retries >= 0, "reconnect retry count must be >= 0");
    check(opts_.backoff_ms >= 0 && opts_.backoff_cap_ms >= 0,
          "reconnect backoff must be >= 0");
}

void client::ensure_connected()
{
    if (connected_) return;
    ch_ = dial_();
    send_hello(ch_);
    expect_hello(ch_);
    connected_ = true;
}

dse::explore_summary client::explore(const job_request& job, const dse::sink& sk)
{
    const auto started = std::chrono::steady_clock::now();
    // Job-scoped fold state, shared across attempts: after a reconnect
    // the warm server re-streams every point of the resubmitted job, and
    // the ones the dead connection already delivered must not reach the
    // sink (or the fold) twice.  Reports arrive in the server's own fold
    // order, so the fold's deltas are the ones a local session emits.
    std::vector<char> seen(job.space.size(), 0);
    pareto_stream front;
    const dse::stream_callback fold = [&](std::size_t index, const flow_report& rep) {
        if (seen[index]) return; // replayed point
        seen[index] = 1;
        if (sk.on_result) sk.on_result(index, rep);
        front_delta delta;
        front.add(index, rep, &delta);
        if (delta.changed() && sk.on_front) sk.on_front(delta);
    };
    int attempts = 0;
    int backoff = std::max(1, opts_.backoff_ms);
    for (;;) {
        try {
            ensure_connected();
            dse::explore_summary sum = submit_job(ch_, job, fold, "server");
            sum.front = front.front();
            sum.wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
            return sum;
        } catch (const wire_error&) {
            ch_.close();
            connected_ = false;
            if (attempts >= opts_.max_retries) throw;
            ++attempts;
            ++reconnects_;
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
            backoff = std::min(backoff * 2, std::max(1, opts_.backoff_cap_ms));
        }
    }
}

void client::bye()
{
    if (!connected_) return;
    try {
        ch_.send(frame_type::bye, "");
    } catch (const wire_error&) {
        // The peer is already gone; bye is best-effort by definition.
    }
    ch_.close();
    connected_ = false;
}

} // namespace phls::serve

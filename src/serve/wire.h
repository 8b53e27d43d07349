// Versioned binary wire format for the distributed exploration service.
//
// Everything the serve layer ships between processes — job requests
// (graph + library + flow configuration + a dse::space), streamed
// per-point reports, Pareto front_deltas and end-of-job summaries — is
// carried in self-delimiting *frames*:
//
//   [u32 magic "PHLS"] [u8 type] [u32 payload length] [payload bytes]
//   [u64 FNV-1a checksum of the payload]
//
// Payloads are written with the byte codec every binary format shares
// (support/codec.h): fixed-width little-endian integers, u32-prefixed
// strings, and doubles as their canonical bit pattern (canonical_bits:
// -0.0 and NaN normalised, ±inf distinct).  Memo-key fingerprints and
// cache files use the same codec, and a job's configuration fields are
// the fingerprint's (put_flow_config), so a point round-tripped over the
// wire produces the exact fingerprint the server's cache is keyed by.  A
// connection opens with a `hello` frame carrying the protocol version in
// each direction; peers speaking a different version are rejected before
// any job bytes are interpreted.  Every decoder is bounds-checked and
// throws wire_error instead of reading garbage, so a malformed or
// truncated frame is rejected cleanly — no crash, no partial state.
//
// The frame conversation (client side):
//
//   hello ->            <- hello
//   job ->              <- report*      (one per evaluated point)
//                       <- front*       (one per Pareto-front change)
//                       <- done         (summary + final front + stats)
//   job -> ... (more jobs on the same connection)
//   bye ->  (or just close)
//
// A server that cannot run a job answers `reject` (the connection stays
// usable); a protocol violation closes the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dse/space.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "support/errors.h"

namespace phls::serve {

/// Thrown on any malformed, truncated, mistyped or checksum-failing
/// wire traffic (and on transport failures: closed sockets, timeouts).
class wire_error : public error {
public:
    using error::error;
};

/// Protocol version exchanged in the hello handshake.  Bumped on any
/// incompatible change to the framing or a payload layout.
constexpr std::uint32_t wire_protocol_version = 1;

/// The frame kinds of the protocol.
enum class frame_type : std::uint8_t {
    hello = 1,  ///< version handshake (first frame in each direction)
    job = 2,    ///< client -> server: one exploration job
    report = 3, ///< server -> client: one evaluated point's metrics
    front = 4,  ///< server -> client: one Pareto front_delta
    done = 5,   ///< server -> client: job summary + final front + stats
    reject = 6, ///< server -> client: job refused (connection survives)
    bye = 7,    ///< client -> server: polite end of conversation
};

/// Short stable name of a frame type ("hello", "job", ...).
const char* frame_type_name(frame_type t);

// -------------------------------------------------------------- framing

/// Serialises one complete frame (header + payload + checksum).
std::string encode_frame(frame_type t, const std::string& payload);

/// A framed, blocking byte channel over a pair of file descriptors —
/// a socket (read_fd == write_fd), a pipe pair, or stdio.  Move-only;
/// owns and closes its descriptors.
class channel {
public:
    /// Wraps existing descriptors.  `read_fd` and `write_fd` may be the
    /// same (sockets); both are closed by the destructor exactly once.
    channel(int read_fd, int write_fd);
    channel(channel&& other) noexcept;
    channel& operator=(channel&& other) noexcept;
    channel(const channel&) = delete;
    channel& operator=(const channel&) = delete;
    ~channel();

    /// One received frame.
    struct frame {
        frame_type type{};
        std::string payload;
    };

    /// Sends one frame; throws wire_error when the peer is gone or a
    /// socket send timeout (SO_SNDTIMEO) expires.  Socket sends use
    /// MSG_NOSIGNAL, so a vanished peer surfaces as wire_error rather
    /// than a process-killing SIGPIPE (pipe transports still need the
    /// caller to ignore SIGPIPE).
    void send(frame_type t, const std::string& payload);
    /// Ships raw bytes with no framing — exists so tests and fuzzers can
    /// inject malformed traffic through the same transport.
    void send_raw(const std::string& bytes);

    /// Receives the next frame.  Returns nullopt on a clean EOF at a
    /// frame boundary; throws wire_error on garbage (bad magic, bad
    /// checksum, oversized length, mid-frame EOF) and on read timeouts
    /// (a socket with SO_RCVTIMEO set).
    std::optional<frame> recv();

    /// Closes both descriptors now (idempotent).
    void close();
    /// True while the descriptors are open.
    bool open() const { return read_fd_ >= 0; }

private:
    int read_fd_ = -1;
    int write_fd_ = -1;
    /// Whether write_fd_ accepts ::send(MSG_NOSIGNAL): -1 until the
    /// first send probes it, then 1 (socket) or 0 (pipe, use ::write).
    int send_is_socket_ = -1;
};

/// Sends the version handshake on a fresh channel.
void send_hello(channel& ch);
/// Receives and validates the peer's handshake; throws wire_error on a
/// non-hello frame, a version mismatch, or EOF.
std::uint32_t expect_hello(channel& ch);

// ------------------------------------------------------------- payloads

/// One exploration job: a complete, self-contained problem description.
/// The graph and library travel in their canonical text serialisations
/// (the same identity strings the explore_cache is keyed by), the flow
/// configuration field-by-field, and the point space either as its
/// lattice axes or as an explicit point list.
struct job_request {
    std::string graph_text;   ///< write_cdfg_string() of the design
    std::string library_text; ///< write_library_string() of the library
    std::string synthesizer = "greedy"; ///< synthesis strategy name
    std::string scheduler = "pasap";    ///< scheduler strategy name
    synthesis_options options;          ///< heuristic knobs
    exact_options exact;                ///< exact-strategy budget
    bool want_netlist = false;          ///< run the RTL stage
    bool want_lifetime = false;         ///< run the battery stage
    lifetime_spec lifetime;             ///< battery stage parameters
    dse::space space = dse::list({});   ///< the points to evaluate
    /// Worker threads the evaluation may use; 0 lets the server choose.
    std::int32_t threads = 0;
    /// When non-empty, the evaluating side saves its session cache here
    /// after the job.  Honoured by stdio/pipe workers (the shard
    /// orchestrator's per-shard cache files); the socket server ignores
    /// it unless explicitly configured to allow client-chosen paths.
    std::string save_cache_path;
};

/// Builds a job from a configured flow prototype and a space — the
/// serialisation of what dse::session(prototype).explore(s) would run.
/// Non-lattice spaces are materialised into an explicit point list;
/// lattice (grid/cross/refine) spaces travel as their axes.
job_request make_job(const flow& prototype, const dse::space& s);

/// Reconstructs the flow prototype a job describes.  @throws phls::error
/// (or parse_error) when the graph/library text does not parse.
flow job_flow(const job_request& job);

std::string encode_hello(std::uint32_t version);
std::uint32_t decode_hello(const std::string& payload);

std::string encode_job(const job_request& job);
job_request decode_job(const std::string& payload);

/// One evaluated point: its space index and the metric projection of
/// its report (the same projection cache files persist — datapaths and
/// netlists never travel).
struct report_frame {
    std::uint64_t index = 0;
    metric_record metrics;
};

std::string encode_report(std::uint64_t index, const metric_record& metrics);
report_frame decode_report(const std::string& payload);

std::string encode_front(const front_delta& delta);
front_delta decode_front(const std::string& payload);

/// End-of-job summary: the evaluation counts, the final Pareto front
/// (replaying the streamed front frames must reconstruct exactly this),
/// and the serving cache's counter snapshot.
struct done_frame {
    std::uint64_t space_size = 0;
    std::uint64_t evaluated = 0;
    std::uint64_t feasible = 0;
    std::uint64_t metric_served = 0;
    explore_cache::counters counters{};
    std::vector<front_point> front;
};

std::string encode_done(const done_frame& done);
done_frame decode_done(const std::string& payload);

/// Why a job was refused (bad graph text, unknown strategy, ...).
struct reject_frame {
    std::string message;
};

std::string encode_reject(const std::string& message);
reject_frame decode_reject(const std::string& payload);

} // namespace phls::serve

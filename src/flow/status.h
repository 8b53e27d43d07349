// Uniform outcome type for the flow engine.
//
// The lower-layer functions report failure three different ways: bools
// (`synthesis_result::feasible`), empty results (`fastest_assignment`)
// and exceptions (`check`).  Every flow stage instead returns a
// phls::status: `ok` on success, `infeasible` for constraint
// combinations with no solution (an *expected* outcome, per DESIGN.md),
// `invalid_argument` for malformed requests, `unsupported` for unknown
// strategy names, and `internal` for escaped exceptions inside a sweep
// worker.
#pragma once

#include <string>

namespace phls {

/// Machine-readable outcome class of a flow stage.
enum class status_code {
    ok,               ///< the stage succeeded
    infeasible,       ///< no design exists under the constraints
    invalid_argument, ///< malformed request (bad latency, empty library, ...)
    unsupported,      ///< unknown strategy / feature not available
    internal,         ///< unexpected failure (exception inside a worker)
};

/// Short stable name of a code ("ok", "infeasible", ...).
const char* status_code_name(status_code code);

/// Outcome + human-readable detail.  Default-constructed status is ok.
struct status {
    status_code code = status_code::ok; ///< machine-readable outcome class
    std::string message;                ///< human-readable detail (empty when ok)

    /// True iff code == status_code::ok.
    bool ok() const { return code == status_code::ok; }
    /// Same as ok(), for use in conditions.
    explicit operator bool() const { return ok(); }

    /// "ok" or "<code>: <message>".
    std::string to_string() const;

    /// An ok status.
    static status success() { return {}; }
    /// An infeasible status carrying the reason.
    static status infeasible(std::string why)
    {
        return {status_code::infeasible, std::move(why)};
    }
    /// An invalid_argument status carrying the reason.
    static status invalid(std::string why)
    {
        return {status_code::invalid_argument, std::move(why)};
    }
    /// An unsupported status carrying the reason.
    static status unsupported(std::string why)
    {
        return {status_code::unsupported, std::move(why)};
    }
    /// An internal-failure status carrying the reason.
    static status internal(std::string why)
    {
        return {status_code::internal, std::move(why)};
    }
};

/// Statuses compare equal when both code and message match.
inline bool operator==(const status& a, const status& b)
{
    return a.code == b.code && a.message == b.message;
}

} // namespace phls

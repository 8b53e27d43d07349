// Checkpoint-resume manifests for long-running sweeps.
//
// A sweep_manifest is the durable progress record of one sharded (or
// checkpointed local) sweep: which contiguous global index ranges are
// fully evaluated, and which cache files hold their results.  The
// orchestrator rewrites the manifest atomically as shards complete, so
// a killed sweep leaves behind an exact statement of what is done —
// `phls sweep --resume <manifest>` merges the listed cache files into a
// warm session and re-runs the space, serving every finished range from
// the metric memo and recomputing only the unfinished remainder.
//
// The file is format v2, framed by the checksummed-file helper cache
// files use (write_checksummed_file, support/checksummed_file.h): a magic
// string, a version and the body length in an unchecksummed header (so
// a torn tail classifies as `truncated`), the body, and the FNV-1a
// checksum of the body (so a flipped byte classifies as `corrupt`),
// every field fixed-width little-endian (support/codec.h), so a
// manifest written on one host resumes on any other.  v1 manifests
// fail as `version_mismatch`.  Writes go to a temporary file renamed
// into place — a crash mid-checkpoint never leaves a torn manifest.
// Failures throw cache_file_error with the same typed kinds cache
// files use; a damaged manifest is rejected loudly, never silently
// resumed from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/session.h"
#include "flow/flow.h"
#include "support/checksummed_file.h"

namespace phls::serve {

/// Progress record of one sweep over one problem configuration.
struct sweep_manifest {
    /// FNV-1a hash of the canonical job encoding of the prototype AND
    /// the swept space (graph, library, strategies, options, stages,
    /// every point's constraints), so a manifest is never resumed
    /// against a different problem or grid.
    std::uint64_t problem_hash = 0;
    /// Points the swept space describes; resume checks it matches.
    std::uint64_t space_size = 0;

    /// One fully-evaluated contiguous global index range [begin, end).
    struct range {
        std::uint64_t begin = 0;
        std::uint64_t end = 0;
    };
    std::vector<range> done_ranges;      ///< completed ranges, ascending begin
    std::vector<std::string> cache_files; ///< cache files holding their results

    /// Points covered by done_ranges.
    std::uint64_t done_points() const
    {
        std::uint64_t n = 0;
        for (const range& r : done_ranges) n += r.end - r.begin;
        return n;
    }
};

/// The problem identity a manifest pins: the hash of the canonical job
/// encoding of (prototype, space).  Deterministic across processes and
/// hosts.
std::uint64_t manifest_problem_hash(const flow& prototype, const dse::space& s);

/// Atomically writes `m` to `path` (tmp file + rename, checksummed).
/// @throws cache_file_error (kind io) when the file cannot be written.
void save_manifest(const std::string& path, const sweep_manifest& m);

/// Reads and fully validates a manifest.  @throws cache_file_error
/// carrying the path and failure kind (missing / truncated / corrupt /
/// version_mismatch) — a bad manifest never silently resumes.
sweep_manifest load_manifest(const std::string& path);

} // namespace phls::serve

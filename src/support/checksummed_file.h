// One checksummed binary file format, shared by cache files
// (flow/explore_cache.h) and sweep manifests (serve/manifest.h).
//
// A file is a header -- the magic with a u64 length prefix, the i64
// version and the i64 body length -- then the body and the u64 FNV-1a
// checksum of the body, every field fixed-width little-endian
// (support/codec.h).  The header is outside the checksum, so a torn
// tail reads as `truncated` and a flipped byte as `corrupt`.  Writes go
// to a temporary file renamed into place, so a reader (or a crash) sees
// the old complete file or the new one, never a torn one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "support/errors.h"

namespace phls {

class byte_reader;

/// Thrown when a checksummed file (a cache file or a manifest) cannot
/// be used.  Carries the offending path and a machine-readable failure
/// kind, so callers (and tests) can distinguish a missing file (the
/// normal first cold run) from a genuinely damaged one.
class cache_file_error : public error {
public:
    /// Why the file was rejected.
    enum class failure {
        missing,          ///< the file does not exist / cannot be opened
        truncated,        ///< shorter than its own framing declares
        corrupt,          ///< bad magic, failed checksum or trailing bytes
        version_mismatch, ///< written by an incompatible format version
        problem_mismatch, ///< saved for a different (graph, library)
        io,               ///< the file cannot be written/renamed
    };

    cache_file_error(failure kind, std::string path, const std::string& detail);

    /// The machine-readable failure class.
    failure kind() const { return kind_; }
    /// The file the failure is about.
    const std::string& path() const { return path_; }
    /// Short stable name of a failure kind ("missing", "corrupt", ...).
    static const char* kind_name(failure kind);

private:
    failure kind_;
    std::string path_;
};

/// One format of checksummed file.  Cache files and sweep manifests are
/// the two; the words below go into their messages and fault-site
/// names.
struct checksummed_format {
    const char* magic;     ///< identifies the format
    std::int64_t version;  ///< the only version this build reads
    const char* sites;     ///< fault-site prefix ("cache": cache.save.tear, ...)
    const char* noun;      ///< the file, as "cannot open" names it
    const char* header;    ///< its header, as "shorter than the" names it
    const char* foreign;   ///< the message for a wrong magic
    const char* temporary; ///< the temporary file, as the I/O messages name it
};

/// Atomically writes `body` framed as `format` to `path`: the bytes go
/// to `path + ".tmp"` in the same directory, then rename() -- atomic on
/// POSIX -- replaces `path`.  Fault sites, after the format's prefix:
/// `.save.corrupt` flips a body byte after checksumming, `.save.tear`
/// crashes halfway through the temporary file.
/// @throws cache_file_error (kind io) when the file cannot be written.
void write_checksummed_file(const std::string& path, const checksummed_format& format,
                            std::string_view body);

/// Reads `path` as `format` into one buffer sized from the file,
/// validates its framing and hands the body to `decode`, which must
/// consume all of it.  Fault site, after the format's prefix:
/// `.load.corrupt` flips one read byte.  @throws cache_file_error of
/// kind missing, truncated, version_mismatch or corrupt (bad magic,
/// negative body length, bytes after the checksum, a failed checksum,
/// or a body `decode` throws phls::error on).
void read_checksummed_file(const std::string& path, const checksummed_format& format,
                           const std::function<void(byte_reader&)>& decode);

} // namespace phls

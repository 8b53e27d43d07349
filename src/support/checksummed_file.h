// One checksummed binary file format, shared by cache files
// (flow/explore_cache.h) and sweep manifests (serve/manifest.h).
//
// A file is a header -- the magic with a u64 length prefix, the i64
// version and the i64 body length -- then the body and the u64 FNV-1a
// checksum of the body, every field fixed-width little-endian
// (support/codec.h).  The header is outside the checksum, so a torn
// tail reads as `truncated` and a flipped byte as `corrupt`.  Writes go
// to a temporary file renamed into place, so a reader (or a crash) sees
// the old complete file or the new one, never a torn one.  A write
// streams its body in pieces and a read holds the file in one buffer,
// so neither side ever holds a second copy of the body.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

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

/// Takes the next piece of a body that write_checksummed_file() streams.
using body_sink = std::function<void(std::string_view piece)>;

/// Atomically writes a body of `body_size` bytes, framed as `format`, to
/// `path`.  The header carries the size, so the caller declares it up
/// front; `write_body` then hands the body to the sink it is given in
/// pieces, in order, and the writer checksums each piece (a running
/// FNV-1a) and writes it as it arrives, so the body is never held
/// whole.  The bytes go to `path + ".tmp"` in the same directory, then
/// rename() -- atomic on POSIX -- replaces `path`.  The pieces must add
/// up to `body_size` exactly: a piece that passes it, or a body that
/// ends short of it, throws, and then -- as when `write_body` throws --
/// the temporary file is removed and `path` is left as it was.  Fault
/// sites, after the format's prefix: `.save.corrupt` flips the body
/// byte at offset body_size / 2 after checksumming it, so the file is
/// written whole and fails its checksum on every read; `.save.tear`
/// writes the first half of the file to the temporary file and throws
/// as a crash would, leaving that file behind and `path` untouched.
/// @throws cache_file_error (kind io) when the file cannot be written
/// or renamed; phls::error when the pieces do not add up to
/// `body_size`.
void write_checksummed_file(const std::string& path, const checksummed_format& format,
                            std::uint64_t body_size,
                            const std::function<void(const body_sink& put)>& write_body);

/// write_checksummed_file() of `body` passed as one piece, so the body
/// is written from where it lies and never copied.
void write_checksummed_file(const std::string& path, const checksummed_format& format,
                            std::string_view body);

/// Reads `path` as `format` into one buffer sized from the file,
/// validates its framing and hands the body to `decode`, which must
/// consume all of it.  Returns that buffer: views `decode` takes into
/// the body stay valid for as long as the buffer lives, wherever it is
/// moved.  Fault site, after the format's prefix: `.load.corrupt` flips
/// one read byte.  @throws cache_file_error of kind missing, truncated,
/// version_mismatch or corrupt (bad magic, negative body length, bytes
/// after the checksum, a failed checksum, or a body `decode` throws
/// phls::error on).
std::vector<char> read_checksummed_file(const std::string& path,
                                        const checksummed_format& format,
                                        const std::function<void(byte_reader&)>& decode);

} // namespace phls

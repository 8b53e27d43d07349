#include "serve/manifest.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "serve/wire.h"
#include "support/faultpoints.h"
#include "support/memo_key.h"
#include "support/strings.h"

namespace phls::serve {

namespace {

constexpr const char* manifest_magic = "phls-sweep-manifest";
constexpr long manifest_version = 1;

} // namespace

std::uint64_t manifest_problem_hash(const flow& prototype, const dse::space& s)
{
    // The canonical encoding of the exact job a resume must replay: the
    // problem configuration AND the materialised space — the latency and
    // power caps live in the space's points, not in the prototype, so a
    // hash of the prototype alone could not tell two sweeps apart.
    return fnv1a(encode_job(make_job(prototype, s)));
}

void save_manifest(const std::string& path, const sweep_manifest& m)
{
    std::string body;
    key_int(body, static_cast<long>(m.problem_hash));
    key_int(body, static_cast<long>(m.space_size));
    key_int(body, static_cast<long>(m.done_ranges.size()));
    for (const sweep_manifest::range& r : m.done_ranges) {
        key_int(body, static_cast<long>(r.begin));
        key_int(body, static_cast<long>(r.end));
    }
    key_int(body, static_cast<long>(m.cache_files.size()));
    for (const std::string& f : m.cache_files) key_str(body, f);

    std::string payload;
    key_str(payload, manifest_magic);
    key_int(payload, manifest_version);
    key_int(payload, static_cast<long>(body.size()));
    payload += body;
    const std::uint64_t sum = fnv1a(body);
    char sum_bytes[sizeof sum];
    std::memcpy(sum_bytes, &sum, sizeof sum);
    payload.append(sum_bytes, sizeof sum);

    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw cache_file_error(cache_file_error::failure::io, path,
                                   "cannot write temporary manifest '" + tmp + "'");
        // Fault site: a crash halfway through the temporary file.  The
        // rename never happens, so `path` keeps its previous (complete)
        // manifest — this is what makes checkpointing atomic.
        if (fault_fire("manifest.save.tear")) {
            os.write(payload.data(), static_cast<std::streamsize>(payload.size() / 2));
            os.flush();
            throw cache_file_error(cache_file_error::failure::io, path,
                                   "fault injected: crash during manifest save");
        }
        os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        os.flush();
        if (!os) {
            os.close();
            std::remove(tmp.c_str());
            throw cache_file_error(cache_file_error::failure::io, path,
                                   "failed writing temporary manifest '" + tmp + "'");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw cache_file_error(cache_file_error::failure::io, path,
                               "cannot rename '" + tmp + "' into place");
    }
}

sweep_manifest load_manifest(const std::string& path)
{
    using failure = cache_file_error::failure;

    std::ifstream is(path, std::ios::binary);
    if (!is) throw cache_file_error(failure::missing, path, "cannot open manifest");
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string content = buffer.str();

    // Fault site: in-memory corruption of what was read — exercises the
    // checksum rejection without touching the on-disk file.
    if (fault_fire("manifest.load.corrupt") && !content.empty())
        content[content.size() / 2] ^= 0x40;

    key_reader header(content);
    std::string magic;
    long version = 0;
    long body_size = 0;
    try {
        magic = header.read_str();
    } catch (const error&) {
        throw cache_file_error(failure::truncated, path,
                               "shorter than the manifest header");
    }
    if (magic != manifest_magic)
        throw cache_file_error(failure::corrupt, path, "not a phls sweep manifest");
    try {
        version = header.read_int();
        body_size = header.read_int();
    } catch (const error&) {
        throw cache_file_error(failure::truncated, path,
                               "shorter than the manifest header");
    }
    if (version != manifest_version)
        throw cache_file_error(failure::version_mismatch, path,
                               "format version " + std::to_string(version) +
                                   " (this build reads version " +
                                   std::to_string(manifest_version) + ")");
    if (body_size < 0)
        throw cache_file_error(failure::corrupt, path, "negative body length");
    const std::size_t body_bytes = static_cast<std::size_t>(body_size);
    if (header.remaining() < body_bytes + sizeof(std::uint64_t))
        throw cache_file_error(failure::truncated, path,
                               "body cut short (declared " +
                                   std::to_string(body_bytes) + " bytes, " +
                                   std::to_string(header.remaining()) + " remain)");
    if (header.remaining() > body_bytes + sizeof(std::uint64_t))
        throw cache_file_error(failure::corrupt, path, "trailing bytes after the body");

    const std::string body =
        content.substr(content.size() - header.remaining(), body_bytes);
    std::uint64_t stored_sum = 0;
    std::memcpy(&stored_sum, content.data() + content.size() - sizeof stored_sum,
                sizeof stored_sum);
    if (stored_sum != fnv1a(body))
        throw cache_file_error(failure::corrupt, path, "checksum mismatch");

    try {
        sweep_manifest m;
        key_reader r(body);
        m.problem_hash = static_cast<std::uint64_t>(r.read_int());
        m.space_size = static_cast<std::uint64_t>(r.read_int());
        // A range is two ints, a file name at least its length prefix.
        const std::size_t n_ranges = r.read_count(2 * sizeof(long));
        m.done_ranges.reserve(n_ranges);
        for (std::size_t i = 0; i < n_ranges; ++i) {
            sweep_manifest::range rg;
            rg.begin = static_cast<std::uint64_t>(r.read_int());
            rg.end = static_cast<std::uint64_t>(r.read_int());
            check(rg.begin <= rg.end && rg.end <= m.space_size,
                  "range outside the space");
            m.done_ranges.push_back(rg);
        }
        const std::size_t n_files = r.read_count(sizeof(long));
        m.cache_files.reserve(n_files);
        for (std::size_t i = 0; i < n_files; ++i) m.cache_files.push_back(r.read_str());
        check(r.remaining() == 0, "trailing bytes inside the body");
        return m;
    } catch (const cache_file_error&) {
        throw;
    } catch (const error& e) {
        throw cache_file_error(failure::corrupt, path, e.what());
    }
}

} // namespace phls::serve

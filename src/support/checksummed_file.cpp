#include "support/checksummed_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/codec.h"
#include "support/faultpoints.h"
#include "support/strings.h"

namespace phls {

cache_file_error::cache_file_error(failure kind, std::string path,
                                   const std::string& detail)
    : error("cache file '" + path + "': " + detail + " [" + kind_name(kind) + "]"),
      kind_(kind), path_(std::move(path))
{
}

const char* cache_file_error::kind_name(failure kind)
{
    switch (kind) {
    case failure::missing: return "missing";
    case failure::truncated: return "truncated";
    case failure::corrupt: return "corrupt";
    case failure::version_mismatch: return "version-mismatch";
    case failure::problem_mismatch: return "problem-mismatch";
    case failure::io: return "io";
    }
    return "unknown";
}

void write_checksummed_file(const std::string& path, const checksummed_format& format,
                            std::uint64_t body_size,
                            const std::function<void(const body_sink& put)>& write_body)
{
    using failure = cache_file_error::failure;
    const std::string sites = format.sites;
    byte_writer header;
    header.u64(std::string_view(format.magic).size());
    header.raw(format.magic);
    header.i64(format.version);
    header.i64(static_cast<std::int64_t>(body_size));
    const std::uint64_t file_size = header.bytes().size() + body_size + sizeof(std::uint64_t);

    // Fault site: silent on-disk corruption — a body byte flipped after
    // the checksum was computed, so the save "succeeds" but every later
    // load rejects the file as corrupt instead of misreading it.
    const bool corrupt = fault_fire((sites + ".save.corrupt").c_str()) && body_size > 0;

    const std::string tmp = path + ".tmp";
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os)
        throw cache_file_error(failure::io, path, std::string("cannot write ") +
                                                      format.temporary + " '" + tmp + "'");
    // Fault site: a crash halfway through the temporary file.  The
    // rename below never runs, so `path` keeps its previous complete
    // contents — this is the atomicity the tmp+rename scheme buys.
    const std::uint64_t torn_at =
        fault_fire((sites + ".save.tear").c_str()) ? file_size / 2 : file_size;
    bool torn = false;
    std::uint64_t written = 0; ///< bytes of the file handed to `os`
    const auto emit = [&](std::string_view bytes) {
        if (bytes.size() > torn_at - written) {
            os.write(bytes.data(), static_cast<std::streamsize>(torn_at - written));
            os.flush();
            torn = true;
            throw cache_file_error(failure::io, path,
                                   "fault injected: crash during " + sites + " save");
        }
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        written += bytes.size();
    };

    const auto size_error = [&](std::uint64_t passed) {
        return error("checksummed file '" + path + "': " + std::to_string(passed) +
                     " body bytes passed, " + std::to_string(body_size) + " declared");
    };
    std::uint64_t body_written = 0;
    std::uint64_t checksum = fnv1a({});
    const body_sink put = [&](std::string_view piece) {
        if (piece.size() > body_size - body_written)
            throw size_error(body_written + piece.size());
        checksum = fnv1a(piece, checksum);
        const std::uint64_t flip = body_size / 2;
        if (corrupt && flip >= body_written && flip - body_written < piece.size()) {
            std::string damaged(piece);
            damaged[static_cast<std::size_t>(flip - body_written)] ^= 0x40;
            emit(damaged);
        } else {
            emit(piece);
        }
        body_written += piece.size();
    };

    try {
        emit(header.bytes());
        write_body(put);
        if (body_written != body_size) throw size_error(body_written);
        byte_writer trailer;
        trailer.u64(checksum);
        emit(trailer.bytes());
        os.flush();
        if (!os)
            throw cache_file_error(failure::io, path, std::string("failed writing ") +
                                                          format.temporary + " '" + tmp + "'");
    } catch (...) {
        // A torn write stands for a crash, which leaves its temporary
        // file behind; any other failure removes it.
        if (!torn) {
            os.close();
            std::remove(tmp.c_str());
        }
        throw;
    }
    os.close();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw cache_file_error(failure::io, path, "cannot rename '" + tmp + "' into place");
    }
}

void write_checksummed_file(const std::string& path, const checksummed_format& format,
                            std::string_view body)
{
    write_checksummed_file(path, format, body.size(),
                           [body](const body_sink& put) { put(body); });
}

std::vector<char> read_checksummed_file(const std::string& path,
                                        const checksummed_format& format,
                                        const std::function<void(byte_reader&)>& decode)
{
    using failure = cache_file_error::failure;

    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw cache_file_error(failure::missing, path, std::string("cannot open ") + format.noun);
    // One buffer, sized from the file; what cannot be sized (a
    // directory) reads as empty, and a short read keeps what it got.
    std::error_code unsized;
    const std::uintmax_t size = std::filesystem::file_size(path, unsized);
    std::vector<char> content(unsized ? 0 : static_cast<std::size_t>(size));
    is.read(content.data(), static_cast<std::streamsize>(content.size()));
    content.resize(static_cast<std::size_t>(is.gcount()));

    // Fault site: in-memory corruption of what was read — exercises the
    // checksum rejection without touching the on-disk file.
    if (fault_fire((std::string(format.sites) + ".load.corrupt").c_str()) && !content.empty())
        content[content.size() / 2] ^= 0x40;

    // Header: magic, version and the declared body length are outside
    // the checksum, so they classify a damaged file precisely.  A header
    // field cut off by the end of the file is `truncated`.
    byte_reader header(std::string_view(content.data(), content.size()));
    const auto header_field = [&](auto read) {
        try {
            return read();
        } catch (const decode_error&) {
            throw cache_file_error(failure::truncated, path,
                                   std::string("shorter than the ") + format.header);
        }
    };
    const std::string_view magic = header_field([&] { return header.raw(header.u64()); });
    if (magic != format.magic) throw cache_file_error(failure::corrupt, path, format.foreign);
    const std::int64_t version = header_field([&] { return header.i64(); });
    const std::int64_t body_size = header_field([&] { return header.i64(); });
    if (version != format.version)
        throw cache_file_error(failure::version_mismatch, path,
                               "format version " + std::to_string(version) +
                                   " (this build reads version " +
                                   std::to_string(format.version) + ")");
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
    const std::string_view body = header.raw(body_bytes);
    if (header.u64() != fnv1a(body))
        throw cache_file_error(failure::corrupt, path, "checksum mismatch");

    // The checksum held, so any decode failure below is real corruption
    // (or an encoder bug), never mere truncation.
    try {
        byte_reader r(body);
        decode(r);
        if (r.remaining() != 0) throw decode_error("trailing bytes inside the body");
    } catch (const error& e) {
        throw cache_file_error(failure::corrupt, path, e.what());
    }
    return content;
}

} // namespace phls

#include "serve/manifest.h"

#include "serve/wire.h"
#include "support/checksummed_file.h"
#include "support/codec.h"
#include "support/errors.h"
#include "support/strings.h"

namespace phls::serve {

namespace {

/// Manifests.  Version 2 is the fixed-width little-endian layout; a
/// file of any other version is rejected as `version_mismatch`.
const checksummed_format manifest_format{
    .magic = "phls-sweep-manifest",
    .version = 2,
    .sites = "manifest",
    .noun = "manifest",
    .header = "manifest header",
    .foreign = "not a phls sweep manifest",
    .temporary = "temporary manifest",
};

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
    byte_writer w;
    w.u64(m.problem_hash);
    w.u64(m.space_size);
    w.u32(static_cast<std::uint32_t>(m.done_ranges.size()));
    for (const sweep_manifest::range& r : m.done_ranges) {
        w.u64(r.begin);
        w.u64(r.end);
    }
    w.u32(static_cast<std::uint32_t>(m.cache_files.size()));
    for (const std::string& f : m.cache_files) w.str(f);
    write_checksummed_file(path, manifest_format, w.bytes());
}

sweep_manifest load_manifest(const std::string& path)
{
    sweep_manifest m;
    read_checksummed_file(path, manifest_format, [&](byte_reader& r) {
        m.problem_hash = r.u64();
        m.space_size = r.u64();
        // A range is two u64s, a file name at least its length prefix.
        const std::size_t n_ranges = r.count(16, "range count");
        m.done_ranges.reserve(n_ranges);
        for (std::size_t i = 0; i < n_ranges; ++i) {
            sweep_manifest::range rg;
            rg.begin = r.u64();
            rg.end = r.u64();
            check(rg.begin <= rg.end && rg.end <= m.space_size, "range outside the space");
            m.done_ranges.push_back(rg);
        }
        const std::size_t n_files = r.count(4, "file count");
        m.cache_files.reserve(n_files);
        for (std::size_t i = 0; i < n_files; ++i) m.cache_files.push_back(r.str());
    });
    return m;
}

} // namespace phls::serve

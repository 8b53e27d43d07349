// Canonical byte-encoding helpers for memoisation keys and cache files.
//
// The explore_cache keys its report memo by exact values: doubles by
// bit pattern (two caps differing in the 17th digit are different
// scheduling problems) and strings length-prefixed (so adjacent fields
// cannot run together and collide).  The report fingerprint (flow.cpp)
// is built with these; the persisted cache file (explore_cache::
// save/load) and the sweep manifest reuse the same encoding via the
// key_reader decoders below, so what is a valid key in memory is a
// valid record on disk.
//
// Degenerate doubles are *normalised* before encoding so fingerprints
// are well-defined on them:
//
//   * -0.0 encodes as +0.0 — the two compare equal everywhere the
//     library reads a cap or cost, so they are the same scheduling
//     problem and must collide (a distinct key would only cost a
//     redundant recompute, but a collision is the correct semantics);
//   * every NaN encodes as one canonical quiet NaN — all NaN payloads
//     behave identically in comparisons (always false), so two NaN caps
//     describe the same (degenerate) problem and must collide;
//   * +inf and -inf keep their (distinct) bit patterns — they compare
//     differently and are genuinely different inputs (+inf is the
//     canonical `unbounded_power`).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "support/errors.h"

namespace phls {

/// Appends the raw bytes of `v` (widened to long) to `key`.
inline void key_int(std::string& key, long v)
{
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    key.append(bytes, sizeof v);
}

/// The canonical bit pattern `key_double` encodes for `v`: the value's
/// own bits, except that -0.0 maps to +0.0 and every NaN maps to the
/// default quiet NaN (see the normalisation rules above).
inline std::uint64_t key_double_bits(double v)
{
    if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
    if (v == 0.0) v = 0.0; // -0.0 == 0.0, so this canonicalises the sign
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/// Appends the normalised bit pattern of `v` to `key`.
inline void key_double(std::string& key, double v)
{
    const std::uint64_t bits = key_double_bits(v);
    char bytes[sizeof bits];
    std::memcpy(bytes, &bits, sizeof bits);
    key.append(bytes, sizeof bits);
}

/// Appends `s` length-prefixed to `key`.
inline void key_str(std::string& key, const std::string& s)
{
    key_int(key, static_cast<long>(s.size()));
    key += s;
}

/// Sequential decoder for byte strings built with key_int/key_double/
/// key_str — the read half of the canonical encoding, used by
/// explore_cache::load.  Every read throws phls::error on truncation
/// instead of returning garbage, so a cut-short cache file fails loudly.
class key_reader {
public:
    explicit key_reader(const std::string& bytes) : bytes_(bytes) {}
    /// The reader only borrows the bytes; a temporary would dangle.
    explicit key_reader(std::string&&) = delete;

    long read_int()
    {
        long v = 0;
        raw(&v, sizeof v);
        return v;
    }

    double read_double()
    {
        std::uint64_t bits = 0;
        raw(&bits, sizeof bits);
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string read_str()
    {
        const long n = read_int();
        check(n >= 0 && static_cast<std::size_t>(n) <= bytes_.size() - pos_,
              "memo record truncated: string runs past the end");
        std::string s = bytes_.substr(pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /// Reads a record count and checks that that many records of at
    /// least `min_record_bytes` each fit in the bytes not yet consumed,
    /// so a damaged count fails here instead of sizing an allocation.
    std::size_t read_count(std::size_t min_record_bytes)
    {
        const long n = read_int();
        check(n >= 0 && static_cast<std::size_t>(n) <= remaining() / min_record_bytes,
              "memo record count exceeds the remaining bytes");
        return static_cast<std::size_t>(n);
    }

    /// Bytes not yet consumed.
    std::size_t remaining() const { return bytes_.size() - pos_; }

private:
    void raw(void* out, std::size_t n)
    {
        check(n <= bytes_.size() - pos_, "memo record truncated");
        std::memcpy(out, bytes_.data() + pos_, n);
        pos_ += n;
    }

    const std::string& bytes_;
    std::size_t pos_ = 0;
};

} // namespace phls

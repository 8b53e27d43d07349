// The one byte codec of every binary format phls writes: report-memo
// fingerprints, cache files, sweep manifests and wire frames.
//
// Integers are fixed-width little-endian whatever the host, so every
// encoding is portable between hosts.  Strings carry a u32 length
// prefix, so adjacent fields cannot run together and collide.  Doubles
// travel as their canonical bit pattern (canonical_bits), normalised so
// fingerprints are well-defined on degenerate inputs:
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
//
// byte_reader bounds-checks every read and throws decode_error instead
// of returning garbage, and checks a declared count against the bytes
// left before anything is sized by it.  The wire layer turns a
// decode_error into its wire_error, the file layer into a corrupt
// cache_file_error.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "support/errors.h"

namespace phls {

/// Thrown by byte_reader, and by the decoders built on it, on bytes
/// that do not decode: a read past the end, a count the remaining bytes
/// cannot hold, a field out of range, or bytes left over.
class decode_error : public error {
public:
    using error::error;
};

/// The canonical bit pattern byte_writer::f64 encodes for `v`: the
/// value's own bits, except that -0.0 maps to +0.0 and every NaN maps
/// to the default quiet NaN (see the normalisation rules above).
inline std::uint64_t canonical_bits(double v)
{
    if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
    if (v == 0.0) v = 0.0; // -0.0 == 0.0, so this canonicalises the sign
    return std::bit_cast<std::uint64_t>(v);
}

/// Appends fixed-width little-endian fields to a byte string.
class byte_writer {
public:
    /// Continues after `prefix` (a fingerprint extended by a field).
    explicit byte_writer(std::string prefix = {}) : bytes_(std::move(prefix)) {}

    void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v) { put<4>(v); }
    void u64(std::uint64_t v) { put<8>(v); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /// A bool as the u8 0 or 1.
    void boolean(bool v) { u8(v ? 1 : 0); }
    /// canonical_bits(v) as a u64.
    void f64(double v) { u64(canonical_bits(v)); }
    /// A u32 length prefix, then the bytes.
    void str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s);
    }
    /// The bytes as they are, without a prefix.
    void raw(std::string_view s) { bytes_.append(s); }

    /// The bytes written so far.
    const std::string& bytes() const { return bytes_; }
    /// Moves the bytes out (the writer is empty afterwards).
    std::string take() { return std::move(bytes_); }

private:
    template <int N>
    void put(std::uint64_t v)
    {
        char b[N];
        for (int i = 0; i < N; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
        bytes_.append(b, N);
    }

    std::string bytes_;
};

/// Reads the fields byte_writer wrote, in order.  Every read past the
/// end throws decode_error.  The reader only borrows the bytes.
class byte_reader {
public:
    explicit byte_reader(std::string_view bytes) : bytes_(bytes) {}
    /// A temporary string would dangle.
    explicit byte_reader(std::string&&) = delete;

    std::uint8_t u8() { return static_cast<std::uint8_t>(raw(1)[0]); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get<4>()); }
    std::uint64_t u64() { return get<8>(); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    /// A u8 that must be 0 or 1: anything else is damage, not a bool.
    bool boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1) throw decode_error("boolean field is " + std::to_string(v));
        return v == 1;
    }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str()
    {
        const std::uint32_t n = u32();
        if (n > remaining()) throw decode_error("string runs past the end");
        return std::string(raw(n));
    }
    /// The next `n` bytes as they are.
    std::string_view raw(std::size_t n)
    {
        if (n > remaining()) throw decode_error("payload truncated");
        const std::string_view out = bytes_.substr(pos_, n);
        pos_ += n;
        return out;
    }

    /// A u32 count of items that take at least `min_item_bytes` each.
    /// A count the remaining bytes cannot hold is damage: it throws
    /// decode_error("<what> exceeds payload") before it sizes anything.
    std::size_t count(std::size_t min_item_bytes, const char* what)
    {
        const std::uint32_t n = u32();
        if (static_cast<std::uint64_t>(n) * min_item_bytes > remaining())
            throw decode_error(std::string(what) + " exceeds payload");
        return n;
    }

    /// Bytes not yet consumed.
    std::size_t remaining() const { return bytes_.size() - pos_; }
    /// Throws decode_error unless every byte was consumed.
    void expect_end() const
    {
        if (remaining() != 0)
            throw decode_error(std::to_string(remaining()) + " trailing payload bytes");
    }

private:
    template <int N>
    std::uint64_t get()
    {
        const std::string_view b = raw(N);
        std::uint64_t v = 0;
        for (int i = 0; i < N; ++i)
            v |= std::uint64_t{static_cast<unsigned char>(b[i])} << (8 * i);
        return v;
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

} // namespace phls

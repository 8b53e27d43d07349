// Small string utilities used by the text front-ends and report writers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/errors.h"

namespace phls {

/// printf-style formatting into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// True for the six whitespace bytes of the C locale: ' ', '\t', '\n',
/// '\v', '\f' and '\r'.  The readers split and trim on this instead of
/// the locale-aware std::isspace: nothing in phls calls setlocale() or
/// imbue(), so the C locale always holds and the two agree, and an
/// inline test costs no call per byte.
inline bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Removes leading and trailing whitespace (is_space).
std::string_view trim(std::string_view s);

/// Splits on `sep`, trimming each piece; empty pieces are kept.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `line` on runs of is_space into `tokens` (cleared first);
/// empty pieces are dropped and every token is a view into `line`.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens);

/// True if `s` consists only of whitespace or starts (after whitespace)
/// with the comment character '#'.
bool is_blank_or_comment(std::string_view s);

/// Takes the next line of `text` into `line` and drops it from `text`,
/// numbering as std::getline does: lines end at '\n' only (a '\r' stays
/// in the line, where it is whitespace), and a last line without '\n'
/// still counts.  False once `text` is empty.
bool next_line(std::string_view& text, std::string_view& line);

/// The text readers' line walk: calls `handle(tokens, line_number)` for
/// every line of `text` that is not is_blank_or_comment, with the line
/// split by tokenize() into one reused vector of views.  A phls::error
/// that `handle` throws becomes a parse_error carrying the line number;
/// a parse_error passes through unchanged.
template <typename Handler>
void for_each_line(std::string_view text, Handler&& handle)
{
    std::vector<std::string_view> tokens;
    std::string_view line;
    for (int number = 1; next_line(text, line); ++number) {
        if (is_blank_or_comment(line)) continue;
        tokenize(line, tokens);
        try {
            handle(tokens, number);
        } catch (const parse_error&) {
            throw;
        } catch (const error& e) {
            throw parse_error(e.what(), number);
        }
    }
}

/// Every byte left in `is`, read once (the stream overloads of the text
/// readers hand it to their string forms).
std::string read_all(std::istream& is);

/// True if `a` and `b` are equal up to ASCII case.
bool equals_ignoring_case(std::string_view a, std::string_view b);

/// True if `s` ends with `suffix` (used for file-extension dispatch:
/// ".cdfg", ".csv", ".dot", ".v").  Empty suffixes match.
inline bool ends_with(std::string_view s, std::string_view suffix)
{
    return s.ends_with(suffix);
}

/// Parses an integer; throws phls::error naming `what` on failure.
int parse_int(std::string_view s, const std::string& what);

/// Parses a double; throws phls::error naming `what` on failure.
double parse_double(std::string_view s, const std::string& what);

/// FNV-1a 64 of `bytes`: the checksum of cache files, sweep manifests
/// and wire frames, and the hash of graph's label index.  `seed` is the
/// hash of the bytes before these, so fnv1a(b, fnv1a(a)) is the hash of
/// a followed by b; the default is the offset basis, fnv1a("").
inline std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed = 1469598103934665603ull)
{
    std::uint64_t h = seed;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace phls

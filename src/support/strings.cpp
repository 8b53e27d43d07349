#include "support/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <istream>
#include <iterator>

#include "support/errors.h"

namespace phls {

std::string strf(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

std::string_view trim(std::string_view s)
{
    std::size_t begin = 0;
    while (begin < s.size() && is_space(s[begin])) ++begin;
    std::size_t end = s.size();
    while (end > begin && is_space(s[end - 1])) --end;
    return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(trim(s.substr(start)));
            break;
        }
        out.emplace_back(trim(s.substr(start, pos - start)));
        start = pos + 1;
    }
    return out;
}

void tokenize(std::string_view line, std::vector<std::string_view>& tokens)
{
    tokens.clear();
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && is_space(line[i])) ++i;
        std::size_t j = i;
        while (j < line.size() && !is_space(line[j])) ++j;
        if (j > i) tokens.push_back(line.substr(i, j - i));
        i = j;
    }
}

bool is_blank_or_comment(std::string_view s)
{
    const std::string_view t = trim(s);
    return t.empty() || t.front() == '#';
}

bool next_line(std::string_view& text, std::string_view& line)
{
    if (text.empty()) return false;
    const std::size_t end = text.find('\n');
    line = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    return true;
}

std::string read_all(std::istream& is)
{
    return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

bool equals_ignoring_case(std::string_view a, std::string_view b)
{
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

int parse_int(std::string_view s, const std::string& what)
{
    s = trim(s);
    int value = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc() || ptr != s.data() + s.size())
        throw error("expected integer for " + what + ", got '" + std::string(s) + "'");
    return value;
}

double parse_double(std::string_view s, const std::string& what)
{
    s = trim(s);
    // std::from_chars<double> is available in libstdc++ 11+, but accept a
    // strtod fallback-free implementation for clarity.
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc() || ptr != s.data() + s.size())
        throw error("expected number for " + what + ", got '" + std::string(s) + "'");
    return value;
}

} // namespace phls

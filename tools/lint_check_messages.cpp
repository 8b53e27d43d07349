// Fails when a check() call in the library formats its message, so a
// passing check keeps costing one branch (see src/support/errors.h).
//
//   lint_check_messages <dir-or-file> [more ...]
//
// Every *.h / *.cpp under the given paths is scanned for calls of the
// form `check(condition, message)` (optionally `phls::check`).  The
// message must be one string literal, or adjacent literals that the
// compiler concatenates; anything else -- a `+` chain, strf(...), a
// variable -- is reported as `file:line: ...` and the exit status is 1.
// Comments, string and character literals are skipped, so the word
// `check(` inside them is never mistaken for a call, and the
// definition `void check(...)` itself is not a call.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

enum class kind { ident, literal, punct };

struct token {
    kind k;
    std::string text;
    int line;
};

bool ident_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Splits C++ source into identifiers (numbers included, digit
/// separators too), string literals and single punctuation characters;
/// comments, whitespace and character literals produce no token.
std::vector<token> tokenize(const std::string& s)
{
    std::vector<token> out;
    int line = 1;
    std::size_t i = 0;
    const auto skip_quoted = [&](char quote) {
        ++i;
        while (i < s.size() && s[i] != quote) {
            if (s[i] == '\\') ++i;
            else if (s[i] == '\n') ++line;
            ++i;
        }
        ++i;
    };
    while (i < s.size()) {
        const char c = s[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
        } else if (s.compare(i, 2, "//") == 0) {
            while (i < s.size() && s[i] != '\n') ++i;
        } else if (s.compare(i, 2, "/*") == 0) {
            const std::size_t end = s.find("*/", i + 2);
            const std::size_t stop = end == std::string::npos ? s.size() : end + 2;
            line += static_cast<int>(std::count(s.begin() + static_cast<long>(i),
                                                s.begin() + static_cast<long>(stop), '\n'));
            i = stop;
        } else if (c == '"') {
            const int at = line;
            skip_quoted('"');
            out.push_back({kind::literal, "\"", at});
        } else if (c == '\'') {
            skip_quoted('\'');
        } else if (ident_char(c)) {
            const bool number = std::isdigit(static_cast<unsigned char>(c)) != 0;
            const std::size_t b = i;
            while (i < s.size() &&
                   (ident_char(s[i]) ||
                    (number && s[i] == '\'' && i + 1 < s.size() && ident_char(s[i + 1]))))
                ++i;
            out.push_back({kind::ident, s.substr(b, i - b), line});
        } else {
            out.push_back({kind::punct, std::string(1, c), line});
            ++i;
        }
    }
    return out;
}

/// Appends one finding per formatted check() message in `tokens`.
void scan(const std::string& file, const std::vector<token>& tokens,
          std::vector<std::string>& findings)
{
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        const token& t = tokens[i];
        if (t.k != kind::ident || t.text != "check" || tokens[i + 1].text != "(") continue;
        if (i > 0) {
            const token& prev = tokens[i - 1];
            if (prev.text == "." || prev.text == ">") continue;           // a member call
            if (prev.k == kind::ident && prev.text == "void") continue;   // the definition
        }
        // Collect the top-level arguments of the call.
        std::vector<std::vector<const token*>> args(1);
        int depth = 0;
        for (std::size_t j = i + 2; j < tokens.size(); ++j) {
            const std::string& p = tokens[j].text; // only punctuation matches below
            if (p == "(" || p == "[" || p == "{") ++depth;
            if (p == ")" || p == "]" || p == "}") {
                if (depth == 0) break;
                --depth;
            }
            if (depth == 0 && p == ",")
                args.emplace_back();
            else
                args.back().push_back(&tokens[j]);
        }
        if (args.size() != 2) continue; // not a check(condition, message) call
        const std::vector<const token*>& msg = args[1];
        const bool literal =
            !msg.empty() && std::all_of(msg.begin(), msg.end(), [](const token* m) {
                return m->k == kind::literal;
            });
        if (!literal)
            findings.push_back(file + ":" + std::to_string(t.line) +
                               ": check() message is not a string literal; "
                               "format it on the failure branch: if (!cond) throw error(...)");
    }
}

bool is_source(const fs::path& p)
{
    return p.extension() == ".h" || p.extension() == ".cpp";
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) {
        std::cerr << "usage: lint_check_messages <dir-or-file> [more ...]\n";
        return 2;
    }
    std::vector<fs::path> files;
    for (int a = 1; a < argc; ++a) {
        const fs::path root(argv[a]);
        if (fs::is_regular_file(root)) {
            files.push_back(root);
        } else if (fs::is_directory(root)) {
            for (const auto& e : fs::recursive_directory_iterator(root))
                if (e.is_regular_file() && is_source(e.path())) files.push_back(e.path());
        } else {
            std::cerr << "lint_check_messages: no such file or directory '" << argv[a] << "'\n";
            return 2;
        }
    }
    std::sort(files.begin(), files.end());

    std::vector<std::string> findings;
    for (const fs::path& f : files) {
        std::ifstream is(f);
        if (!is) {
            std::cerr << "lint_check_messages: cannot open '" << f.string() << "'\n";
            return 2;
        }
        std::ostringstream text;
        text << is.rdbuf();
        scan(f.string(), tokenize(text.str()), findings);
    }
    for (const std::string& line : findings) std::cout << line << '\n';
    std::cout << "lint_check_messages: " << files.size() << " files, " << findings.size()
              << " formatted check() message(s)\n";
    return findings.empty() ? 0 : 1;
}

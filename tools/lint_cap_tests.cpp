// Fails when library code tests a power value against the cap without
// the one predicate, cap_test::over() (src/power/tracker.h).
//
//   lint_cap_tests <dir-or-file> [more ...]
//
// Every *.h / *.cpp under the given paths is scanned for the raw
// spellings of "over the cap": `power_tracker::tolerance` and
// `cap_ + tolerance`.  Each use is reported as `file:line: ...` and the
// exit status is 1.  A raw test would answer without telling an
// installed cap_recorder, so explore_cache could serve a design at a cap
// where that test answers differently.  Comments, string and character
// literals are skipped.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

/// `s` with every comment and string/character literal blanked out,
/// newlines kept, so line numbers survive.
std::string code_only(const std::string& s)
{
    std::string out = s;
    std::size_t i = 0;
    const auto blank = [&](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to && k < out.size(); ++k)
            if (out[k] != '\n') out[k] = ' ';
    };
    while (i < s.size()) {
        if (s.compare(i, 2, "//") == 0) {
            const std::size_t end = std::min(s.find('\n', i), s.size());
            blank(i, end);
            i = end;
        } else if (s.compare(i, 2, "/*") == 0) {
            const std::size_t end = s.find("*/", i + 2);
            const std::size_t stop = end == std::string::npos ? s.size() : end + 2;
            blank(i, stop);
            i = stop;
        } else if (s[i] == '"' || s[i] == '\'') {
            const char quote = s[i];
            std::size_t j = i + 1;
            while (j < s.size() && s[j] != quote && s[j] != '\n') j += s[j] == '\\' ? 2 : 1;
            blank(i, j + 1);
            i = j + 1;
        } else {
            ++i;
        }
    }
    return out;
}

int lint_file(const fs::path& path)
{
    static const std::regex raw(
        R"(\bpower_tracker\s*::\s*tolerance\b|(^|[^A-Za-z0-9_])cap_\s*\+\s*tolerance\b)");
    std::ifstream is(path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    std::istringstream lines(code_only(buffer.str()));
    int found = 0;
    int number = 0;
    for (std::string line; std::getline(lines, line);) {
        ++number;
        if (!std::regex_search(line, raw)) continue;
        std::cout << path.string() << ':' << number
                  << ": raw cap test; compare through cap_test::over()\n";
        ++found;
    }
    return found;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) {
        std::cerr << "usage: lint_cap_tests <dir-or-file> [more ...]\n";
        return 2;
    }
    std::vector<fs::path> files;
    for (int a = 1; a < argc; ++a) {
        const fs::path root(argv[a]);
        if (fs::is_regular_file(root)) {
            files.push_back(root);
            continue;
        }
        if (!fs::is_directory(root)) {
            std::cerr << "lint_cap_tests: no such file or directory: " << root << '\n';
            return 2;
        }
        for (const auto& entry : fs::recursive_directory_iterator(root)) {
            const std::string ext = entry.path().extension().string();
            if (entry.is_regular_file() && (ext == ".h" || ext == ".cpp"))
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    int found = 0;
    for (const fs::path& f : files) found += lint_file(f);
    if (found > 0) {
        std::cout << found << " raw cap test(s)\n";
        return 1;
    }
    std::cout << "every cap test in " << files.size() << " files uses cap_test::over()\n";
    return 0;
}

// Fails when a file in src/ includes a header of a higher layer than its
// own (docs/ARCHITECTURE.md, "Layer map": lower layers never include
// higher ones).
//
//   lint_layers <src-dir>
//
// A file's layer is the directory under <src-dir> it lives in, and an
// `#include "<dir>/..."` names the layer <dir>.  The layers, lowest
// first, are
//
//   support < cdfg < library < power < sched < rtl < synth < battery
//           < flow < dse < serve < task
//
// Every include of a higher layer, and every file or include in a
// directory the map does not name, is reported as `src/<dir>/<file>:line`
// and the exit status is 1.
#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

constexpr std::array<const char*, 12> layers = {
    "support", "cdfg", "library", "power", "sched", "rtl",
    "synth", "battery", "flow", "dse", "serve", "task"};

/// The position of layer `dir` in the map, or -1 when it names none.
int rank(const std::string& dir)
{
    const auto it = std::find(layers.begin(), layers.end(), dir);
    return it == layers.end() ? -1 : static_cast<int>(it - layers.begin());
}

/// Appends one finding per include of `file` (in layer `own`) that names
/// a higher or an unknown layer.
void lint_file(const fs::path& file, const std::string& shown, int own,
               std::vector<std::string>& findings)
{
    static const std::regex include(R"(^\s*#\s*include\s*"([^/"]+)/)");
    std::ifstream is(file);
    int number = 0;
    for (std::string line; std::getline(is, line);) {
        ++number;
        std::smatch m;
        if (!std::regex_search(line, m, include)) continue;
        const std::string dir = m[1].str();
        const int theirs = rank(dir);
        if (theirs >= 0 && theirs <= own) continue;
        findings.push_back(shown + ":" + std::to_string(number) + ": includes " +
                           (theirs < 0 ? "'" + dir + "/', which the layer map does not name"
                                       : "the higher layer '" + dir + "'"));
    }
}

} // namespace

int main(int argc, char** argv)
{
    if (argc != 2 || !fs::is_directory(argv[1])) {
        std::cerr << "usage: lint_layers <src-dir>\n";
        return 2;
    }
    const fs::path root = fs::path(argv[1]).lexically_normal();
    const fs::path shown_from = root.has_filename() ? root.parent_path()
                                                    : root.parent_path().parent_path();
    std::vector<fs::path> files;
    for (const auto& e : fs::recursive_directory_iterator(root))
        if (e.is_regular_file() &&
            (e.path().extension() == ".h" || e.path().extension() == ".cpp"))
            files.push_back(e.path());
    std::sort(files.begin(), files.end());

    std::vector<std::string> findings;
    for (const fs::path& f : files) {
        const fs::path rel = f.lexically_relative(root);
        const std::string shown = f.lexically_relative(shown_from).generic_string();
        const std::string dir = rel.begin()->string();
        const int own = rank(dir);
        if (own < 0 || std::distance(rel.begin(), rel.end()) < 2) {
            findings.push_back(shown + ":1: lives outside every layer of the map");
            continue;
        }
        lint_file(f, shown, own, findings);
    }
    for (const std::string& line : findings) std::cout << line << '\n';
    std::cout << "lint_layers: " << files.size() << " files, " << findings.size()
              << " include(s) against the layer map\n";
    return findings.empty() ? 0 : 1;
}

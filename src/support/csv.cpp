#include "support/csv.h"

#include <fstream>
#include <ostream>

#include "support/errors.h"

namespace phls {

csv_writer::csv_writer(std::vector<std::string> header) : header_(std::move(header))
{
    check(!header_.empty(), "csv_writer needs at least one column");
}

void csv_writer::add_row(std::vector<std::string> cells)
{
    check(cells.size() == header_.size(), "csv_writer::add_row: cell count mismatch");
    rows_.push_back(std::move(cells));
}

std::string csv_writer::escape(const std::string& cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"') out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void csv_writer::print(std::ostream& os) const
{
    const auto print_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (i > 0) os << ',';
            os << escape(cells[i]);
        }
        os << '\n';
    };
    print_row(header_);
    for (const auto& r : rows_) print_row(r);
}

void csv_writer::save(const std::string& path) const
{
    std::ofstream os(path);
    if (!os) throw error("cannot open '" + path + "' for writing");
    print(os);
}

} // namespace phls

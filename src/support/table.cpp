#include "support/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/errors.h"

namespace phls {

ascii_table::ascii_table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    check(!headers_.empty(), "ascii_table needs at least one column");
    aligns_.assign(headers_.size(), align::right);
    aligns_[0] = align::left;
}

void ascii_table::set_align(std::size_t col, align a)
{
    check(col < aligns_.size(), "ascii_table::set_align: column out of range");
    aligns_[col] = a;
}

void ascii_table::add_row(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        throw error("ascii_table::add_row: expected " + std::to_string(headers_.size()) +
                    " cells, got " + std::to_string(cells.size()));
    rows_.push_back(row{false, std::move(cells)});
}

void ascii_table::add_separator()
{
    rows_.push_back(row{true, {}});
}

void ascii_table::print(std::ostream& os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const row& r : rows_) {
        if (r.separator) continue;
        for (std::size_t c = 0; c < r.cells.size(); ++c)
            widths[c] = std::max(widths[c], r.cells[c].size());
    }

    const auto print_cells = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c > 0) os << "  ";
            const std::size_t pad = widths[c] - cells[c].size();
            if (aligns_[c] == align::right) os << std::string(pad, ' ');
            os << cells[c];
            if (aligns_[c] == align::left && c + 1 < cells.size()) os << std::string(pad, ' ');
        }
        os << '\n';
    };
    const auto print_rule = [&] {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            if (c > 0) os << "  ";
            os << std::string(widths[c], '-');
        }
        os << '\n';
    };

    print_cells(headers_);
    print_rule();
    for (const row& r : rows_) {
        if (r.separator)
            print_rule();
        else
            print_cells(r.cells);
    }
}

std::string ascii_table::to_string() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

} // namespace phls

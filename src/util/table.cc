#include "util/table.hh"

#include <cstdio>

#include "util/logging.hh"

namespace wsearch {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    wsearch_assert(!headers_.empty());
}

void
Table::addRow(std::vector<std::string> cells)
{
    wsearch_assert(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::toString() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            if (row[c].size() > widths[c])
                widths[c] = row[c].size();

    auto renderRow = [&](const std::vector<std::string> &row) {
        std::string out = "|";
        for (size_t c = 0; c < row.size(); ++c) {
            out += " " + row[c];
            out.append(widths[c] - row[c].size() + 1, ' ');
            out += "|";
        }
        out += "\n";
        return out;
    };

    std::string out = renderRow(headers_);
    out += "|";
    for (size_t c = 0; c < headers_.size(); ++c) {
        out.append(widths[c] + 2, '-');
        out += "|";
    }
    out += "\n";
    for (const auto &row : rows_)
        out += renderRow(row);
    return out;
}

void
Table::print() const
{
    std::fputs(toString().c_str(), stdout);
}

std::string
Table::fmt(double v, int precision)
{
    char buf[64];
    snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::fmtPct(double fraction, int precision)
{
    char buf[64];
    snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string
Table::fmtInt(uint64_t v)
{
    char buf[32];
    snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
    return buf;
}

} // namespace wsearch

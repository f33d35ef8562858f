/**
 * @file
 * Minimal ASCII table printer used by the bench harnesses to emit
 * paper-style tables and figure series. Cells are strings; columns are
 * auto-sized; output is GitHub-flavored markdown so bench output can be
 * pasted into EXPERIMENTS.md directly.
 */

#ifndef WSEARCH_UTIL_TABLE_HH
#define WSEARCH_UTIL_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace wsearch {

/** A simple row/column table with markdown rendering. */
class Table
{
  public:
    /** Construct with column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render to a markdown table string. */
    std::string toString() const;

    /** Render to stdout. */
    void print() const;

    size_t numRows() const { return rows_.size(); }

    /** Format helpers for cells. */
    static std::string fmt(double v, int precision = 2);
    static std::string fmtPct(double fraction, int precision = 1);
    static std::string fmtInt(uint64_t v);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace wsearch

#endif // WSEARCH_UTIL_TABLE_HH

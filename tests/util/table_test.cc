#include <gtest/gtest.h>

#include "util/table.hh"

namespace wsearch {
namespace {

TEST(Table, RendersMarkdown)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("| name"), std::string::npos);
    EXPECT_NE(s.find("| longer"), std::string::npos);
    EXPECT_NE(s.find("|--"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, ColumnsAligned)
{
    Table t({"a", "b"});
    t.addRow({"xxxx", "y"});
    const std::string s = t.toString();
    // Every line should have the same length.
    size_t first_len = s.find('\n');
    size_t pos = first_len + 1;
    while (pos < s.size()) {
        const size_t next = s.find('\n', pos);
        ASSERT_NE(next, std::string::npos);
        EXPECT_EQ(next - pos, first_len);
        pos = next + 1;
    }
}

TEST(Table, FmtHelpers)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::fmt(1.5, 0), "2");
    EXPECT_EQ(Table::fmtPct(0.273, 1), "27.3%");
    EXPECT_EQ(Table::fmtInt(123456), "123456");
}

} // namespace
} // namespace wsearch

// Unit tests for the support module: strings, tables, csv, ids, rng.
#include <gtest/gtest.h>

#include <cctype>

#include "support/csv.h"
#include "support/errors.h"
#include "support/ids.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"

namespace phls {
namespace {

TEST(strings, strf_formats_like_printf)
{
    EXPECT_EQ(strf("a%db", 7), "a7b");
    EXPECT_EQ(strf("%.2f", 1.5), "1.50");
    EXPECT_EQ(strf("%s-%s", "x", "y"), "x-y");
    EXPECT_EQ(strf("plain"), "plain");
}

TEST(strings, trim_removes_surrounding_whitespace)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim("\t\nx\r "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(strings, split_on_separator_keeps_empty_pieces)
{
    const std::vector<std::string> parts = split("a, b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(strings, is_space_is_isspace_in_the_c_locale)
{
    // The readers test whitespace inline instead of calling the
    // locale-aware std::isspace; phls never leaves the C locale, where
    // the two agree on every byte.
    for (int c = 0; c < 256; ++c)
        EXPECT_EQ(is_space(static_cast<char>(c)), std::isspace(c) != 0) << c;
}

TEST(strings, tokenize_drops_empty_pieces)
{
    std::vector<std::string_view> parts = {"stale"};
    tokenize("  a \t b\nc\r  ", parts);
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(strings, tokenize_of_blank_is_empty)
{
    std::vector<std::string_view> parts = {"stale"};
    tokenize("  \r ", parts);
    EXPECT_TRUE(parts.empty());
    tokenize("", parts);
    EXPECT_TRUE(parts.empty());
}

TEST(strings, blank_and_comment_detection)
{
    EXPECT_TRUE(is_blank_or_comment(""));
    EXPECT_TRUE(is_blank_or_comment("   "));
    EXPECT_TRUE(is_blank_or_comment("# note"));
    EXPECT_TRUE(is_blank_or_comment("   # indented"));
    EXPECT_FALSE(is_blank_or_comment("node a add"));
}

TEST(strings, parse_int_accepts_valid_and_rejects_garbage)
{
    EXPECT_EQ(parse_int("42", "x"), 42);
    EXPECT_EQ(parse_int(" -7 ", "x"), -7);
    EXPECT_THROW(parse_int("4x", "x"), error);
    EXPECT_THROW(parse_int("", "x"), error);
    EXPECT_THROW(parse_int("1.5", "x"), error);
}

TEST(strings, parse_double_accepts_valid_and_rejects_garbage)
{
    EXPECT_DOUBLE_EQ(parse_double("2.5", "p"), 2.5);
    EXPECT_DOUBLE_EQ(parse_double(" 8.1 ", "p"), 8.1);
    EXPECT_THROW(parse_double("abc", "p"), error);
    EXPECT_THROW(parse_double("", "p"), error);
}

TEST(strings, equals_ignoring_case_only_folds_ascii_letters)
{
    EXPECT_TRUE(equals_ignoring_case("AbC-12", "abc-12"));
    EXPECT_TRUE(equals_ignoring_case("", ""));
    EXPECT_FALSE(equals_ignoring_case("abc", "abd"));
    EXPECT_FALSE(equals_ignoring_case("abc", "abcd"));
    EXPECT_FALSE(equals_ignoring_case("a-1", "a_1"));
}

TEST(strings, ends_with_matches_suffixes_only)
{
    EXPECT_TRUE(ends_with("design.cdfg", ".cdfg"));
    EXPECT_TRUE(ends_with("out.csv", ".csv"));
    EXPECT_TRUE(ends_with("a.v", ".v"));
    EXPECT_TRUE(ends_with("anything", ""));
    EXPECT_FALSE(ends_with("design.cdfg.bak", ".cdfg"));
    EXPECT_FALSE(ends_with(".cdf", ".cdfg")); // shorter than the suffix
    EXPECT_FALSE(ends_with("", ".v"));
    EXPECT_FALSE(ends_with("graph.dot.png", ".dot"));
}

TEST(ids, typed_ids_are_distinct_and_comparable)
{
    const node_id a(1), b(2);
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(a != b);
    EXPECT_EQ(node_id(1), a);
    EXPECT_TRUE(a.valid());
    EXPECT_FALSE(node_id().valid());
    EXPECT_EQ(a.index(), 1u);
}

TEST(ids, hashable_in_unordered_containers)
{
    std::hash<node_id> h;
    EXPECT_EQ(h(node_id(3)), h(node_id(3)));
}

TEST(errors, check_throws_with_message)
{
    EXPECT_NO_THROW(check(true, "ok"));
    try {
        check(false, "broken thing");
        FAIL() << "expected throw";
    } catch (const error& e) {
        EXPECT_STREQ(e.what(), "broken thing");
    }
}

TEST(errors, parse_error_carries_line_number)
{
    const parse_error e("bad token", 12);
    EXPECT_EQ(e.line(), 12);
    EXPECT_NE(std::string(e.what()).find("line 12"), std::string::npos);
}

TEST(table, renders_headers_rule_and_rows)
{
    ascii_table t({"name", "value"});
    t.add_row({"a", "1"});
    t.add_row({"long-name", "22"});
    const std::string out = t.to_string();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(table, rejects_wrong_cell_count)
{
    ascii_table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), error);
}

TEST(table, right_alignment_pads_left)
{
    ascii_table t({"h", "v"});
    t.add_row({"x", "9"});
    t.add_row({"y", "1000"});
    const std::string out = t.to_string();
    EXPECT_NE(out.find("   9"), std::string::npos);
}

TEST(table, needs_at_least_one_column)
{
    EXPECT_THROW(ascii_table({}), error);
}

TEST(csv, writes_header_and_rows)
{
    csv_writer w({"a", "b"});
    w.add_row({"1", "2"});
    std::ostringstream os;
    w.print(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(csv, escapes_commas_and_quotes)
{
    csv_writer w({"x"});
    w.add_row({"a,b"});
    w.add_row({"say \"hi\""});
    std::ostringstream os;
    w.print(os);
    EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
    EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(csv, rejects_wrong_cell_count)
{
    csv_writer w({"a", "b"});
    EXPECT_THROW(w.add_row({"1"}), error);
}

TEST(rng, deterministic_for_same_seed)
{
    rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(rng, different_seeds_diverge)
{
    rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(rng, uniform_int_stays_in_range)
{
    rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const int v = r.uniform_int(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
    }
}

TEST(rng, uniform_stays_in_unit_interval)
{
    rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

} // namespace
} // namespace phls

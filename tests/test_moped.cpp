#include <gtest/gtest.h>

#include "pda_test_util.hpp"
#include "util/errors.hpp"
#include "verify/moped_format.hpp"

namespace aalwines::verify {
namespace {

using pda::testutil::random_pda;

TEST(MopedFormat, RoundTripsEveryRuleShape) {
    pda::Pda original(5);
    for (int i = 0; i < 3; ++i) original.add_state();
    original.set_symbol_classes(
        std::make_shared<const pda::SymbolClasses>(std::vector<pda::SymbolClass>{0, 1, 0}));

    original.add_rule({0, 1, pda::PreSpec::concrete(2), pda::Rule::OpKind::Swap, 3,
                       pda::k_no_symbol, pda::Weight::one(), 7});
    original.add_rule({1, 2, pda::PreSpec::of_class(1), pda::Rule::OpKind::Pop,
                       pda::k_no_symbol, pda::k_no_symbol, pda::Weight::one(), 8});
    original.add_rule({2, 0, pda::PreSpec::any(), pda::Rule::OpKind::Push, 4,
                       pda::k_same_symbol, pda::Weight::one(), 9});
    original.add_rule({2, 1, pda::PreSpec::concrete(0), pda::Rule::OpKind::Push, 1, 2,
                       pda::Weight::one(), UINT32_MAX});

    const auto text = write_moped_format(original);
    const auto parsed = parse_moped_format(text);

    ASSERT_EQ(parsed.state_count(), original.state_count());
    ASSERT_EQ(parsed.rule_count(), original.rule_count());
    EXPECT_EQ(parsed.alphabet_size(), original.alphabet_size());
    for (pda::Symbol s = 0; s < 5; ++s)
        EXPECT_EQ(parsed.class_of(s), original.class_of(s));
    for (pda::RuleId id = 0; id < original.rule_count(); ++id) {
        const auto& a = original.rule(id);
        const auto& b = parsed.rule(id);
        EXPECT_EQ(a.from, b.from);
        EXPECT_EQ(a.to, b.to);
        EXPECT_EQ(a.pre, b.pre);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.label1, b.label1);
        EXPECT_EQ(a.label2, b.label2);
        EXPECT_EQ(a.tag, b.tag);
    }
}

TEST(MopedFormat, RandomPdasRoundTrip) {
    std::mt19937_64 rng(2024);
    for (int round = 0; round < 20; ++round) {
        const auto original = random_pda(rng, 5, 4, 12, false);
        const auto parsed = parse_moped_format(write_moped_format(original));
        ASSERT_EQ(parsed.rule_count(), original.rule_count());
        for (pda::RuleId id = 0; id < original.rule_count(); ++id) {
            const auto& a = original.rule(id);
            const auto& b = parsed.rule(id);
            EXPECT_TRUE(a.from == b.from && a.to == b.to && a.pre == b.pre &&
                        a.op == b.op && a.label1 == b.label1 && a.label2 == b.label2 &&
                        a.tag == b.tag)
                << "round " << round << " rule " << id;
        }
    }
}

TEST(MopedFormat, RejectsGarbage) {
    EXPECT_THROW(parse_moped_format("not a pds"), aalwines::parse_error);
    EXPECT_THROW(parse_moped_format("pds x y"), aalwines::parse_error);
    EXPECT_THROW(parse_moped_format("pds 1 1\nrule 0 q 0 swap 0 - 0 0"), aalwines::parse_error);
    EXPECT_THROW(parse_moped_format("pds 1 1\nrule 0 c 0 jump 0 - 0 0"), aalwines::parse_error);
    EXPECT_THROW(parse_moped_format("pds 1 1\nbanana"), aalwines::parse_error);
}

} // namespace
} // namespace aalwines::verify

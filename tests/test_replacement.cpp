/**
 * @file
 * Replacement-policy properties, swept across associativities.
 */

#include <gtest/gtest.h>

#include "cache/replacement_policy.hh"

namespace pth
{
namespace
{

class ReplacementParam
    : public ::testing::TestWithParam<std::tuple<ReplacementKind, unsigned>>
{
  protected:
    ReplacementKind kind() { return std::get<0>(GetParam()); }
    unsigned ways() { return std::get<1>(GetParam()); }
};

TEST_P(ReplacementParam, VictimAlwaysInRange)
{
    auto policy = ReplacementPolicy::create(kind(), 4, ways(), 1);
    for (int i = 0; i < 500; ++i) {
        unsigned v = policy->victim(i % 4);
        EXPECT_LT(v, ways());
        policy->insert(i % 4, v);
    }
}

TEST_P(ReplacementParam, StateHashSeesMetadataAndRngPosition)
{
    // A clone starts digest-identical; one victim/insert round must
    // move the digest for every kind (age stamps, tree bits, reference
    // bits, or just the RNG position for random replacement).
    auto policy = ReplacementPolicy::create(kind(), 4, ways(), 1);
    auto copy = std::make_unique<ReplacementPolicy>(*policy);
    ASSERT_EQ(policy->stateHash(), copy->stateHash());
    unsigned v = policy->victim(0);
    policy->insert(0, v);
    EXPECT_NE(policy->stateHash(), copy->stateHash());
}

TEST(ReplacementStateHash, LruTouchOrderChangesDigest)
{
    // Same set of touched ways in opposite order: the resident lines
    // are identical but the next victim differs, and the digest must
    // expose that. Pins the snapshot-audit gap where replacement
    // metadata was invisible to Cache/Tlb stateHash, so equal
    // fingerprints could still replay differently.
    auto a = ReplacementPolicy::create(ReplacementKind::Lru, 1, 2);
    auto b = ReplacementPolicy::create(ReplacementKind::Lru, 1, 2);
    a->touch(0, 0);
    a->touch(0, 1);
    b->touch(0, 1);
    b->touch(0, 0);
    EXPECT_NE(a->stateHash(), b->stateHash());
    EXPECT_NE(a->victim(0), b->victim(0));
}

TEST_P(ReplacementParam, SetsAreIndependent)
{
    auto policy = ReplacementPolicy::create(kind(), 2, ways(), 1);
    // Drive set 0 hard; set 1's state must be untouched, so its first
    // victims mirror a fresh policy's.
    auto fresh = ReplacementPolicy::create(kind(), 2, ways(), 1);
    for (int i = 0; i < 100; ++i)
        policy->insert(0, static_cast<unsigned>(i % ways()));
    // Replay identical operations on set 1 of both policies.
    std::vector<unsigned> a;
    std::vector<unsigned> b;
    for (int i = 0; i < 20; ++i) {
        unsigned va = policy->victim(1);
        policy->insert(1, va);
        a.push_back(va);
    }
    // Seeded policies draw from one stream, so only compare the
    // deterministic kinds exactly.
    if (kind() == ReplacementKind::Lru ||
        kind() == ReplacementKind::TreePlru) {
        for (int i = 0; i < 20; ++i) {
            unsigned vb = fresh->victim(1);
            fresh->insert(1, vb);
            b.push_back(vb);
        }
        EXPECT_EQ(a, b);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReplacementParam,
    ::testing::Combine(::testing::Values(ReplacementKind::Lru,
                                         ReplacementKind::TreePlru,
                                         ReplacementKind::Random,
                                         ReplacementKind::Nru,
                                         ReplacementKind::Aging),
                       ::testing::Values(4u, 8u, 12u, 16u)));

TEST(LruPolicy, EvictsLeastRecentlyUsed)
{
    auto lru = ReplacementPolicy::create(ReplacementKind::Lru, 1, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru->insert(0, w);
    lru->touch(0, 0);  // way 1 is now LRU
    EXPECT_EQ(lru->victim(0), 1u);
    lru->touch(0, 1);
    EXPECT_EQ(lru->victim(0), 2u);
}

TEST(LruPolicy, RetainsMostRecentNLines)
{
    // Property: after touching ways in a known order, the victim
    // sequence is the reverse order.
    auto lru = ReplacementPolicy::create(ReplacementKind::Lru, 1, 8);
    for (unsigned w = 0; w < 8; ++w)
        lru->insert(0, w);
    std::vector<unsigned> touchOrder = {3, 1, 4, 0, 5, 2, 7, 6};
    for (unsigned w : touchOrder)
        lru->touch(0, w);
    EXPECT_EQ(lru->victim(0), 3u);
}

TEST(TreePlru, NeverEvictsJustTouchedWay)
{
    auto plru = ReplacementPolicy::create(ReplacementKind::TreePlru, 1, 8);
    for (unsigned w = 0; w < 8; ++w)
        plru->insert(0, w);
    for (int i = 0; i < 100; ++i) {
        unsigned touched = static_cast<unsigned>(i * 5 % 8);
        plru->touch(0, touched);
        EXPECT_NE(plru->victim(0), touched);
    }
}

TEST(TreePlru, NonPowerOfTwoWaysStayInRange)
{
    auto plru = ReplacementPolicy::create(ReplacementKind::TreePlru, 1, 12);
    for (int i = 0; i < 1000; ++i) {
        unsigned v = plru->victim(0);
        EXPECT_LT(v, 12u);
        plru->insert(0, v);
    }
}

TEST(Nru, TouchedEntrySurvivesSomeFills)
{
    // Statistical property: an entry touched before every fill burst
    // survives a burst of `ways` fills some of the time (NRU is not
    // true LRU).
    auto nru = ReplacementPolicy::create(ReplacementKind::Nru, 1, 4, 77);
    unsigned survived = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        nru->touch(0, 0);
        bool evicted = false;
        for (int f = 0; f < 4; ++f) {
            unsigned v = nru->victim(0);
            if (v == 0)
                evicted = true;
            nru->insert(0, v);
        }
        if (!evicted)
            ++survived;
    }
    // True LRU would never let it survive `ways` fills; NRU does,
    // occasionally.
    EXPECT_GT(survived, 0u);
}

TEST(Aging, FreshlyTouchedWaySurvivesAssociativityFills)
{
    // The Figure-3 mechanism: evicting a just-touched entry takes
    // noticeably more fills than the associativity.
    auto aging =
        ReplacementPolicy::create(ReplacementKind::Aging, 1, 4, 99);
    unsigned evictedWithinWays = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        aging->touch(0, 0);
        for (int f = 0; f < 4; ++f) {
            unsigned v = aging->victim(0);
            if (v == 0) {
                ++evictedWithinWays;
                break;
            }
            aging->insert(0, v);
        }
    }
    // Eviction within `ways` fills should be rare.
    EXPECT_LT(evictedWithinWays, 60u);
}

TEST(Aging, EventuallyEvictsEverything)
{
    auto aging =
        ReplacementPolicy::create(ReplacementKind::Aging, 1, 4, 100);
    aging->touch(0, 2);
    bool evicted = false;
    for (int f = 0; f < 64 && !evicted; ++f) {
        unsigned v = aging->victim(0);
        evicted = (v == 2);
        aging->insert(0, v);
    }
    EXPECT_TRUE(evicted);
}

TEST(RandomPolicy, CoversAllWays)
{
    auto random =
        ReplacementPolicy::create(ReplacementKind::Random, 1, 8, 5);
    std::vector<bool> seen(8, false);
    for (int i = 0; i < 500; ++i)
        seen[random->victim(0)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(ReplacementFactory, NamesAllKinds)
{
    EXPECT_EQ(replacementKindName(ReplacementKind::Lru), "lru");
    EXPECT_EQ(replacementKindName(ReplacementKind::TreePlru), "tree-plru");
    EXPECT_EQ(replacementKindName(ReplacementKind::Random), "random");
    EXPECT_EQ(replacementKindName(ReplacementKind::Nru), "nru");
    EXPECT_EQ(replacementKindName(ReplacementKind::Aging), "aging");
}

} // namespace
} // namespace pth

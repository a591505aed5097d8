#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include "netlist/diagnostic.hpp"
#include "serve_test_decks.hpp"

namespace {

using namespace sscl;
using namespace sscl::serve_test;
using serve::CacheTier;
using serve::ElabCache;

ElabCache::Options small_cache(int capacity) {
  ElabCache::Options options;
  options.capacity = capacity;
  return options;
}

TEST(ElabCache, ColdLookupIsAMiss) {
  ElabCache cache(small_cache(4));
  const auto lookup = cache.acquire(kDivider);
  EXPECT_EQ(lookup.tier, CacheTier::kMiss);
  ASSERT_TRUE(lookup.entry);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(ElabCache, ResubmissionHitsTheElaborationTier) {
  ElabCache cache(small_cache(4));
  const auto cold = cache.acquire(kDivider);
  const auto warm = cache.acquire(kDivider);
  EXPECT_EQ(warm.tier, CacheTier::kElabHit);
  EXPECT_EQ(warm.entry.get(), cold.entry.get());
  EXPECT_EQ(cache.stats().hits_elab, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(ElabCache, WhitespaceOnlyEditStillHitsTheElaborationTier) {
  ElabCache cache(small_cache(4));
  cache.acquire(kDivider);
  const auto warm = cache.acquire(kDividerWhitespace);
  EXPECT_EQ(warm.tier, CacheTier::kElabHit);
  EXPECT_EQ(cache.stats().hits_elab, 1);
}

TEST(ElabCache, TopologyEditMisses) {
  ElabCache cache(small_cache(4));
  cache.acquire(kDivider);
  const auto edited = cache.acquire(kDividerTopologyEdit);
  EXPECT_EQ(edited.tier, CacheTier::kMiss);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(ElabCache, ParamEditBeforeTheDonorSolvedIsAPlainMiss) {
  // An unsolved donor has no pivot sequence to adopt, so a structural
  // match cannot be promoted to the pattern tier yet.
  ElabCache cache(small_cache(4));
  cache.acquire(kDivider);
  const auto early = cache.acquire(kDividerParamEdit);
  EXPECT_EQ(early.tier, CacheTier::kMiss);
  EXPECT_EQ(cache.stats().hits_pattern, 0);
}

TEST(ElabCache, ParamValueEditHitsThePatternTierOnceTheDonorSolved) {
  ElabCache cache(small_cache(4));
  const auto donor = cache.acquire(kDivider);
  donor.entry->engine().solve_op();
  ASSERT_TRUE(donor.entry->engine()
                  .linear_system()
                  .has_symbolic_factorization());
  const auto sibling = cache.acquire(kDividerParamEdit);
  EXPECT_EQ(sibling.tier, CacheTier::kPatternHit);
  EXPECT_EQ(cache.stats().hits_pattern, 1);

  // The adopted factorisation must still produce the right answer
  // (rload=2k: out = 2k / 3k of the 1 V source).
  const auto solution = sibling.entry->engine().solve_op();
  const auto out = sibling.entry->deck().circuit->find_node("out");
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(solution.v(*out), 2000.0 / 3000.0, 1e-6);
}

TEST(ElabCache, AdoptOptOutDowngradesThePatternTierToAMiss) {
  auto options = small_cache(4);
  options.adopt = false;
  ElabCache cache(options);
  const auto donor = cache.acquire(kDivider);
  donor.entry->engine().solve_op();
  const auto sibling = cache.acquire(kDividerParamEdit);
  EXPECT_EQ(sibling.tier, CacheTier::kMiss);
  EXPECT_EQ(cache.stats().hits_pattern, 0);
}

TEST(ElabCache, EvictsLeastRecentlyUsedAtCapacityTwo) {
  ElabCache cache(small_cache(2));
  const std::string decks[3] = {kDivider, kDividerTopologyEdit, kRcFull};
  cache.acquire(decks[0]);
  cache.acquire(decks[1]);
  cache.acquire(decks[0]);  // refresh 0: 1 is now the LRU victim
  cache.acquire(decks[2]);  // evicts 1
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.acquire(decks[0]).tier, CacheTier::kElabHit);
  EXPECT_EQ(cache.acquire(decks[1]).tier, CacheTier::kMiss);  // was evicted
}

TEST(ElabCache, EvictedEntryStaysUsableThroughItsSharedPtr) {
  ElabCache cache(small_cache(1));
  const auto held = cache.acquire(kDivider);
  cache.acquire(kDividerTopologyEdit);  // evicts kDivider
  EXPECT_EQ(cache.stats().evictions, 1);
  const auto solution = held.entry->engine().solve_op();
  const auto out = held.entry->deck().circuit->find_node("out");
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(solution.v(*out), 0.5, 1e-9);
}

TEST(ElabCache, EvictedEntryNobodyHoldsIsTornDownByTheEvictingAcquire) {
  ElabCache cache(small_cache(1));
  const std::weak_ptr<serve::CacheEntry> a = cache.acquire(kDivider).entry;
  ASSERT_FALSE(a.expired());  // resident: the cache holds it
  const ElabCache::Lookup b = cache.acquire(kDividerTopologyEdit);
  EXPECT_TRUE(a.expired());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(ElabCache, MalformedDeckThrowsAndInsertsNothing) {
  ElabCache cache(small_cache(4));
  EXPECT_THROW(cache.acquire(kBadModel), netlist::NetlistError);
  EXPECT_EQ(cache.stats().entries, 0);
  // The failed probe must not poison later lookups.
  EXPECT_EQ(cache.acquire(kDivider).tier, CacheTier::kMiss);
}

TEST(ElabCache, RejectsNonPositiveCapacity) {
  ElabCache::Options options;
  options.capacity = 0;
  EXPECT_THROW(ElabCache cache(options), std::invalid_argument);
}

TEST(ElabCache, TierNamesMatchTheWireWords) {
  EXPECT_STREQ(serve::cache_tier_name(CacheTier::kMiss), "cold");
  EXPECT_STREQ(serve::cache_tier_name(CacheTier::kPatternHit), "pattern");
  EXPECT_STREQ(serve::cache_tier_name(CacheTier::kElabHit), "elab");
}

}  // namespace

// Name tables: every spelling of every front-end enum parses back to the
// value it names, and every value prints a spelling that parses back to
// it.  The CLI, the daemon protocol and lazymc-ctl all read these tables.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "daemon/protocol.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/lazymc.hpp"
#include "mc/neighbor_search.hpp"
#include "support/names.hpp"
#include "support/simd.hpp"

namespace lazymc {
namespace {

/// Every table entry parses to its value; every value in `all` has a
/// canonical name that parses back to it; unknown spellings are nullopt.
template <class E, std::size_t N>
void expect_round_trip(const Named<E> (&table)[N], const std::vector<E>& all) {
  for (const Named<E>& entry : table) {
    const auto parsed = from_name(table, entry.name);
    ASSERT_TRUE(parsed.has_value()) << entry.name;
    EXPECT_EQ(*parsed, entry.value) << entry.name;
  }
  for (E value : all) {
    const std::string name = name_of(table, value);
    EXPECT_NE(name, "?");
    EXPECT_EQ(from_name(table, name), value) << name;
  }
  EXPECT_FALSE(from_name(table, "bogus").has_value());
  EXPECT_FALSE(from_name(table, "").has_value());
}

TEST(NameTables, NeighborhoodRep) {
  expect_round_trip(kNeighborhoodRepNames,
                    {NeighborhoodRep::kAuto, NeighborhoodRep::kHash,
                     NeighborhoodRep::kSorted, NeighborhoodRep::kBitset,
                     NeighborhoodRep::kHybrid});
  EXPECT_EQ(name_list(kNeighborhoodRepNames), "auto|hash|sorted|bitset|hybrid");
}

TEST(NameTables, VertexOrderKind) {
  expect_round_trip(mc::kVertexOrderNames,
                    {mc::VertexOrderKind::kCorenessDegree,
                     mc::VertexOrderKind::kPeeling});
  EXPECT_EQ(name_list(mc::kVertexOrderNames), "coreness|peeling");
}

TEST(NameTables, SplitMode) {
  expect_round_trip(mc::kSplitModeNames, {mc::SplitMode::kAuto,
                                          mc::SplitMode::kOn,
                                          mc::SplitMode::kOff});
  EXPECT_EQ(name_list(mc::kSplitModeNames), "auto|on|off");
}

TEST(NameTables, SimdTier) {
  expect_round_trip(simd::kTierNames, {simd::Tier::kScalar, simd::Tier::kAvx2,
                                       simd::Tier::kAvx512});
  for (simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    EXPECT_EQ(simd::tier_from_name(simd::tier_name(t)), t);
  }
  EXPECT_FALSE(simd::tier_from_name("auto").has_value());
}

TEST(NameTables, DaemonVerb) {
  using daemon::Verb;
  expect_round_trip(daemon::kVerbNames, {Verb::kLoad, Verb::kSolve,
                                         Verb::kStatus, Verb::kDrain,
                                         Verb::kStop});
  // "health" is an alias; "status" stays the canonical spelling.
  EXPECT_EQ(from_name(daemon::kVerbNames, "health"), Verb::kStatus);
  EXPECT_STREQ(daemon::verb_name(Verb::kStatus), "status");
}

}  // namespace
}  // namespace lazymc

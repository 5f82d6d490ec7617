// Tests for the support library: error types and MMPH_REQUIRE semantics.

#include <gtest/gtest.h>

#include "mmph/support/assert.hpp"
#include "mmph/support/error.hpp"
#include "mmph/support/page_allocator.hpp"

#include <cstdint>
#include <vector>

namespace mmph {
namespace {

TEST(ErrorHierarchy, InvalidArgumentIsAnError) {
  const InvalidArgument e("bad");
  EXPECT_NE(dynamic_cast<const Error*>(&e), nullptr);
  EXPECT_NE(dynamic_cast<const std::runtime_error*>(&e), nullptr);
}

TEST(ErrorHierarchy, StateAndParseErrorsAreErrors) {
  EXPECT_THROW(throw StateError("s"), Error);
  EXPECT_THROW(throw ParseError("p"), Error);
}

TEST(ErrorHierarchy, WhatIsPreserved) {
  const Error e("something broke");
  EXPECT_STREQ(e.what(), "something broke");
}

TEST(Require, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(MMPH_REQUIRE(1 + 1 == 2, "arithmetic"));
}

TEST(Require, FailingConditionThrowsInvalidArgument) {
  EXPECT_THROW(MMPH_REQUIRE(false, "always fails"), InvalidArgument);
}

TEST(Require, MessageContainsContext) {
  try {
    MMPH_REQUIRE(2 < 1, "two is not less than one");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("two is not less than one"), std::string::npos);
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

TEST(Require, ConditionEvaluatedExactlyOnce) {
  int count = 0;
  MMPH_REQUIRE(++count > 0, "increments once");
  EXPECT_EQ(count, 1);
}

TEST(Assert, PassingAssertIsSilent) {
  int count = 0;
  MMPH_ASSERT(++count == 1, "side effect allowed in tests");
  SUCCEED();
}

TEST(PageAllocator, VectorsGrowAcrossTheMmapThreshold) {
  // Growth crosses from malloc-backed to page-backed storage and back
  // (shrink_to_fit); contents survive every move.
  std::vector<std::uint32_t, support::PageAllocator<std::uint32_t>> ids;
  const std::size_t n =
      4 * support::kPageAllocMinBytes / sizeof(std::uint32_t);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < n; i += 997) EXPECT_EQ(ids[i], i);
  ids.resize(10);
  ids.shrink_to_fit();
  EXPECT_EQ(ids.back(), 9u);
  std::vector<double, support::PageAllocator<double>> copy(ids.begin(),
                                                          ids.end());
  EXPECT_EQ(copy.size(), 10u);
  EXPECT_EQ(copy[3], 3.0);
}

}  // namespace
}  // namespace mmph

#include "sim/inline_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace eblnet::sim {
namespace {

// Counts constructions/destructions of a capture so the tests can pin
// down exactly when InlineFunction destroys what it holds.
struct LifeCounter {
  static int live;
  LifeCounter() { ++live; }
  LifeCounter(const LifeCounter&) { ++live; }
  LifeCounter(LifeCounter&&) noexcept { ++live; }
  ~LifeCounter() { --live; }
};
int LifeCounter::live = 0;

using Fn = InlineFunction<64>;

TEST(InlineFunctionTest, InvokesCapturedCallable) {
  int hits = 0;
  Fn f{[&hits] { ++hits; }};
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunctionTest, DefaultConstructedIsEmpty) {
  Fn f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunctionTest, MoveTransfersTheCallable) {
  int hits = 0;
  Fn a{[&hits] { ++hits; }};
  Fn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, MoveAssignDestroysPreviousCapture) {
  LifeCounter::live = 0;
  Fn a{[c = LifeCounter{}] {}};
  EXPECT_EQ(LifeCounter::live, 1);
  a = Fn{[] {}};
  EXPECT_EQ(LifeCounter::live, 0);  // the old capture died with the assignment
  ASSERT_TRUE(static_cast<bool>(a));
}

TEST(InlineFunctionTest, MoveRelocatesExactlyOneLiveCapture) {
  LifeCounter::live = 0;
  {
    Fn a{[c = LifeCounter{}] {}};
    Fn b{std::move(a)};
    Fn c;
    c = std::move(b);
    EXPECT_EQ(LifeCounter::live, 1);  // the capture moved, it was never duplicated
  }
  EXPECT_EQ(LifeCounter::live, 0);
}

TEST(InlineFunctionTest, DestructorReleasesOwnedCapture) {
  auto tracked = std::make_shared<int>(7);
  {
    Fn f{[tracked] {}};
    EXPECT_EQ(tracked.use_count(), 2);
  }
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(InlineFunctionTest, ResetReleasesAndEmpties) {
  auto tracked = std::make_shared<int>(7);
  Fn f{[tracked] {}};
  f.reset();
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_EQ(tracked.use_count(), 1);
  f.reset();  // idempotent on empty
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunctionTest, CapacityBoundaryCaptureFits) {
  // A capture of exactly kCapacity bytes must compile and work.
  struct Block {
    int* out;
    unsigned char pad[Fn::kCapacity - sizeof(int*)];
  };
  static_assert(sizeof(Block) == Fn::kCapacity);
  int seen = 0;
  Fn f{[b = Block{&seen, {}}] { *b.out = 42; }};
  f();
  EXPECT_EQ(seen, 42);
}

TEST(InlineFunctionTest, MoveOnlyCapturesAreSupported) {
  auto owned = std::make_unique<int>(9);
  int seen = 0;
  Fn f{[p = std::move(owned), &seen] { seen = *p; }};
  Fn g{std::move(f)};
  g();
  EXPECT_EQ(seen, 9);
}

TEST(InlineFunctionTest, TriviallyCopyableFullCaptureSurvivesMovesAndReset) {
  // A full-width capture with no move constructor to call: InlineFunction
  // relocates it by copying its bytes and drops it without a destructor.
  std::uint64_t sum = 0;
  const auto make = [&sum](std::uint64_t base) {
    std::array<std::uint64_t, 7> words{};
    for (std::size_t i = 0; i < words.size(); ++i) words[i] = base + i;
    return [words, out = &sum] {
      for (const std::uint64_t w : words) *out += w;
    };
  };
  using Capture = decltype(make(0));
  static_assert(std::is_trivially_copyable_v<Capture>);
  static_assert(sizeof(Capture) == Fn::kCapacity);

  Fn a{make(10)};
  Fn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
  b();
  EXPECT_EQ(sum, 91u);  // 10 + 11 + ... + 16
  Fn c{make(0)};
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(sum, 182u);
  c.reset();
  EXPECT_FALSE(static_cast<bool>(c));
  c = make(100);
  c();
  EXPECT_EQ(sum, 182u + 721u);  // 100 + 101 + ... + 106
}

}  // namespace
}  // namespace eblnet::sim

#include "common/arena.h"

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

namespace cloudalloc::common {
namespace {

bool aligned_to(const void* p, std::size_t align) {
  return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  char* a = static_cast<char*>(arena.allocate(13, 1));
  double* d = static_cast<double*>(arena.allocate(sizeof(double), alignof(double)));
  char* b = static_cast<char*>(arena.allocate(40, 64));
  EXPECT_TRUE(aligned_to(d, alignof(double)));
  EXPECT_TRUE(aligned_to(b, 64));
  // Distinct live blocks never overlap: write patterns and read them back.
  std::memset(a, 0xaa, 13);
  *d = 1.5;
  std::memset(b, 0xbb, 40);
  for (int i = 0; i < 13; ++i) EXPECT_EQ(static_cast<unsigned char>(a[i]), 0xaa);
  EXPECT_EQ(*d, 1.5);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(static_cast<unsigned char>(b[i]), 0xbb);
}

TEST(Arena, ZeroByteAllocationReturnsUniquePointers) {
  Arena arena;
  void* a = arena.allocate(0);
  void* b = arena.allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
}

TEST(Arena, OversizedRequestGetsItsOwnPage) {
  Arena arena(1 << 10);
  void* small = arena.allocate(64);
  void* big = arena.allocate(1 << 20);  // far larger than the bump page
  EXPECT_NE(small, nullptr);
  EXPECT_NE(big, nullptr);
  std::memset(big, 0xcd, 1 << 20);
  EXPECT_GE(arena.bytes_reserved(), std::size_t{1} << 20);
}

TEST(Arena, MakeArrayValueInitializes) {
  Arena arena;
  const int* xs = arena.make_array<int>(1000);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(xs[i], 0);
}

}  // namespace
}  // namespace cloudalloc::common

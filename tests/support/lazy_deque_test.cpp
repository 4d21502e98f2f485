// support::LazyDeque: a FIFO that allocates nothing until its first push.
// This file replaces the global operator new of the test_support binary with
// a counting one, so the "nothing until first use" claim is checked, not
// assumed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "support/lazy_deque.hpp"

namespace {
std::atomic<std::size_t> gAllocations{0};

void* counted(std::size_t size) noexcept {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
// GCC flags free() inside a replacement operator delete; pairing it with
// the malloc of the replacement operator new is the point here. (Clang has
// no such warning and would reject the unknown name under -Werror.)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void release(void* p) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
}  // namespace

// Every unaligned form, so that no pointer crosses between this malloc/free
// pair and a sanitizer runtime's own operator new/delete.
void* operator new(std::size_t size) {
  if (void* p = counted(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace wst::support {
namespace {

TEST(LazyDeque, AllocatesNothingUntilFirstPush) {
  const std::size_t before = gAllocations.load();
  {
    std::vector<LazyDeque<int>> queues(64);  // one allocation: the vector
    for (LazyDeque<int>& q : queues) {
      EXPECT_TRUE(q.empty());
      EXPECT_EQ(q.size(), 0u);
      EXPECT_TRUE(q.begin() == q.end());
    }
  }
  EXPECT_EQ(gAllocations.load() - before, 1u);

  LazyDeque<int> q;
  q.push_back(1);
  EXPECT_GT(gAllocations.load() - before, 1u);
}

TEST(LazyDeque, KeepsFifoOrderAndErasesInTheMiddle) {
  LazyDeque<int> q;
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.front(), 0);
  q.pop_front();
  auto it = q.begin();
  while (*it != 50) ++it;
  it = q.erase(it);
  EXPECT_EQ(*it, 51);
  std::vector<int> rest;
  for (const int v : q) rest.push_back(v);
  ASSERT_EQ(rest.size(), 98u);
  EXPECT_EQ(rest.front(), 1);
  EXPECT_EQ(rest[48], 49);
  EXPECT_EQ(rest[49], 51);
  EXPECT_EQ(rest.back(), 99);
  while (!q.empty()) q.pop_front();
  q.push_back(7);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front(), 7);
}

}  // namespace
}  // namespace wst::support

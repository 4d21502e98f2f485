// Layout of the tool's backlog records (DESIGN.md §6b): the message variant
// is sized by the hot data-plane messages, and its boxed replies still copy
// like values.
#include <gtest/gtest.h>

#include <utility>

#include "must/messages.hpp"

namespace wst::must {
namespace {

TEST(ToolMsgLayout, CompactAndCopiesDeep) {
  EXPECT_LE(sizeof(ToolMsg), 80u);
  EXPECT_LE(sizeof(trace::Record), 72u);

  WaitInfoMsg info;
  info.epoch = 3;
  info.conditions.resize(1);
  info.conditions.front().proc = 1;
  info.activeSends.resize(1);
  const ToolMsg original{std::move(info)};
  const std::size_t originalBytes = modeledSize(original);

  // The fault layer duplicates envelopes: a copy must own its payload.
  ToolMsg copy = original;
  auto& copied = std::get<support::Box<WaitInfoMsg>>(copy);
  copied->epoch = 4;
  copied->conditions.front().proc = 7;
  copied->conditions.resize(3);
  copied->activeSends.clear();

  const WaitInfoMsg& kept = *std::get<support::Box<WaitInfoMsg>>(original);
  EXPECT_EQ(kept.epoch, 3u);
  ASSERT_EQ(kept.conditions.size(), 1u);
  EXPECT_EQ(kept.conditions.front().proc, 1);
  EXPECT_EQ(kept.activeSends.size(), 1u);
  EXPECT_EQ(modeledSize(original), originalBytes);
  EXPECT_EQ(modeledSize(copy), originalBytes + 2 * 16 - 16);

  // Moving hands the payload over without copying it.
  const WaitInfoMsg* payload = &*copied;
  const ToolMsg moved{std::move(copy)};
  EXPECT_EQ(&*std::get<support::Box<WaitInfoMsg>>(moved), payload);
}

}  // namespace
}  // namespace wst::must

// Tests for the growth-policy priority queue (Algorithm 1's pop rules).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/grow_policy.h"

namespace harp {
namespace {

Candidate Cand(int node, int depth, double gain) {
  Candidate c;
  c.node_id = node;
  c.depth = depth;
  c.split.gain = gain;
  c.split.bin = 1;
  return c;
}

TEST(GrowQueue, LeafwisePopsSingleBestGain) {
  GrowQueue q(GrowPolicy::kLeafwise);
  q.Push(Cand(1, 1, 0.5));
  q.Push(Cand(2, 1, 2.0));
  q.Push(Cand(3, 2, 1.0));
  const auto batch = q.PopBatch(/*k=*/32, /*max_batch=*/100);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].node_id, 2);
  EXPECT_EQ(q.Size(), 2u);
}

TEST(GrowQueue, TopKPopsKBestByGain) {
  GrowQueue q(GrowPolicy::kTopK);
  q.Push(Cand(1, 1, 0.5));
  q.Push(Cand(2, 3, 2.0));
  q.Push(Cand(3, 2, 1.5));
  q.Push(Cand(4, 1, 0.1));
  const auto batch = q.PopBatch(2, 100);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].node_id, 2);
  EXPECT_EQ(batch[1].node_id, 3);
  EXPECT_EQ(q.Size(), 2u);
}

// TopInPopOrder lists exactly what successive pops return, in order,
// without popping; ties break on node id as the pops do.
TEST(GrowQueue, TopInPopOrderMatchesSuccessivePops) {
  for (GrowPolicy policy : {GrowPolicy::kTopK, GrowPolicy::kDepthwise}) {
    GrowQueue q(policy);
    const double gains[] = {0.3, 2.0, 0.3, 1.1, 0.9, 2.0, 0.05, 1.1, 0.7};
    for (int i = 0; i < 9; ++i) q.Push(Cand(i + 1, 1 + i % 3, gains[i]));
    std::vector<int> top;
    for (size_t n : {size_t{0}, size_t{4}, size_t{9}, size_t{20}}) {
      q.TopInPopOrder(n, &top);
      EXPECT_EQ(top.size(), std::min<size_t>(n, 9));
    }
    q.TopInPopOrder(9, &top);
    EXPECT_EQ(q.Size(), 9u);
    std::vector<int> popped;
    while (!q.Empty()) {
      for (const Candidate& c : q.PopBatch(1, 1)) popped.push_back(c.node_id);
    }
    EXPECT_EQ(top, popped) << ToString(policy);
  }
}

TEST(GrowQueue, TopKOneEqualsLeafwise) {
  GrowQueue topk(GrowPolicy::kTopK);
  GrowQueue leaf(GrowPolicy::kLeafwise);
  for (const auto& c : {Cand(1, 1, 0.7), Cand(2, 1, 0.9), Cand(3, 2, 0.8)}) {
    topk.Push(c);
    leaf.Push(c);
  }
  while (!leaf.Empty()) {
    const auto a = topk.PopBatch(1, 10);
    const auto b = leaf.PopBatch(1, 10);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].node_id, b[0].node_id);
  }
  EXPECT_TRUE(topk.Empty());
}

TEST(GrowQueue, DepthwisePopsWholeShallowestLevel) {
  GrowQueue q(GrowPolicy::kDepthwise);
  q.Push(Cand(5, 2, 9.0));  // deeper but higher gain: must wait
  q.Push(Cand(1, 1, 0.1));
  q.Push(Cand(2, 1, 0.2));
  auto batch = q.PopBatch(32, 100);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].node_id, 1);  // node-id order within a level
  EXPECT_EQ(batch[1].node_id, 2);
  batch = q.PopBatch(32, 100);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].node_id, 5);
}

TEST(GrowQueue, DepthwiseDoesNotMixLevelsEvenWithBudget) {
  GrowQueue q(GrowPolicy::kDepthwise);
  q.Push(Cand(1, 1, 1.0));
  q.Push(Cand(2, 2, 1.0));
  q.Push(Cand(3, 2, 1.0));
  const auto batch = q.PopBatch(32, 100);
  ASSERT_EQ(batch.size(), 1u);  // only level 1, despite budget for more
  EXPECT_EQ(batch[0].node_id, 1);
}

TEST(GrowQueue, MaxBatchCapsEverything) {
  for (GrowPolicy policy :
       {GrowPolicy::kDepthwise, GrowPolicy::kLeafwise, GrowPolicy::kTopK}) {
    GrowQueue q(policy);
    for (int i = 0; i < 10; ++i) q.Push(Cand(i, 1, 1.0 + i));
    const auto batch = q.PopBatch(32, 3);
    EXPECT_LE(batch.size(), 3u);
    EXPECT_FALSE(batch.empty());
  }
}

TEST(GrowQueue, ZeroBudgetPopsNothing) {
  GrowQueue q(GrowPolicy::kTopK);
  q.Push(Cand(1, 1, 1.0));
  EXPECT_TRUE(q.PopBatch(32, 0).empty());
  EXPECT_EQ(q.Size(), 1u);
}

TEST(GrowQueue, EmptyPops) {
  GrowQueue q(GrowPolicy::kLeafwise);
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.PopBatch(1, 10).empty());
}

TEST(GrowQueue, GainTiesBrokenByNodeId) {
  GrowQueue q(GrowPolicy::kTopK);
  q.Push(Cand(7, 1, 1.0));
  q.Push(Cand(3, 1, 1.0));
  q.Push(Cand(5, 1, 1.0));
  const auto batch = q.PopBatch(3, 10);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].node_id, 3);
  EXPECT_EQ(batch[1].node_id, 5);
  EXPECT_EQ(batch[2].node_id, 7);
}

TEST(GrowQueue, ManyPushesPopInSortedGainOrder) {
  GrowQueue q(GrowPolicy::kTopK);
  std::vector<double> gains;
  for (int i = 0; i < 200; ++i) {
    const double gain = static_cast<double>((i * 7919) % 1000);
    gains.push_back(gain);
    q.Push(Cand(i, 1, gain));
  }
  std::sort(gains.rbegin(), gains.rend());
  size_t idx = 0;
  while (!q.Empty()) {
    for (const Candidate& c : q.PopBatch(16, 1000)) {
      EXPECT_DOUBLE_EQ(c.split.gain, gains[idx++]);
    }
  }
  EXPECT_EQ(idx, gains.size());
}

}  // namespace
}  // namespace harp

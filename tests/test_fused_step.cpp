// Fused-step execution layer: PhaseBarrier and ThreadPool::FusedRegion
// primitives, then the grow scheduler built on them — the fused path must
// produce bit-identical trees to the region-per-phase oracle across
// DP/MP/SYNC x subtraction x quantized histograms x thread count, while
// collapsing the region count to exactly one launch per TopK batch.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/tree_builder.h"
#include "parallel/phase_barrier.h"
#include "parallel/thread_pool.h"
#include "test_util.h"

namespace harp {
namespace {

using harp::testing::MakeDataset;
using harp::testing::MakeGradients;
using harp::testing::TreesEqual;

// ---------- PhaseBarrier ----------

TEST(PhaseBarrier, LastArrivalRunsEpilogueOncePerPhase) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 100;
  PhaseBarrier barrier(kThreads);
  std::atomic<int> epilogues{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        const bool released =
            barrier.Wait([&] { epilogues.fetch_add(1); });
        if (!released) mismatches.fetch_add(1);
        // The epilogue of phase p has run exactly p+1 times by the time
        // any thread is released from phase p.
        if (epilogues.load() < p + 1) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(epilogues.load(), kPhases);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PhaseBarrier, EpilogueWritesHappenBeforeRelease) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 200;
  PhaseBarrier barrier(kThreads);
  int shared = 0;  // plain int: the barrier must order all accesses
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        barrier.Wait([&] { shared = p + 1; });
        if (shared != p + 1) errors.fetch_add(1);
        barrier.Wait();  // nobody advances shared until all have read it
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(shared, kPhases);
}

TEST(PhaseBarrier, AbortReleasesWaitersWithFalse) {
  PhaseBarrier barrier(2);
  std::atomic<bool> released_false{false};
  std::thread waiter([&] {
    // Never joined by a second arrival; only Abort can release this.
    released_false.store(!barrier.Wait());
  });
  barrier.Abort();
  waiter.join();
  EXPECT_TRUE(released_false.load());
  EXPECT_TRUE(barrier.aborted());
}

// ---------- FusedRegion ----------

TEST(FusedRegion, PhasedDynamicWorkAndEpilogues) {
  ThreadPool pool(4);
  ThreadPool::FusedRegion region(pool);
  constexpr int64_t kN1 = 1000;
  constexpr int64_t kN2 = 357;
  std::atomic<int64_t> sum{0};
  int64_t phase1_total = 0;  // written in epilogue, read by all threads
  std::atomic<int> errors{0};

  region.Run([&](int thread_id) {
    region.ForDynamic(thread_id, kN1, 7,
                      [&](int64_t begin, int64_t end, int) {
                        for (int64_t i = begin; i < end; ++i) {
                          sum.fetch_add(i, std::memory_order_relaxed);
                        }
                      });
    region.Barrier(thread_id, [&] { phase1_total = sum.load(); });
    if (phase1_total != kN1 * (kN1 - 1) / 2) errors.fetch_add(1);
    // Second dynamic loop in the next barrier window: the cursor was
    // reset by the barrier, so both loops see the full range.
    region.ForDynamic(thread_id, kN2, 1,
                      [&](int64_t begin, int64_t end, int) {
                        for (int64_t i = begin; i < end; ++i) {
                          sum.fetch_add(1, std::memory_order_relaxed);
                        }
                      });
    region.Barrier(thread_id);
  });

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(sum.load(), kN1 * (kN1 - 1) / 2 + kN2);
}

TEST(FusedRegion, ForStaticCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  ThreadPool::FusedRegion region(pool);
  constexpr int64_t kN = 1001;  // not a multiple of the thread count
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  region.Run([&](int thread_id) {
    region.ForStatic(thread_id, kN, [&](int64_t begin, int64_t end, int) {
      for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    region.Barrier(thread_id);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(FusedRegion, WorksOnSingleThreadPool) {
  ThreadPool pool(1);
  ThreadPool::FusedRegion region(pool);
  int64_t sum = 0;
  region.Run([&](int thread_id) {
    region.ForDynamic(thread_id, 100, 9,
                      [&](int64_t begin, int64_t end, int) {
                        sum += end - begin;
                      });
    region.Barrier(thread_id, [&] { sum *= 2; });
    region.ForStatic(thread_id, 10,
                     [&](int64_t begin, int64_t end, int) {
                       sum += end - begin;
                     });
    region.Barrier(thread_id);
  });
  EXPECT_EQ(sum, 210);
}

TEST(FusedRegion, BodyExceptionPropagatesAndReleasesPeers) {
  ThreadPool pool(4);
  ThreadPool::FusedRegion region(pool);
  EXPECT_THROW(
      region.Run([&](int thread_id) {
        if (thread_id == 1) throw std::runtime_error("boom");
        // Peers park at a barrier the thrower never reaches; the abort
        // must release them instead of deadlocking.
        region.Barrier(thread_id);
        region.ForDynamic(thread_id, 1 << 20, 1,
                          [&](int64_t, int64_t, int) {});
        region.Barrier(thread_id);
      }),
      std::runtime_error);
}

TEST(FusedRegion, EpilogueExceptionPropagates) {
  ThreadPool pool(4);
  ThreadPool::FusedRegion region(pool);
  std::atomic<int> after_barrier{0};
  EXPECT_THROW(
      region.Run([&](int thread_id) {
        region.Barrier(thread_id,
                       [] { throw std::runtime_error("epilogue boom"); });
        after_barrier.fetch_add(1);  // must be unreachable on every thread
      }),
      std::runtime_error);
  EXPECT_EQ(after_barrier.load(), 0);
}

TEST(FusedRegion, CountsOneRegionAndPerPhaseBarriers) {
  ThreadPool pool(4);
  pool.ResetStats();
  const SyncSnapshot before = pool.Snapshot();
  ThreadPool::FusedRegion region(pool);
  region.Run([&](int thread_id) {
    region.Barrier(thread_id);
    region.Barrier(thread_id);
    region.Barrier(thread_id);
  });
  const SyncSnapshot after = pool.Snapshot();
  EXPECT_EQ(after.parallel_regions - before.parallel_regions, 1);
  EXPECT_EQ(after.phase_barriers - before.phase_barriers, 3);
}

// ---------- fused grow path vs. region-per-phase oracle ----------

struct Env {
  Dataset ds;
  BinnedMatrix matrix;
  std::vector<GradientPair> gh;
};

Env MakeEnv(uint32_t rows, uint32_t features = 9, uint64_t seed = 7) {
  Dataset ds = MakeDataset(rows, features, 0.85, seed, /*distinct=*/24);
  BinnedMatrix matrix = BinnedMatrix::Build(ds, QuantileCuts::Compute(ds, 24));
  auto gh = MakeGradients(rows, seed + 1);
  return Env{std::move(ds), std::move(matrix), std::move(gh)};
}

RegTree BuildWith(const Env& env, TrainParams params, int threads,
                  TrainStats* stats) {
  params.num_threads = threads;
  ThreadPool pool(threads);
  HarpTreeBuilder builder(env.matrix, params, pool);
  return builder.BuildTree(env.gh, stats);
}

TEST(FusedStep, BitIdenticalToRegionPerPhase) {
  const Env env = MakeEnv(3000);
  for (ParallelMode mode :
       {ParallelMode::kDP, ParallelMode::kMP, ParallelMode::kSYNC}) {
    for (bool subtraction : {false, true}) {
      for (bool quantize : {false, true}) {
        for (int threads : {1, 4}) {
          TrainParams p;
          p.grow_policy = GrowPolicy::kTopK;
          p.topk = 4;
          p.tree_size = 6;
          p.min_split_loss = 0.0;
          p.min_child_weight = 0.1;
          p.mode = mode;
          p.use_hist_subtraction = subtraction;
          p.quantize_hist = quantize;
          p.node_blk_size = 2;
          p.feature_blk_size = 4;

          p.use_fused_step = false;
          TrainStats oracle_stats;
          const RegTree oracle = BuildWith(env, p, threads, &oracle_stats);

          p.use_fused_step = true;
          TrainStats fused_stats;
          const RegTree fused = BuildWith(env, p, threads, &fused_stats);

          const std::string label =
              "mode=" + ToString(mode) +
              " sub=" + std::to_string(subtraction) +
              " quant=" + std::to_string(quantize) +
              " threads=" + std::to_string(threads);
          EXPECT_TRUE(TreesEqual(oracle, fused)) << label;
          EXPECT_GT(oracle.num_nodes(), 5) << label;
          // Same trees means the same grow steps on both schedulers.
          EXPECT_EQ(oracle_stats.topk_batches, fused_stats.topk_batches)
              << label;
        }
      }
    }
  }
}

TEST(FusedStep, OneRegionLaunchPerTopKBatch) {
  // Depth-8 SYNC run (the acceptance scenario): with the fused scheduler
  // the grow loop must launch EXACTLY one parallel region per TopK batch;
  // the region-per-phase oracle launches several and records zero phase
  // barriers.
  const Env env = MakeEnv(20000, 10, 11);
  TrainParams p;
  p.grow_policy = GrowPolicy::kTopK;
  p.topk = 8;
  p.tree_size = 8;
  p.min_split_loss = 0.0;
  p.min_child_weight = 0.1;
  p.mode = ParallelMode::kSYNC;

  p.use_fused_step = true;
  TrainStats fused;
  const RegTree fused_tree = BuildWith(env, p, 4, &fused);
  ASSERT_GT(fused.topk_batches, 3);
  EXPECT_EQ(fused.grow_region_launches, fused.topk_batches);
  EXPECT_GT(fused.grow_phase_barriers, fused.topk_batches);

  p.use_fused_step = false;
  TrainStats oracle;
  const RegTree oracle_tree = BuildWith(env, p, 4, &oracle);
  EXPECT_TRUE(TreesEqual(oracle_tree, fused_tree));
  EXPECT_EQ(oracle.topk_batches, fused.topk_batches);
  EXPECT_EQ(oracle.grow_phase_barriers, 0);
  EXPECT_GT(oracle.grow_region_launches, 3 * oracle.topk_batches);
}

TEST(FusedStep, SteadyStateScratchStopsGrowing) {
  // After a warm-up tree the builder's per-step scratch must be at its
  // working-set high-water mark: growing further identical trees must not
  // change any scratch capacity (the builder-side zero-alloc guarantee;
  // the partitioner-side one lives in test_row_partitioner).
  const Env env = MakeEnv(20000, 10, 13);
  for (bool fused : {true, false}) {
    TrainParams p;
    p.grow_policy = GrowPolicy::kTopK;
    p.topk = 8;
    p.tree_size = 7;
    p.min_split_loss = 0.0;
    p.min_child_weight = 0.1;
    p.mode = ParallelMode::kSYNC;
    p.use_hist_subtraction = true;
    p.use_fused_step = fused;
    p.num_threads = 4;

    ThreadPool pool(4);
    HarpTreeBuilder builder(env.matrix, p, pool);
    TrainStats stats;
    builder.BuildTree(env.gh, &stats);  // warm-up
    const int64_t warm = builder.scratch_grow_events();
    for (int t = 0; t < 3; ++t) builder.BuildTree(env.gh, &stats);
    EXPECT_EQ(builder.scratch_grow_events(), warm)
        << "fused=" << fused
        << ": steady-state grow steps must not grow scratch";
  }
}

}  // namespace
}  // namespace harp

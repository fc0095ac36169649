// Serving-layer tests: admission-queue sealing (full / deadline /
// forced) and drain semantics, and ModelServer end-to-end — bit-identical
// margins vs the batch Predictor, deadline flushing without an explicit
// Flush, global callback ordering, hot swap under concurrent load with
// per-version bit-exact verification and every retired generation freed,
// and refusal of bad requests and bad swaps without disturbing the
// server. The concurrent tests double as the TSan targets for the serve
// subsystem.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/gbdt.h"
#include "core/model.h"
#include "data/dataset.h"
#include "serve/admission_queue.h"
#include "serve/model_server.h"
#include "test_util.h"

namespace harp {
namespace {

using testing::MakeDataset;

TrainParams Params(int trees, int tree_size) {
  TrainParams p;
  p.num_trees = trees;
  p.tree_size = tree_size;
  p.num_threads = 2;
  return p;
}

// Densifies `dataset` rows to `width` floats (NaN = missing) for Submit.
std::vector<float> DenseRows(const Dataset& dataset, uint32_t width) {
  std::vector<float> out(
      static_cast<size_t>(dataset.num_rows()) * width, kMissingValue);
  for (uint32_t r = 0; r < dataset.num_rows(); ++r) {
    float* row = out.data() + static_cast<size_t>(r) * width;
    dataset.ForEachInRow(r, [&](uint32_t f, float v) {
      if (f < width) row[f] = v;
    });
  }
  return out;
}

TEST(AdmissionQueue, FullBlockSealsInline) {
  AdmissionQueue queue(/*block_rows=*/4, /*num_features=*/2);
  std::vector<ServeTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    const float row[2] = {static_cast<float>(i), static_cast<float>(-i)};
    tickets.push_back(queue.Submit(row, nullptr));
  }
  const AdmissionCounters counters = queue.GetCounters();
  EXPECT_EQ(counters.submitted, 8);
  EXPECT_EQ(counters.batches, 2);
  EXPECT_EQ(counters.full_seals, 2);
  EXPECT_EQ(counters.deadline_seals, 0);

  for (int b = 0; b < 2; ++b) {
    std::shared_ptr<RequestBatch> batch;
    ASSERT_TRUE(queue.WaitPop(/*deadline_ns=*/0, &batch));
    EXPECT_EQ(batch->seq(), static_cast<uint64_t>(b));
    EXPECT_EQ(batch->size(), 4u);
    EXPECT_FALSE(batch->deadline_seal);
    // Rows landed in submission order with their payload intact.
    for (uint32_t i = 0; i < batch->size(); ++i) {
      EXPECT_EQ(batch->row(i)[0], static_cast<float>(b * 4 + i));
      batch->margins()[i] = batch->row(i)[0] * 10.0;
    }
    batch->MarkDone();
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(tickets[static_cast<size_t>(i)].Wait(), i * 10.0);
  }
}

TEST(AdmissionQueue, DeadlineAndForcedSeals) {
  AdmissionQueue queue(/*block_rows=*/4, /*num_features=*/1);
  const float row = 7.0f;
  const int64_t before = NowNs();
  ServeTicket ticket = queue.Submit(&row, nullptr);
  ASSERT_TRUE(ticket.valid());

  // An idle WaitPop with nothing sealed sleeps until the open batch's
  // deadline, then seals it itself, flagged as deadline-sealed.
  const int64_t deadline_ns = 1000 * 1000;
  std::shared_ptr<RequestBatch> batch;
  ASSERT_TRUE(queue.WaitPop(deadline_ns, &batch));
  EXPECT_GE(NowNs() - before, deadline_ns);
  EXPECT_EQ(batch->size(), 1u);
  EXPECT_TRUE(batch->deadline_seal);
  EXPECT_EQ(queue.GetCounters().deadline_seals, 1);
  EXPECT_EQ(queue.GetCounters().batches, 1);
  batch->MarkDone();

  // Forced seal (shutdown/Flush path) with a fresh partial batch: it is
  // ready at once, whatever the deadline.
  (void)queue.Submit(&row, nullptr);
  queue.SealOpen();
  EXPECT_EQ(queue.GetCounters().forced_seals, 1);
  ASSERT_TRUE(queue.WaitPop(/*deadline_ns=*/int64_t{1} << 50, &batch));
  EXPECT_FALSE(batch->deadline_seal);
  batch->MarkDone();
  queue.SealOpen();  // nothing open: no seal counted
  EXPECT_EQ(queue.GetCounters().forced_seals, 1);

  // Stop drains: WaitPop keeps handing out queued batches, then reports
  // shutdown.
  queue.Stop();
  EXPECT_FALSE(queue.WaitPop(deadline_ns, &batch));
}

TEST(ModelServer, ServedMarginsBitIdenticalToBatchPredictor) {
  const Dataset data = MakeDataset(700, 12, 0.8, /*seed=*/11);
  GbdtTrainer trainer(Params(20, 8));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  ServeConfig config;
  config.num_threads = 2;
  ModelServer server(model, config);
  const uint32_t width = server.row_width();
  const std::vector<float> rows = DenseRows(data, width);

  std::vector<ServeTicket> tickets(data.num_rows());
  for (uint32_t r = 0; r < data.num_rows(); ++r) {
    tickets[r] =
        server.Submit(rows.data() + static_cast<size_t>(r) * width, width);
  }
  server.Flush();
  for (uint32_t r = 0; r < data.num_rows(); ++r) {
    const double served = tickets[r].Wait();
    ASSERT_EQ(served, expect[r]) << "row " << r;
  }
  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.rows_submitted, static_cast<int64_t>(data.num_rows()));
  EXPECT_EQ(stats.rows_served, static_cast<int64_t>(data.num_rows()));
  // 700 rows need >= ceil(700/256) = 3 batches; how they sealed (full vs
  // deadline) depends on how fast the submit loop ran, so only the total
  // is asserted.
  EXPECT_GE(stats.batches_served, 3);
  EXPECT_EQ(stats.full_seals + stats.deadline_seals + stats.forced_seals,
            stats.batches_served);
  EXPECT_EQ(stats.model_version, 1u);
  server.Shutdown();
}

TEST(ModelServer, DeadlineFlushServesPartialBatchWithoutFlushCall) {
  const Dataset data = MakeDataset(10, 6, 0.9, /*seed=*/5);
  GbdtTrainer trainer(Params(5, 4));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  // One worker must time the deadline between batches on its own; with
  // three, the idle ones race for the seal.
  for (const int workers : {1, 3}) {
    SCOPED_TRACE(workers);
    ServeConfig config;
    config.num_threads = workers;
    config.flush_deadline_ns = 200 * 1000;
    ModelServer server(model, config);
    const uint32_t width = server.row_width();
    const std::vector<float> rows = DenseRows(data, width);

    // 10 rows never fill a 256-row block; only the deadline can seal
    // them.
    std::vector<ServeTicket> tickets(data.num_rows());
    for (uint32_t r = 0; r < data.num_rows(); ++r) {
      tickets[r] =
          server.Submit(rows.data() + static_cast<size_t>(r) * width, width);
    }
    for (uint32_t r = 0; r < data.num_rows(); ++r) {
      EXPECT_EQ(tickets[r].Wait(), expect[r]);
    }
    const ServeStats stats = server.Stats();
    EXPECT_GE(stats.deadline_seals, 1);
    EXPECT_EQ(stats.full_seals, 0);
    EXPECT_EQ(stats.forced_seals, 0);
    server.Shutdown();
  }
}

TEST(ModelServer, CallbacksFireInGlobalSubmissionOrder) {
  const Dataset data = MakeDataset(64, 6, 0.9, /*seed=*/7);
  GbdtTrainer trainer(Params(4, 4));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  ServeConfig config;
  config.num_threads = 2;
  config.block_rows = 16;  // several batches, ordering crosses seals
  ModelServer server(model, config);
  const uint32_t width = server.row_width();
  const std::vector<float> rows = DenseRows(data, width);

  constexpr int kRounds = 5;
  const int total = kRounds * static_cast<int>(data.num_rows());
  std::vector<int> order;
  order.reserve(static_cast<size_t>(total));
  std::mutex order_mutex;
  std::condition_variable order_cv;
  int submitted = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (uint32_t r = 0; r < data.num_rows(); ++r) {
      const int id = submitted++;
      const double want = expect[r];
      server.SubmitWithCallback(
          rows.data() + static_cast<size_t>(r) * width, width,
          [id, want, &order, &order_mutex, &order_cv](double margin) {
            EXPECT_EQ(margin, want);
            std::lock_guard<std::mutex> lock(order_mutex);
            order.push_back(id);
            order_cv.notify_one();
          });
    }
    server.Flush();
  }
  std::unique_lock<std::mutex> lock(order_mutex);
  order_cv.wait(lock, [&] {
    return order.size() == static_cast<size_t>(total);
  });
  // Single-threaded submission: global callback order must be exactly
  // admission order, across every batch boundary.
  for (int i = 0; i < total; ++i) {
    ASSERT_EQ(order[static_cast<size_t>(i)], i);
  }
  server.Shutdown();
}

TEST(ModelServer, HotSwapUnderLoadServesExactlyOneGeneration) {
  const Dataset data = MakeDataset(200, 10, 0.8, /*seed=*/23);
  GbdtTrainer trainer_a(Params(12, 8));
  const GbdtModel model_a = trainer_a.Train(data);
  GbdtTrainer trainer_b(Params(6, 4));
  const GbdtModel model_b = trainer_b.Train(data);
  const std::vector<double> expect_a = model_a.PredictMargins(data);
  const std::vector<double> expect_b = model_b.PredictMargins(data);

  ServeConfig config;
  config.num_threads = 2;
  config.block_rows = 32;
  config.flush_deadline_ns = 50 * 1000;
  ModelServer server(model_a, config);
  const uint32_t width = server.row_width();
  const std::vector<float> rows = DenseRows(data, width);

  // Submitters hammer single-row requests while a reloader flips between
  // the two models. Every result must match the generation that served
  // its batch, bit for bit — odd versions are A, even are B.
  constexpr int kSubmitters = 2;
  constexpr int kPerThread = 600;
  std::atomic<bool> stop_reloader{false};
  std::thread reloader([&] {
    int flips = 0;
    while (!stop_reloader.load(std::memory_order_acquire)) {
      server.Reload(++flips % 2 == 1 ? model_b : model_a);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> submitters;
  std::atomic<int64_t> checked{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint32_t r =
            static_cast<uint32_t>((t * 131 + i * 7) % data.num_rows());
        ServeTicket ticket = server.Submit(
            rows.data() + static_cast<size_t>(r) * width, width);
        const double margin = ticket.Wait();
        const uint64_t version = ticket.batch().served_version;
        const double want =
            version % 2 == 1 ? expect_a[r] : expect_b[r];
        ASSERT_EQ(margin, want)
            << "row " << r << " served by version " << version;
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& s : submitters) s.join();
  stop_reloader.store(true, std::memory_order_release);
  reloader.join();

  const ServeStats stats = server.Stats();
  EXPECT_EQ(checked.load(), kSubmitters * kPerThread);
  EXPECT_GE(stats.reloads, 1);
  server.Shutdown();
  // After shutdown no worker holds a snapshot copy: every generation a
  // reload retired has been freed.
  const ServeStats after = server.Stats();
  EXPECT_EQ(after.snapshots_retired, after.reloads);
  EXPECT_EQ(after.snapshots_retired, after.snapshots_freed);
}

TEST(ModelServer, ReloadBumpsVersionAndKeepsServing) {
  const Dataset data = MakeDataset(40, 8, 0.9, /*seed=*/3);
  GbdtTrainer trainer(Params(6, 4));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  ModelServer server(model, ServeConfig{});
  EXPECT_EQ(server.ModelVersion(), 1u);
  EXPECT_TRUE(server.Reload(model));
  EXPECT_TRUE(server.Reload(model));
  EXPECT_EQ(server.ModelVersion(), 3u);

  const uint32_t width = server.row_width();
  const std::vector<float> rows = DenseRows(data, width);
  ServeTicket ticket = server.Submit(rows.data(), width);
  server.Flush();
  EXPECT_EQ(ticket.Wait(), expect[0]);
  EXPECT_EQ(ticket.batch().served_version, 3u);
  server.Shutdown();
}

// A cut-less model of one tree splitting on `feature`: serving it needs
// rows at least feature + 1 wide.
GbdtModel ModelSplittingOn(uint32_t feature) {
  RegTree tree;
  SplitInfo split;
  split.gain = 1.0;
  split.feature = feature;
  split.bin = 1;
  const auto [left, right] = tree.ApplySplit(0, split, /*split_value=*/0.5f);
  tree.mutable_node(left).leaf_value = -1.0;
  tree.mutable_node(right).leaf_value = 1.0;
  GbdtModel model;
  model.AddTree(std::move(tree));
  return model;
}

TEST(ModelServer, WrongWidthSubmitReturnsInvalidTicket) {
  const Dataset data = MakeDataset(20, 6, 0.9, /*seed=*/31);
  GbdtTrainer trainer(Params(4, 4));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  ServeConfig config;
  config.num_threads = 1;
  ModelServer server(model, config);
  const uint32_t width = server.row_width();
  const std::vector<float> rows = DenseRows(data, width);

  EXPECT_FALSE(server.Submit(rows.data(), width + 1).valid());
  EXPECT_FALSE(server.Submit(rows.data(), width - 1).valid());
  // The server keeps serving well-formed rows.
  ServeTicket ticket = server.Submit(rows.data(), width);
  ASSERT_TRUE(ticket.valid());
  server.Flush();
  EXPECT_EQ(ticket.Wait(), expect[0]);
  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.rows_rejected, 2);
  EXPECT_EQ(stats.rows_submitted, 1);
  EXPECT_EQ(stats.rows_served, 1);
  server.Shutdown();
}

TEST(ModelServer, WrongWidthCallbackIsRefusedAndNeverCalled) {
  const Dataset data = MakeDataset(20, 6, 0.9, /*seed=*/37);
  GbdtTrainer trainer(Params(4, 4));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  ServeConfig config;
  config.num_threads = 2;
  ModelServer server(model, config);
  const uint32_t width = server.row_width();
  const std::vector<float> rows = DenseRows(data, width);

  std::atomic<int> refused_calls{0};
  EXPECT_FALSE(server.SubmitWithCallback(
      rows.data(), width + 3, [&](double) { refused_calls.fetch_add(1); }));
  EXPECT_FALSE(server.SubmitWithCallback(rows.data(), width, nullptr));
  std::atomic<bool> served{false};
  double margin = 0.0;
  EXPECT_TRUE(server.SubmitWithCallback(rows.data(), width, [&](double m) {
    margin = m;
    served.store(true, std::memory_order_release);
  }));
  server.Shutdown();  // serves every accepted row before returning
  EXPECT_TRUE(served.load(std::memory_order_acquire));
  EXPECT_EQ(margin, expect[0]);
  EXPECT_EQ(refused_calls.load(), 0);
  EXPECT_EQ(server.Stats().rows_rejected, 2);
  EXPECT_EQ(server.Stats().rows_served, 1);
}

TEST(ModelServer, ReloadOfWiderModelIsRefusedAndOldGenerationKeepsServing) {
  const Dataset data = MakeDataset(30, 6, 0.9, /*seed=*/41);
  GbdtTrainer trainer(Params(4, 4));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  ServeConfig config;
  config.num_threads = 2;
  ModelServer server(model, config);
  const uint32_t width = server.row_width();
  ASSERT_EQ(width, 6u);
  const std::vector<float> rows = DenseRows(data, width);

  std::string error;
  EXPECT_FALSE(server.Reload(ModelSplittingOn(width), &error));
  EXPECT_NE(error.find("row width"), std::string::npos) << error;
  EXPECT_FALSE(server.Reload(ModelSplittingOn(40)));  // error is optional
  EXPECT_EQ(server.ModelVersion(), 1u);
  // A model that fits the width still swaps in.
  EXPECT_TRUE(server.Reload(ModelSplittingOn(width - 1), &error));
  EXPECT_EQ(server.ModelVersion(), 2u);
  EXPECT_TRUE(server.Reload(model));
  EXPECT_EQ(server.ModelVersion(), 3u);

  std::vector<ServeTicket> tickets(data.num_rows());
  for (uint32_t r = 0; r < data.num_rows(); ++r) {
    tickets[r] =
        server.Submit(rows.data() + static_cast<size_t>(r) * width, width);
  }
  server.Flush();
  for (uint32_t r = 0; r < data.num_rows(); ++r) {
    EXPECT_EQ(tickets[r].Wait(), expect[r]) << "row " << r;
    EXPECT_EQ(tickets[r].batch().served_version, 3u);
  }
  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.reloads, 2);
  server.Shutdown();
  EXPECT_EQ(server.Stats().snapshots_freed, 2);
}

}  // namespace
}  // namespace harp

// Serving-layer tests: admission-queue sealing (full / idle / forced),
// batching while busy, wake-up and drain semantics, and ModelServer end
// to end — bit-identical margins vs the batch Predictor (also for wide
// rows in partial batches), partial batches served without an explicit
// Flush, global callback ordering, ticket and callback rows sharing one
// batch, hot swap under concurrent load with per-version bit-exact
// verification and every retired generation freed, and refusal of bad
// requests and bad swaps without disturbing the server. The concurrent
// tests double as the TSan targets for the serve subsystem.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
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
    ASSERT_TRUE(queue.WaitPop(&batch));
    EXPECT_EQ(batch->seq(), static_cast<uint64_t>(b));
    EXPECT_EQ(batch->size(), 4u);
    EXPECT_FALSE(batch->idle_seal);
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

TEST(AdmissionQueue, IdleAndForcedSeals) {
  AdmissionQueue queue(/*block_rows=*/4, /*num_features=*/1);
  const float row = 7.0f;
  ServeTicket ticket = queue.Submit(&row, nullptr);
  ASSERT_TRUE(ticket.valid());

  // An idle WaitPop with nothing sealed takes the 1-row open batch at
  // once, flagged as an idle seal: there is no timer to wait out.
  const int64_t before = NowNs();
  std::shared_ptr<RequestBatch> batch;
  ASSERT_TRUE(queue.WaitPop(&batch));
  EXPECT_LT(NowNs() - before, int64_t{100} * 1000 * 1000);
  EXPECT_EQ(batch->size(), 1u);
  EXPECT_EQ(batch->row(0)[0], row);
  EXPECT_TRUE(batch->idle_seal);
  EXPECT_EQ(queue.GetCounters().deadline_seals, 1);
  EXPECT_EQ(queue.GetCounters().batches, 1);
  batch->MarkDone();

  // Forced seal (shutdown/Flush path) with a fresh partial batch: it is
  // handed out from the ready deque, not as an idle seal.
  (void)queue.Submit(&row, nullptr);
  queue.SealOpen();
  EXPECT_EQ(queue.GetCounters().forced_seals, 1);
  ASSERT_TRUE(queue.WaitPop(&batch));
  EXPECT_FALSE(batch->idle_seal);
  batch->MarkDone();
  queue.SealOpen();  // nothing open: no seal counted
  EXPECT_EQ(queue.GetCounters().forced_seals, 1);

  // Stop drains: WaitPop keeps handing out queued batches, then reports
  // shutdown.
  queue.Stop();
  EXPECT_FALSE(queue.WaitPop(&batch));
}

TEST(AdmissionQueue, RowsArrivingWhileWorkersAreBusyComeBackAsOneBatch) {
  // No WaitPop caller while the rows arrive stands for every worker being
  // busy: the rows pile up in the open batch and the next WaitPop takes
  // them all.
  AdmissionQueue queue(/*block_rows=*/8, /*num_features=*/1);
  std::vector<ServeTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    const float row = static_cast<float>(i);
    tickets.push_back(queue.Submit(&row, nullptr));
  }
  std::shared_ptr<RequestBatch> batch;
  ASSERT_TRUE(queue.WaitPop(&batch));
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_TRUE(batch->idle_seal);
  for (uint32_t i = 0; i < batch->size(); ++i) {
    EXPECT_EQ(batch->row(i)[0], static_cast<float>(i));
    batch->margins()[i] = i + 0.5;
  }
  batch->MarkDone();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(tickets[static_cast<size_t>(i)].Wait(), i + 0.5);
  }
  const AdmissionCounters counters = queue.GetCounters();
  EXPECT_EQ(counters.batches, 1);
  EXPECT_EQ(counters.deadline_seals, 1);
  queue.Stop();
  EXPECT_FALSE(queue.WaitPop(&batch));
}

TEST(AdmissionQueue, ParkedWaitPopWakesOnFirstSubmit) {
  AdmissionQueue queue(/*block_rows=*/4, /*num_features=*/1);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    std::mutex mutex;
    std::condition_variable popped_cv;
    bool popped = false;
    std::shared_ptr<RequestBatch> batch;
    std::thread worker([&] {
      const bool ok = queue.WaitPop(&batch);
      std::lock_guard<std::mutex> lock(mutex);
      popped = ok;
      popped_cv.notify_one();
    });
    // The first rounds give the worker time to park in the untimed wait;
    // the rest race the submit against it.
    if (round < 4) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const float row = static_cast<float>(round);
    ServeTicket ticket = queue.Submit(&row, nullptr);
    bool woke = false;
    {
      std::unique_lock<std::mutex> lock(mutex);
      woke = popped_cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return popped; });
    }
    // A lost wake-up leaves the worker parked beside an open batch; a
    // forced seal notifies again so the test can report it and finish.
    if (!woke) queue.SealOpen();
    worker.join();
    ASSERT_TRUE(woke) << "parked WaitPop missed the submit's wake-up";
    ASSERT_EQ(batch->size(), 1u);
    batch->margins()[0] = batch->row(0)[0];
    batch->MarkDone();
    EXPECT_EQ(ticket.Wait(), static_cast<double>(round));
  }
  queue.Stop();
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
  // idle) depends on how fast the submit loop ran, so only the total is
  // asserted.
  EXPECT_GE(stats.batches_served, 3);
  EXPECT_EQ(stats.full_seals + stats.deadline_seals + stats.forced_seals,
            stats.batches_served);
  EXPECT_EQ(stats.model_version, 1u);
  server.Shutdown();
}

TEST(ModelServer, IdleWorkerServesPartialBatchWithoutFlushCall) {
  const Dataset data = MakeDataset(10, 6, 0.9, /*seed=*/5);
  GbdtTrainer trainer(Params(5, 4));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  // One worker takes each open batch between serving the last; with
  // three, the idle ones race for the seal.
  for (const int workers : {1, 3}) {
    SCOPED_TRACE(workers);
    ServeConfig config;
    config.num_threads = workers;
    ModelServer server(model, config);
    const uint32_t width = server.row_width();
    const std::vector<float> rows = DenseRows(data, width);

    // 10 rows never fill a 256-row block; only idle workers can seal
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

TEST(ModelServer, WideRowsInPartialBatchesBitIdenticalToBatchPredictor) {
  // 2000-float rows: each batch buffer is 2 MB and left uninitialized, so
  // a served margin that read an unwritten slot would show here.
  const Dataset data = MakeDataset(240, 2000, 0.05, /*seed=*/13);
  GbdtTrainer trainer(Params(6, 8));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  ServeConfig config;
  config.num_threads = 2;
  ModelServer server(model, config);
  const uint32_t width = server.row_width();
  ASSERT_EQ(width, 2000u);
  const std::vector<float> rows = DenseRows(data, width);
  const auto submit = [&](uint32_t r) {
    return server.Submit(rows.data() + static_cast<size_t>(r) * width,
                         width);
  };

  // One row at a time (1-row batches), then every row before any wait
  // (whatever coalesces while the workers are busy), never a Flush.
  for (uint32_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_EQ(submit(r).Wait(), expect[r]) << "row " << r;
  }
  std::vector<ServeTicket> tickets(data.num_rows());
  for (uint32_t r = 0; r < data.num_rows(); ++r) tickets[r] = submit(r);
  for (uint32_t r = 0; r < data.num_rows(); ++r) {
    ASSERT_EQ(tickets[r].Wait(), expect[r]) << "row " << r;
  }
  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.rows_served, 2 * static_cast<int64_t>(data.num_rows()));
  EXPECT_EQ(stats.full_seals, 0);
  EXPECT_EQ(stats.forced_seals, 0);
  server.Shutdown();
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

TEST(ModelServer, TicketAndCallbackRowsShareOneBatch) {
  const Dataset data = MakeDataset(8, 6, 0.9, /*seed=*/19);
  GbdtTrainer trainer(Params(4, 4));
  const GbdtModel model = trainer.Train(data);
  const std::vector<double> expect = model.PredictMargins(data);

  ServeConfig config;
  config.num_threads = 1;
  ModelServer server(model, config);
  const uint32_t width = server.row_width();
  const std::vector<float> rows = DenseRows(data, width);
  const auto row = [&](uint32_t r) {
    return rows.data() + static_cast<size_t>(r) * width;
  };

  // Row 0's callback holds the only worker, so rows 1-5 (ticket,
  // callback, ticket, callback, ticket) coalesce into one open batch.
  std::promise<void> entered, release;
  ASSERT_TRUE(server.SubmitWithCallback(row(0), width, [&](double) {
    entered.set_value();
    release.get_future().wait();
  }));
  entered.get_future().wait();
  std::vector<double> called(6, 0.0);
  std::vector<ServeTicket> tickets(6);
  for (uint32_t r = 1; r < 6; ++r) {
    if (r % 2 == 0) {
      ASSERT_TRUE(server.SubmitWithCallback(
          row(r), width, [&called, r](double m) { called[r] = m; }));
    } else {
      tickets[r] = server.Submit(row(r), width);
    }
  }
  release.set_value();
  server.Shutdown();  // serves every row and fires every callback
  EXPECT_EQ(tickets[1].batch().size(), 5u);
  for (uint32_t r = 1; r < 6; ++r) {
    EXPECT_EQ(r % 2 == 0 ? called[r] : tickets[r].Wait(), expect[r]) << r;
  }
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

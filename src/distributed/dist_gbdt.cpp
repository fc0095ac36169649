#include "distributed/dist_gbdt.h"

#include <algorithm>
#include <latch>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "common/timer.h"
#include "core/hist_reducer.h"
#include "core/tree_builder.h"

namespace harp {
namespace {

// The grow loop's reducer over a Communicator: rank-ordered f64 sums (so
// every rank gets the same bits), order-independent maxima and int64
// counts, the histogram reduce-scatter in the comm_compress encoding over
// the feature ownership, and the best-split merge.
class CommReducer final : public HistReducer {
 public:
  CommReducer(Communicator& comm, const BinnedMatrix& matrix, bool sparse,
              ThreadPool& pool)
      : comm_(comm), sparse_(sparse), pool_(pool) {
    const std::vector<uint32_t> features = FeatureOwnerBounds(
        matrix.BinOffsetsData(), matrix.num_features(), comm.world_size());
    owned_ = {features[static_cast<size_t>(comm.rank())],
              features[static_cast<size_t>(comm.rank()) + 1]};
    for (uint32_t f : features) cell_bounds_.push_back(matrix.BinOffset(f));
  }

  std::pair<uint32_t, uint32_t> OwnedFeatures() const override {
    return owned_;
  }
  void ReduceQuantStats(QuantStats* stats) override {
    double maxima[2] = {stats->g_max, stats->h_max};
    comm_.AllreduceMax(maxima, 2);
    double sums[3] = {stats->g_sum, stats->h_sum, stats->rows};
    comm_.AllreduceSum(sums, 3);
    *stats = QuantStats{maxima[0], maxima[1], sums[0], sums[1], sums[2]};
  }
  void ReduceSums(GHPair* sums, size_t count) override {
    comm_.AllreduceSum(sums, count);
  }
  void ReduceCounts(int64_t* counts, size_t count) override {
    comm_.AllreduceSum(counts, count);
  }
  void ReduceHists(GHPair* const* hists, size_t num_hists, size_t cells,
                   const QuantScales* quant) override {
    Communicator::HistExchangeOpts opts;
    opts.sparse = sparse_;
    opts.quant = quant != nullptr;
    if (quant != nullptr) opts.scales = *quant;
    opts.pool = &pool_;
    comm_.ReduceScatterHistograms(hists, static_cast<uint32_t>(num_hists),
                                  static_cast<uint32_t>(cells),
                                  cell_bounds_.data(), opts);
  }
  void ReduceSplits(SplitInfo* splits, size_t count) override {
    comm_.AllreduceBestSplits(splits, count);
  }

 private:
  Communicator& comm_;
  const bool sparse_;
  ThreadPool& pool_;
  std::pair<uint32_t, uint32_t> owned_;
  std::vector<uint32_t> cell_bounds_;  // every rank's first owned cell
};

// Contiguous shard boundaries: rank r owns rows [b(r), b(r+1)) with
// b(r) = rows*r/W. With query groups, each boundary moves forward to the
// first group start at or after it, so no query is split across ranks.
std::pair<uint32_t, uint32_t> ShardRange(const Dataset& data, int rank,
                                         int world) {
  const auto boundary = [&](int r) {
    const uint32_t row = static_cast<uint32_t>(
        static_cast<uint64_t>(data.num_rows()) * r / world);
    if (!data.has_groups()) return row;
    const std::vector<uint32_t>& groups = data.group_ptr();
    return *std::lower_bound(groups.begin(), groups.end(), row);
  };
  return {boundary(rank), boundary(rank + 1)};
}

void CheckShardable(const Dataset& data, const TrainParams& params,
                    int world) {
  const std::string error = ShardingError(data, params, world);
  HARP_CHECK(error.empty()) << error;
}

// One rank's training: slice, bin with the shared cuts, and run the
// ordinary boosting loop with a reducer over `comm`.
GbdtModel TrainOnShard(const Dataset& data, const QuantileCuts& cuts,
                       Communicator& comm, const TrainParams& params,
                       ThreadPool& pool, TrainStats* stats) {
  const auto [begin, end] = ShardRange(data, comm.rank(), comm.world_size());
  Dataset shard = data.Slice(begin, end);
  const BinnedMatrix matrix = BinnedMatrix::Build(shard, cuts, &pool);
  const std::vector<float> labels = shard.labels();
  shard = Dataset();  // only binning needs the raw rows; free them
  CommReducer reducer(comm, matrix, params.comm_compress == "sparse", pool);
  HarpTreeBuilder builder(matrix, params, pool, &reducer);
  return RunBoosting(matrix, labels, params, pool, builder, stats, {},
                     nullptr, begin);
}

}  // namespace

std::vector<uint32_t> FeatureOwnerBounds(const uint32_t* bin_offsets,
                                         uint32_t num_features, int world) {
  HARP_CHECK_GE(world, 1);
  const uint64_t cells = bin_offsets[num_features];
  std::vector<uint32_t> bounds(static_cast<size_t>(world) + 1, num_features);
  bounds[0] = 0;
  for (int r = 1; r < world; ++r) {
    // First feature boundary at or past r/W of the cells; the one before
    // it when that is nearer.
    const uint64_t target = cells * static_cast<uint64_t>(r) /
                            static_cast<uint64_t>(world);
    uint32_t f = static_cast<uint32_t>(
        std::lower_bound(bin_offsets, bin_offsets + num_features + 1, target,
                         [](uint32_t offset, uint64_t t) { return offset < t; }) -
        bin_offsets);
    if (f > 0 && target - bin_offsets[f - 1] <= bin_offsets[f] - target) --f;
    bounds[static_cast<size_t>(r)] = std::max(f, bounds[static_cast<size_t>(r) - 1]);
  }
  return bounds;
}

std::string ShardingError(const Dataset& data, const TrainParams& params,
                          int world) {
  std::string error = params.Check();
  if (!error.empty()) return error;
  std::ostringstream out;
  if (world < 1) {
    out << "the worker count must be at least 1, got " << world;
  } else if (static_cast<uint32_t>(world) > data.num_rows()) {
    out << world << " workers need at least " << world
        << " rows to shard, got " << data.num_rows();
  } else if (data.has_groups() &&
             static_cast<uint32_t>(world) > data.num_groups()) {
    out << "distributed training keeps each query group on one worker, so "
           "it needs at least as many query groups as workers ("
        << world << " workers, " << data.num_groups() << " groups)";
  } else if (data.has_groups()) {
    for (int r = 0; r < world; ++r) {
      const auto [begin, end] = ShardRange(data, r, world);
      if (begin >= end) {
        out << "worker " << r << " gets no rows: the query groups are too "
               "uneven to give every worker a whole-query shard";
        break;
      }
    }
  }
  return out.str();
}

GbdtModel DistributedGbdt::TrainShard(const Dataset& dataset,
                                      Communicator& comm,
                                      const TrainParams& params,
                                      int worker_threads, TrainStats* stats) {
  CheckShardable(dataset, params, comm.world_size());
  ThreadPool pool(std::max(1, worker_threads));
  const QuantileCuts cuts =
      QuantileCuts::Compute(dataset, params.max_bins, &pool);
  return TrainOnShard(dataset, cuts, comm, params, pool, stats);
}

DistributedResult DistributedGbdt::Train(const Dataset& dataset, int workers,
                                         const TrainParams& params,
                                         int worker_threads) {
  CheckShardable(dataset, params, workers);
  // The ranks have not started yet, so the cut pass gets all their threads.
  //
  // Thread lifetimes are ordered so that repeated calls keep their memory:
  // glibc gives each thread a malloc arena, hands a finished thread's arena
  // to the next new thread, and keeps what was freed in it (up to its trim
  // threshold, megabytes here). So the cut pool lives until the ranks are
  // done, and every rank's pool exits before any rank does; each call's
  // rank threads then take the arenas the last call's ranks filled, instead
  // of a pool thread taking one and a rank growing a fresh one. Without
  // this, repeated dist_sparse trainings peaked 10-70 MB higher at random.
  ThreadPool cut_pool(std::max(1, workers * worker_threads));
  const QuantileCuts cuts =
      QuantileCuts::Compute(dataset, params.max_bins, &cut_pool);

  DistributedResult result;
  result.workers = workers;
  result.per_rank.resize(static_cast<size_t>(workers));
  result.rank_stats.resize(static_cast<size_t>(workers));
  std::vector<GbdtModel> models(static_cast<size_t>(workers));

  const Stopwatch watch;
  SimulatedCluster cluster(workers);
  std::latch pools_gone(workers);
  cluster.Run([&](Communicator& comm) {
    const size_t rank = static_cast<size_t>(comm.rank());
    try {
      ThreadPool pool(std::max(1, worker_threads));
      models[rank] = TrainOnShard(dataset, cuts, comm, params, pool,
                                  &result.rank_stats[rank]);
      result.per_rank[rank] = comm.stats();
    } catch (...) {
      pools_gone.count_down();
      throw;
    }
    pools_gone.arrive_and_wait();
  });
  result.seconds = watch.ElapsedSec();
  result.comm = cluster.TotalStats();
  result.model = std::move(models[0]);
  return result;
}

}  // namespace harp

#include "distributed/dist_gbdt.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "core/hist_reducer.h"
#include "core/tree_builder.h"

namespace harp {
namespace {

// The grow loop's reducer over a Communicator: rank-ordered f64 sums (so
// every rank gets the same bits), order-independent maxima and int64
// counts, and the histogram exchange in the comm_compress encoding.
class CommReducer final : public HistReducer {
 public:
  CommReducer(Communicator& comm, bool sparse, ThreadPool& pool)
      : comm_(comm), sparse_(sparse), pool_(pool) {}

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
    comm_.AllreduceHistograms(hists, static_cast<uint32_t>(num_hists),
                              static_cast<uint32_t>(cells), opts);
  }

 private:
  Communicator& comm_;
  const bool sparse_;
  ThreadPool& pool_;
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
  params.Validate();
  HARP_CHECK_GE(world, 1);
  HARP_CHECK_LE(static_cast<uint32_t>(world), data.num_rows());
  if (!data.has_groups()) return;
  HARP_CHECK_LE(static_cast<uint32_t>(world), data.num_groups())
      << "distributed training keeps each query group on one worker, so "
         "it needs at least as many query groups as workers";
  for (int r = 0; r < world; ++r) {
    const auto [begin, end] = ShardRange(data, r, world);
    HARP_CHECK_LT(begin, end)
        << "worker " << r << " gets no rows: the query groups are too "
           "uneven to give every worker a whole-query shard";
  }
}

// One rank's training: slice, bin with the shared cuts, and run the
// ordinary boosting loop with a reducer over `comm`.
GbdtModel TrainOnShard(const Dataset& data, const QuantileCuts& cuts,
                       Communicator& comm, const TrainParams& params,
                       ThreadPool& pool) {
  const auto [begin, end] = ShardRange(data, comm.rank(), comm.world_size());
  Dataset shard = data.Slice(begin, end);
  const BinnedMatrix matrix = BinnedMatrix::Build(shard, cuts, &pool);
  const std::vector<float> labels = shard.labels();
  shard = Dataset();  // only binning needs the raw rows; free them
  CommReducer reducer(comm, params.comm_compress == "sparse", pool);
  HarpTreeBuilder builder(matrix, params, pool, &reducer);
  return RunBoosting(matrix, labels, params, pool, builder, nullptr, {},
                     nullptr, begin);
}

}  // namespace

GbdtModel DistributedGbdt::TrainShard(const Dataset& dataset,
                                      Communicator& comm,
                                      const TrainParams& params,
                                      int worker_threads) {
  CheckShardable(dataset, params, comm.world_size());
  ThreadPool pool(std::max(1, worker_threads));
  const QuantileCuts cuts =
      QuantileCuts::Compute(dataset, params.max_bins, &pool);
  return TrainOnShard(dataset, cuts, comm, params, pool);
}

DistributedResult DistributedGbdt::Train(const Dataset& dataset, int workers,
                                         const TrainParams& params,
                                         int worker_threads) {
  CheckShardable(dataset, params, workers);
  QuantileCuts cuts;
  {
    // The ranks have not started yet, so the cut pass gets all their threads.
    ThreadPool pool(std::max(1, workers * worker_threads));
    cuts = QuantileCuts::Compute(dataset, params.max_bins, &pool);
  }

  DistributedResult result;
  result.workers = workers;
  result.per_rank.resize(static_cast<size_t>(workers));
  std::vector<GbdtModel> models(static_cast<size_t>(workers));

  const Stopwatch watch;
  SimulatedCluster cluster(workers);
  cluster.Run([&](Communicator& comm) {
    const size_t rank = static_cast<size_t>(comm.rank());
    ThreadPool pool(std::max(1, worker_threads));
    models[rank] = TrainOnShard(dataset, cuts, comm, params, pool);
    result.per_rank[rank] = comm.stats();
  });
  result.seconds = watch.ElapsedSec();
  result.comm = cluster.TotalStats();
  result.model = std::move(models[0]);
  return result;
}

}  // namespace harp

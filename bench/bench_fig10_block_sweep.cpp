// Fig. 10 — Training-time speedup over standard model parallelism as a
// function of <feature_blk_size x node_blk_size>, for DP and MP (SYNSET,
// leafwise-family growth with K=32).
//
// Paper claims reproduced:
//   - up to ~3x speedup from block sizing alone;
//   - medium feature blocks are best at node_blk=1 (read/write trade-off);
//   - with small feature blocks, bigger node blocks help; with big feature
//     blocks they hurt (mutual restriction; best MP configs sit near the
//     secondary diagonal).
#include "bench_common.h"

int main() {
  using namespace harp;
  using namespace harp::bench;

  PrintTitle("Fig. 10", "block-size sweep: speedup over standard MP "
             "(SYNSET, K=32)",
             "~3x attainable from block sizing alone; medium feature "
             "blocks win at node_blk=1; node and feature blocks restrict "
             "each other");

  Prepared data = Prepare(SynsetBenchSpec(Scale()));
  const uint32_t m = data.train.num_features();
  std::printf("dataset: %u x %u\n", data.train.num_rows(), m);

  auto run = [&](ParallelMode mode, GrowPolicy policy, int k,
                 int feature_blk, int node_blk) {
    TrainParams p;
    p.num_trees = Trees();
    p.tree_size = 8;
    p.grow_policy = policy;
    p.topk = k;
    p.mode = mode;
    p.num_threads = Threads();
    p.feature_blk_size = feature_blk;
    p.node_blk_size = node_blk;
    p.use_hist_subtraction = false;  // as the paper's controlled runs
    TrainStats stats;
    GbdtTrainer(p).TrainBinned(data.matrix, data.train.labels(), &stats);
    return stats.SecondsPerTree();
  };

  // Baseline: standard model parallelism = <feature_blk=1, K=1>.
  const double standard_mp =
      run(ParallelMode::kMP, GrowPolicy::kLeafwise, 1, 1, 1);
  std::printf("standard MP (feature_blk=1, K=1): %.1f ms/tree\n\n",
              standard_mp * 1e3);
  ReportResult("fig10", "standard_mp", Trees(), standard_mp * 1e9,
               static_cast<double>(data.train.num_rows()) / standard_mp);

  const std::vector<int> feature_blks{1, 4, 16, 64};
  const std::vector<int> node_blks{1, 4, 16, 32};

  for (ParallelMode mode : {ParallelMode::kMP, ParallelMode::kDP}) {
    std::printf("[%s, K=32] speedup over standard MP "
                "(rows: node_blk, cols: feature_blk)\n",
                ToString(mode).c_str());
    std::printf("%8s", "");
    for (int fb : feature_blks) std::printf("  f=%-5d", fb);
    std::printf("\n");
    for (int nb : node_blks) {
      std::printf("  n=%-4d", nb);
      for (int fb : feature_blks) {
        const double sec =
            run(mode, GrowPolicy::kTopK, 32, fb, nb);
        ReportResult("fig10",
                     StrFormat("%s_f%d_n%d", ToString(mode).c_str(), fb, nb),
                     Trees(), sec * 1e9,
                     static_cast<double>(data.train.num_rows()) / sec);
        std::printf("  %6.2fx", standard_mp / sec);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("shape check: the best cell should beat 1.00x by a clear "
              "factor; MP rows with small f improve as n grows, rows with "
              "large f degrade as n grows (secondary diagonal).\n");
  return 0;
}

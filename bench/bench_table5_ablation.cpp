// Table V — Performance gain with itemized optimizations (SYNSET).
//
// Starting from standard Model Parallelism (feature_blk=1, K=1) and
// standard Data Parallelism (feature_blk=all, K=1), apply the paper's four
// optimization steps cumulatively and report the incremental speedup of
// each step, exactly as Table V does:
//   +Block    adjust feature_blk_size (4 for MP, 32 for DP)
//   +MemBuf   (rowid, g, h) node buffers
//   +K32      TopK growth with K=32 and node_blk_size raised accordingly
//   +MixMode  SYNC at D8, ASYNC at D12
#include "bench_common.h"

int main() {
  using namespace harp;
  using namespace harp::bench;

  PrintTitle("Table V", "itemized optimization gains (SYNSET)",
             "every step helps on average, but no single step helps "
             "everywhere (+Block alone loses 13% for DP at D8 until "
             "+MemBuf recovers it); MixMode's gain grows with tree size");

  Prepared data = Prepare(SynsetBenchSpec(Scale()));

  auto seconds_per_tree = [&](const TrainParams& p) {
    TrainStats stats;
    GbdtTrainer(p).TrainBinned(data.matrix, data.train.labels(), &stats);
    return stats.SecondsPerTree();
  };

  struct StepResult {
    const char* name;
    double gain_pct;
  };

  std::printf("%-6s %-5s %10s %10s %10s %10s\n", "Mode", "Size", "+Block",
              "+MemBuf", "+K32", "+MixMode");
  for (ParallelMode base_mode : {ParallelMode::kMP, ParallelMode::kDP}) {
    for (int d : {8, 12}) {
      TrainParams p;
      p.num_trees = Trees();
      p.tree_size = d;
      p.num_threads = Threads();
      p.mode = base_mode;
      p.grow_policy = GrowPolicy::kLeafwise;
      p.use_membuf = false;
      p.use_hist_subtraction = false;  // not one of Table V's items
      p.node_blk_size = 1;
      p.feature_blk_size =
          base_mode == ParallelMode::kMP ? 1 : 0;  // standard baselines

      auto report_step = [&](const char* step, double sec) {
        ReportResult(
            "table5",
            StrFormat("%s_D%d_%s", ToString(base_mode).c_str(), d, step),
            Trees(), sec * 1e9,
            static_cast<double>(data.train.num_rows()) / sec);
      };
      double prev = seconds_per_tree(p);
      report_step("base", prev);
      std::vector<StepResult> steps;

      // +Block
      p.feature_blk_size = base_mode == ParallelMode::kMP ? 4 : 32;
      double cur = seconds_per_tree(p);
      report_step("+Block", cur);
      steps.push_back({"+Block", (prev / cur - 1.0) * 100.0});
      prev = cur;

      // +MemBuf
      p.use_membuf = true;
      cur = seconds_per_tree(p);
      report_step("+MemBuf", cur);
      steps.push_back({"+MemBuf", (prev / cur - 1.0) * 100.0});
      prev = cur;

      // +K32 (and node blocks to match)
      p.grow_policy = GrowPolicy::kTopK;
      p.topk = 32;
      p.node_blk_size = base_mode == ParallelMode::kMP ? 32 : 4;
      cur = seconds_per_tree(p);
      report_step("+K32", cur);
      steps.push_back({"+K32", (prev / cur - 1.0) * 100.0});
      prev = cur;

      // +MixMode: SYNC at D8, ASYNC at D12.
      p.mode = d == 8 ? ParallelMode::kSYNC : ParallelMode::kASYNC;
      cur = seconds_per_tree(p);
      report_step("+MixMode", cur);
      steps.push_back({"+MixMode", (prev / cur - 1.0) * 100.0});

      std::printf("%-6s D%-4d", ToString(base_mode).c_str(), d);
      for (const StepResult& s : steps) std::printf(" %9.0f%%", s.gain_pct);
      std::printf("\n");
    }
  }
  std::printf("\npaper's Table V for reference (gains per step):\n"
              "  MP D8: 104%% 14%% 60%% 8%% | MP D12: 146%% 22%% 51%% 48%%\n"
              "  DP D8: -13%% 16%% 77%% 4%% | DP D12: 170%% 2%% 28%% 96%%\n"
              "shape check: cumulative product >> 1 for every row; MixMode "
              "matters more at D12 than D8.\n");
  return 0;
}

// Fig. 8 — Convergence of the leafwise trainers on HIGGS and AIRLINE.
//
// Paper: HarpGBDT's TopK "starts from a lower accuracy but soon catches up
// and even gets better accuracy on both HIGGS and AIRLINE".
#include <cmath>

#include "bench_common.h"

int main() {
  using namespace harp;
  using namespace harp::bench;

  PrintTitle("Fig. 8", "convergence rate, leafwise mode, D=8",
             "TopK starts lower but catches up with / exceeds the strict "
             "leafwise baselines within a few tens of trees");

  const int trees = std::max(40, Trees() * 8);
  const std::vector<int> checkpoints{1, 5, 10, 20, 40};

  struct DatasetCase {
    const char* name;
    SyntheticSpec spec;
  };
  const DatasetCase datasets[] = {
      {"HIGGS", HiggsSpec(0.3 * Scale())},
      {"AIRLINE", AirlineSpec(0.12 * Scale())},
  };

  for (const DatasetCase& dc : datasets) {
    Prepared data = Prepare(dc.spec, /*test_fraction=*/0.2, true);
    std::printf("\n[%s] %u train rows, %u test rows; test AUC after N "
                "trees:\n",
                dc.name, data.train.num_rows(), data.test.num_rows());
    std::printf("%-18s", "trainer");
    for (int cp : checkpoints) std::printf("  T=%-4d", cp);
    std::printf("\n");

    {
      TrainParams p = BaselineParams(8, GrowPolicy::kLeafwise);
      p.num_trees = trees;
      baselines::XgbHistTrainer trainer(p);
      const auto series =
          TrackConvergence(data.test, [&](const IterCallback& cb) {
            trainer.TrainBinned(data.matrix, data.train.labels(), nullptr,
                                cb);
          });
      PrintSeries("XGB-Leaf", series, checkpoints);
      ReportSeries("fig08", StrFormat("%s_XGB-Leaf", dc.name), series);
    }
    {
      TrainParams p = BaselineParams(8, GrowPolicy::kLeafwise);
      p.num_trees = trees;
      baselines::LightGbmTrainer trainer(p);
      const auto series =
          TrackConvergence(data.test, [&](const IterCallback& cb) {
            trainer.TrainBinned(data.matrix, data.train.labels(), nullptr,
                                cb);
          });
      PrintSeries("LightGBM", series, checkpoints);
      ReportSeries("fig08", StrFormat("%s_LightGBM", dc.name), series);
    }
    std::vector<ConvergencePoint> harp_series;
    {
      // SYNC, not the paper's ASYNC: ASYNC pops nodes as workers finish,
      // so its trees (and this curve) change from run to run, while SYNC
      // pops the same TopK batches every time and reads the same on every
      // run. The five ASYNC runs in EXPERIMENTS.md record ASYNC's spread.
      TrainParams p = HarpParams(8, ParallelMode::kSYNC);
      p.num_trees = trees;
      GbdtTrainer trainer(p);
      harp_series =
          TrackConvergence(data.test, [&](const IterCallback& cb) {
            trainer.TrainBinned(data.matrix, data.train.labels(), nullptr,
                                cb);
          });
      PrintSeries("HarpGBDT-TopK32", harp_series, checkpoints);
      ReportSeries("fig08", StrFormat("%s_HarpGBDT-TopK32", dc.name),
                   harp_series);
    }
    {
      // Quantized-histogram accuracy oracle: the same SYNC trainer with
      // 16-bit fixed-point gradients against the f64 TopK32 run above.
      // Final-model AUC must stay within 1e-3 of the f64 run.
      TrainParams p = HarpParams(8, ParallelMode::kSYNC);
      p.num_trees = trees;
      p.quantize_hist = true;
      GbdtTrainer trainer(p);
      const auto series =
          TrackConvergence(data.test, [&](const IterCallback& cb) {
            trainer.TrainBinned(data.matrix, data.train.labels(), nullptr,
                                cb);
          });
      PrintSeries("HarpGBDT-quant", series, checkpoints);
      ReportSeries("fig08", StrFormat("%s_HarpGBDT-quant", dc.name), series);
      const double auc_f = harp_series.back().auc;
      const double auc_q = series.back().auc;
      std::printf("%-18s  final AUC f64=%.5f quant=%.5f |delta|=%.2e %s\n",
                  "", auc_f, auc_q, std::fabs(auc_q - auc_f),
                  std::fabs(auc_q - auc_f) <= 1e-3 ? "(<=1e-3 ok)"
                                                   : "(EXCEEDS 1e-3)");
      if (std::fabs(auc_q - auc_f) > 1e-3) {
        std::fprintf(stderr,
                     "FATAL: quantized AUC diverged from f64 oracle\n");
        std::abort();
      }
    }
  }
  std::printf("\nshape check: the curves converge to comparable AUC; "
              "TopK's early trees differ but the gap closes, as in Fig. 8; "
              "the quantized trainer tracks the f64 oracle within 1e-3.\n");
  return 0;
}

// HarpGBDT public umbrella header.
//
// Typical use:
//   harp::SyntheticSpec spec = harp::HiggsSpec(0.5);
//   harp::Dataset data = harp::GenerateSynthetic(spec);
//   harp::TrainParams params;
//   params.mode = harp::ParallelMode::kASYNC;
//   params.grow_policy = harp::GrowPolicy::kTopK;
//   params.topk = 32;
//   harp::GbdtTrainer trainer(params);
//   harp::GbdtModel model = trainer.Train(data);
//   std::vector<double> probs = model.Predict(data);
#pragma once

#include "core/gbdt.h"          // GbdtTrainer, RunBoosting, EvalSet
#include "core/importance.h"    // ComputeImportance
#include "core/metrics.h"       // Auc, LogLoss, Rmse, ErrorRate
#include "core/model.h"         // GbdtModel
#include "core/model_io.h"      // SaveModel / LoadModel
#include "core/params.h"        // TrainParams, GrowPolicy, ParallelMode
#include "core/train_stats.h"   // TrainStats
#include "data/binary_cache.h"  // Write/ReadDatasetCache, binned cache
#include "data/binned_matrix.h" // BinnedMatrix
#include "data/csv_reader.h"    // ReadCsv
#include "data/dataset.h"       // Dataset
#include "data/dataset_stats.h" // ComputeShape
#include "data/ingest_stats.h"  // IngestStats
#include "data/libsvm_reader.h" // ReadLibsvm
#include "data/quantile.h"      // QuantileCuts
#include "data/synthetic.h"     // GenerateSynthetic + shape presets
#include "predict/flat_forest.h"  // FlatForest (SoA inference layout)
#include "predict/predictor.h"    // Predictor (block-wise batched inference)
#include "serve/model_server.h"   // ModelServer (online serving, hot swap)

#include "common/string_util.h"  // StrFormat, HumanBytes
#include "distributed/dist_gbdt.h"  // DistributedGbdt (simulated cluster)

#include "baselines/lightgbm_like.h"
#include "baselines/xgb_approx.h"
#include "baselines/xgb_hist.h"

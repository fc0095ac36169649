// Input generation. Each workload has a fixed synthetic population (the
// library's generator with the preset's own seed, so feature cardinalities,
// sparsity pattern and label function never change); --seed draws the
// rows a run trains and tests on from that population, and the rows are
// written as the files the library reads back (CSV, LibSVM text, binned
// and dataset caches). Same seed, same bytes. Varying the sample rather
// than the problem keeps the work per run, and the reachable AUC, the same
// across seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"

namespace perfbench {

// HIGGS-shaped: 28 dense features, 8% missing, CV of bin counts ~0.4.
harp::SyntheticSpec HiggsShape(uint32_t rows);
// CRITEO-shaped: 65 features, CV ~0.58, feature 0 encodes the response.
harp::SyntheticSpec CriteoShape(uint32_t rows);
// Wide, skewed sparse rows: 2000 features, density 0.05, a few hot
// features and a long cold tail (CSR storage).
harp::SyntheticSpec SparseShape(uint32_t rows);

// Draws `rows` rows of `pool` uniformly with replacement (a bootstrap
// sample), in draw order.
harp::Dataset Resample(const harp::Dataset& pool, uint32_t rows,
                       uint64_t seed);

// Label in column 0, empty field = missing, shortest round-trip floats.
bool WriteCsv(const std::string& path, const harp::Dataset& data);
// "label idx:value ..." with 1-based feature indices.
bool WriteLibsvm(const std::string& path, const harp::Dataset& data);

// Row-major dense copy of `rows` rows (NaN = missing), for serving.
std::vector<float> DenseRows(const harp::Dataset& data, uint32_t rows);

}  // namespace perfbench

// The scalar (portable-flags) kernel TU plus the dispatch glue shared by
// both tables. The template bodies live in hist_kernels_impl.h, which
// hist_kernels_avx2.cpp compiles a second time under -mavx2 -mfma; this
// file must stay free of ISA-specific flags so every harp binary runs on
// any baseline machine.
#include "core/hist_kernels.h"

#define HARP_KERNEL_NS kernels_scalar
#include "core/hist_kernels_impl.h"
#undef HARP_KERNEL_NS

#include "common/logging.h"

namespace harp {

const HistKernelTables& ScalarKernelTables() {
  return kernels_scalar::Tables();
}

#if defined(HARP_HAVE_AVX2_TU)
namespace kernels_avx2 {
const HistKernelTables& Tables();
}  // namespace kernels_avx2

const HistKernelTables* Avx2KernelTables() { return &kernels_avx2::Tables(); }
#else
const HistKernelTables* Avx2KernelTables() { return nullptr; }
#endif

const HistKernelTables& KernelTables(SimdLevel level) {
  if (level == SimdLevel::kAVX2) {
    const HistKernelTables* t = Avx2KernelTables();
    HARP_CHECK(t != nullptr)
        << "avx2 kernel table requested but not compiled in "
           "(build with HARP_ENABLE_AVX2)";
    return *t;
  }
  return ScalarKernelTables();
}

HistKernelFn SelectHistKernel(bool use_membuf, bool full_feature_block,
                              SimdLevel level) {
  return KernelTables(level).f64[use_membuf][full_feature_block];
}

QuantKernelFn SelectQuantHistKernel(bool use_membuf, bool full_feature_block,
                                    SimdLevel level) {
  return KernelTables(level).quant[use_membuf][full_feature_block];
}

HistKernelMatrix MakeHistKernelMatrix(const BinnedMatrix& matrix,
                                      const RowPartitioner& partitioner,
                                      const int32_t* qgradients) {
  HistKernelMatrix m;
  m.bins = matrix.BinData();
  m.bin_offsets = matrix.BinOffsetsData();
  m.num_features = matrix.num_features();
  m.gradients = partitioner.gradient_data();
  m.qgradients = qgradients;
  HARP_CHECK(partitioner.use_membuf() || m.gradients != nullptr)
      << "gather kernels need the gradient array (call Reset first)";
  return m;
}

HistRowSource MakeHistRowSource(const RowPartitioner& partitioner,
                                int node_id) {
  HistRowSource src;
  if (partitioner.use_membuf()) {
    src.entries = partitioner.NodeEntries(node_id).data();
  } else {
    src.row_ids = partitioner.NodeRowIds(node_id).data();
  }
  return src;
}

}  // namespace harp

// Backing storage for the bin matrix: heap vector or mmap'd cache region.
//
// The tree builders only ever read the bin matrix through raw const
// pointers (BinData / RowBins), so the storage layer is a thin value type:
// it either owns a std::vector<uint8_t> or shares an mmap'd MappedFile and
// points into it. Bins are immutable once built, which is what makes heap
// and mmap training bit-identical by construction — the kernels cannot
// tell the difference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mmap_util.h"

namespace harp {

class BinMatrixStorage {
 public:
  BinMatrixStorage() = default;

  // Owning heap storage (the default, and the only writable kind).
  static BinMatrixStorage Heap(std::vector<uint8_t> bytes);

  // Read-only view of [offset, offset + length) inside `file`. The mapping
  // is kept alive by shared ownership; copies of the storage share it.
  static BinMatrixStorage Mapped(std::shared_ptr<MappedFile> file,
                                 size_t offset, size_t length);

  // Pointers are computed per call (never cached) so copies of heap
  // storage stay valid; the mapped pointer is stable for the mapping's
  // lifetime.
  const uint8_t* data() const {
    return file_ != nullptr ? file_->data() + file_offset_ : heap_.data();
  }
  size_t size() const { return file_ != nullptr ? size_ : heap_.size(); }
  bool empty() const { return size() == 0; }
  bool mapped() const { return file_ != nullptr; }

  // Resident heap bytes vs bytes backed by the file mapping — summed
  // separately so memory reports don't count the mapped image as RSS.
  size_t HeapBytes() const { return mapped() ? 0 : heap_.size(); }
  size_t MappedBytes() const { return mapped() ? size_ : 0; }

  // Mutable access to heap storage; CHECK-fails on a mapped backend (the
  // mapping is PROT_READ — writing through it would fault anyway).
  uint8_t* MutableHeap();

 private:
  std::vector<uint8_t> heap_;
  std::shared_ptr<MappedFile> file_;
  size_t file_offset_ = 0;  // of the view within *file_ (mapped only)
  size_t size_ = 0;         // view length (mapped only)
};

}  // namespace harp

#include "data/bin_matrix_storage.h"

#include <utility>

#include "common/logging.h"

namespace harp {

BinMatrixStorage BinMatrixStorage::Heap(std::vector<uint8_t> bytes) {
  BinMatrixStorage storage;
  storage.heap_ = std::move(bytes);
  return storage;
}

BinMatrixStorage BinMatrixStorage::Mapped(std::shared_ptr<MappedFile> file,
                                          size_t offset, size_t length) {
  HARP_CHECK(file != nullptr);
  HARP_CHECK_LE(offset, file->size());
  HARP_CHECK_LE(length, file->size() - offset);
  BinMatrixStorage storage;
  storage.file_ = std::move(file);
  storage.file_offset_ = offset;
  storage.size_ = length;
  return storage;
}

uint8_t* BinMatrixStorage::MutableHeap() {
  HARP_CHECK(!mapped()) << "bin storage is a read-only file mapping";
  return heap_.data();
}

}  // namespace harp

// Memory-mapped file access + process-memory introspection.
//
// The out-of-core trainer backs the bin matrix with a read-only mapping of
// the binary cache file and leaves its paging to the kernel's defaults.
// The one madvise caller is the cache loader's streaming verification,
// which drops each checked window (MADV_DONTNEED) so load-time RSS stays
// bounded by the window instead of the file size. Everything here is
// POSIX-gated; on other platforms MappedFile::Open reports failure and
// callers fall back to heap buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace harp {

enum class MemAdvice {
  kDontNeed,  // MADV_DONTNEED: drop resident pages (clean file pages
              // refault from page cache / disk on next touch)
};

// System page size (4096 on every target we build for; queried once).
size_t PageSize();

// Read-only private mapping of a whole file. The mapping lives until the
// object is destroyed; shared_ptr aliases into it (Dataset, BinnedMatrix)
// keep it alive via shared ownership.
class MappedFile {
 public:
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  // Maps `path` read-only. Returns nullptr with a message in *error on
  // open/map failure (including empty files and non-POSIX builds).
  static std::shared_ptr<MappedFile> Open(const std::string& path,
                                          std::string* error);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  // Applies `advice` to [offset, offset + length). The range is widened to
  // page boundaries (madvise requires a page-aligned start). Returns false
  // if the kernel rejected the hint; callers treat that as advisory.
  bool Advise(size_t offset, size_t length, MemAdvice advice) const;

 private:
  MappedFile(uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// Peak resident set size (VmHWM) in bytes; 0 when unavailable. Note VmHWM
// is reset by exec but not by fork — processes that must measure their own
// peak from a clean slate re-exec themselves (see bench_outofcore).
size_t PeakRssBytes();

// Cumulative page-fault counts for this process (getrusage).
struct FaultCounts {
  int64_t minor = 0;  // satisfied without IO (page cache / zero page)
  int64_t major = 0;  // required IO
};
FaultCounts ProcessFaults();

}  // namespace harp

#include "common/mmap_util.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define HARP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define HARP_HAVE_MMAP 0
#endif

namespace harp {

size_t PageSize() {
#if HARP_HAVE_MMAP
  static const size_t kPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return kPage;
#else
  return 4096;
#endif
}

MappedFile::~MappedFile() {
#if HARP_HAVE_MMAP
  if (data_ != nullptr) munmap(data_, size_);
#endif
}

std::shared_ptr<MappedFile> MappedFile::Open(const std::string& path,
                                             std::string* error) {
#if HARP_HAVE_MMAP
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = "cannot open " + path;
    return nullptr;
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size <= 0) {
    close(fd);
    *error = "cannot map empty or unstattable file " + path;
    return nullptr;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  // PROT_READ + MAP_PRIVATE: writes through the mapping fault (the
  // read-only-storage contract the death test pins down), and
  // MADV_DONTNEED drops clean PTEs without touching the file.
  void* addr = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);  // the mapping holds its own reference to the file
  if (addr == MAP_FAILED) {
    *error = "mmap failed for " + path;
    return nullptr;
  }
  return std::shared_ptr<MappedFile>(
      new MappedFile(static_cast<uint8_t*>(addr), size));
#else
  *error = "mmap unavailable on this platform (" + path + ")";
  return nullptr;
#endif
}

bool MappedFile::Advise(size_t offset, size_t length, MemAdvice advice) const {
#if HARP_HAVE_MMAP
  if (data_ == nullptr || offset >= size_) return false;
  if (length > size_ - offset) length = size_ - offset;
  // Widen to page boundaries: madvise demands an aligned start, and a
  // partial tail page is advised whole (harmless for read-only data).
  const size_t page = PageSize();
  const size_t begin = offset & ~(page - 1);
  length += offset - begin;
  int hint = MADV_DONTNEED;
  switch (advice) {
    case MemAdvice::kDontNeed: hint = MADV_DONTNEED; break;
  }
  return madvise(const_cast<uint8_t*>(data_) + begin, length, hint) == 0;
#else
  (void)offset;
  (void)length;
  (void)advice;
  return false;
#endif
}

namespace {

// Parses "VmXXX:  123 kB" lines out of /proc/self/status.
size_t ReadProcStatusKb(const char* key) {
#if HARP_HAVE_MMAP
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = static_cast<size_t>(std::strtoull(line + key_len, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)key;
  return 0;
#endif
}

}  // namespace

size_t PeakRssBytes() { return ReadProcStatusKb("VmHWM:") * 1024; }

FaultCounts ProcessFaults() {
  FaultCounts counts;
#if HARP_HAVE_MMAP
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    counts.minor = usage.ru_minflt;
    counts.major = usage.ru_majflt;
  }
#endif
  return counts;
}

}  // namespace harp

#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/env.h"

namespace harp {
namespace {

// Serializes whole lines so multithreaded logs stay readable.
std::mutex& OutputMutex() {
  static std::mutex m;
  return m;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

void EmitLine(LogLevel level, const char* file, int line,
              const std::string& text) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  std::lock_guard<std::mutex> lock(OutputMutex());
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), base, line,
               text.c_str());
  std::fflush(stderr);
}

}  // namespace

LogLevel GetLogLevel() {
  // Read once; function-local static init is thread-safe.
  static const LogLevel level = static_cast<LogLevel>(
      GetEnvInt("HARP_LOG_LEVEL", static_cast<int>(LogLevel::kWarning)));
  return level;
}

namespace detail {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() { EmitLine(level_, file_, line_, stream_.str()); }

FatalMessage::FatalMessage(const char* file, int line, const char* condition) {
  stream_ << "CHECK failed at " << file << ':' << line << ": " << condition
          << ' ';
}

FatalMessage::~FatalMessage() {
  {
    std::lock_guard<std::mutex> lock(OutputMutex());
    std::fprintf(stderr, "[FATAL] %s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  std::abort();
}

}  // namespace detail
}  // namespace harp

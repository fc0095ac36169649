// Minimal leveled logger.
//
// Severity is controlled by the HARP_LOG_LEVEL environment variable
// (0=debug, 1=info, 2=warning, 3=error; default 2 so library code is quiet
// in tests and benchmarks). CHECK macros are always active, including in
// release builds: histogram/partition invariants guard against silent data
// corruption, which is far more expensive than the branch.
#pragma once

#include <sstream>
#include <string>

namespace harp {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Active level (HARP_LOG_LEVEL, read once); messages below it are dropped.
LogLevel GetLogLevel();

namespace detail {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Terminates the process after streaming the message (CHECK failures).
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Swallows a streamed expression when a log statement is compiled out.
struct VoidifyStream {
  void operator&(std::ostream&) {}
};

}  // namespace detail
}  // namespace harp

#define HARP_LOG(level)                                                     \
  (static_cast<int>(::harp::LogLevel::k##level) <                           \
   static_cast<int>(::harp::GetLogLevel()))                                 \
      ? (void)0                                                             \
      : ::harp::detail::VoidifyStream() &                                   \
            ::harp::detail::LogMessage(::harp::LogLevel::k##level,          \
                                       __FILE__, __LINE__)                  \
                .stream()

#define HARP_CHECK(cond)                                                    \
  (cond) ? (void)0                                                          \
         : ::harp::detail::VoidifyStream() &                                \
               ::harp::detail::FatalMessage(__FILE__, __LINE__, #cond)      \
                   .stream()

#define HARP_CHECK_EQ(a, b) HARP_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define HARP_CHECK_NE(a, b) HARP_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "
#define HARP_CHECK_LT(a, b) HARP_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define HARP_CHECK_LE(a, b) HARP_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define HARP_CHECK_GT(a, b) HARP_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "
#define HARP_CHECK_GE(a, b) HARP_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "

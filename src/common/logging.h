#ifndef PROST_COMMON_LOGGING_H_
#define PROST_COMMON_LOGGING_H_

#include <string>

namespace prost {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Minimum level that is emitted: kWarning, so that library internals
/// stay quiet under tests.
inline constexpr LogLevel kMinLogLevel = LogLevel::kWarning;

/// Emits `message` to stderr. The PROST_* macros call it only for levels
/// at or above kMinLogLevel.
void LogMessage(LogLevel level, const std::string& message);

}  // namespace prost

#define PROST_LOG(level, ...)                                       \
  do {                                                              \
    if (static_cast<int>(level) >=                                  \
        static_cast<int>(::prost::kMinLogLevel)) {                  \
      ::prost::LogMessage(level, ::prost::StrFormat(__VA_ARGS__));  \
    }                                                               \
  } while (false)

#define PROST_DEBUG(...) PROST_LOG(::prost::LogLevel::kDebug, __VA_ARGS__)
#define PROST_INFO(...) PROST_LOG(::prost::LogLevel::kInfo, __VA_ARGS__)
#define PROST_WARN(...) PROST_LOG(::prost::LogLevel::kWarning, __VA_ARGS__)
#define PROST_ERROR(...) PROST_LOG(::prost::LogLevel::kError, __VA_ARGS__)

#endif  // PROST_COMMON_LOGGING_H_

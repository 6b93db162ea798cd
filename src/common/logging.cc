#include "common/logging.h"

#include <cstdio>

namespace prost {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void LogMessage(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[prost %s] %s\n", LevelName(level), message.c_str());
}

}  // namespace prost

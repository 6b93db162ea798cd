#include "common/str_util.h"

#include <cstdarg>
#include <cstdio>

namespace prost {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int size = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (size > 0) {
    out.resize(static_cast<size_t>(size));
    // vsnprintf writes the terminating NUL into the buffer; C++11 strings
    // guarantee data()[size()] is addressable for writing '\0'.
    std::vsnprintf(out.data(), static_cast<size_t>(size) + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(std::string_view input, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      return out;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StrTrim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && (input[begin] == ' ' || input[begin] == '\t' ||
                         input[begin] == '\r' || input[begin] == '\n')) {
    ++begin;
  }
  while (end > begin && (input[end - 1] == ' ' || input[end - 1] == '\t' ||
                         input[end - 1] == '\r' || input[end - 1] == '\n')) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) {
    return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  }
  return StrFormat("%.1f %s", value, kUnits[unit]);
}

std::string HumanDuration(double millis) {
  if (millis < 10000.0) {
    return WithThousands(static_cast<uint64_t>(millis + 0.5)) + "ms";
  }
  uint64_t total_seconds = static_cast<uint64_t>(millis / 1000.0 + 0.5);
  uint64_t hours = total_seconds / 3600;
  uint64_t minutes = (total_seconds % 3600) / 60;
  uint64_t seconds = total_seconds % 60;
  if (hours > 0) {
    return StrFormat("%lluh %llum %llus", static_cast<unsigned long long>(hours),
                     static_cast<unsigned long long>(minutes),
                     static_cast<unsigned long long>(seconds));
  }
  return StrFormat("%llum %llus", static_cast<unsigned long long>(minutes),
                   static_cast<unsigned long long>(seconds));
}

std::string WithThousands(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace prost

#include "kvstore/kv_store.h"

#include <algorithm>

namespace prost::kvstore {

void SortedKvStore::BulkLoad(std::vector<std::string> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  keys_ = std::move(keys);
}

std::span<const std::string> SortedKvStore::ScanPrefix(
    std::string_view prefix) const {
  // Among the keys >= prefix, those starting with it come first.
  auto begin = std::lower_bound(keys_.begin(), keys_.end(), prefix);
  auto end = std::partition_point(
      begin, keys_.end(),
      [prefix](const std::string& key) { return key.starts_with(prefix); });
  return {begin, end};
}

std::string BigEndianKey(uint64_t value) {
  std::string key(8, '\0');
  for (int i = 0; i < 8; ++i) {
    key[i] = static_cast<char>(value >> (8 * (7 - i)));
  }
  return key;
}

uint64_t DecodeBigEndianKey(std::string_view key) {
  uint64_t value = 0;
  for (size_t i = 0; i < 8 && i < key.size(); ++i) {
    value = (value << 8) | static_cast<unsigned char>(key[i]);
  }
  return value;
}

}  // namespace prost::kvstore

#ifndef PROST_KVSTORE_KV_STORE_H_
#define PROST_KVSTORE_KV_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace prost::kvstore {

/// A sorted key store: the substrate standing in for Apache Accumulo in
/// the Rya baseline ("Accumulo keeps all its information sorted and
/// indexed by key; Rya stores whole RDF triples as keys").
///
/// Rya bulk-loads its index keys once and then only scans them by
/// prefix, so the store is one sorted, duplicate-free key vector. Keys
/// carry no values. The store is immutable once loaded, so concurrent
/// readers need no lock.
class SortedKvStore {
 public:
  SortedKvStore() = default;
  SortedKvStore(const SortedKvStore&) = delete;
  SortedKvStore& operator=(const SortedKvStore&) = delete;
  SortedKvStore(SortedKvStore&&) = default;
  SortedKvStore& operator=(SortedKvStore&&) = default;

  /// Replaces the contents with `keys`, sorted and deduplicated (bulk
  /// ingest, like Accumulo RFile import).
  void BulkLoad(std::vector<std::string> keys);

  /// The keys that start with `prefix`, in key order. A view into the
  /// store: nothing is copied.
  std::span<const std::string> ScanPrefix(std::string_view prefix) const;

  /// Number of stored keys.
  size_t num_entries() const { return keys_.size(); }

 private:
  std::vector<std::string> keys_;
};

/// Encodes a uint64 as 8 big-endian bytes so that lexicographic key order
/// equals numeric order (Accumulo-style index keys).
std::string BigEndianKey(uint64_t value);

/// Decodes a key produced by BigEndianKey.
uint64_t DecodeBigEndianKey(std::string_view key);

}  // namespace prost::kvstore

#endif  // PROST_KVSTORE_KV_STORE_H_

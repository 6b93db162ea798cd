// Unit tests for the sorted key store (the Accumulo stand-in): bulk
// loading, prefix scans, and big-endian key encoding.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kvstore/kv_store.h"

namespace prost::kvstore {
namespace {

std::vector<std::string> Keys(std::span<const std::string> range) {
  return {range.begin(), range.end()};
}

TEST(KvStoreTest, ScanPrefix) {
  SortedKvStore store;
  store.BulkLoad({"ab1", "ab2", "ac", "b", "a"});
  EXPECT_EQ(Keys(store.ScanPrefix("ab")),
            (std::vector<std::string>{"ab1", "ab2"}));
  EXPECT_EQ(Keys(store.ScanPrefix("a")),
            (std::vector<std::string>{"a", "ab1", "ab2", "ac"}));
  EXPECT_TRUE(store.ScanPrefix("c").empty());
  EXPECT_EQ(store.ScanPrefix("").size(), 5u);
}

TEST(KvStoreTest, ScanPrefixAtKeyspaceEnd) {
  // A prefix of 0xff bytes has no greater string of its own length; the
  // scan must still run to the end of the keyspace and stop there.
  SortedKvStore store;
  std::string high = "\xff\xff";
  store.BulkLoad({high + "a", "a", high, "\xff\xfe"});
  EXPECT_EQ(Keys(store.ScanPrefix(high)),
            (std::vector<std::string>{high, high + "a"}));
}

TEST(KvStoreTest, BulkLoadSortsAndDedupes) {
  SortedKvStore store;
  store.BulkLoad({"c", "a", "b", "a"});
  EXPECT_EQ(store.num_entries(), 3u);
  EXPECT_EQ(Keys(store.ScanPrefix("")),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(KvStoreTest, ScanPrefixMatchesLinearFilter) {
  // Random keys with duplicates and 0xff bytes; every prefix scan must
  // equal a linear filter over the sorted, deduplicated key set.
  Rng rng(11);
  auto random_key = [&rng] {
    return BigEndianKey(rng.NextBounded(500) * 0x00ff00ff00ff00ffULL);
  };
  std::vector<std::string> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(random_key());
  std::set<std::string> reference(keys.begin(), keys.end());
  SortedKvStore store;
  store.BulkLoad(std::move(keys));
  EXPECT_EQ(store.num_entries(), reference.size());
  for (int i = 0; i < 200; ++i) {
    std::string prefix = random_key().substr(0, rng.NextBounded(5));
    std::vector<std::string> expected;
    for (const std::string& key : reference) {
      if (key.starts_with(prefix)) expected.push_back(key);
    }
    EXPECT_EQ(Keys(store.ScanPrefix(prefix)), expected);
  }
}

TEST(BigEndianKeyTest, PreservesNumericOrder) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    uint64_t a = rng.Next(), b = rng.Next();
    EXPECT_EQ(a < b, BigEndianKey(a) < BigEndianKey(b));
  }
}

TEST(BigEndianKeyTest, RoundTrip) {
  for (uint64_t v : {0ull, 1ull, 255ull, 256ull, ~0ull}) {
    EXPECT_EQ(DecodeBigEndianKey(BigEndianKey(v)), v);
  }
  EXPECT_EQ(BigEndianKey(7).size(), 8u);
}

}  // namespace
}  // namespace prost::kvstore

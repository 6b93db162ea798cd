#include "columnar/bloom.h"

#include <algorithm>

#include "common/hash.h"

namespace prost::columnar {
namespace {

/// Second hash stream for double hashing; decorrelated from Mix64(id) by
/// a fixed odd constant. Forced odd so probe i covers all bit positions.
inline uint64_t SecondHash(TermId id) {
  return Mix64(id ^ 0x9e3779b97f4a7c15ULL) | 1;
}

}  // namespace

BloomFilter BloomFilter::Build(const IdVector& keys, uint32_t bits_per_key) {
  BloomFilter filter;
  uint64_t num_keys = 0;
  for (TermId id : keys) {
    if (id != kNullTermId) ++num_keys;
  }
  // An empty key set still gets one zeroed word: empty() then means "no
  // filter", not "no keys", and MayContain correctly rejects everything.
  uint64_t bits = std::max<uint64_t>(64, num_keys * bits_per_key);
  filter.bits_.assign((bits + 63) / 64, 0);
  // k = bits/keys * ln 2, the standard FPR-minimizing probe count.
  filter.num_hashes_ = std::clamp<uint32_t>(
      static_cast<uint32_t>(bits_per_key * 0.69), 1, 16);
  uint64_t num_bits = filter.num_bits();
  for (TermId id : keys) {
    if (id == kNullTermId) continue;
    uint64_t h = Mix64(id);
    uint64_t step = SecondHash(id);
    for (uint32_t i = 0; i < filter.num_hashes_; ++i) {
      uint64_t bit = h % num_bits;
      filter.bits_[bit >> 6] |= uint64_t{1} << (bit & 63);
      h += step;
    }
  }
  return filter;
}

bool BloomFilter::MayContain(TermId id) const {
  if (bits_.empty()) return true;  // No filter built: cannot prune.
  uint64_t num_bits = this->num_bits();
  uint64_t h = Mix64(id);
  uint64_t step = SecondHash(id);
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    uint64_t bit = h % num_bits;
    if ((bits_[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) return false;
    h += step;
  }
  return true;
}

}  // namespace prost::columnar

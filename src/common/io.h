#ifndef PROST_COMMON_IO_H_
#define PROST_COMMON_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace prost {

/// Appends binary little-endian primitives and length-prefixed strings to
/// an owned buffer. The lexical columnar format and the encoded column
/// chunks are written through this writer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// LEB128 variable-length encoding; small values take one byte.
  void PutVarint(uint64_t v);
  /// Varint length prefix followed by raw bytes.
  void PutString(std::string_view s);

  const std::string& buffer() const { return buffer_; }
  std::string&& TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Reads primitives written by ByteWriter. All getters return
/// Status::Corruption on truncated input rather than reading out of
/// bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetVarint(uint64_t* out);
  Status GetString(std::string* out);

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Reads an entire file into `out`.
Status ReadFileToString(const std::string& path, std::string* out);

/// Writes `data` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path, std::string_view data);

/// Creates `path` and any missing parents (mkdir -p semantics).
Status MakeDirectories(const std::string& path);

/// Recursively removes `path` if it exists. Used by tests and benches to
/// reset scratch database directories.
Status RemoveAllRecursively(const std::string& path);

/// Total size in bytes of all regular files under `path` (recursively).
Result<uint64_t> DirectorySize(const std::string& path);

}  // namespace prost

#endif  // PROST_COMMON_IO_H_

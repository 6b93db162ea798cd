#include "common/io.h"

#include <filesystem>
#include <fstream>

#include "common/str_util.h"

namespace prost {

namespace fs = std::filesystem;

void ByteWriter::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  buffer_.append(bytes, 4);
}

void ByteWriter::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  buffer_.append(bytes, 8);
}

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<char>(v));
}

void ByteWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  buffer_.append(s.data(), s.size());
}

Status ByteReader::GetU8(uint8_t* out) {
  if (remaining() < 1) return Status::Corruption("truncated u8");
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status ByteReader::GetU32(uint32_t* out) {
  if (remaining() < 4) return Status::Corruption("truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status ByteReader::GetU64(uint64_t* out) {
  if (remaining() < 8) return Status::Corruption("truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status ByteReader::GetVarint(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) return Status::Corruption("truncated varint");
    if (shift >= 64) return Status::Corruption("varint too long");
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::OK();
}

Status ByteReader::GetString(std::string* out) {
  uint64_t size;
  PROST_RETURN_IF_ERROR(GetVarint(&size));
  if (remaining() < size) return Status::Corruption("truncated string");
  out->assign(data_.data() + pos_, size);
  pos_ += size;
  return Status::OK();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open for read: " + path);
  file.seekg(0, std::ios::end);
  std::streamoff size = file.tellg();
  file.seekg(0, std::ios::beg);
  out->resize(static_cast<size_t>(size));
  file.read(out->data(), size);
  if (!file) return Status::IOError("short read: " + path);
  return Status::OK();
}

Status WriteStringToFile(const std::string& path, std::string_view data) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IOError("cannot open for write: " + path);
  file.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!file) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status MakeDirectories(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IOError("create_directories failed: " + path);
  return Status::OK();
}

Status RemoveAllRecursively(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) return Status::IOError("remove_all failed: " + path);
  return Status::OK();
}

Result<uint64_t> DirectorySize(const std::string& path) {
  std::error_code ec;
  uint64_t total = 0;
  if (!fs::exists(path, ec)) return total;
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  if (ec) return Status::IOError("directory walk failed: " + path);
  return total;
}

}  // namespace prost

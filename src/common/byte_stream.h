// Binary (de)serialization streams.
//
// Used by the clc bytecode serializer that backs SkelCL's on-disk kernel
// cache. Encoding is little-endian and versioned by the callers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace common {

/// Append-only binary writer.
class ByteWriter {
public:
  /// Raw bytes written so far.
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> takeBytes() noexcept { return std::move(bytes_); }
  std::size_t size() const noexcept { return bytes_.size(); }

  void writeBytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "write<T> requires a trivially copyable type");
    writeBytes(&value, sizeof(T));
  }

  void writeString(std::string_view s) {
    write<std::uint64_t>(s.size());
    writeBytes(s.data(), s.size());
  }

  template <typename T>
  void writeVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write<std::uint64_t>(v.size());
    writeBytes(v.data(), v.size() * sizeof(T));
  }

private:
  std::vector<std::uint8_t> bytes_;
};

/// Thrown when a reader runs past the end of its buffer or finds a
/// malformed length field — e.g. a corrupted kernel-cache entry.
class DeserializeError : public Error {
public:
  explicit DeserializeError(const std::string& what) : Error(what) {}
};

/// Sequential binary reader over a borrowed buffer.
class ByteReader {
public:
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes) noexcept
      : ByteReader(bytes.data(), bytes.size()) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool atEnd() const noexcept { return pos_ == size_; }

  void readBytes(void* out, std::size_t size) {
    if (size > remaining()) {
      throw DeserializeError("byte stream truncated");
    }
    if (size == 0) {
      return; // memcpy needs non-null pointers even for 0 bytes
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    readBytes(&value, sizeof(T));
    return value;
  }

  /// Reads a u64 count of records that take at least `minBytes` each in
  /// the stream, rejecting counts the remaining bytes cannot hold — so a
  /// caller may reserve() by the count without trusting the input.
  std::size_t readCount(std::size_t minBytes) {
    const auto n = read<std::uint64_t>();
    if (n > remaining() / minBytes) {
      throw DeserializeError("element count exceeds stream size");
    }
    return static_cast<std::size_t>(n);
  }

  std::string readString() {
    const std::size_t n = readCount(1);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> readVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> v(readCount(sizeof(T)));
    readBytes(v.data(), v.size() * sizeof(T));
    return v;
  }

private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Writes `bytes` to `path` atomically (via a temp file + rename).
void writeFile(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Reads the whole file; throws IoError when the file cannot be read.
std::vector<std::uint8_t> readFile(const std::string& path);

/// True when `path` names an existing regular file.
bool fileExists(const std::string& path);

} // namespace common

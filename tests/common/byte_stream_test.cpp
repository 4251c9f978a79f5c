#include <gtest/gtest.h>

#include <filesystem>

#include "common/byte_stream.h"

namespace {

TEST(ByteStream, ScalarRoundTrip) {
  common::ByteWriter w;
  w.write<std::uint32_t>(42);
  w.write<std::int64_t>(-7);
  w.write<double>(3.5);
  w.write<std::uint8_t>(0xab);

  common::ByteReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint32_t>(), 42u);
  EXPECT_EQ(r.read<std::int64_t>(), -7);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.5);
  EXPECT_EQ(r.read<std::uint8_t>(), 0xab);
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteStream, StringRoundTrip) {
  common::ByteWriter w;
  w.writeString("hello");
  w.writeString("");
  w.writeString(std::string("emb\0edded", 9));

  common::ByteReader r(w.bytes());
  EXPECT_EQ(r.readString(), "hello");
  EXPECT_EQ(r.readString(), "");
  EXPECT_EQ(r.readString(), std::string("emb\0edded", 9));
}

TEST(ByteStream, VectorRoundTrip) {
  common::ByteWriter w;
  const std::vector<std::uint64_t> v = {1, 2, 3, ~0ULL};
  w.writeVector(v);
  common::ByteReader r(w.bytes());
  EXPECT_EQ(r.readVector<std::uint64_t>(), v);
}

TEST(ByteStream, ReadingPastEndThrows) {
  common::ByteWriter w;
  w.write<std::uint32_t>(1);
  common::ByteReader r(w.bytes());
  r.read<std::uint32_t>();
  EXPECT_THROW(r.read<std::uint8_t>(), common::DeserializeError);
}

TEST(ByteStream, MalformedStringLengthThrows) {
  common::ByteWriter w;
  w.write<std::uint64_t>(1000); // claims 1000 bytes, provides none
  common::ByteReader r(w.bytes());
  EXPECT_THROW(r.readString(), common::DeserializeError);
}

TEST(ByteStream, MalformedVectorLengthThrows) {
  common::ByteWriter w;
  w.write<std::uint64_t>(~0ULL);
  common::ByteReader r(w.bytes());
  EXPECT_THROW(r.readVector<std::uint64_t>(), common::DeserializeError);
}

TEST(ByteStream, VectorLengthWhoseByteSizeWrapsThrows) {
  common::ByteWriter w;
  w.write<std::uint64_t>(1ULL << 61); // 2^61 * 8 bytes wraps to 0
  common::ByteReader r(w.bytes());
  EXPECT_THROW(r.readVector<std::uint64_t>(), common::DeserializeError);
}

TEST(ByteStream, ReadCountIsBoundedByTheRemainingRecords) {
  common::ByteWriter w;
  w.write<std::uint64_t>(2); // two 8-byte records follow
  w.write<std::uint64_t>(0);
  w.write<std::uint64_t>(0);
  common::ByteReader fits(w.bytes());
  EXPECT_EQ(fits.readCount(8), 2u);
  common::ByteReader tooMany(w.bytes());
  EXPECT_THROW(tooMany.readCount(9), common::DeserializeError);
}

TEST(ByteStreamFile, WriteReadRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "bs_test.bin").string();
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  common::writeFile(path, data);
  EXPECT_TRUE(common::fileExists(path));
  EXPECT_EQ(common::readFile(path), data);
  std::filesystem::remove(path);
}

TEST(ByteStreamFile, WriteCreatesParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "bs_nested_xyz";
  const auto path = (dir / "a" / "b.bin").string();
  common::writeFile(path, {9});
  EXPECT_EQ(common::readFile(path), std::vector<std::uint8_t>{9});
  std::filesystem::remove_all(dir);
}

TEST(ByteStreamFile, MissingFileThrows) {
  EXPECT_THROW(common::readFile("/nonexistent/path/file.bin"),
               common::IoError);
  EXPECT_FALSE(common::fileExists("/nonexistent/path/file.bin"));
}

} // namespace

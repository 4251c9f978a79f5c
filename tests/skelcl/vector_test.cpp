// Vector semantics: construction, host access, lazy transfers, and
// distribution changes.
#include <numeric>

#include "skelcl_test_util.h"

namespace {

using skelcl::Distribution;
using skelcl::Vector;
using skelcl_test::SkelclFixture;

class VectorTest : public SkelclFixture {
protected:
  VectorTest() : SkelclFixture(2) {}
};

TEST_F(VectorTest, ConstructionVariants) {
  Vector<float> empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());

  Vector<int> sized(10);
  EXPECT_EQ(sized.size(), 10u);

  Vector<int> filled(5, 42);
  EXPECT_EQ(filled[4], 42);

  const float raw[] = {1.0f, 2.0f, 3.0f};
  Vector<float> fromPtr(raw, 3); // paper Listing 1 constructor
  EXPECT_FLOAT_EQ(fromPtr[1], 2.0f);

  std::vector<double> host = {0.5, 1.5};
  Vector<double> fromVec(host);
  EXPECT_DOUBLE_EQ(fromVec[0], 0.5);

  Vector<int> fromIter(host.begin(), host.end());
  EXPECT_EQ(fromIter[1], 1);
}

TEST_F(VectorTest, CopyIsShallow) {
  Vector<int> a(4, 1);
  Vector<int> b = a;
  b[0] = 99;
  EXPECT_EQ(a[0], 99); // shared state
  Vector<int> deep = a.clone();
  deep[0] = 7;
  EXPECT_EQ(a[0], 99);
}

TEST_F(VectorTest, DefaultDistributionIsSingle) {
  Vector<int> v(8);
  EXPECT_EQ(v.distribution(), Distribution::Single);
}

TEST_F(VectorTest, LazyUploadHappensOnFirstDeviceUse) {
  Vector<int> v(1024, 1);
  EXPECT_FALSE(v.state().hasDeviceData());
  v.state().ensureOnDevices();
  EXPECT_TRUE(v.state().hasDeviceData());
  EXPECT_FALSE(v.state().hostDirty());
}

TEST_F(VectorTest, RepeatedEnsureDoesNotRetransfer) {
  Vector<int> v(1 << 18, 1);
  v.state().ensureOnDevices();
  const auto before = ocl::hostTimeNs();
  v.state().ensureOnDevices(); // no transfer: nothing changed
  v.state().ensureOnDevices();
  // Only negligible host time may pass (no enqueue happened at all).
  EXPECT_EQ(ocl::hostTimeNs(), before);
}

TEST_F(VectorTest, HostWriteInvalidatesDeviceCopy) {
  Vector<int> v(256, 1);
  v.state().ensureOnDevices();
  v[0] = 7; // writing host access
  EXPECT_TRUE(v.state().hostDirty());
  v.state().ensureOnDevices(); // re-uploads
  EXPECT_FALSE(v.state().hostDirty());
}

TEST_F(VectorTest, BlockDistributionSplitsAcrossDevices) {
  Vector<int> v(10);
  std::iota(v.hostDataForWriting().begin(), v.hostDataForWriting().end(), 0);
  v.setDistribution(Distribution::Block);
  v.state().ensureOnDevices();
  const auto& chunks = v.state().chunks();
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].deviceIndex, 0u);
  EXPECT_EQ(chunks[0].offset, 0u);
  EXPECT_EQ(chunks[0].count, 5u);
  EXPECT_EQ(chunks[1].offset, 5u);
  EXPECT_EQ(chunks[1].count, 5u);
}

TEST_F(VectorTest, UnevenBlockDistribution) {
  Vector<int> v(7, 1);
  v.setDistribution(Distribution::Block);
  v.state().ensureOnDevices();
  const auto& chunks = v.state().chunks();
  EXPECT_EQ(chunks[0].count, 4u);
  EXPECT_EQ(chunks[1].count, 3u);
}

TEST_F(VectorTest, CopyDistributionReplicates) {
  Vector<int> v(6, 3);
  v.setDistribution(Distribution::Copy);
  v.state().ensureOnDevices();
  const auto& chunks = v.state().chunks();
  ASSERT_EQ(chunks.size(), 2u);
  for (const auto& chunk : chunks) {
    EXPECT_EQ(chunk.offset, 0u);
    EXPECT_EQ(chunk.count, 6u);
  }
}

TEST_F(VectorTest, SingleDistributionTargetsChosenDevice) {
  Vector<int> v(4, 1);
  v.setDistribution(Distribution::Single, 1);
  v.state().ensureOnDevices();
  ASSERT_EQ(v.state().chunks().size(), 1u);
  EXPECT_EQ(v.state().chunks()[0].deviceIndex, 1u);
}

TEST_F(VectorTest, SingleDistributionOnTheLastDeviceIsAccepted) {
  const std::size_t last = skelcl::deviceCount() - 1;
  Vector<int> v(4, 1);
  v.setDistribution(Distribution::Single, last);
  v.state().ensureOnDevices();
  ASSERT_EQ(v.state().chunks().size(), 1u);
  EXPECT_EQ(v.state().chunks()[0].deviceIndex, last);
  EXPECT_EQ(v[3], 1);
}

// An index past the last device is rejected where it is given, not when
// a later skeleton call would stage the vector there.
TEST_F(VectorTest, SingleDistributionPastTheLastDeviceThrows) {
  const std::size_t devices = skelcl::deviceCount();
  Vector<int> v(4, 1);
  v.setDistribution(Distribution::Block);
  v.state().ensureOnDevices();
  try {
    v.setDistribution(Distribution::Single, devices);
    FAIL() << "expected InvalidArgument";
  } catch (const common::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("device " + std::to_string(devices)),
              std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(devices) + " device(s)"),
              std::string::npos) << what;
  }
  // The vector is unchanged and still usable.
  EXPECT_EQ(v.distribution(), Distribution::Block);
  skelcl::Map<int> inc("int inc_oob(int x) { return x + 1; }");
  Vector<int> out = inc(v);
  EXPECT_EQ(out.distribution(), Distribution::Block);
  EXPECT_EQ(out[3], 2);
}

TEST_F(VectorTest, RedistributionRoundTripPreservesData) {
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> v(data);
  v.setDistribution(Distribution::Block);
  v.state().ensureOnDevices();
  v.setDistribution(Distribution::Copy);
  v.state().ensureOnDevices();
  v.setDistribution(Distribution::Single);
  v.state().ensureOnDevices();
  EXPECT_EQ(v.hostData(), data);
}

TEST_F(VectorTest, CombineRedistributionFoldsCopies) {
  // Build a copy-distributed vector whose per-device copies were
  // modified on the devices, then collapse to block with '+'.
  Vector<int> v(8, 5);
  v.setDistribution(Distribution::Copy);
  v.state().ensureOnDevices();
  v.dataOnDevicesModified(); // copies count as the newest data
  v.setDistribution(Distribution::Block,
                    "int combine(int a, int b) { return a + b; }");
  EXPECT_EQ(v.distribution(), Distribution::Block);
  // Each element combines one value from each of the 2 devices: 5+5.
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], 10) << i;
  }
}

TEST_F(VectorTest, CombineRedistributionWithoutDeviceDataIsPlain) {
  Vector<int> v(4, 2);
  v.setDistribution(Distribution::Copy);
  // No device data yet: combine degenerates to a plain redistribution.
  v.setDistribution(Distribution::Block,
                    "int combine(int a, int b) { return a + b; }");
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], 2);
  }
}

TEST_F(VectorTest, DataOnDevicesModifiedRequiresDeviceData) {
  Vector<int> v(4, 0);
  EXPECT_THROW(v.dataOnDevicesModified(), common::InvalidArgument);
}

TEST_F(VectorTest, ResizeInvalidatesDeviceChunks) {
  Vector<int> v(4, 1);
  v.state().ensureOnDevices();
  v.resize(8);
  EXPECT_FALSE(v.state().hasDeviceData());
  EXPECT_EQ(v.size(), 8u);
}

TEST_F(VectorTest, UseWithoutInitThrows) {
  skelcl::terminate();
  Vector<int> v(4, 1);
  EXPECT_THROW(v.state().ensureOnDevices(), common::Error);
  // Restore for TearDown.
  skelcl::init(skelcl::DeviceSelection::nGPUs(2));
}

TEST_F(VectorTest, TypeRegistrationRequiredForStructs) {
  struct Unregistered {
    int a;
  };
  EXPECT_THROW(skelcl::typeName<Unregistered>(), common::InvalidArgument);
  struct Registered {
    int a;
  };
  skelcl::registerType<Registered>("RegisteredT",
                                   "typedef struct { int a; } RegisteredT;");
  EXPECT_EQ(skelcl::typeName<Registered>(), "RegisteredT");
}

TEST_F(VectorTest, StructVectorBuiltBeforeRegistration) {
  // The untyped device state resolves the element type name lazily: a
  // struct vector may be built, distributed and uploaded before its
  // registerType call, which only kernels generated later need.
  struct Late {
    int a;
    int b;
  };
  std::vector<Late> data(100);
  for (int i = 0; i < 100; ++i) {
    data[std::size_t(i)] = Late{i, 2 * i};
  }
  Vector<Late> v(data);
  v.setDistribution(Distribution::Block);
  v.state().ensureOnDevices();
  skelcl::registerType<Late>("LateT",
                             "typedef struct { int a; int b; } LateT;");
  skelcl::Map<Late, int> total("int total(LateT x) { return x.a + x.b; }");
  Vector<int> out = total(v);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(out[std::size_t(i)], 3 * i) << i;
  }
}

} // namespace

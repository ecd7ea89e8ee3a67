#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/simd.h"

namespace gir {
namespace {

// Bit-at-a-time CRC-32 (reflected IEEE polynomial), the definition the
// table loop and the folding kernel must both reproduce.
uint32_t ReferenceCrc32(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.UniformInt(256));
  return out;
}

// The table loop: Crc32 with dispatch pinned to the scalar tier.
uint32_t TableCrc32(const uint8_t* p, size_t n) {
  const simd::Tier tier = simd::ActiveTier();
  simd::ForceTier(simd::Tier::kScalar);
  const uint32_t crc = Crc32(p, n);
  simd::ForceTier(tier);
  return crc;
}

// Restores the dispatch tier the process started with.
class Crc32Test : public ::testing::TestWithParam<simd::Tier> {
 protected:
  void SetUp() override {
    saved_ = simd::ActiveTier();
    simd::ForceTier(GetParam());
  }
  void TearDown() override { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_ = simd::Tier::kScalar;
};

TEST_P(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  const std::vector<uint8_t> zeros(4096, 0);
  EXPECT_EQ(Crc32(zeros.data(), zeros.size()),
            ReferenceCrc32(zeros.data(), zeros.size(), 0));
}

TEST_P(Crc32Test, EveryLengthUpTo1024) {
  const std::vector<uint8_t> bytes = RandomBytes(1024, 1);
  for (size_t n = 0; n <= bytes.size(); ++n) {
    ASSERT_EQ(Crc32(bytes.data(), n), ReferenceCrc32(bytes.data(), n, 0))
        << "length " << n;
  }
}

TEST_P(Crc32Test, EveryMisalignment) {
  const std::vector<uint8_t> bytes = RandomBytes(4096 + 16, 2);
  for (size_t shift = 0; shift < 16; ++shift) {
    for (size_t n : {size_t{63}, size_t{64}, size_t{65}, size_t{200},
                     size_t{4096}}) {
      ASSERT_EQ(Crc32(bytes.data() + shift, n),
                ReferenceCrc32(bytes.data() + shift, n, 0))
          << "shift " << shift << " length " << n;
    }
  }
}

TEST_P(Crc32Test, LargeBuffers) {
  for (size_t n : {size_t{1} << 20, size_t{21} << 20}) {
    const std::vector<uint8_t> bytes = RandomBytes(n, n);
    EXPECT_EQ(Crc32(bytes.data(), n), TableCrc32(bytes.data(), n))
        << "length " << n;
  }
}

TEST_P(Crc32Test, ChainedSeedsEqualOnePass) {
  const std::vector<uint8_t> bytes = RandomBytes(3000, 3);
  const uint32_t whole = ReferenceCrc32(bytes.data(), bytes.size(), 0);
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    // Up to three cuts at random points; a chain of seeds over the
    // pieces must equal the one-pass checksum.
    std::vector<size_t> cuts = {0, bytes.size()};
    for (int c = 0; c < 3; ++c) cuts.push_back(rng.UniformInt(bytes.size()));
    std::sort(cuts.begin(), cuts.end());
    uint32_t crc = 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      crc = Crc32(bytes.data() + cuts[i], cuts[i + 1] - cuts[i], crc);
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
  // A nonzero seed into the kernel's range.
  const uint32_t seed = ReferenceCrc32(bytes.data(), 7, 0);
  EXPECT_EQ(Crc32(bytes.data() + 7, bytes.size() - 7, seed), whole);
}

INSTANTIATE_TEST_SUITE_P(Tiers, Crc32Test,
                         ::testing::Values(simd::Tier::kScalar,
                                           simd::Tier::kAvx2),
                         [](const ::testing::TestParamInfo<simd::Tier>& info) {
                           return std::string(simd::TierName(info.param));
                         });

}  // namespace
}  // namespace gir

#include "base/byte_scan.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"

namespace sst {
namespace {

// All ClassifyBlock kernels available on this machine, by name.
std::vector<std::pair<const char*, uint64_t (*)(const char*, size_t)>>
AvailableKernels() {
  std::vector<std::pair<const char*, uint64_t (*)(const char*, size_t)>>
      kernels = {{"swar", &ClassifyBlockSwar},
                 {"dispatched", &ClassifyBlock}};
#if defined(__x86_64__) || defined(__i386__)
  if (CpuHasSse2()) kernels.emplace_back("sse2", &ClassifyBlockSse2);
  if (CpuHasAvx2()) kernels.emplace_back("avx2", &ClassifyBlockAvx2);
#endif
  return kernels;
}

// Fills `out` with a mix heavy in whitespace and boundary bytes (0x08,
// 0x0E, 0x1F, 0x21, 0x7F, 0x80, 0xFF straddle the classifier's ranges).
void FillAdversarial(Rng* rng, char* out, size_t len) {
  static constexpr unsigned char kPool[] = {
      ' ',  '\t', '\n', '\v', '\f', '\r', 0x08, 0x0E, 0x1F, 0x21,
      '<',  '>',  '{',  '}',  'a',  'Z',  0x00, 0x7F, 0x80, 0xFF};
  for (size_t i = 0; i < len; ++i) {
    if (rng->NextBool(0.5)) {
      out[i] = static_cast<char>(kPool[rng->NextBelow(sizeof(kPool))]);
    } else {
      out[i] = static_cast<char>(rng->NextBelow(256));
    }
  }
}

TEST(ByteScan, ScalarReferenceSanity) {
  EXPECT_EQ(ClassifyBlockScalar("a b", 3), 0b101u);
  EXPECT_EQ(ClassifyBlockScalar(" \t\n\v\f\r", 6), 0u);
  EXPECT_EQ(ClassifyBlockScalar("", 0), 0u);
  // NUL and other control bytes are structural (only the six ASCII
  // whitespace bytes are skippable).
  const char nul[2] = {'\0', 0x08};
  EXPECT_EQ(ClassifyBlockScalar(nul, 2), 0b11u);
}

// Fuzz: every kernel agrees with the scalar classifier on random buffers
// at every alignment offset 0..31 and EVERY length 0..130 — exhaustively
// covering the tail-handling paths: every non-block-multiple remainder of
// the 8- (SWAR), 16- (SSE2) and 32-byte (AVX2) inner blocks, the 64-byte
// clamp boundary, and over-long inputs past the clamp. (The tail audit
// found no defect — each kernel zero-pads the remainder and masks with
// (1 << rem) - 1, where rem is strictly below the shift width — and this
// sweep keeps it that way.)
TEST(ByteScan, ClassifyBlockMatchesScalarAtEveryAlignment) {
  Rng rng(2026);
  auto kernels = AvailableKernels();
  alignas(64) char buffer[32 + 160];
  for (int round = 0; round < 50; ++round) {
    FillAdversarial(&rng, buffer, sizeof(buffer));
    for (size_t offset = 0; offset < 32; ++offset) {
      const char* data = buffer + offset;
      for (size_t len = 0; len <= 130; ++len) {
        uint64_t expected = ClassifyBlockScalar(data, len);
        for (const auto& [name, kernel] : kernels) {
          EXPECT_EQ(kernel(data, len), expected)
              << name << " kernel, round " << round << ", offset " << offset
              << ", len " << len;
        }
      }
    }
  }
}

// MatchByteBlock against a byte-by-byte compare, at every alignment and
// every length through the 64-byte clamp, for bytes the term run asks
// about and bytes at the signed/unsigned edges.
TEST(ByteScan, MatchByteBlockMatchesScalarAtEveryAlignment) {
  Rng rng(2027);
  alignas(64) char buffer[32 + 160];
  for (int round = 0; round < 20; ++round) {
    FillAdversarial(&rng, buffer, sizeof(buffer));
    for (size_t offset = 0; offset < 32; ++offset) {
      const char* data = buffer + offset;
      for (size_t len = 0; len <= 130; ++len) {
        for (char byte : {'{', '}', '\0', static_cast<char>(0xFF)}) {
          uint64_t expected = 0;
          for (size_t i = 0; i < len && i < 64; ++i) {
            expected |= uint64_t{data[i] == byte} << i;
          }
          EXPECT_EQ(MatchByteBlock(data, len, byte), expected)
              << "round " << round << ", offset " << offset << ", len "
              << len << ", byte " << static_cast<int>(byte);
        }
      }
    }
  }
}

TEST(ByteScan, FindStructuralMatchesScalarScan) {
  Rng rng(7);
  for (int round = 0; round < 500; ++round) {
    size_t len = rng.NextBelow(300);
    std::string s(len, ' ');
    // Bias towards long whitespace runs with occasional structural bytes.
    for (size_t i = 0; i < len; ++i) {
      if (rng.NextBool(0.1)) s[i] = static_cast<char>(rng.NextBelow(256));
    }
    size_t expected = len;
    for (size_t i = 0; i < len; ++i) {
      if (!ByteIsAsciiWs(static_cast<unsigned char>(s[i]))) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(FindStructural(s.data(), len), expected) << "round " << round;
  }
}

TEST(ByteScan, FindStructuralEdgeCases) {
  EXPECT_EQ(FindStructural(nullptr, 0), 0u);
  std::string all_ws(1000, '\n');
  EXPECT_EQ(FindStructural(all_ws.data(), all_ws.size()), all_ws.size());
  all_ws += '<';
  EXPECT_EQ(FindStructural(all_ws.data(), all_ws.size()),
            all_ws.size() - 1);
  EXPECT_EQ(FindStructural("x", 1), 0u);
}

// Scalar reference for all three structural-consumption primitives: the
// ascending list of non-whitespace byte offsets.
std::vector<uint32_t> ScalarStructuralPositions(const std::string& s) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (!ByteIsAsciiWs(static_cast<unsigned char>(s[i]))) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

// Random buffer biased to exercise the interesting regimes: long
// whitespace runs (sparse masks), dense all-structural 64-byte blocks
// (the ForEachStructural fast path), and everything in between.
std::string RandomMixedBuffer(Rng* rng, size_t len) {
  std::string s;
  s.reserve(len);
  while (s.size() < len) {
    size_t run = 1 + rng->NextBelow(96);
    if (run > len - s.size()) run = len - s.size();
    if (rng->NextBool(0.4)) {
      static constexpr char kWs[] = {' ', '\t', '\n', '\v', '\f', '\r'};
      s.append(run, kWs[rng->NextBelow(6)]);
    } else {
      for (size_t i = 0; i < run; ++i) {
        s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
      }
    }
  }
  return s;
}

TEST(ByteScan, ExtractStructuralMatchesScalarScan) {
  Rng rng(404);
  for (int round = 0; round < 300; ++round) {
    size_t len = rng.NextBelow(500);
    std::string s = RandomMixedBuffer(&rng, len);
    std::vector<uint32_t> expected = ScalarStructuralPositions(s);
    std::vector<uint32_t> got(len + 1, 0xDEADBEEFu);
    size_t n = ExtractStructural(s.data(), len, got.data());
    ASSERT_EQ(n, expected.size()) << "round " << round << ", len " << len;
    got.resize(n);
    EXPECT_EQ(got, expected) << "round " << round;
  }
}

TEST(ByteScan, ExtractStructuralEdgeCases) {
  uint32_t out[8];
  EXPECT_EQ(ExtractStructural(nullptr, 0, out), 0u);
  std::string ws(257, ' ');
  EXPECT_EQ(ExtractStructural(ws.data(), ws.size(), out), 0u);
  std::string one = ws + "x";
  ASSERT_EQ(ExtractStructural(one.data(), one.size(), out), 1u);
  EXPECT_EQ(out[0], 257u);
}

TEST(ByteScan, ForEachStructuralMatchesScalarScan) {
  Rng rng(406);
  for (int round = 0; round < 300; ++round) {
    size_t len = rng.NextBelow(500);
    std::string s = RandomMixedBuffer(&rng, len);
    std::vector<uint32_t> expected = ScalarStructuralPositions(s);
    std::vector<uint32_t> got;
    ForEachStructural(s.data(), len, [&](size_t i) {
      got.push_back(static_cast<uint32_t>(i));
    });
    EXPECT_EQ(got, expected) << "round " << round << ", len " << len;
  }
}

// The dense fast path (mask == all-ones) must fire on fully structural
// blocks and still visit every byte exactly once, in order.
TEST(ByteScan, ForEachStructuralDenseBlocks) {
  std::string s(256, 'q');
  size_t calls = 0;
  size_t next = 0;
  ForEachStructural(s.data(), s.size(), [&](size_t i) {
    EXPECT_EQ(i, next++);
    ++calls;
  });
  EXPECT_EQ(calls, s.size());
}

TEST(ByteScan, KernelNameIsKnown) {
  std::string name = ByteScanKernelName();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "swar") << name;
}

}  // namespace
}  // namespace sst

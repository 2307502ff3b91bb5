#ifndef SST_BASE_BYTE_SCAN_H_
#define SST_BASE_BYTE_SCAN_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace sst {

// Data-parallel byte classification for streaming scanners. The structural
// bytes of every supported serialization ('<', '>', '{', '}', tag letters)
// are exactly the non-whitespace bytes — between tags only ASCII whitespace
// is legal — so "find the next structural byte" reduces to "find the first
// byte outside {' ', '\t', '\n', '\v', '\f', '\r'}". ClassifyBlock answers
// that for up to 64 bytes at a time: a portable 64-bit SWAR kernel with
// SSE2/AVX2 specializations selected once at startup (runtime dispatch; the
// binary never requires AVX2). Single-byte searches ('>' inside an XML tag)
// go through libc memchr, which is already vectorized.

// Scalar whitespace predicate; the reference all kernels must agree with.
inline bool ByteIsAsciiWs(unsigned char b) {
  return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' ||
         b == '\r';
}

// Classifies up to 64 bytes: bit i of the result is set iff data[i] is
// structural (not ASCII whitespace). len is clamped to 64; bits at or past
// the clamped length are zero. Dispatches to the best kernel for the CPU.
uint64_t ClassifyBlock(const char* data, size_t len);

// Individual kernels, exposed so tests can cross-check every
// implementation on this machine (not just the dispatched one).
uint64_t ClassifyBlockScalar(const char* data, size_t len);
uint64_t ClassifyBlockSwar(const char* data, size_t len);
#if defined(__x86_64__) || defined(__i386__)
uint64_t ClassifyBlockSse2(const char* data, size_t len);
uint64_t ClassifyBlockAvx2(const char* data, size_t len);
// True when the running CPU can execute the corresponding kernel.
bool CpuHasSse2();
bool CpuHasAvx2();
#endif

// Name of the kernel ClassifyBlock dispatches to: "avx2", "sse2" or "swar".
const char* ByteScanKernelName();

// Offset of the first structural (non-whitespace) byte in [0, len), or len
// when the whole range is whitespace.
size_t FindStructural(const char* data, size_t len);

// Stage-1 structural index: compacts the ClassifyBlock bitmasks into a
// position buffer with a ctz walk. `out` must have room for len entries;
// the return value is how many were written (the number of structural
// bytes). Positions are uint32_t, so a single extracted range is capped at
// 4 GiB — chunked callers are always far below that.
size_t ExtractStructural(const char* data, size_t len, uint32_t* out);

// Calls fn(offset) for every structural byte of [data, data + len), in
// order, until fn returns false; returns that offset, or len when fn took
// every byte. The workhorse of the indexed loops: fully-structural blocks
// (mask == all-ones, the dense-corpus steady state) take a plain 64-byte
// loop so the index costs one ClassifyBlock per block and nothing per
// byte; sparse blocks take the ctz walk and skip text/whitespace entirely.
// The only state across bytes is the block offset and its mask, which
// leaves the caller's loop body the registers.
template <typename Fn>
inline size_t ForEachStructuralUntil(const char* data, size_t len, Fn&& fn) {
  for (size_t i = 0; i < len; i += 64) {
    const size_t n = len - i < 64 ? len - i : 64;
    uint64_t mask = ClassifyBlock(data + i, n);
    if (mask == ~uint64_t{0}) {
      for (size_t k = i; k < i + 64; ++k) {
        if (!fn(k)) return k;
      }
    } else {
      for (; mask != 0; mask &= mask - 1) {
        const size_t k = i + static_cast<size_t>(std::countr_zero(mask));
        if (!fn(k)) return k;
      }
    }
  }
  return len;
}

// ForEachStructuralUntil for a callback that takes every byte.
template <typename Fn>
inline void ForEachStructural(const char* data, size_t len, Fn&& fn) {
  ForEachStructuralUntil(data, len, [&fn](size_t i) {
    fn(i);
    return true;
  });
}

}  // namespace sst

#endif  // SST_BASE_BYTE_SCAN_H_

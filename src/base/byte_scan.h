#ifndef SST_BASE_BYTE_SCAN_H_
#define SST_BASE_BYTE_SCAN_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

// Bit i is set iff data[i] == byte, for i below min(len, 64). Inline, so
// a scan loop that asks it per block makes no call (SSE2 is part of the
// x86-64 baseline; other targets and partial blocks take a byte loop).
inline uint64_t MatchByteBlock(const char* data, size_t len, char byte) {
#if defined(__SSE2__)
  if (len >= 64) {
    const __m128i want = _mm_set1_epi8(byte);
    uint64_t out = 0;
    for (int i = 0; i < 64; i += 16) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
      out |= uint64_t{static_cast<uint32_t>(
                 _mm_movemask_epi8(_mm_cmpeq_epi8(v, want)))}
             << i;
    }
    return out;
  }
#endif
  uint64_t out = 0;
  const size_t n = len < 64 ? len : 64;
  for (size_t i = 0; i < n; ++i) {
    out |= uint64_t{data[i] == byte} << i;
  }
  return out;
}

// Stage-1 structural index: compacts the ClassifyBlock bitmasks into a
// position buffer with a ctz walk. `out` must have room for len entries;
// the return value is how many were written (the number of structural
// bytes). Positions are uint32_t, so a single extracted range is capped at
// 4 GiB — chunked callers are always far below that.
size_t ExtractStructural(const char* data, size_t len, uint32_t* out);

// Calls fn(p, roomy) for a pointer p to every structural byte of
// [data, data + len), in order, until fn returns false; returns that byte's
// offset, or len when fn took every byte. room() runs at the start of every
// 64-byte block, and `roomy` is std::true_type or std::false_type as it
// answered: the loop body is compiled once per answer, so a decision that
// holds for a whole block (a budget with room for 64 more tokens, say)
// costs one call per block, not a compare per byte. Fully-structural
// blocks (mask == all-ones, the dense-corpus steady state) take a plain
// 64-byte loop, so the index costs one ClassifyBlock per block and nothing
// per byte; sparse blocks take the ctz walk and skip text/whitespace
// entirely. The only state across bytes is the block pointer and its mask,
// which leaves the caller's loop body the registers; the walk is forced
// inline so that the caller's state stays in registers, not in the
// closures.
template <typename Room, typename Fn>
__attribute__((always_inline)) inline size_t ForEachStructuralBlockUntil(
    const char* data, size_t len, Room&& room, Fn&& fn) {
  const char* const end = data + len;
  auto walk = [&](const char* block, uint64_t mask,
                  auto roomy) __attribute__((always_inline)) {
    if (mask == ~uint64_t{0}) {
      for (const char* p = block; p < block + 64; ++p) {
        if (!fn(p, roomy)) return p;
      }
    } else {
      for (; mask != 0; mask &= mask - 1) {
        const char* p = block + std::countr_zero(mask);
        if (!fn(p, roomy)) return p;
      }
    }
    return end;
  };
  for (const char* block = data; block < end; block += 64) {
    const size_t n = static_cast<size_t>(end - block);
    const uint64_t mask = ClassifyBlock(block, n < 64 ? n : 64);
    const char* stop = room() ? walk(block, mask, std::true_type{})
                              : walk(block, mask, std::false_type{});
    if (stop != end) return static_cast<size_t>(stop - data);
  }
  return len;
}

// ForEachStructuralBlockUntil with one loop body, fn(offset): calls it for
// every structural byte until it returns false; returns that offset, or
// len.
template <typename Fn>
inline size_t ForEachStructuralUntil(const char* data, size_t len, Fn&& fn) {
  return ForEachStructuralBlockUntil(
      data, len, [] { return false; }, [&](const char* p, auto) {
        return fn(static_cast<size_t>(p - data));
      });
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

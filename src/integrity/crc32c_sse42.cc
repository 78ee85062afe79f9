// SSE4.2 CRC32 instruction path — compiled with -msse4.2 in its own
// TU (the gf_simd_* pattern), selected at runtime by Crc32c() when the
// active ISA level implies the CPU has it.
//
// One _mm_crc32_u64 chain is latency-bound (3 cycles per 8 bytes, about
// 2.8 GB/s). Three chains over three adjacent blocks run at the
// instruction's throughput instead; the block CRCs are then merged by
// shifting the running register over the next block's length
// (crc(A‖B) = shift(crc(A), |B|) ^ crc_from_zero(B), CRC being linear),
// so the result is bit-identical to the single-chain and software CRCs.
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include <nmmintrin.h>

namespace integrity {

namespace {

/// Bytes per stream in the bulk loop and in the tail loop: the bulk
/// block amortizes the merge, the tail block keeps the interleave on
/// for buffers down to 768 bytes.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

/// The linear map "feed `n` zero bytes into the CRC register", sliced
/// by register byte: Apply(crc) xors one entry per byte of crc.
struct ZeroShift {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  explicit ZeroShift(std::size_t n) {
    // Column b: the image of register bit b (the instruction applies no
    // pre/post inversion, so it is the raw register update).
    std::uint32_t col[32];
    for (int b = 0; b < 32; ++b) {
      std::uint64_t r = std::uint64_t{1} << b;
      for (std::size_t i = 0; i < n; i += 8) r = _mm_crc32_u64(r, 0);
      col[b] = static_cast<std::uint32_t>(r);
    }
    for (int j = 0; j < 4; ++j) {
      for (std::uint32_t v = 0; v < 256; ++v) {
        std::uint32_t sum = 0;
        for (int i = 0; i < 8; ++i) {
          if ((v >> i) & 1u) sum ^= col[8 * j + i];
        }
        t[j][v] = sum;
      }
    }
  }

  std::uint64_t Apply(std::uint64_t crc) const {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][(crc >> 24) & 0xFFu];
  }
};

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

/// Consume whole groups of three `block`-byte blocks from [p, p+n),
/// advancing p and n; `shift` feeds `block` zero bytes.
template <std::size_t kBlock>
std::uint64_t ThreeWay(std::uint64_t crc0, const unsigned char*& p,
                       std::size_t& n, const ZeroShift& shift) {
  static_assert(kBlock % 8 == 0);
  while (n >= 3 * kBlock) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      crc0 = _mm_crc32_u64(crc0, Load64(p + i));
      crc1 = _mm_crc32_u64(crc1, Load64(p + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kBlock + i));
    }
    crc0 = shift.Apply(crc0) ^ crc1;
    crc0 = shift.Apply(crc0) ^ crc2;
    p += 3 * kBlock;
    n -= 3 * kBlock;
  }
  return crc0;
}

}  // namespace

bool Crc32cHardwareCpuOk() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

std::uint32_t Crc32cHardware(const void* data, std::size_t n) {
  static const ZeroShift long_shift(kLongBlock);
  static const ZeroShift short_shift(kShortBlock);
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = 0xFFFFFFFFu;
  // Align the word loads (bytes before the first 8-byte boundary go
  // through the byte instruction).
  while (n != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), *p++);
    --n;
  }
  crc = ThreeWay<kLongBlock>(crc, p, n, long_shift);
  crc = ThreeWay<kShortBlock>(crc, p, n, short_shift);
  while (n >= 8) {
    crc = _mm_crc32_u64(crc, Load64(p));
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (n-- != 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
  }
  return crc32 ^ 0xFFFFFFFFu;
}

}  // namespace integrity

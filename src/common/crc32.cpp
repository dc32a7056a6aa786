#include "common/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace artsci {
namespace detail {
namespace {

constexpr auto kTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0x82F63B78u : 0u);
    table[i] = c;
  }
  return table;
}();

}  // namespace

std::uint32_t crc32cByteTable(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return ~c;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32cSse42(const void* data,
                                                            std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

Crc32cLoop crc32cLoop() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32cSse42;
#endif
  return crc32cByteTable;
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t n) {
  static const detail::Crc32cLoop loop = detail::crc32cLoop();
  return loop(data, n);
}

}  // namespace artsci

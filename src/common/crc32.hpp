/// \file crc32.hpp
/// CRC-32C (Castagnoli, Bräuer & Herrmann, IEEE Trans. Commun. 41(6),
/// 1993; reflected polynomial 0x82F63B78), the integrity footer of the
/// on-disk container (ml/serialize.hpp). Hosts with SSE4.2 run its
/// `crc32` instruction; others a byte table over the same polynomial,
/// which gives the same value. The loop is chosen once per process.
#pragma once

#include <cstddef>
#include <cstdint>

namespace artsci {

/// CRC-32C of `n` bytes at `data` ("123456789" gives 0xE3069283).
std::uint32_t crc32c(const void* data, std::size_t n);

namespace detail {

using Crc32cLoop = std::uint32_t (*)(const void* data, std::size_t n);

std::uint32_t crc32cByteTable(const void* data, std::size_t n);
#if defined(__x86_64__)
/// Only for hosts with SSE4.2.
std::uint32_t crc32cSse42(const void* data, std::size_t n);
#endif
/// The loop crc32c runs: SSE4.2 where the host has it, else the table. Not
/// an ARTSCI_ISA_CLONES ifunc: those are off under the sanitizers, and the
/// baseline clone could not compile the intrinsic.
Crc32cLoop crc32cLoop();

}  // namespace detail
}  // namespace artsci

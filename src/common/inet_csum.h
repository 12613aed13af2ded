// Internet checksum (RFC 1071) and incremental update (RFC 1624).
//
// This is the TCP/IP checksum the paper proposes to *reuse* as the storage
// integrity word: the NIC verifies/produces it per segment, and because it
// is a ones'-complement sum it can be incrementally recombined when data
// spans segments, without touching the payload bytes again.
#pragma once

#include <cstddef>
#include <span>

#include "common/types.h"

namespace papm {

// Raw ones'-complement sum of a byte range (not folded, not inverted).
// An odd trailing byte is padded with zero, per RFC 1071.
[[nodiscard]] u32 inet_sum(std::span<const u8> data) noexcept;

// Adds the sum of `data` to the running sum `acc` of the `off` bytes
// that precede it in one flat byte stream: at an odd offset the block's
// bytes land at swapped word positions, so its sum is byte-swapped before
// adding (RFC 1071 s.2(B)). Summing a scattered packet piece by piece
// this way equals inet_sum of its flattened bytes once folded. `acc` may
// hold any unfolded sum (a pseudo-header sum, say); the result is at
// most 0x1fffe.
[[nodiscard]] u32 inet_sum_at(u32 acc, std::size_t off,
                              std::span<const u8> data) noexcept;

// Fold a 32-bit running sum into 16 bits.
[[nodiscard]] constexpr u16 inet_fold(u32 sum) noexcept {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<u16>(sum);
}

// Final checksum of a buffer: folded, inverted.
[[nodiscard]] u16 inet_checksum(std::span<const u8> data) noexcept;

// Ones'-complement sums 0x0000 and 0xffff both denote zero, so checksums
// 0xffff and 0x0000 are the same abstract value. Canonicalize before
// comparing two checksums for equality (e.g. storage integrity checks).
[[nodiscard]] constexpr u16 inet_csum_canon(u16 csum) noexcept {
  return csum == 0 ? 0xffff : csum;
}

// Combine two ones'-complement sums where the second covers `len_b` bytes
// that directly follow the first block. If the first block has odd length
// the second sum must be byte-swapped before adding (RFC 1071 s.2(B)).
[[nodiscard]] u16 inet_csum_concat(u16 csum_a, std::size_t len_a, u16 csum_b,
                                   std::size_t len_b) noexcept;

// RFC 1624 incremental update: new checksum after a 16-bit word at some
// even offset changes from `old_word` to `new_word`.
[[nodiscard]] u16 inet_csum_update(u16 old_csum, u16 old_word, u16 new_word) noexcept;

// Checksum of the slice full[a, b) given the checksum of the whole block,
// touching only the bytes *outside* the slice. This is how a storage
// stack derives the checksum of an HTTP body from the NIC-provided
// payload checksum without re-reading the body: it sums the (small)
// header prefix and trailer and subtracts them in ones'-complement
// arithmetic, handling odd-offset byte swaps per RFC 1071 s.2(B).
[[nodiscard]] u16 inet_csum_slice(std::span<const u8> full, u16 full_csum,
                                  std::size_t a, std::size_t b) noexcept;

}  // namespace papm

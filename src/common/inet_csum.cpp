#include "common/inet_csum.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace papm {

u32 inet_sum(std::span<const u8> data) noexcept {
  u64 sum = 0;
  const u8* p = data.data();
  std::size_t n = data.size();

  // The sum of 16-bit big-endian words is 256 * (sum of even-offset
  // bytes) + (sum of odd-offset bytes). Load 8 bytes at a time and add
  // them into four 16-bit lanes per parity. A lane gains at most 255 per
  // load, so blocks of 256 loads are drained into `sum` before a lane
  // can overflow: the 64-bit total, and so the folded result, equals the
  // word loop's exactly.
  constexpr u64 kLanes = 0x00ff00ff00ff00ffULL;
  // A little-endian load puts even offsets in each lane's low byte.
  constexpr int kEvenShift = std::endian::native == std::endian::little ? 0 : 8;
  while (n >= 8) {
    const std::size_t block = std::min<std::size_t>(n / 8, 256);
    u64 even = 0;
    u64 odd = 0;
    for (std::size_t i = 0; i < block; i++) {
      u64 w;
      std::memcpy(&w, p + 8 * i, 8);
      even += (w >> kEvenShift) & kLanes;
      odd += (w >> (8 - kEvenShift)) & kLanes;
    }
    const auto lanes = [](u64 v) {
      return (v & 0xffff) + ((v >> 16) & 0xffff) + ((v >> 32) & 0xffff) +
             (v >> 48);
    };
    sum += (lanes(even) << 8) + lanes(odd);
    p += 8 * block;
    n -= 8 * block;
  }
  while (n >= 2) {
    sum += static_cast<u32>(p[0]) << 8 | p[1];
    p += 2;
    n -= 2;
  }
  if (n == 1) sum += static_cast<u32>(p[0]) << 8;  // pad odd byte with zero

  while (sum >> 32) sum = (sum & 0xffffffff) + (sum >> 32);
  return static_cast<u32>(sum);
}

u32 inet_sum_at(u32 acc, std::size_t off, std::span<const u8> data) noexcept {
  u16 s = inet_fold(inet_sum(data));
  if (off % 2 != 0) s = static_cast<u16>((s << 8) | (s >> 8));
  return static_cast<u32>(inet_fold(acc)) + s;
}

u16 inet_checksum(std::span<const u8> data) noexcept {
  return static_cast<u16>(~inet_fold(inet_sum(data)));
}

u16 inet_csum_concat(u16 csum_a, std::size_t len_a, u16 csum_b,
                     std::size_t len_b) noexcept {
  (void)len_b;
  // Work on the (non-inverted) sums.
  u32 sum_a = static_cast<u16>(~csum_a);
  u32 sum_b = static_cast<u16>(~csum_b);
  if (len_a % 2 != 0) {
    // Odd boundary: bytes of block B land at swapped positions.
    sum_b = static_cast<u32>(((sum_b & 0xff) << 8) | (sum_b >> 8));
  }
  return static_cast<u16>(~inet_fold(sum_a + sum_b));
}

u16 inet_csum_update(u16 old_csum, u16 old_word, u16 new_word) noexcept {
  // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')
  u32 sum = static_cast<u16>(~old_csum);
  sum += static_cast<u16>(~old_word);
  sum += new_word;
  return static_cast<u16>(~inet_fold(sum));
}

namespace {
// Byte-swap a folded 16-bit ones'-complement sum (odd-offset adjustment).
constexpr u16 swap16(u16 v) noexcept {
  return static_cast<u16>((v << 8) | (v >> 8));
}
}  // namespace

u16 inet_csum_slice(std::span<const u8> full, u16 full_csum, std::size_t a,
                    std::size_t b) noexcept {
  // total = prefix +' shift_a(slice) +' shift_b(suffix), where shift_k
  // swaps bytes when offset k is odd. Solve for slice.
  const u16 total = inet_fold(static_cast<u16>(~full_csum));
  u16 prefix = inet_fold(inet_sum(full.first(a)));
  u16 suffix = inet_fold(inet_sum(full.subspan(b)));
  if (b % 2 != 0) suffix = swap16(suffix);
  // slice_shifted = total -' prefix -' suffix
  u32 s = total;
  s += static_cast<u16>(~prefix);
  s += static_cast<u16>(~suffix);
  u16 slice = inet_fold(s);
  if (a % 2 != 0) slice = swap16(slice);
  const u16 csum = static_cast<u16>(~slice);
  return csum == 0 ? 0xffff : csum;  // normalize negative zero
}

}  // namespace papm

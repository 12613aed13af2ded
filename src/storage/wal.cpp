#include "storage/wal.h"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace papm::storage {

namespace {
constexpr u64 kRecHdr = 4 + 1 + 4 + 4;  // crc, type, klen, vlen
}

const Wal::Header* Wal::hdr() const {
  return reinterpret_cast<const Header*>(dev().at(header_off_, sizeof(Header)));
}

void Wal::persist_tail(u64 tail) {
  const u64 off = header_off_ + offsetof(Header, tail);
  dev_->store_u64(off, tail);
  dev_->persist(off, 8);
}

Wal Wal::create(pm::PmDevice& dev, std::string_view name, u64 base, u64 len) {
  if (base % kCacheLine != 0 || len < sizeof(Header) + kCacheLine) {
    throw std::invalid_argument("Wal: bad span");
  }
  Wal wal(dev, base);
  auto* h = reinterpret_cast<Header*>(dev.at(base, sizeof(Header)));
  h->magic = kMagic;
  h->base = base;
  h->len = len;
  h->tail = base + align_up(sizeof(Header), kCacheLine);
  dev.mark_dirty(base, sizeof(Header));
  dev.persist(base, sizeof(Header));
  if (!dev.set_root(name, base).ok()) throw std::runtime_error("Wal: root full");
  return wal;
}

Result<Wal> Wal::recover(pm::PmDevice& dev, std::string_view name) {
  const auto root = dev.get_root(name);
  if (!root.ok()) return root.errc();
  Wal wal(dev, root.value());
  if (wal.hdr()->magic != kMagic) return Errc::corrupted;
  return wal;
}

Status Wal::append(WalRecordType type, std::string_view key,
                   std::span<const u8> value) {
  const Header* h = hdr();
  const u64 rec_len = kRecHdr + key.size() + value.size();
  if (h->tail + rec_len > h->base + h->len) return Errc::out_of_space;

  // Build the record in a scratch buffer, CRC over type..value.
  std::vector<u8> rec(rec_len);
  rec[4] = static_cast<u8>(type);
  const u32 klen = static_cast<u32>(key.size());
  const u32 vlen = static_cast<u32>(value.size());
  std::memcpy(rec.data() + 5, &klen, 4);
  std::memcpy(rec.data() + 9, &vlen, 4);
  std::memcpy(rec.data() + kRecHdr, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(rec.data() + kRecHdr + key.size(), value.data(), value.size());
  }
  auto& env = dev_->env();
  env.clock().advance(env.cost.crc32c_cost(rec_len - 4));
  const u32 crc = crc32c_mask(
      crc32c(std::span<const u8>(rec.data() + 4, rec_len - 4)));
  std::memcpy(rec.data(), &crc, 4);

  // Write-ahead ordering: record, fence, then tail pointer, fence. Under
  // group commit the record bytes ride the epoch's first fence and the
  // tail is a withheld publication — it can never point past bytes that
  // are not durable.
  env.clock().advance(env.cost.copy_cost(rec_len));
  const u64 at = h->tail;
  dev_->store(at, rec);
  batcher_->persist(at, rec_len);
  batcher_->publish_u64(header_off_ + offsetof(Header, tail), at + rec_len);
  obs::inc(m_appends_);
  obs::inc(m_append_bytes_, rec_len);
  return Errc::ok;
}

u64 Wal::replay(const std::function<void(WalRecordType, std::string_view,
                                         std::span<const u8>)>& apply) const {
  const Header* h = hdr();
  u64 at = h->base + align_up(sizeof(Header), kCacheLine);
  u64 applied = 0;
  while (at + kRecHdr <= h->tail) {
    u32 crc, klen, vlen;
    std::memcpy(&crc, dev().at(at, 4), 4);
    const u8 type = *dev().at(at + 4, 1);
    std::memcpy(&klen, dev().at(at + 5, 4), 4);
    std::memcpy(&vlen, dev().at(at + 9, 4), 4);
    const u64 body = static_cast<u64>(klen) + vlen;
    if (at + kRecHdr + body > h->tail) break;  // torn tail
    const std::span<const u8> covered(dev().at(at + 4, kRecHdr - 4 + body),
                                      kRecHdr - 4 + body);
    if (crc32c_unmask(crc) != crc32c(covered)) break;  // corrupt tail
    if (type != static_cast<u8>(WalRecordType::put) &&
        type != static_cast<u8>(WalRecordType::erase)) {
      break;
    }
    const std::string_view key(
        reinterpret_cast<const char*>(dev().at(at + kRecHdr, klen)), klen);
    const std::span<const u8> value(dev().at(at + kRecHdr + klen, vlen), vlen);
    apply(static_cast<WalRecordType>(type), key, value);
    applied++;
    at += kRecHdr + body;
  }
  return applied;
}

void Wal::truncate() {
  const Header* h = hdr();
  persist_tail(h->base + align_up(sizeof(Header), kCacheLine));
  obs::inc(m_truncates_);
}

u64 Wal::bytes_used() const {
  const Header* h = hdr();
  return h->tail - (h->base + align_up(sizeof(Header), kCacheLine));
}

u64 Wal::capacity() const {
  const Header* h = hdr();
  return h->len - align_up(sizeof(Header), kCacheLine);
}

}  // namespace papm::storage

#include "obs/flightrec.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/crc32c.h"

namespace papm::obs {

namespace {

constexpr u64 kMagic = 0x50'41'50'4d'46'52'4543ULL;  // "PAPMFREC" (7 bytes)

std::string root_name(u16 shard) {
  return "obs.flightrec" + std::to_string(shard);
}

}  // namespace

u32 FlightRecorder::record_crc(const FlightRecord& rec, u64 seq) {
  FlightRecord tmp = rec;
  tmp.crc = 0;
  u8 buf[kBodyLen + sizeof seq];
  std::memcpy(buf, &tmp, kBodyLen);
  std::memcpy(buf + kBodyLen, &seq, sizeof seq);
  return crc32c_mask(crc32c({buf, sizeof buf}));
}

Result<FlightRecorder> FlightRecorder::create(pm::PmDevice& dev,
                                              pm::PmPool& pool, u16 shard,
                                              u32 capacity) {
  if (capacity == 0) return Errc::invalid_argument;
  const u64 total = kHeaderLen + static_cast<u64>(capacity) * kSlotSize;
  auto region = pool.alloc(total);
  if (!region.ok()) return region.errc();
  const u64 base = region.value();

  // Zero the whole ring durably: a recycled pool block could otherwise
  // hold stale bytes that validate as slots.
  const std::vector<u8> zeros(total, 0);
  dev.store(base, zeros);

  u8 hdr[24] = {};
  std::memcpy(hdr, &kMagic, 8);
  std::memcpy(hdr + 8, &capacity, 4);
  std::memcpy(hdr + 12, &shard, 2);
  dev.store(base, {hdr, sizeof hdr});
  dev.persist(base, total);

  const Status s = dev.set_root(root_name(shard), base);
  if (!s.ok()) return s.errc();
  return FlightRecorder(dev, base, capacity, shard);
}

Result<FlightRecorder> FlightRecorder::recover(pm::PmDevice& dev, u16 shard) {
  const auto root = dev.get_root(root_name(shard));
  if (!root.ok()) return root.errc();
  const u64 base = root.value();
  if (base + kHeaderLen > dev.size()) return Errc::corrupted;

  u64 magic = 0;
  u32 capacity = 0;
  const u8* h = std::as_const(dev).at(base, kHeaderLen);
  std::memcpy(&magic, h, 8);
  std::memcpy(&capacity, h + 8, 4);
  if (magic != kMagic || capacity == 0) return Errc::corrupted;
  const u64 total = kHeaderLen + static_cast<u64>(capacity) * kSlotSize;
  if (base + total > dev.size()) return Errc::corrupted;

  FlightRecorder fr(dev, base, capacity, shard);
  ScanStats st;
  (void)fr.scan(&st);
  fr.seq_ = st.max_seq;  // appends resume past the highest durable slot
  return fr;
}

void FlightRecorder::set_metrics(MetricRegistry* r) {
  if (r == nullptr) return;
  m_records_ = &r->counter("obs.flightrec_records");
  m_wraps_ = &r->counter("obs.flightrec_wraps");
}

u64 FlightRecorder::append(const FlightRecord& rec) {
  const u64 seq = seq_ + 1;
  const u64 off = slot_off((seq - 1) % capacity_);
  if (seq > capacity_) {
    wraps_++;
    inc(m_wraps_);
  }

  FlightRecord body = rec;
  body.crc = record_crc(body, seq);
  u8 buf[kBodyLen];
  std::memcpy(buf, &body, kBodyLen);

  // Body first; the seq word is the publication. Under group commit the
  // content fence is absorbed by the epoch and the publication withheld
  // to its close — the slot can never point at un-durable bytes.
  dev_->store(off + 8, {buf, kBodyLen});
  batcher_->persist(off + 8, kBodyLen);
  batcher_->publish_u64(off, seq);
  seq_ = seq;
  inc(m_records_);
  return seq;
}

std::vector<RecoveredFlight> FlightRecorder::scan(ScanStats* stats) const {
  ScanStats st;
  std::vector<RecoveredFlight> out;
  for (u64 i = 0; i < capacity_; i++) {
    const u64 off = slot_off(i);
    st.scanned++;
    const u64 seq = dev_->load_u64(off);
    if (seq == 0) continue;
    FlightRecord rec;
    std::memcpy(&rec, std::as_const(*dev_).at(off + 8, kBodyLen), kBodyLen);
    if (record_crc(rec, seq) != rec.crc) {
      st.invalid++;  // torn overwrite or stale seq — never returned
      continue;
    }
    st.valid++;
    st.max_seq = std::max(st.max_seq, seq);
    out.push_back({seq, rec});
  }
  std::sort(out.begin(), out.end(),
            [](const RecoveredFlight& a, const RecoveredFlight& b) {
              return a.seq < b.seq;
            });
  st.contiguous =
      out.empty() || out.back().seq - out.front().seq + 1 == st.valid;
  if (stats != nullptr) *stats = st;
  return out;
}

}  // namespace papm::obs

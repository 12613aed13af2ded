// Write-ahead log in PM.
//
// NoveLSM's PM memtable drops the log; classic LevelDB keeps one. The
// LsmStore exposes both modes so the benches can show what the log costs
// on PM (ablation around §2.1's "appending writes to a sequential
// journal").
//
// Record layout (all little-endian, appended at the persisted tail):
//   u32 crc (masked, covers type..value)  u8 type  u32 klen  u32 vlen
//   key bytes  value bytes
// The tail offset is persisted after each append (write-ahead ordering:
// record first, then tail pointer).
#pragma once

#include <functional>
#include <string_view>

#include "common/crc32c.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "pm/flush_batch.h"
#include "pm/pm_device.h"

namespace papm::storage {

enum class WalRecordType : u8 { put = 1, erase = 2 };

class Wal {
 public:
  /// Formats a log over [base, base+len) and registers root `name`;
  /// header durable before returning.
  static Wal create(pm::PmDevice& dev, std::string_view name, u64 base, u64 len);
  /// Re-attaches post-crash; writes nothing (idempotent).
  static Result<Wal> recover(pm::PmDevice& dev, std::string_view name);

  /// Appends and persists one record. out_of_space when full.
  /// Write-ahead ordering: the CRC-framed record is persisted *before*
  /// the 8-byte tail pointer is published and persisted, so a crash
  /// anywhere inside append() leaves the previous tail intact and the
  /// half-written record invisible. The record is durable iff append()
  /// returned ok — the WAL's ack boundary.
  Status append(WalRecordType type, std::string_view key,
                std::span<const u8> value);

  /// Replays all complete records in order. Truncated/corrupt tail records
  /// (torn writes) stop replay cleanly — they were never acknowledged.
  /// Returns the number of records applied. Read-only.
  u64 replay(const std::function<void(WalRecordType, std::string_view,
                                      std::span<const u8>)>& apply) const;

  /// Logical reset (tail back to the start), persisted before returning.
  /// Callers must persist whatever state supersedes the log *first*.
  void truncate();

  [[nodiscard]] u64 bytes_used() const;
  [[nodiscard]] u64 capacity() const;

  // Group-commit routing: while the batcher is batching, an append's
  // record clwb's ride the epoch's first fence and the tail pointer is a
  // withheld publication retired by the second — write-ahead ordering is
  // preserved per epoch instead of per record. append() then means
  // "durable once the epoch the batcher acks in retires".
  void set_batcher(pm::FlushBatcher& b) noexcept { batcher_ = &b; }

  // Mirrors append/truncate activity into registry counters:
  // wal.appends / wal.append_bytes / wal.truncates.
  void set_metrics(obs::MetricRegistry* r) {
    m_appends_ = r != nullptr ? &r->counter("wal.appends") : nullptr;
    m_append_bytes_ = r != nullptr ? &r->counter("wal.append_bytes") : nullptr;
    m_truncates_ = r != nullptr ? &r->counter("wal.truncates") : nullptr;
  }

 private:
  struct Header {
    u64 magic;
    u64 base;
    u64 len;
    u64 tail;  // absolute offset of next append
  };
  static constexpr u64 kMagic = 0x57'41'4c'2d'50'4d'31'00ULL;  // "WAL-PM1"

  Wal(pm::PmDevice& dev, u64 header_off) : dev_(&dev), header_off_(header_off) {}
  [[nodiscard]] const Header* hdr() const;
  // Stores and persists a new tail.
  void persist_tail(u64 tail);
  // Reads go through the device's const view (no pre-images taken).
  [[nodiscard]] const pm::PmDevice& dev() const { return *dev_; }

  pm::PmDevice* dev_;
  u64 header_off_;
  pm::FlushBatcher* batcher_ = &dev_->passthrough();
  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_append_bytes_ = nullptr;
  obs::Counter* m_truncates_ = nullptr;
};

}  // namespace papm::storage

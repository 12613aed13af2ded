// PM-persistent flight recorder: the last N requests survive the crash.
//
// The paper's pitch is that packet payloads the NIC lands in PM are
// already durable data structures — this applies the same argument to
// the stack's own telemetry. A FlightRecorder is a per-shard, fixed-size
// PM ring of compact per-request records (op id, per-stage latencies,
// commit-epoch serial, result code). In-memory traces die with the
// process at exactly the moment attribution matters most; the recorder's
// ring is what a post-mortem reads back.
//
// Durability protocol — same shape as every structure in this stack:
//
//   slot := [ seq u64 | body (80 B) | pad to 128 B ]
//
// The body is stored and flushed first; the 8-byte `seq` word is the
// *publication*: a slot is valid iff seq != 0 and the body's CRC
// (crc32c over the body with its crc field zeroed, extended with the
// seq value, masked) verifies. Under group commit the seq store goes
// through FlushBatcher::publish_u64, so it is withheld from every crash
// drain path until the epoch's first fence has made the body durable —
// a power cut at any flush/fence boundary leaves each slot either
// absent, or whole and correctly sequenced. Binding the CRC to the seq
// also closes the ring-reuse hazard: an old seq over a half-overwritten
// body fails the check, so a torn overwrite invalidates the slot rather
// than resurrecting a stale record.
//
// Recovery scans every slot of the ring, keeps the CRC-valid ones and
// orders them by seq. The crash harness reconciles the result against
// its AckLog: every acked op's record must be present (its publication
// retired before the ack was released); records beyond the last ack are
// the in-flight tail that attributes the crash point.
//
// The recorder is an ordinary PM structure; whether a *server* creates
// one is runtime policy (ServerConfig::flight_recorder, off by default),
// keeping default bench numbers bit-identical.
#pragma once

#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pm/flush_batch.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"

namespace papm::obs {

// One recorded request. 80 bytes, stored verbatim in the slot body.
// stage_ns is the request's Table-1 row (u32 ns per stage: 4.29 s per
// stage is plenty for a single request).
struct FlightRecord {
  u64 req = 0;            // server-assigned op id
  u64 t0_ns = 0;          // NIC ingress timestamp (sim ns)
  u64 epoch = 0;          // commit-epoch serial (0 = unbatched)
  u32 stage_ns[kStages] = {};
  u16 result = 0;         // HTTP status the op resolved to
  u8 op = 0;              // method byte: 'P' put, 'G' get, 'D' delete
  u8 pad = 0;
  u32 crc = 0;            // crc32c(body with crc=0, extended with seq), masked
};
static_assert(sizeof(FlightRecord) == 80);
static_assert(std::is_trivially_copyable_v<FlightRecord>);

// A validated slot, as recovery returns it.
struct RecoveredFlight {
  u64 seq = 0;
  FlightRecord rec;
};

class FlightRecorder {
 public:
  static constexpr u64 kSlotSize = 128;  // 8 B seq + 80 B body + pad, 2 lines
  static constexpr u64 kBodyLen = sizeof(FlightRecord);
  static constexpr u64 kHeaderLen = 64;  // magic/capacity/shard line

  /// Formats a fresh ring: allocates header + `capacity` slots from
  /// `pool`, zeroes and persists them (no stale seq can validate), and
  /// registers the region under the per-shard root "obs.flightrec<shard>".
  [[nodiscard]] static Result<FlightRecorder> create(pm::PmDevice& dev,
                                                     pm::PmPool& pool,
                                                     u16 shard, u32 capacity);

  /// Re-attaches to a formatted ring by root name; fails with not_found
  /// when the shard never created one, corrupted on a bad header. The
  /// attached recorder's seq resumes past the highest valid slot.
  [[nodiscard]] static Result<FlightRecorder> recover(pm::PmDevice& dev,
                                                      u16 shard);

  /// Routes flush/fence/publication through `b` (the device's
  /// pass-through batcher until set): withheld to the epoch close while
  /// it is batching, fence-per-record otherwise.
  void set_batcher(pm::FlushBatcher& b) noexcept { batcher_ = &b; }

  /// Registers obs.flightrec_records / obs.flightrec_wraps counters.
  void set_metrics(MetricRegistry* r);

  /// Appends one record, returning its publication seq (1-based,
  /// monotonic). Body first, flush; seq published after — withheld to
  /// the epoch close under group commit. May throw pm::PowerFailure
  /// under an armed fault plan, like every persistence call.
  u64 append(const FlightRecord& rec);

  struct ScanStats {
    u64 scanned = 0;     // slots inspected (== capacity)
    u64 valid = 0;       // slots whose seq+CRC verified
    u64 invalid = 0;     // nonzero-seq slots failing CRC (torn/stale)
    u64 max_seq = 0;
    bool contiguous = true;  // valid seqs form max_seq-valid+1 .. max_seq
  };

  /// Scans the whole ring, returning the CRC-valid records sorted by
  /// seq. Contiguity can legitimately break only inside the crashed
  /// epoch's unfenced publication tail — acked records are always a
  /// solid prefix.
  [[nodiscard]] std::vector<RecoveredFlight> scan(
      ScanStats* stats = nullptr) const;

  [[nodiscard]] u32 capacity() const noexcept { return capacity_; }
  [[nodiscard]] u16 shard() const noexcept { return shard_; }
  [[nodiscard]] u64 seq() const noexcept { return seq_; }
  [[nodiscard]] u64 wraps() const noexcept { return wraps_; }
  [[nodiscard]] u64 region() const noexcept { return region_; }

  /// CRC the append/scan protocol agrees on; exposed for tests that
  /// forge or corrupt slots.
  [[nodiscard]] static u32 record_crc(const FlightRecord& rec, u64 seq);

 private:
  FlightRecorder(pm::PmDevice& dev, u64 region, u32 capacity, u16 shard)
      : dev_(&dev), region_(region), capacity_(capacity), shard_(shard) {}

  [[nodiscard]] u64 slot_off(u64 index) const noexcept {
    return region_ + kHeaderLen + index * kSlotSize;
  }

  pm::PmDevice* dev_;
  u64 region_;
  u32 capacity_;
  u16 shard_;
  u64 seq_ = 0;    // last published seq (next append publishes seq_+1)
  u64 wraps_ = 0;  // appends that overwrote a previously written slot
  pm::FlushBatcher* batcher_ = &dev_->passthrough();
  Counter* m_records_ = nullptr;
  Counter* m_wraps_ = nullptr;
};

}  // namespace papm::obs

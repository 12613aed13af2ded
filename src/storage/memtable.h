// PM-backed memtable: persistent skip-list index over PM value records.
//
// This is the NoveLSM core ("replaces memtable with PM-backed one without
// the log", §2.1/§3). A put allocates a value record in PM, copies and
// checksums the value, persists it, and publishes it in the skip list —
// exactly the operations Table 1 prices (checksum 1.77 us, copy 1.14 us,
// alloc+insert 2.78 us, persist 1.94 us for 1 KB). Every step is
// individually toggleable via StoreKnobs and measurable via OpBreakdown.
//
// Value record layout at a PmPool block:
//   u32 value_len   u32 crc_masked (0 when checksumming is off)
//   u32 flags (bit0: tombstone)   u32 reserved
//   value bytes
#pragma once

#include <cstring>
#include <string_view>

#include "common/crc32c.h"
#include "container/pskiplist.h"
#include "storage/knobs.h"

namespace papm::storage {

class PmMemtable {
 public:
  static constexpr u64 kValueHdr = 16;

  /// Creates an empty memtable; index head durable under root `name`.
  static PmMemtable create(pm::PmDevice& dev, pm::PmPool& pool,
                           std::string_view name);
  /// Re-attaches post-crash (rebuilds the index's volatile towers; see
  /// PSkipList::recover for what that may write).
  static Result<PmMemtable> recover(pm::PmDevice& dev, pm::PmPool& pool,
                                    std::string_view name);

  /// Inserts or overwrites. `bd` (optional) receives the phase breakdown.
  /// Persistence contract: the checksummed value record is fully persisted
  /// *before* the index publishes it (8-byte payload link), so a crash
  /// mid-put exposes either the old value or the new one, never a torn
  /// record; the value is durable iff put() returned ok. A crash between
  /// record persist and index publish leaks the record's block.
  Status put(std::string_view key, std::span<const u8> value,
             const StoreKnobs& knobs, OpBreakdown* bd = nullptr) {
    return put_impl(key, value, /*flags=*/0, knobs, bd);
  }

  /// Deletion marker for LSM semantics: shadows older tables' entries.
  /// Same ordering contract as put() (a tombstone is a flagged record).
  Status put_tombstone(std::string_view key, const StoreKnobs& knobs,
                       OpBreakdown* bd = nullptr) {
    return put_impl(key, {}, kTombstone, knobs, bd);
  }

  // Raw lookup for the LSM read path: reports tombstones instead of
  // hiding them, and skips checksum verification.
  struct Entry {
    std::span<const u8> value;
    bool tombstone;
  };
  [[nodiscard]] Result<Entry> lookup(std::string_view key) const;

  /// Returns a copy of the value; verifies the checksum when one was
  /// stored (Errc::corrupted on mismatch — a torn record can never be
  /// returned as ok).
  Result<std::vector<u8>> get(std::string_view key) const;

  // Zero-copy view of the stored value (valid until the next mutation or
  // crash). No checksum verification.
  Result<std::span<const u8>> get_view(std::string_view key) const;

  /// Physical removal: the index persists the node's dead flag (the
  /// linearization point) before unlinking and freeing the record, so a
  /// mid-erase crash leaves the key either present-and-intact or gone.
  bool erase(std::string_view key);

  // fn(key, value_view, tombstone); ordered; stops early on false.
  template <typename Fn>
  void scan(std::string_view from, std::string_view to, Fn&& fn) const {
    index_.scan(from, to, [&](std::string_view k, u64 rec) {
      u32 flags;
      std::memcpy(&flags, dev().at(rec + 8, 4), 4);
      return fn(k, value_view(rec), (flags & kTombstone) != 0);
    });
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] Status validate() const { return index_.validate(); }

  // Back-to-back hint (group commit + warm index); see cost_model.h.
  void set_batched(bool b) noexcept {
    batched_ = b;
    index_.set_warm(b);
  }

  // Group-commit routing: value-record flushes ride the epoch fences, the
  // index routes its publications through the batcher, and replaced
  // records are quarantined past the epoch close (an old value must
  // outlive every cut that could still resurrect it).
  void set_batcher(pm::FlushBatcher& b) noexcept {
    batcher_ = &b;
    index_.set_batcher(b);
  }

 private:
  static constexpr u32 kTombstone = 1;

  PmMemtable(pm::PmDevice& dev, pm::PmPool& pool,
             container::PSkipList index)
      : dev_(&dev), pool_(&pool), index_(std::move(index)) {}

  Status put_impl(std::string_view key, std::span<const u8> value, u32 flags,
                  const StoreKnobs& knobs, OpBreakdown* bd);
  [[nodiscard]] std::span<const u8> value_view(u64 rec) const;
  [[nodiscard]] static u64 record_bytes(u64 value_len) noexcept {
    return kValueHdr + value_len;
  }

  // Reads go through the device's const view (no pre-images taken).
  [[nodiscard]] const pm::PmDevice& dev() const { return *dev_; }

  pm::PmDevice* dev_;
  pm::PmPool* pool_;
  container::PSkipList index_;
  pm::FlushBatcher* batcher_ = &dev_->passthrough();
  bool batched_ = false;
  // Scratch destination used when index insertion is disabled (the §3
  // "skip this logical operation" configuration): the copy and flush
  // still happen, but no allocation does.
  u64 scratch_ = 0;
  u64 scratch_cap_ = 0;
};

}  // namespace papm::storage

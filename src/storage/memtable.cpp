#include "storage/memtable.h"

#include <cstring>

namespace papm::storage {

namespace {
// Scoped phase timer: adds elapsed simulated time to *out on destruction.
class Phase {
 public:
  Phase(sim::Env& env, SimTime* out) : env_(env), out_(out), t0_(env.now()) {}
  ~Phase() {
    if (out_ != nullptr) *out_ += env_.now() - t0_;
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  sim::Env& env_;
  SimTime* out_;
  SimTime t0_;
};
}  // namespace

PmMemtable PmMemtable::create(pm::PmDevice& dev, pm::PmPool& pool,
                              std::string_view name) {
  const std::string index_name = std::string(name) + ".idx";
  auto index = container::PSkipList::create(dev, pool, index_name);
  return PmMemtable(dev, pool, std::move(index));
}

Result<PmMemtable> PmMemtable::recover(pm::PmDevice& dev, pm::PmPool& pool,
                                       std::string_view name) {
  const std::string index_name = std::string(name) + ".idx";
  auto index = container::PSkipList::recover(dev, pool, index_name);
  if (!index.ok()) return index.errc();
  return PmMemtable(dev, pool, std::move(index.value()));
}

Status PmMemtable::put_impl(std::string_view key, std::span<const u8> value,
                            u32 flags, const StoreKnobs& knobs,
                            OpBreakdown* bd) {
  auto& env = dev_->env();

  // Phase 1: request preparation. LevelDB builds a WriteBatch and an
  // internal-key record before touching the memtable; we charge the
  // calibrated cost and do the small real equivalent (the record header).
  u8 rec_hdr[kValueHdr] = {};
  {
    Phase p(env, bd != nullptr ? &bd->prep_ns : nullptr);
    if (knobs.request_prep) {
      const auto prep = static_cast<SimTime>(
          static_cast<double>(env.cost.request_prep_ns) *
          (batched_ ? env.cost.batched_prep_scale : 1.0));
      env.clock().advance(prep);
    }
    const u32 vlen = static_cast<u32>(value.size());
    std::memcpy(rec_hdr, &vlen, 4);
    std::memcpy(rec_hdr + 8, &flags, 4);
  }

  // Phase 2: checksum over the value (real CRC32C + calibrated charge).
  {
    Phase p(env, bd != nullptr ? &bd->checksum_ns : nullptr);
    if (knobs.checksum) {
      env.clock().advance(env.cost.crc32c_cost(value.size()));
      const u32 crc = crc32c_mask(crc32c(value));
      std::memcpy(rec_hdr + 4, &crc, 4);
    }
  }

  // Phase 3+4: allocation, copy, index insert. The allocation and insert
  // are one accounting bucket (Table 1 row "buffer allocation and
  // insertion"); the copy is its own row.
  u64 rec = 0;
  {
    Phase p(env, bd != nullptr ? &bd->alloc_insert_ns : nullptr);
    if (knobs.index_insert) {
      auto r = pool_->alloc(record_bytes(value.size()));
      if (!r.ok()) return r.errc();
      rec = r.value();
      dev_->store(rec, rec_hdr);
    }
  }
  if (!knobs.index_insert && knobs.data_copy) {
    // No allocation charge: reuse the scratch block (grown rarely).
    if (scratch_cap_ < record_bytes(value.size())) {
      pool_->set_charges(0, 0);
      auto r = pool_->alloc(record_bytes(value.size()));
      pool_->set_charges(-1, -1);
      if (!r.ok()) return r.errc();
      scratch_ = r.value();
      scratch_cap_ = record_bytes(value.size());
    }
    rec = scratch_;
    dev_->store(rec, rec_hdr);
  }
  {
    Phase p(env, bd != nullptr ? &bd->copy_ns : nullptr);
    if (knobs.data_copy && rec != 0) {
      env.clock().advance(env.cost.copy_cost(value.size()));
      dev_->store(rec + kValueHdr, value);
    }
  }

  // Phase 5: persistence — flush the value record to PM. Under group
  // commit the clwb's issue now but the fence is the epoch's.
  {
    Phase p(env, bd != nullptr ? &bd->persist_ns : nullptr);
    if (knobs.persistence && rec != 0) {
      batcher_->persist(rec, record_bytes(value.size()));
    }
  }

  // Back to alloc+insert: publish in the index.
  {
    Phase p(env, bd != nullptr ? &bd->alloc_insert_ns : nullptr);
    if (knobs.index_insert) {
      // Replace semantics: free the old record after publishing the new.
      u64 old_rec = 0;
      const Status st = index_.put(key, rec, &old_rec);
      if (!st.ok()) return st;
      if (old_rec != 0) {
        u32 old_len;
        std::memcpy(&old_len, dev().at(old_rec, 4), 4);
        const u64 old_bytes = record_bytes(old_len);
        // The replaced record must survive until no cut can resolve the
        // replacing publication to the old value — free past the close.
        batcher_->defer(
            [pool = pool_, old_rec, old_bytes] { pool->free(old_rec, old_bytes); });
      }
    }
    // No index: the scratch record is simply overwritten next time.
  }
  return Errc::ok;
}

std::span<const u8> PmMemtable::value_view(u64 rec) const {
  u32 vlen;
  std::memcpy(&vlen, dev().at(rec, 4), 4);
  return {dev().at(rec + kValueHdr, vlen), vlen};
}

Result<std::vector<u8>> PmMemtable::get(std::string_view key) const {
  const auto rec = index_.get(key);
  if (!rec.ok()) return rec.errc();
  auto& env = dev_->env();

  u32 vlen, crc, flags;
  std::memcpy(&vlen, dev().at(rec.value(), 4), 4);
  std::memcpy(&crc, dev().at(rec.value() + 4, 4), 4);
  std::memcpy(&flags, dev().at(rec.value() + 8, 4), 4);
  if ((flags & kTombstone) != 0) return Errc::not_found;
  const std::span<const u8> view(dev().at(rec.value() + kValueHdr, vlen), vlen);

  if (crc != 0) {
    env.clock().advance(env.cost.crc32c_cost(vlen));
    if (crc32c_unmask(crc) != crc32c(view)) return Errc::corrupted;
  }
  env.clock().advance(env.cost.copy_cost(vlen));
  return std::vector<u8>(view.begin(), view.end());
}

Result<std::span<const u8>> PmMemtable::get_view(std::string_view key) const {
  const auto rec = index_.get(key);
  if (!rec.ok()) return rec.errc();
  return value_view(rec.value());
}

Result<PmMemtable::Entry> PmMemtable::lookup(std::string_view key) const {
  const auto rec = index_.get(key);
  if (!rec.ok()) return rec.errc();
  u32 flags;
  std::memcpy(&flags, dev().at(rec.value() + 8, 4), 4);
  return Entry{value_view(rec.value()), (flags & kTombstone) != 0};
}

bool PmMemtable::erase(std::string_view key) {
  const auto rec = index_.get(key);
  if (!rec.ok()) return false;
  u32 vlen;
  std::memcpy(&vlen, dev().at(rec.value(), 4), 4);
  if (!index_.erase(key)) return false;
  const u64 rec_off = rec.value();
  const u64 rec_bytes = record_bytes(vlen);
  batcher_->defer([pool = pool_, rec_off, rec_bytes] { pool->free(rec_off, rec_bytes); });
  return true;
}

}  // namespace papm::storage

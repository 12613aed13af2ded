#include "storage/lsm_store.h"

#include <map>

namespace papm::storage {

namespace {
constexpr u64 kMaxLiveTables = 7;

// Meta root value: live table range [first, next).
constexpr u64 pack_meta(u64 first, u64 next) { return first << 32 | next; }
constexpr u64 meta_first(u64 v) { return v >> 32; }
constexpr u64 meta_next(u64 v) { return v & 0xffffffffu; }
}  // namespace

void LsmStore::persist_count() {
  const u64 first = next_table_ - 1 - frozen_.size();
  (void)dev_->set_root(name_ + ".meta", pack_meta(first, next_table_));
}

LsmStore LsmStore::create(pm::PmDevice& dev, pm::PmPool& pool,
                          std::string_view name, LsmOptions opts) {
  LsmStore store(dev, pool, std::string(name), opts);
  store.active_ = PmMemtable::create(dev, pool, store.table_name(0));
  store.next_table_ = 1;
  store.persist_count();
  if (opts.use_wal) {
    auto span = pool.alloc(opts.wal_bytes);
    if (!span.ok()) throw std::runtime_error("LsmStore: no space for WAL");
    store.wal_ = Wal::create(dev, std::string(name) + ".wal",
                             align_up(span.value(), kCacheLine),
                             opts.wal_bytes - kCacheLine);
  }
  return store;
}

Result<LsmStore> LsmStore::recover(pm::PmDevice& dev, pm::PmPool& pool,
                                   std::string_view name, LsmOptions opts) {
  const auto meta = dev.get_root(std::string(name) + ".meta");
  if (!meta.ok()) return meta.errc();
  const u64 first = meta_first(meta.value());
  const u64 next = meta_next(meta.value());
  if (next <= first || next - first > kMaxLiveTables + 1) return Errc::corrupted;

  LsmStore store(dev, pool, std::string(name), opts);
  store.next_table_ = next;
  for (u64 n = first; n < next; n++) {
    auto table = PmMemtable::recover(dev, pool, store.table_name(n));
    if (!table.ok()) return table.errc();
    if (n + 1 == next) {
      store.active_ = std::move(table.value());
    } else {
      store.frozen_.push_back(std::move(table.value()));
    }
  }
  if (opts.use_wal) {
    auto wal = Wal::recover(dev, std::string(name) + ".wal");
    if (!wal.ok()) return wal.errc();
    store.wal_ = std::move(wal.value());
    // Replay the tail into the (already durable) active table; puts are
    // idempotent, so double-application is harmless.
    StoreKnobs replay_knobs;  // full pipeline
    store.wal_->replay([&](WalRecordType t, std::string_view k,
                           std::span<const u8> v) {
      if (t == WalRecordType::put) {
        (void)store.active_->put(k, v, replay_knobs);
      } else {
        (void)store.active_->put_tombstone(k, replay_knobs);
      }
    });
  }
  return store;
}

Status LsmStore::put(std::string_view key, std::span<const u8> value,
                     OpBreakdown* bd) {
  obs::inc(m_puts_);
  if (wal_.has_value()) {
    Status st = wal_->append(WalRecordType::put, key, value);
    if (st.errc() == Errc::out_of_space) {
      // LevelDB behaviour: a full log forces a memtable switch, which
      // makes the log tail redundant and truncates it.
      Status rot = rotate();
      if (rot.errc() == Errc::out_of_space) rot = compact();
      if (!rot.ok()) return rot;
      if (wal_->bytes_used() > 0) wal_->truncate();
      st = wal_->append(WalRecordType::put, key, value);
    }
    if (!st.ok()) return st;
  }
  const Status st = active_->put(key, value, opts_.knobs, bd);
  if (!st.ok()) return st;
  bytes_in_active_ += PmMemtable::kValueHdr + value.size() + key.size();
  return maybe_rotate();
}

Status LsmStore::put_pkts(std::string_view key, std::span<net::PktBuf*> pkts,
                          std::span<const u32> offs, std::span<const u32> lens,
                          OpBreakdown* bd) {
  const auto range = [&](std::size_t i) {
    net::PktBuf* pb = pkts[i];
    return pb->owner->payload(*pb).subspan(offs[i] - pb->payload_off, lens[i]);
  };
  // A value inside one packet goes to put() as a view.
  if (pkts.size() == 1) return put(key, range(0), bd);
  std::vector<u8> value;
  for (std::size_t i = 0; i < pkts.size(); i++) {
    const auto r = range(i);
    value.insert(value.end(), r.begin(), r.end());
  }
  return put(key, value, bd);
}

Status LsmStore::erase(std::string_view key) {
  obs::inc(m_erases_);
  if (!live(key)) return Errc::not_found;  // nothing to log or shadow
  if (wal_.has_value()) {
    Status st = wal_->append(WalRecordType::erase, key, {});
    if (st.errc() == Errc::out_of_space) {
      Status rot = rotate();
      if (rot.errc() == Errc::out_of_space) rot = compact();
      if (!rot.ok()) return rot;
      if (wal_->bytes_used() > 0) wal_->truncate();
      st = wal_->append(WalRecordType::erase, key, {});
    }
    if (!st.ok()) return st;
  }
  // In the single-table configuration a tombstone has nothing to shadow;
  // physically erase instead so memory is reclaimed.
  if (frozen_.empty()) {
    active_->erase(key);
    return Errc::ok;
  }
  const Status st = active_->put_tombstone(key, opts_.knobs);
  if (!st.ok()) return st;
  return maybe_rotate();
}

bool LsmStore::live(std::string_view key) const {
  if (const auto top = active_->lookup(key); top.ok()) return !top->tombstone;
  for (auto it = frozen_.rbegin(); it != frozen_.rend(); ++it) {
    if (const auto e = it->lookup(key); e.ok()) return !e->tombstone;
  }
  return false;
}

Result<std::vector<u8>> LsmStore::get(std::string_view key) const {
  obs::inc(m_gets_);
  const auto top = active_->lookup(key);
  if (top.ok()) {
    if (top->tombstone) return Errc::not_found;
    return active_->get(key);  // verified, copying read
  }
  for (auto it = frozen_.rbegin(); it != frozen_.rend(); ++it) {
    const auto e = it->lookup(key);
    if (e.ok()) {
      if (e->tombstone) return Errc::not_found;
      return it->get(key);
    }
  }
  return Errc::not_found;
}

Result<KvStore::Hit> LsmStore::lookup(std::string_view key, bool batched) {
  set_batched(batched);
  auto v = get(key);
  if (!v.ok()) return v.errc();
  Hit h;
  h.len = v->size();
  h.bytes = std::move(v.value());
  return h;
}

void LsmStore::scan(
    std::string_view from, std::string_view to,
    const std::function<bool(std::string_view, std::span<const u8>)>& fn) const {
  // Merge newest-first: the first writer of a key wins.
  struct Hit {
    std::span<const u8> value;
    bool tombstone;
  };
  std::map<std::string, Hit, std::less<>> merged;
  auto absorb = [&](const PmMemtable& t) {
    t.scan(from, to, [&](std::string_view k, std::span<const u8> v, bool tomb) {
      merged.emplace(std::string(k), Hit{v, tomb});  // keeps newest
      return true;
    });
  };
  absorb(*active_);
  for (auto it = frozen_.rbegin(); it != frozen_.rend(); ++it) absorb(*it);
  for (const auto& [k, hit] : merged) {
    if (hit.tombstone) continue;
    if (!fn(k, hit.value)) return;
  }
}

Status LsmStore::maybe_rotate() {
  if (opts_.memtable_limit_bytes == 0 ||
      bytes_in_active_ < opts_.memtable_limit_bytes) {
    return Errc::ok;
  }
  return rotate();
}

Status LsmStore::rotate() {
  if (active_->size() == 0) return Errc::ok;
  if (frozen_.size() + 1 >= kMaxLiveTables) return Errc::out_of_space;
  obs::inc(m_rotations_);
  frozen_.push_back(std::move(*active_));
  active_ = PmMemtable::create(*dev_, *pool_, table_name(next_table_));
  active_->set_batcher(*batcher_);
  next_table_++;
  bytes_in_active_ = 0;
  persist_count();
  // The frozen tables are durable in PM; the log tail is now redundant.
  if (wal_.has_value()) wal_->truncate();
  return Errc::ok;
}

Status LsmStore::compact() {
  if (frozen_.empty()) return Errc::ok;
  // Merge everything into a fresh table; tombstones drop out entirely.
  auto merged = PmMemtable::create(*dev_, *pool_, table_name(next_table_));
  StoreKnobs knobs = opts_.knobs;
  std::map<std::string, std::pair<std::vector<u8>, bool>, std::less<>> entries;
  auto absorb = [&](const PmMemtable& t) {
    t.scan("", "", [&](std::string_view k, std::span<const u8> v, bool tomb) {
      entries.emplace(std::string(k),
                      std::make_pair(std::vector<u8>(v.begin(), v.end()), tomb));
      return true;
    });
  };
  absorb(*active_);
  for (auto it = frozen_.rbegin(); it != frozen_.rend(); ++it) absorb(*it);

  for (const auto& [k, e] : entries) {
    if (e.second) continue;  // tombstone: drop
    const Status st = merged.put(k, e.first, knobs);
    if (!st.ok()) return st;
  }
  // Reclaim old tables' records. (Skip-list head nodes are not reclaimed;
  // see DESIGN.md "known simplifications".)
  auto drain = [&](PmMemtable& t) {
    std::vector<std::string> keys;
    t.scan("", "", [&](std::string_view k, std::span<const u8>, bool) {
      keys.emplace_back(k);
      return true;
    });
    for (const auto& k : keys) t.erase(k);
  };
  drain(*active_);
  for (auto& t : frozen_) drain(t);
  frozen_.clear();
  active_ = std::move(merged);
  active_->set_batcher(*batcher_);
  next_table_++;
  bytes_in_active_ = 0;
  persist_count();
  return Errc::ok;
}

std::size_t LsmStore::entries() const noexcept {
  std::size_t n = active_->size();
  for (const auto& t : frozen_) n += t.size();
  return n;
}

}  // namespace papm::storage

#include "container/pskiplist.h"

#include <cstring>
#include <utility>

namespace papm::container {

namespace {
// Node field offsets (see layout comment in the header).
constexpr u64 kOffHeight = 0;
constexpr u64 kOffFlags = 2;
constexpr u64 kOffKeyLen = 4;
constexpr u64 kOffPayload = 8;
constexpr u64 kOffTower = 16;
}  // namespace

// Field reads go through the device's const view, which (unlike at() on a
// mutable device) does not mark the page as possibly written.
u16 PSkipList::node_height(u64 n) const {
  u16 h;
  std::memcpy(&h, std::as_const(*dev_).at(n + kOffHeight, 2), 2);
  return h;
}

bool PSkipList::is_dead(u64 n) const {
  u16 f;
  std::memcpy(&f, std::as_const(*dev_).at(n + kOffFlags, 2), 2);
  return (f & kDead) != 0;
}

std::string_view PSkipList::node_key(u64 n) const {
  u32 len;
  std::memcpy(&len, std::as_const(*dev_).at(n + kOffKeyLen, 4), 4);
  const u64 key_at = n + kOffTower + 8 * static_cast<u64>(node_height(n));
  return {reinterpret_cast<const char*>(std::as_const(*dev_).at(key_at, len)), len};
}

void PSkipList::publish_next(u64 n, int level, u64 to) {
  set_next(n, level, to);
  dev_->persist(n + kOffTower + 8 * static_cast<u64>(level), 8);
}

bool PSkipList::is_fresh(u64 n) {
  if (!batching()) return false;
  if (fresh_serial_ != batcher_->epoch_serial()) {
    fresh_.clear();
    fresh_serial_ = batcher_->epoch_serial();
  }
  return fresh_.count(n) != 0;
}

void PSkipList::note_fresh(u64 n) {
  if (fresh_serial_ != batcher_->epoch_serial()) {
    fresh_.clear();
    fresh_serial_ = batcher_->epoch_serial();
  }
  fresh_.insert(n);
}

void PSkipList::publish_word(u64 off, u64 value, bool fresh) {
  if (fresh) {
    // The target word lives in a node born this epoch: its line is plain
    // epoch content, covered by the close's first fence, and the node
    // itself only becomes reachable through a withheld publication that
    // retires at the second fence — so an early drain of this word can
    // never dangle.
    dev_->store_u64(off, value);
    batcher_->flush(off, 8);
    return;
  }
  batcher_->publish_u64(off, value);
}

int PSkipList::random_height() {
  int h = 1;
  while (h < kMaxHeight && dev_->env().rng.next_below(kBranching) == 0) h++;
  return h;
}

void PSkipList::charge_visits(u64 visits) const {
  auto& env = dev_->env();
  const double cold_p =
      opts_.cold_visit_p * (warm_ ? env.cost.batched_warm_scale : 1.0);
  const double cold = cold_p * static_cast<double>(visits);
  env.clock().advance(static_cast<SimTime>(
      cold * static_cast<double>(env.cost.pm_read_ns) +
      (static_cast<double>(visits) - cold) *
          static_cast<double>(env.cost.dram_read_ns) * 0.15));
}

u64 PSkipList::find_greater_or_equal(std::string_view key, u64* prev) const {
  walks_++;
  last_visits_ = 0;
  u64 x = head_;
  int level = height_ - 1;
  while (true) {
    const u64 next = next_of(x, level);
    bool descend;
    if (next == 0) {
      descend = true;
    } else {
      last_visits_++;
      descend = node_key(next) >= key;
    }
    if (!descend) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) {
        charge_visits(last_visits_);
        return next;
      }
      level--;
    }
  }
}

PSkipList PSkipList::create(pm::PmDevice& dev, pm::PmPool& pool,
                            std::string_view name, Options opts) {
  const u64 bytes = node_bytes(kMaxHeight, 0);
  auto head = pool.alloc(bytes);
  if (!head.ok()) throw std::runtime_error("PSkipList: pool exhausted");
  const u64 h = head.value();
  // Zero the head: height, no flags, empty key, null tower.
  std::vector<u8> zero(bytes, 0);
  const u16 height = kMaxHeight;
  std::memcpy(zero.data() + kOffHeight, &height, 2);
  dev.store(h, zero);
  dev.persist(h, bytes);
  if (!dev.set_root(name, h).ok()) {
    throw std::runtime_error("PSkipList: root table full");
  }
  return PSkipList(dev, pool, h, opts);
}

Result<PSkipList> PSkipList::recover(pm::PmDevice& dev, pm::PmPool& pool,
                                     std::string_view name, Options opts) {
  const auto root = dev.get_root(name);
  if (!root.ok()) return root.errc();
  PSkipList list(dev, pool, root.value(), opts);
  if (list.node_height(list.head_) != kMaxHeight) return Errc::corrupted;
  list.rebuild_towers();
  return list;
}

void PSkipList::rebuild_towers() {
  // Pass 1: walk level 0, unlinking dead nodes and counting/validating.
  auto& clock = dev_->env().clock();
  const SimTime start_ns = clock.now();
  SimTime tower_ns = 0;
  u64 prev_at[kMaxHeight];
  for (auto& p : prev_at) p = head_;
  size_ = 0;
  height_ = 1;

  u64 prev0 = head_;
  u64 n = next_of(head_, 0);
  while (n != 0) {
    // The backbone scan is a cold sequential read of PM-resident nodes.
    clock.advance(dev_->env().cost.pm_read_ns);
    const u64 nxt = next_of(n, 0);
    if (is_dead(n)) {
      // Physically unlink and reclaim. Repairs stay durable even in
      // shadow mode: level 0 is the persistent backbone.
      publish_next(prev0, 0, nxt);
      pool_->free(n, node_bytes(node_height(n), static_cast<u32>(node_key(n).size())));
      n = nxt;
      continue;
    }
    const int h = node_height(n);
    if (h > height_) height_ = h;
    // Relink every level of this node's tower. With DRAM-shadowed towers
    // the links are raw memory writes; otherwise they are clwb'd hints.
    const SimTime t0 = clock.now();
    for (int i = 1; i < h; i++) {
      if (opts_.shadow_towers) {
        set_next_volatile(prev_at[i], i, n);
        prev_at[i] = n;
        set_next_volatile(n, i, 0);
      } else {
        set_next(prev_at[i], i, n);
        dev_->clwb(prev_at[i] + kOffTower + 8 * static_cast<u64>(i), 8);
        prev_at[i] = n;
        set_next(n, i, 0);
        dev_->clwb(n + kOffTower + 8 * static_cast<u64>(i), 8);
      }
      // Either way the rebuild pays a DRAM write per link.
      clock.advance(dev_->env().cost.dram_read_ns);
    }
    tower_ns += clock.now() - t0;
    size_++;
    prev0 = n;
    n = nxt;
  }
  // Terminate rebuilt towers above level 0 and at unused head levels.
  const SimTime t1 = clock.now();
  for (int i = 1; i < kMaxHeight; i++) {
    if (prev_at[i] != head_ || next_of(head_, i) != 0) {
      if (opts_.shadow_towers) {
        set_next_volatile(prev_at[i], i, 0);
      } else {
        set_next(prev_at[i], i, 0);
        dev_->clwb(prev_at[i] + kOffTower + 8 * static_cast<u64>(i), 8);
      }
    }
  }
  if (!opts_.shadow_towers) dev_->sfence();
  tower_ns += clock.now() - t1;
  recover_stats_.tower_ns = tower_ns;
  recover_stats_.scan_ns = (clock.now() - start_ns) - tower_ns;
}

Status PSkipList::put(std::string_view key, u64 payload, u64* old_payload) {
  if (key.empty() || key.size() > 0xffffffu) return Errc::invalid_argument;
  u64 prev[kMaxHeight];
  for (auto& p : prev) p = head_;
  const u64 found = find_greater_or_equal(key, prev);

  if (found != 0 && node_key(found) == key) {
    if (!is_dead(found) && old_payload != nullptr) {
      *old_payload = node_payload(found);
    }
    if (is_dead(found)) {
      // Resurrect: republish payload, then clear the dead flag. Two
      // dependent publications need an ordering point between them, so
      // this cold path stays on direct device fences even mid-epoch
      // (extra fences inside an open epoch are always safe).
      dev_->store_u64(found + kOffPayload, payload);
      dev_->persist(found + kOffPayload, 8);
      const u16 flags = 0;
      dev_->store(found + kOffFlags,
                  std::span<const u8>(reinterpret_cast<const u8*>(&flags), 2));
      dev_->persist(found + kOffFlags, 2);
      size_++;
    } else {
      // Update linearizes on the 8-byte payload word.
      publish_word(found + kOffPayload, payload, is_fresh(found));
    }
    return Errc::ok;
  }

  const int h = random_height();
  const u64 bytes = node_bytes(h, static_cast<u32>(key.size()));
  auto node = pool_->alloc(bytes);
  if (!node.ok()) return Errc::out_of_space;
  const u64 n = node.value();

  // 1. Construct the node in place, including its own tower links.
  const u16 height = static_cast<u16>(h);
  const u16 flags = 0;
  const u32 klen = static_cast<u32>(key.size());
  u8 fixed[16];
  std::memcpy(fixed + kOffHeight, &height, 2);
  std::memcpy(fixed + kOffFlags, &flags, 2);
  std::memcpy(fixed + kOffKeyLen, &klen, 4);
  std::memcpy(fixed + kOffPayload, &payload, 8);
  dev_->store(n, fixed);
  for (int i = 0; i < h; i++) {
    set_next(n, i, i < height_ ? next_of(prev[i], i) : 0);
  }
  dev_->store(n + kOffTower + 8 * static_cast<u64>(h),
              std::span<const u8>(reinterpret_cast<const u8*>(key.data()), key.size()));
  batcher_->persist(n, bytes);  // batching: clwb now, fence at epoch close
  if (batching()) note_fresh(n);

  if (h > height_) height_ = h;

  // 2. Linearization point: publish into level 0.
  publish_word(prev[0] + kOffTower, n, is_fresh(prev[0]));

  // 3. Shortcut levels. DRAM-shadowed towers are raw writes — never
  // flushed, never fenced; recovery rebuilds them from the backbone.
  if (opts_.shadow_towers) {
    for (int i = 1; i < h; i++) set_next_volatile(prev[i], i, n);
  } else {
    // Hints may drain unordered — recovery overwrites every tower.
    for (int i = 1; i < h; i++) {
      set_next(prev[i], i, n);
      batcher_->flush(prev[i] + kOffTower + 8 * static_cast<u64>(i), 8);
    }
    if (h > 1) batcher_->fence();
  }

  size_++;
  return Errc::ok;
}

Result<u64> PSkipList::get(std::string_view key) const {
  const u64 n = find_greater_or_equal(key, nullptr);
  if (n == 0 || is_dead(n) || node_key(n) != key) return Errc::not_found;
  return node_payload(n);
}

bool PSkipList::erase(std::string_view key) {
  u64 prev[kMaxHeight];
  for (auto& p : prev) p = head_;
  const u64 n = find_greater_or_equal(key, prev);
  if (n == 0 || is_dead(n) || node_key(n) != key) return false;

  const int h = node_height(n);
  const u64 bytes = node_bytes(h, static_cast<u32>(key.size()));

  if (batching()) {
    // Batched erase linearizes on the *level-0 unlink* (one withheld
    // 8-byte publication) instead of the dead flag: publishing a flag
    // word inside a possibly-epoch-born node would race its birth
    // content. The flag is set volatile for in-memory readers only; the
    // node's block is quarantined past the epoch close so its bytes stay
    // intact while a cut could still resolve the unlink either way.
    if (next_of(prev[0], 0) == n) {
      publish_word(prev[0] + kOffTower, next_of(n, 0), is_fresh(prev[0]));
    }
    const u16 flags = kDead;
    dev_->store_volatile(n + kOffFlags,
                         std::span<const u8>(reinterpret_cast<const u8*>(&flags), 2));
    for (int i = h - 1; i >= 1; i--) {
      if (next_of(prev[i], i) != n) continue;
      if (opts_.shadow_towers) {
        set_next_volatile(prev[i], i, next_of(n, i));
      } else {
        set_next(prev[i], i, next_of(n, i));
        batcher_->flush(prev[i] + kOffTower + 8 * static_cast<u64>(i), 8);
      }
    }
    batcher_->defer([pool = pool_, n, bytes] { pool->free(n, bytes); });
    size_--;
    return true;
  }

  // 1. Linearization point: persist the dead flag.
  const u16 flags = kDead;
  dev_->store(n + kOffFlags,
              std::span<const u8>(reinterpret_cast<const u8*>(&flags), 2));
  dev_->persist(n + kOffFlags, 2);

  // 2. Unlink top-down; each publish keeps the list consistent.
  for (int i = h - 1; i >= 0; i--) {
    if (next_of(prev[i], i) == n) {
      if (i >= 1 && opts_.shadow_towers) {
        set_next_volatile(prev[i], i, next_of(n, i));
      } else {
        publish_next(prev[i], i, next_of(n, i));
      }
    }
  }
  pool_->free(n, node_bytes(h, static_cast<u32>(key.size())));
  size_--;
  return true;
}

Status PSkipList::validate() const {
  // Level 0: strictly sorted.
  u64 n = next_of(head_, 0);
  std::string prev_key;
  bool first = true;
  while (n != 0) {
    const std::string_view k = node_key(n);
    if (!first && k <= prev_key) return Errc::corrupted;
    prev_key = std::string(k);
    first = false;
    n = next_of(n, 0);
  }
  // Upper levels: every link lands on a level-0-reachable node with
  // sufficient height, in sorted order.
  for (int lvl = 1; lvl < kMaxHeight; lvl++) {
    u64 x = next_of(head_, lvl);
    std::string last;
    bool f2 = true;
    while (x != 0) {
      if (node_height(x) <= lvl) return Errc::corrupted;
      const std::string_view k = node_key(x);
      if (!f2 && k <= last) return Errc::corrupted;
      last = std::string(k);
      f2 = false;
      x = next_of(x, lvl);
    }
  }
  return Errc::ok;
}

}  // namespace papm::container

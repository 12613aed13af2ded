#include "pm/pm_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

#include "pm/flush_batch.h"

namespace papm::pm {

PmDevice::LazyZero::LazyZero(u64 bytes) : bytes_(bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  p_ = static_cast<u8*>(p);
}

PmDevice::LazyZero::~LazyZero() { munmap(p_, bytes_); }

u64 PmDevice::checked_size(u64 size) {
  // LineState::pos indexes pending_order_ (up to two entries per line)
  // and holds dirty stamps, renumbered below 2^32 before the clock wraps.
  if (size % kCacheLine != 0 || size < sizeof(Header) + kCacheLine ||
      size / kCacheLine > (u64{1} << 30)) {
    throw std::invalid_argument("PmDevice: bad size");
  }
  return size;
}

PmDevice::PmDevice(sim::Env& env, u64 size)
    : env_(env),
      size_(checked_size(size)),
      mem_(size),
      persisted_(size),
      line_state_(size / kCacheLine * sizeof(LineState)),
      lines_(reinterpret_cast<LineState*>(line_state_.data())),
      passthrough_(std::make_unique<FlushBatcher>(*this)) {
  // Nothing else is written: both images start as untouched zero pages.
  Header* h = header();
  h->magic = kMagic;
  h->size = size;
  // The header is born durable: a real device would be formatted offline.
  std::memcpy(persisted_.data(), mem_.data(), sizeof(Header));
  mem_.touch(0, sizeof(Header));
  persisted_.touch(0, sizeof(Header));
}

PmDevice::~PmDevice() = default;

u64 PmDevice::data_base() const noexcept {
  return align_up(sizeof(Header), kCacheLine);
}

std::unique_ptr<PmDevice> PmDevice::clone_persisted() const {
  auto d = std::make_unique<PmDevice>(env_, size_);
  // What the DIMMs hold after the cut: the persisted image, verbatim —
  // including the root directory. The caches (dirty/pending/deferred)
  // died with the host. Pages never persisted are zero on both sides.
  persisted_.for_each_touched([&](u64 page) {
    const u64 off = page * kPage;
    const u64 n = std::min(kPage, size_ - off);
    std::memcpy(d->mem_.data() + off, persisted_.data() + off, n);
    std::memcpy(d->persisted_.data() + off, persisted_.data() + off, n);
  });
  d->mem_.touched = persisted_.touched;
  d->persisted_.touched = persisted_.touched;
  return d;
}

void PmDevice::throw_out_of_range() {
  throw std::out_of_range("PmDevice: access out of range");
}

void PmDevice::store(u64 offset, std::span<const u8> data) {
  check_range(offset, data.size());
  if (data.empty()) return;  // an empty span's data() may be null
  std::memcpy(mem_.data() + offset, data.data(), data.size());
  mark_dirty(offset, data.size());
}

void PmDevice::store_dma(u64 offset, std::span<const u8> data) {
  if (data.empty()) return;
  check_range(offset, data.size());
  const u64 end = offset + data.size();
  // A withheld publication must not become durable ahead of its epoch:
  // refuse the whole DMA before any byte lands.
  for (u64 line = offset / kCacheLine; line <= (end - 1) / kCacheLine; line++) {
    const u8 deferred = lines_[line].deferred;
    if (deferred == 0) continue;
    const u64 base = line * kCacheLine;
    const u64 first_word = (std::max(offset, base) - base) / 8;
    const u64 last_word = (std::min(end, base + kCacheLine) - 1 - base) / 8;
    const unsigned covered = ((2u << last_word) - 1) & ~((1u << first_word) - 1);
    if ((deferred & covered) != 0) {
      throw std::logic_error("PmDevice::store_dma: range covers a deferred word");
    }
  }
  // The DMA write lands in the PM controller directly: both images update,
  // no flush is owed for these bytes.
  std::memcpy(mem_.data() + offset, data.data(), data.size());
  std::memcpy(persisted_.data() + offset, data.data(), data.size());
  mem_.touch(offset, data.size());
  persisted_.touch(offset, data.size());
  // Lines fully covered by the DMA carry no stale CPU-side bytes any more;
  // partially covered edge lines keep whatever dirty state the CPU owes.
  const u64 first_full = align_up(offset, kCacheLine) / kCacheLine;
  const u64 last_full_end = (end / kCacheLine) * kCacheLine;
  for (u64 line = first_full; line * kCacheLine < last_full_end; line++) {
    LineState& ls = lines_[line];
    if ((ls.flags & kDirty) != 0) dirty_count_--;
    if ((ls.flags & kPending) != 0) pending_count_--;
    ls.flags = 0;
  }
  bump_fault_event();  // boundary right after placement (pre-publication)
}

void PmDevice::mark_dirty(u64 offset, u64 len) {
  if (len == 0) return;
  check_range(offset, len);
  mem_.touch(offset, len);
  const u64 first = offset / kCacheLine;
  const u64 last = (offset + len - 1) / kCacheLine;
  for (u64 line = first; line <= last; line++) {
    LineState& ls = lines_[line];
    if ((ls.flags & kDirty) != 0) continue;
    // A new store re-dirties a clwb'd line.
    if ((ls.flags & kPending) != 0) pending_count_--;
    if (dirty_clock_ == std::numeric_limits<u32>::max()) restamp_dirty();
    ls.pos = dirty_clock_++;
    ls.flags = kDirty;
    dirty_count_++;
  }
  if (dirty_count_ > epoch_.dirty_hwm) epoch_.dirty_hwm = dirty_count_;
  obs::peak(m_dirty_hwm_, dirty_count_);
}

void PmDevice::set_metrics(obs::MetricRegistry* r) {
  if (r == nullptr) {
    m_clwb_ = m_sfence_ = m_bytes_flushed_ = nullptr;
    m_sfence_deferred_ = m_clwb_coalesced_ = nullptr;
    m_dirty_hwm_ = m_pending_hwm_ = nullptr;
    return;
  }
  m_clwb_ = &r->counter("pm.clwb");
  m_sfence_ = &r->counter("pm.sfence");
  m_bytes_flushed_ = &r->counter("pm.bytes_flushed");
  m_sfence_deferred_ = &r->counter("pm.sfence_deferred");
  m_clwb_coalesced_ = &r->counter("pm.clwb_coalesced");
  m_dirty_hwm_ = &r->gauge("pm.dirty_lines_hwm");
  m_pending_hwm_ = &r->gauge("pm.pending_lines_hwm");
}

void PmDevice::bump_fault_event() {
  if (!plan_.has_value()) return;
  fault_events_++;
  if (plan_->crash_at_event != 0 && fault_events_ == plan_->crash_at_event) {
    power_cut();
    throw PowerFailure();
  }
}

void PmDevice::clwb(u64 offset, u64 len) {
  if (len == 0) return;
  check_range(offset, len);
  const u64 first = offset / kCacheLine;
  const u64 last = (offset + len - 1) / kCacheLine;
  for (u64 line = first; line <= last; line++) {
    LineState& ls = lines_[line];
    if ((ls.flags & kDirty) != 0) {
      enter_pending(line);
      ls.flags = kPending;
      dirty_count_--;
      pending_count_++;
    }
    total_clwb_++;
    epoch_.clwb++;
    obs::inc(m_clwb_);
    if (pending_count_ > epoch_.pending_hwm) epoch_.pending_hwm = pending_count_;
    obs::peak(m_pending_hwm_, pending_count_);
    env_.clock().advance(env_.cost.clwb_ns);
    bump_fault_event();  // the cut may fire with this line in flight
  }
}

template <class F>
void PmDevice::for_each_pending(F&& f) const {
  for (std::size_t i = 0; i < pending_order_.size(); i++) {
    const LineState& ls = lines_[pending_order_[i]];
    if ((ls.flags & kPending) != 0 && ls.pos == i) f(pending_order_[i]);
  }
}

void PmDevice::enter_pending(u64 line) {
  if (pending_order_.size() >= 2 * pending_count_ + 64) {
    std::size_t n = 0;
    for_each_pending([&](u64 l) {
      lines_[l].pos = static_cast<u32>(n);
      pending_order_[n++] = l;
    });
    pending_order_.resize(n);
  }
  lines_[line].pos = static_cast<u32>(pending_order_.size());
  pending_order_.push_back(line);
}

std::vector<u64> PmDevice::dirty_in_stamp_order() const {
  // A dirty line was written through mark_dirty, which touches its page.
  std::vector<u64> out;
  out.reserve(dirty_count_);
  const u64 nlines = size_ / kCacheLine;
  mem_.for_each_touched([&](u64 page) {
    const u64 end = std::min(nlines, (page + 1) * kLinesPerPage);
    for (u64 line = page * kLinesPerPage; line < end; line++) {
      if ((lines_[line].flags & kDirty) != 0) out.push_back(line);
    }
  });
  // Stamps are distinct among dirty lines: each came from dirty_clock_.
  std::sort(out.begin(), out.end(),
            [&](u64 a, u64 b) { return lines_[a].pos < lines_[b].pos; });
  return out;
}

void PmDevice::restamp_dirty() {
  // The clock is about to wrap: renumber the dirty lines 0..n-1, order
  // kept. n <= 2^30 (checked_size), so the clock restarts far below it.
  u32 n = 0;
  for (const u64 line : dirty_in_stamp_order()) lines_[line].pos = n++;
  dirty_clock_ = n;
}

void PmDevice::sfence() {
  for_each_pending([&](u64 line) {
    drain_line_whole(line);
    lines_[line].flags = 0;
  });
  epoch_.sfence++;
  epoch_.lines_drained += pending_count_;
  epoch_.bytes_flushed += pending_count_ * kCacheLine;
  obs::inc(m_sfence_);
  obs::inc(m_bytes_flushed_, pending_count_ * kCacheLine);
  pending_order_.clear();
  pending_count_ = 0;
  total_sfence_++;
  env_.clock().advance(env_.cost.sfence_ns);
  bump_fault_event();  // boundary after the fence retires
}

void PmDevice::store_u64(u64 offset, u64 value) {
  assert(offset % 8 == 0 && "store_u64 must be aligned");
  u8 buf[8];
  std::memcpy(buf, &value, 8);
  store(offset, buf);
}

u64 PmDevice::load_u64(u64 offset) const {
  u64 v;
  std::memcpy(&v, at(offset, 8), 8);
  return v;
}

void PmDevice::store_u64_deferred(u64 offset, u64 value) {
  assert(offset % 8 == 0 && "store_u64_deferred must be aligned");
  check_range(offset, 8);
  // The volatile view forwards the value to loads immediately, but the
  // word is withheld from every drain path until apply_deferred() — it is
  // deliberately *not* marked dirty, so eviction cannot leak it either.
  std::memcpy(mem_.data() + offset, &value, 8);
  mem_.touch(offset, 8);
  LineState& ls = lines_[offset / kCacheLine];
  const u8 bit = static_cast<u8>(1u << (offset % kCacheLine / 8));
  if ((ls.deferred & bit) == 0) {
    ls.deferred |= bit;
    deferred_words_++;
  }
}

void PmDevice::apply_deferred(u64 offset) {
  if (offset % 8 != 0 || offset >= size_) return;
  LineState& ls = lines_[offset / kCacheLine];
  const u8 bit = static_cast<u8>(1u << (offset % kCacheLine / 8));
  if ((ls.deferred & bit) == 0) return;
  ls.deferred &= static_cast<u8>(~bit);
  deferred_words_--;
  mark_dirty(offset, 8);
  clwb(offset, 8);
}

void PmDevice::drain_line_whole(u64 line) {
  const u64 base = line * kCacheLine;
  persisted_.touch(base, kCacheLine);
  const u8 deferred = lines_[line].deferred;
  if (deferred == 0) {
    std::memcpy(persisted_.data() + base, mem_.data() + base, kCacheLine);
    return;
  }
  for (u64 w = 0; w < kCacheLine / 8; w++) {
    if ((deferred >> w & 1) != 0) continue;  // withheld publication
    std::memcpy(persisted_.data() + base + w * 8, mem_.data() + base + w * 8, 8);
  }
}

void PmDevice::drain_line(u64 line, bool torn, Rng& rng) {
  if (!torn) {
    drain_line_whole(line);
    return;
  }
  // 8-byte persistence granularity: each aligned word independently made
  // it or didn't. store_u64 publications occupy exactly one word, so they
  // are never split — the atomicity contract crash-consistent code needs.
  // Deferred publications never drain at all: the CPU had not released
  // them from its (simulated) store buffer.
  const u64 base = line * kCacheLine;
  persisted_.touch(base, kCacheLine);
  const u8 deferred = lines_[line].deferred;
  for (u64 w = 0; w < kCacheLine / 8; w++) {
    if ((deferred >> w & 1) != 0) continue;
    if (rng.chance(0.5)) {
      std::memcpy(persisted_.data() + base + w * 8, mem_.data() + base + w * 8, 8);
    }
  }
}

void PmDevice::revert_volatile() {
  // Pages never touched in the volatile view already equal the persisted
  // image; the others revert (unapplied deferred publications with them).
  mem_.for_each_touched([&](u64 page) {
    const u64 off = page * kPage;
    const u64 n = std::min(kPage, size_ - off);
    if (persisted_.is_touched(page)) {
      std::memcpy(mem_.data() + off, persisted_.data() + off, n);
    } else {
      std::memset(mem_.data() + off, 0, n);
    }
    std::memset(lines_ + page * kLinesPerPage, 0,
                n / kCacheLine * sizeof(LineState));
  });
  pending_order_.clear();
  dirty_clock_ = 0;
  dirty_count_ = 0;
  pending_count_ = 0;
  deferred_words_ = 0;
}

void PmDevice::power_cut() {
  // Deterministic per crash point: fault draws never touch env_.rng, so
  // the workload's own stream is identical across sweep iterations.
  Rng rng(plan_->seed ^ (fault_events_ * 0x9e3779b97f4a7c15ULL));
  // In-flight (clwb'd, unfenced) lines, in clwb order: drain, tear, or
  // vanish.
  for_each_pending([&](u64 line) {
    if (rng.chance(plan_->unfenced_drain_p)) {
      drain_line(line, /*torn=*/false, rng);
    } else if (plan_->tear_p > 0 && rng.chance(plan_->tear_p)) {
      drain_line(line, /*torn=*/true, rng);
    }
  });
  // Dirty (never clwb'd) lines, in store order: normally lost with the
  // cache, but any may have been evicted — reaching PM unordered, possibly
  // torn.
  if (plan_->evict_dirty_p > 0) {
    for (const u64 line : dirty_in_stamp_order()) {
      if (rng.chance(plan_->evict_dirty_p)) {
        drain_line(line, plan_->tear_p > 0 && rng.chance(plan_->tear_p), rng);
      }
    }
  }
  revert_volatile();
}

void PmDevice::crash() {
  if (plan_.has_value()) {
    // An armed plan's semantics also govern manually triggered cuts.
    power_cut();
    return;
  }
  // Baseline semantics: clwb'd-but-unfenced lines raced the power loss;
  // each independently may or may not have drained (drawn in clwb order).
  for_each_pending([&](u64 line) {
    if (env_.rng.chance(0.5)) drain_line_whole(line);
  });
  revert_volatile();
}

Status PmDevice::set_root(std::string_view name, u64 offset) {
  if (name.empty() || name.size() > kMaxRootName) return Errc::invalid_argument;
  Header* h = header();
  RootEntry* slot = nullptr;
  for (auto& e : h->roots) {
    if (name == e.name) {
      slot = &e;
      break;
    }
    if (slot == nullptr && e.name[0] == '\0') slot = &e;
  }
  if (slot == nullptr) return Errc::out_of_space;
  std::memset(slot->name, 0, sizeof(slot->name));
  std::memcpy(slot->name, name.data(), name.size());
  slot->offset = offset;
  const u64 off = reinterpret_cast<const u8*>(slot) - mem_.data();
  mark_dirty(off, sizeof(RootEntry));
  persist(off, sizeof(RootEntry));
  return Errc::ok;
}

Result<u64> PmDevice::get_root(std::string_view name) const {
  for (const auto& e : header()->roots) {
    if (name == e.name) return e.offset;
  }
  return Errc::not_found;
}

}  // namespace papm::pm

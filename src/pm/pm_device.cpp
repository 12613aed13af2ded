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
      line_state_(size / kCacheLine * sizeof(LineState)),
      lines_(reinterpret_cast<LineState*>(line_state_.data())),
      passthrough_(std::make_unique<FlushBatcher>(*this)) {
  // Nothing else is written: the image starts as untouched zero pages.
  // The header takes no pre-image: it is born durable (a real device
  // would be formatted offline).
  Header* h = header();
  h->magic = kMagic;
  h->size = size;
  mem_.touch(0, sizeof(Header));
}

PmDevice::~PmDevice() = default;

u64 PmDevice::data_base() const noexcept {
  return align_up(sizeof(Header), kCacheLine);
}

std::unique_ptr<PmDevice> PmDevice::clone_persisted() const {
  auto d = std::make_unique<PmDevice>(env_, size_);
  // What the DIMMs hold after the cut: each touched page with the
  // pre-images of its lines laid over it — including the root directory.
  // The caches (dirty/pending/deferred) died with the host. A page whose
  // durable bytes are all zero stays untouched in the clone.
  u8 page_bytes[kPage];
  mem_.for_each_touched([&](u64 page) {
    const u64 off = page * kPage;
    const u64 n = std::min(kPage, size_ - off);
    std::memcpy(page_bytes, mem_.data() + off, n);
    for (u64 line = off / kCacheLine; line < (off + n) / kCacheLine; line++) {
      if (lines_[line].pre != 0) {
        std::memcpy(page_bytes + (line * kCacheLine - off), pre_of(line).bytes,
                    kCacheLine);
      }
    }
    if (std::all_of(page_bytes, page_bytes + n, [](u8 b) { return b == 0; })) return;
    std::memcpy(d->mem_.data() + off, page_bytes, n);
    d->mem_.touch(off, n);
  });
  return d;
}

void PmDevice::throw_out_of_range() {
  throw std::out_of_range("PmDevice: access out of range");
}

void PmDevice::take_preimage(u64 line) {
  if (pre_count_ == pre_chunks_.size() * kPreChunk) {
    pre_chunks_.push_back(std::make_unique_for_overwrite<PreImage[]>(kPreChunk));
  }
  PreImage& p = slot(pre_count_);
  std::memcpy(p.bytes, mem_.data() + line * kCacheLine, kCacheLine);
  p.line = static_cast<u32>(line);
  p.pos = 0;
  lines_[line].pre = static_cast<u32>(++pre_count_);
  if (pre_count_ > epoch_.preimage_hwm) epoch_.preimage_hwm = pre_count_;
}

void PmDevice::retire_preimage(u64 line) {
  const std::size_t i = lines_[line].pre - 1;
  const std::size_t last = --pre_count_;
  if (i != last) {
    PreImage& moved = slot(i);
    moved = slot(last);
    lines_[moved.line].pre = static_cast<u32>(i + 1);
  }
  lines_[line].pre = 0;
}

void PmDevice::store(u64 offset, std::span<const u8> data) {
  check_range(offset, data.size());
  if (data.empty()) return;  // an empty span's data() may be null
  mark_dirty(offset, data.size());  // takes the pre-images first
  std::memcpy(mem_.data() + offset, data.data(), data.size());
}

void PmDevice::store_volatile(u64 offset, std::span<const u8> data) {
  u8* p = at(offset, data.size());
  if (!data.empty()) std::memcpy(p, data.data(), data.size());
}

void PmDevice::store_dma(u64 offset, std::span<const u8> data) {
  if (data.empty()) return;
  check_range(offset, data.size());
  const u64 end = offset + data.size();
  const u64 first = offset / kCacheLine;
  const u64 last = (end - 1) / kCacheLine;
  // A withheld publication must not become durable ahead of its epoch:
  // refuse the whole DMA before any byte lands.
  for (u64 line = first; line <= last; line++) {
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
  // The DMA write lands in the PM controller directly: the bytes are
  // durable, no flush is owed for them. A fully covered line carries no
  // stale CPU-side bytes any more and drops its pre-image; a partially
  // covered edge line keeps whatever dirty state the CPU owes, and its
  // pre-image takes the covered bytes.
  for (u64 line = first; line <= last; line++) {
    LineState& ls = lines_[line];
    const u64 base = line * kCacheLine;
    const u64 lo = std::max(offset, base);
    const u64 hi = std::min(end, base + kCacheLine);
    if (hi - lo == kCacheLine) {
      if (ls.pre == 0) continue;  // clean: its line state stays untouched
      if ((ls.flags & kDirty) != 0) dirty_count_--;
      if ((ls.flags & kPending) != 0) pending_count_--;
      ls.flags = 0;
      retire_preimage(line);
    } else if (ls.pre != 0) {
      std::memcpy(pre_of(line).bytes + (lo - base), data.data() + (lo - offset),
                  hi - lo);
    }
  }
  std::memcpy(mem_.data() + offset, data.data(), data.size());
  mem_.touch(offset, data.size());
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
    if (ls.pre == 0) take_preimage(line);
    // A new store re-dirties a clwb'd line.
    if ((ls.flags & kPending) != 0) pending_count_--;
    if (dirty_clock_ == std::numeric_limits<u32>::max()) restamp_dirty();
    pre_of(line).pos = dirty_clock_++;
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
    const u64 line = pending_order_[i];
    if ((lines_[line].flags & kPending) != 0 && pre_of(line).pos == i) f(line);
  }
}

void PmDevice::enter_pending(u64 line) {
  if (pending_order_.size() >= 2 * pending_count_ + 64) {
    std::size_t n = 0;
    for_each_pending([&](u64 l) {
      pre_of(l).pos = static_cast<u32>(n);
      pending_order_[n++] = l;
    });
    pending_order_.resize(n);
  }
  pre_of(line).pos = static_cast<u32>(pending_order_.size());
  pending_order_.push_back(line);
}

std::vector<u64> PmDevice::dirty_in_stamp_order() const {
  // Every dirty line holds a pre-image (mark_dirty takes one).
  std::vector<u64> out;
  out.reserve(dirty_count_);
  for (std::size_t i = 0; i < pre_count_; i++) {
    const u64 line = slot(i).line;
    if ((lines_[line].flags & kDirty) != 0) out.push_back(line);
  }
  // Stamps are distinct among dirty lines: each came from dirty_clock_.
  std::sort(out.begin(), out.end(),
            [&](u64 a, u64 b) { return pre_of(a).pos < pre_of(b).pos; });
  return out;
}

void PmDevice::restamp_dirty() {
  // The clock is about to wrap: renumber the dirty lines 0..n-1, order
  // kept. n <= 2^30 (checked_size), so the clock restarts far below it.
  u32 n = 0;
  for (const u64 line : dirty_in_stamp_order()) pre_of(line).pos = n++;
  dirty_clock_ = n;
}

void PmDevice::sfence() {
  // Back to front: a line's pre-image was taken before it went pending,
  // so the newest sit at the end of the pool and retire without moving
  // another slot. No draw is made here, so the order is free.
  for (std::size_t i = pending_order_.size(); i-- > 0;) {
    const u64 line = pending_order_[i];
    if ((lines_[line].flags & kPending) != 0 && pre_of(line).pos == i) {
      drain_line_whole(line);
    }
  }
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
  // Its line's pre-image keeps the old word.
  prepare_write(offset, 8);
  std::memcpy(mem_.data() + offset, &value, 8);
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
  LineState& ls = lines_[line];
  assert(ls.pre != 0 && "a dirty or pending line holds a pre-image");
  ls.flags = 0;
  if (ls.deferred == 0) {
    retire_preimage(line);
    return;
  }
  // Withheld publications keep their durable words; the rest is durable.
  PreImage& p = pre_of(line);
  const u8* cur = mem_.data() + line * kCacheLine;
  for (u64 w = 0; w < kCacheLine / 8; w++) {
    if ((ls.deferred >> w & 1) == 0) std::memcpy(p.bytes + w * 8, cur + w * 8, 8);
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
  const u8 deferred = lines_[line].deferred;
  PreImage& p = pre_of(line);
  const u8* cur = mem_.data() + line * kCacheLine;
  for (u64 w = 0; w < kCacheLine / 8; w++) {
    if ((deferred >> w & 1) != 0) continue;
    if (rng.chance(0.5)) std::memcpy(p.bytes + w * 8, cur + w * 8, 8);
  }
}

void PmDevice::revert_volatile() {
  // A line without a pre-image is durable as it stands; the others revert
  // (unapplied deferred publications with them). Only lines with a
  // pre-image carry line state.
  for (std::size_t i = 0; i < pre_count_; i++) {
    const PreImage& p = slot(i);
    std::memcpy(mem_.data() + u64{p.line} * kCacheLine, p.bytes, kCacheLine);
    lines_[p.line] = LineState{};
  }
  pre_count_ = 0;
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
  RootEntry* entry = nullptr;
  for (auto& e : h->roots) {
    if (name == e.name) {
      entry = &e;
      break;
    }
    if (entry == nullptr && e.name[0] == '\0') entry = &e;
  }
  if (entry == nullptr) return Errc::out_of_space;
  const u64 off = reinterpret_cast<const u8*>(entry) - mem_.data();
  prepare_write(off, sizeof(RootEntry));
  std::memset(entry->name, 0, sizeof(entry->name));
  std::memcpy(entry->name, name.data(), name.size());
  entry->offset = offset;
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

#include "pm/pm_device.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace papm::pm {

PmDevice::PmDevice(sim::Env& env, u64 size) : env_(env), size_(size) {
  if (size % kCacheLine != 0 || size < sizeof(Header) + kCacheLine) {
    throw std::invalid_argument("PmDevice: bad size");
  }
  mem_.assign(size, 0);
  persisted_.assign(size, 0);
  Header* h = header();
  h->magic = kMagic;
  h->size = size;
  // The header is born durable: a real device would be formatted offline.
  std::memcpy(persisted_.data(), mem_.data(), sizeof(Header));
}

u64 PmDevice::data_base() const noexcept {
  return align_up(sizeof(Header), kCacheLine);
}

std::unique_ptr<PmDevice> PmDevice::clone_persisted() const {
  auto d = std::make_unique<PmDevice>(env_, size_);
  // What the DIMMs hold after the cut: the persisted image, verbatim —
  // including the root directory. The caches (dirty/pending/deferred)
  // died with the host.
  d->mem_ = persisted_;
  d->persisted_ = persisted_;
  return d;
}

void PmDevice::check_range(u64 offset, u64 len) const {
  if (offset > size_ || len > size_ - offset) {
    throw std::out_of_range("PmDevice: access out of range");
  }
}

u8* PmDevice::at(u64 offset, u64 len) {
  check_range(offset, len);
  accessed_bytes_ += len;
  return mem_.data() + offset;
}

const u8* PmDevice::at(u64 offset, u64 len) const {
  check_range(offset, len);
  accessed_bytes_ += len;
  return mem_.data() + offset;
}

void PmDevice::store(u64 offset, std::span<const u8> data) {
  check_range(offset, data.size());
  std::memcpy(mem_.data() + offset, data.data(), data.size());
  mark_dirty(offset, data.size());
}

void PmDevice::store_dma(u64 offset, std::span<const u8> data) {
  if (data.empty()) return;
  check_range(offset, data.size());
  // The DMA write lands in the PM controller directly: both images update,
  // no flush is owed for these bytes.
  std::memcpy(mem_.data() + offset, data.data(), data.size());
  std::memcpy(persisted_.data() + offset, data.data(), data.size());
  // Lines fully covered by the DMA carry no stale CPU-side bytes any more;
  // partially covered edge lines keep whatever dirty state the CPU owes.
  const u64 first_full = align_up(offset, kCacheLine) / kCacheLine;
  const u64 end = offset + data.size();
  const u64 last_full_end = (end / kCacheLine) * kCacheLine;
  for (u64 line = first_full; line * kCacheLine < last_full_end; line++) {
    dirty_.erase(line);
    pending_.erase(line);
  }
  bump_fault_event();  // boundary right after placement (pre-publication)
}

void PmDevice::mark_dirty(u64 offset, u64 len) {
  if (len == 0) return;
  check_range(offset, len);
  const u64 first = offset / kCacheLine;
  const u64 last = (offset + len - 1) / kCacheLine;
  for (u64 line = first; line <= last; line++) {
    dirty_.insert(line);
    pending_.erase(line);  // a new store re-dirties a clwb'd line
  }
  if (dirty_.size() > epoch_.dirty_hwm) epoch_.dirty_hwm = dirty_.size();
  obs::peak(m_dirty_hwm_, dirty_.size());
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
    if (dirty_.erase(line) > 0) pending_.insert(line);
    total_clwb_++;
    epoch_.clwb++;
    obs::inc(m_clwb_);
    if (pending_.size() > epoch_.pending_hwm) {
      epoch_.pending_hwm = pending_.size();
    }
    obs::peak(m_pending_hwm_, pending_.size());
    env_.clock().advance(env_.cost.clwb_ns);
    bump_fault_event();  // the cut may fire with this line in flight
  }
}

void PmDevice::sfence() {
  for (u64 line : pending_) drain_line_whole(line);
  epoch_.sfence++;
  epoch_.lines_drained += pending_.size();
  epoch_.bytes_flushed += pending_.size() * kCacheLine;
  obs::inc(m_sfence_);
  obs::inc(m_bytes_flushed_, pending_.size() * kCacheLine);
  pending_.clear();
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
  deferred_.insert(offset);
}

void PmDevice::apply_deferred(u64 offset) {
  if (deferred_.erase(offset) == 0) return;
  mark_dirty(offset, 8);
  clwb(offset, 8);
}

void PmDevice::drain_line_whole(u64 line) {
  if (deferred_.empty()) {
    std::memcpy(persisted_.data() + line * kCacheLine,
                mem_.data() + line * kCacheLine, kCacheLine);
    return;
  }
  for (u64 w = 0; w < kCacheLine / 8; w++) {
    const u64 off = line * kCacheLine + w * 8;
    if (deferred_.count(off) != 0) continue;  // withheld publication
    std::memcpy(persisted_.data() + off, mem_.data() + off, 8);
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
  for (u64 w = 0; w < kCacheLine / 8; w++) {
    const u64 off = line * kCacheLine + w * 8;
    if (deferred_.count(off) != 0) continue;
    if (rng.chance(0.5)) {
      std::memcpy(persisted_.data() + off, mem_.data() + off, 8);
    }
  }
}

void PmDevice::power_cut() {
  // Deterministic per crash point: fault draws never touch env_.rng, so
  // the workload's own stream is identical across sweep iterations.
  Rng rng(plan_->seed ^ (fault_events_ * 0x9e3779b97f4a7c15ULL));
  // In-flight (clwb'd, unfenced) lines: drain, tear, or vanish.
  for (u64 line : pending_) {
    if (rng.chance(plan_->unfenced_drain_p)) {
      drain_line(line, /*torn=*/false, rng);
    } else if (plan_->tear_p > 0 && rng.chance(plan_->tear_p)) {
      drain_line(line, /*torn=*/true, rng);
    }
  }
  // Dirty (never clwb'd) lines: normally lost with the cache, but any may
  // have been evicted — reaching PM unordered, possibly torn.
  if (plan_->evict_dirty_p > 0) {
    for (u64 line : dirty_) {
      if (rng.chance(plan_->evict_dirty_p)) {
        drain_line(line, plan_->tear_p > 0 && rng.chance(plan_->tear_p), rng);
      }
    }
  }
  pending_.clear();
  dirty_.clear();
  mem_ = persisted_;  // unapplied deferred publications revert with it
  deferred_.clear();
}

void PmDevice::crash() {
  if (plan_.has_value()) {
    // An armed plan's semantics also govern manually triggered cuts.
    power_cut();
    return;
  }
  // Baseline semantics: clwb'd-but-unfenced lines raced the power loss;
  // each independently may or may not have drained.
  for (u64 line : pending_) {
    if (env_.rng.chance(0.5)) drain_line_whole(line);
  }
  pending_.clear();
  dirty_.clear();
  mem_ = persisted_;
  deferred_.clear();
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

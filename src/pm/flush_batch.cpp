#include "pm/flush_batch.h"

#include <utility>

#include "pm/pm_pool.h"
#include "sim/cpu.h"

namespace papm::pm {

FlushBatcher::~FlushBatcher() { abandon(); }

void FlushBatcher::open_epoch(u64 now_ns) {
  epoch_open_ = true;
  epoch_serial_++;
  epoch_opened_ns_ = now_ns;
  ops_in_epoch_ = 0;
  if (!active_) {
    active_ = true;
    bool sealed = false;
    for (PmPool* p : pools_) sealed |= p->enter_commit_epoch();
    // Heads must be durably zero before any popped block's re-used
    // contents can drain — one fence for the whole batching period.
    if (sealed) dev_->sfence();
  }
}

void FlushBatcher::begin_op(bool backlogged, u64 now_ns) {
  if (!backlogged) {
    // Pass-through op. Close any open epoch (its acks must not wait
    // behind an idle stream), but keep the pools sealed across momentary
    // load dips: restoring and re-sealing the freelists writes a clwb per
    // parked free, so flapping in and out of the regime on every
    // scheduling blip would dominate the flush bill it is meant to cut.
    // Only a sustained idle run deactivates.
    batching_ = false;
    if (active_) {
      if (epoch_open_) close();
      if (++passthrough_run_ >= kIdleOpsBeforeRestore) deactivate();
    }
    return;
  }
  passthrough_run_ = 0;
  // A stale epoch (deadline passed while the core was between ops)
  // retires before this op joins a fresh one.
  if (epoch_open_ && now_ns - epoch_opened_ns_ >= policy_.max_deferral_ns) {
    close();
  }
  if (!epoch_open_) open_epoch(now_ns);
  batching_ = true;
}

void FlushBatcher::end_op() {
  if (!batching_) return;
  batching_ = false;
  if (!epoch_open_) return;
  ops_in_epoch_++;
  if (ops_in_epoch_ > max_epoch_ops_seen_) max_epoch_ops_seen_ = ops_in_epoch_;
  if (ops_in_epoch_ >= policy_.max_epoch_ops) {
    close();
    return;
  }
  arm_deadline();
  arm_idle();
}

void FlushBatcher::arm_deadline() {
  if (deadline_timer_ != 0) return;
  sim::Engine& engine = dev_->env().engine;
  const u64 serial = epoch_serial_;
  const u64 due = epoch_opened_ns_ + policy_.max_deferral_ns;
  const u64 now = static_cast<u64>(engine.now());
  deadline_timer_ = engine.schedule_in(
      static_cast<SimTime>(due > now ? due - now : 1), [this, serial] {
        deadline_timer_ = 0;
        if (!epoch_open_) return;
        // A newer epoch opened since this check was armed: give it its
        // own deadline instead of cutting it short.
        if (epoch_serial_ != serial) {
          arm_deadline();
          return;
        }
        close_on_core();
      });
}

void FlushBatcher::arm_idle() {
  // The check this one replaces could only have found a newer op in the
  // epoch and done nothing.
  sim::Engine& engine = dev_->env().engine;
  engine.cancel(idle_timer_);
  idle_timer_ = engine.schedule_in(static_cast<SimTime>(kIdleCloseNs), [this] {
    idle_timer_ = 0;
    close_on_core();
  });
}

void FlushBatcher::flush(u64 offset, u64 len) {
  if (!batching_) {
    dev_->clwb(offset, len);
    return;
  }
  if (len == 0) return;
  const u64 first = offset / kCacheLine;
  const u64 last = (offset + len - 1) / kCacheLine;
  u64 coalesced = 0;
  for (u64 line = first; line <= last; line++) {
    // A line already clwb'd this epoch (and not re-dirtied since) is in
    // flight toward the same fence — a second clwb buys nothing.
    if (dev_->line_in_flight(line * kCacheLine)) {
      coalesced++;
      continue;
    }
    dev_->clwb(line * kCacheLine, kCacheLine);
  }
  if (coalesced > 0) dev_->note_coalesced_clwb(coalesced);
}

void FlushBatcher::fence() {
  if (!batching_) {
    dev_->sfence();
    return;
  }
  epoch_deferred_fences_++;
}

void FlushBatcher::publish_u64(u64 offset, u64 value) {
  if (!batching_) {
    dev_->store_u64(offset, value);
    dev_->persist(offset, 8);
    return;
  }
  dev_->store_u64_deferred(offset, value);
  publishes_.push_back(offset);
}

void FlushBatcher::on_committed(std::function<void()> cb) {
  if (!batching_) {
    cb();
    return;
  }
  acks_.push_back(std::move(cb));
}

void FlushBatcher::defer(std::function<void()> fn) {
  if (!batching_) {
    fn();
    return;
  }
  quarantine_.push_back(std::move(fn));
}

void FlushBatcher::close() {
  if (!epoch_open_) return;
  epoch_open_ = false;
  batching_ = false;
  // Fence #1: every content line of the epoch (values, index nodes, WAL
  // frames, the pools' bump frontiers) becomes durable. Withheld
  // publications are masked from the drain, so nothing can reference
  // bytes that are not yet stable.
  for (PmPool* p : pools_) p->flush_metadata();
  dev_->sfence();
  // Apply the withheld publications, then fence #2 to retire them. A cut
  // between the two fences resolves each publication independently
  // (applied-in-flight may drain; unapplied never do) — each in-epoch op
  // lands on old/new/absent, never a dangling link.
  if (!publishes_.empty()) {
    for (const u64 off : publishes_) dev_->apply_deferred(off);
    publishes_.clear();
    dev_->sfence();
  }
  // Attribute the fences this epoch absorbed to its retirement, so flush
  // accounting reconciles (`--check-attribution`).
  if (epoch_deferred_fences_ > 0) {
    dev_->note_deferred_sfence(epoch_deferred_fences_);
    deferred_fences_total_ += epoch_deferred_fences_;
    epoch_deferred_fences_ = 0;
  }
  epochs_closed_++;
  // Acks only after fence #2: an acked op is in a retired epoch by
  // definition. Quarantined frees run last — old values stay intact until
  // nothing can resurrect the epoch that replaced them.
  std::vector<std::function<void()>> acks = std::move(acks_);
  acks_.clear();
  std::vector<std::function<void()>> quarantine = std::move(quarantine_);
  quarantine_.clear();
  for (auto& cb : acks) cb();
  for (auto& fn : quarantine) fn();
}

void FlushBatcher::close_on_core() {
  if (!epoch_open_) return;
  if (cpu_ == nullptr) {
    close();
    return;
  }
  cpu_->run_on(core_, [this] { close(); });
}

void FlushBatcher::deactivate() {
  close();
  if (!active_) return;
  active_ = false;
  for (PmPool* p : pools_) p->exit_commit_epoch();
}

void FlushBatcher::abandon() noexcept {
  // A batcher that never armed a check (the device's pass-through one)
  // need not reach the engine: it may outlive the Env.
  if (deadline_timer_ == 0 && idle_timer_ == 0) return;
  sim::Engine& engine = dev_->env().engine;
  engine.cancel(deadline_timer_);
  engine.cancel(idle_timer_);
  deadline_timer_ = idle_timer_ = 0;
}

}  // namespace papm::pm

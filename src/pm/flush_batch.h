// Group/epoch commit: amortizing persistence ordering points across
// queued requests. This is the one place that decides how a PM write is
// ordered (fenced now, or deferred to a commit epoch) and when an epoch
// closes; every PM structure routes its flushes, fences, publications,
// acks and frees through a FlushBatcher.
//
// The flush accounting (EXPERIMENTS.md, Fig 2 metrics) shows the stores
// pay ~27 clwb + ~11 sfence per 1 KB op — and most of those fences order
// *independent* requests. When the server core is backlogged
// (HostCpu::backlogged), a FlushBatcher groups the queued requests into a
// commit epoch:
//
//   * content writes (value records, index nodes, WAL frames) are clwb'd
//     immediately but their fences are *deferred* to the epoch close;
//     repeat clwb's of a line already in flight are coalesced away;
//   * publications (the 8-byte atomic link stores every structure
//     linearizes through) are *withheld* in the device's deferred-store
//     buffer (PmDevice::store_u64_deferred) — visible to loads, masked
//     from every crash drain path — so a link can never become durable
//     before the bytes it points at;
//   * acks are queued and released only after the epoch's fences retire;
//   * frees of replaced values are quarantined past the epoch close, so
//     an old acked value can never be overwritten while a cut could still
//     resurrect the epoch.
//
// Epoch close is two-phase:  fence #1 makes all content durable; the
// withheld publications are then applied (mark_dirty + clwb); fence #2
// makes them durable; only then do acks run and quarantined frees
// execute. A power cut anywhere in between resolves every in-epoch op to
// old/new/absent under the existing crash invariants (I1–I4) — the sweep
// in tests/test_crash_recovery.cpp cuts at every boundary inside epochs.
//
// The batcher closes its own epochs: end_op keeps one deadline check
// (open + max_deferral_ns) and one idle check (kIdleCloseNs after the
// last op) pending on the event engine, and a check that fires closes
// the epoch as work on the core given to attach_cpu (inline without
// one).
//
// When the server is idle (not backlogged) every call passes straight
// through to the device — persist is clwb + sfence, publish_u64 is
// store_u64 + persist, acks and deferred frees run at once — so
// single-connection latency and the Table 1 reproduction are
// bit-identical to the unbatched protocol. Each PmDevice owns one
// batcher that never batches (PmDevice::passthrough()); every structure
// starts on it until its owner attaches a batching one.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.h"
#include "pm/pm_device.h"
#include "sim/event_queue.h"

namespace papm::sim {
class HostCpu;
}

namespace papm::pm {

class PmPool;

// Policy knobs (see storage/knobs.h: StoreKnobs carries one of these from
// the harness RunConfig down to the per-shard batchers).
struct GroupCommitPolicy {
  u32 max_epoch_ops = 64;    // close after this many ops joined the epoch
  // Close when the open epoch gets older than this. Sized so the op-count
  // limit, not the deadline, closes epochs at saturation (a 1 KB put costs
  // ~12 µs of core time); the deadline is the trickle-traffic backstop
  // that bounds how long an ack can wait.
  u64 max_deferral_ns = 800'000;
};

class FlushBatcher {
 public:
  // Close when no new op has joined the epoch for this long: the burst
  // drained and every queued ack is waiting on the close. With closed-loop
  // clients the stream stalls *because* the acks are held, so without this
  // the epoch would sit until max_deferral_ns. A burst's arrivals all
  // dispatch before any idle check fires (the checks are scheduled past
  // the ops' charged completion times), so this only needs to cover the
  // arrival jitter within a burst, not the per-op service time; it is the
  // whole ack-latency overhead a drained burst pays.
  static constexpr u64 kIdleCloseNs = 2'000;

  explicit FlushBatcher(PmDevice& dev, GroupCommitPolicy policy = {})
      : dev_(&dev), policy_(policy) {}
  // Cancels the pending close checks: they hold `this`.
  ~FlushBatcher();
  FlushBatcher(const FlushBatcher&) = delete;
  FlushBatcher& operator=(const FlushBatcher&) = delete;

  // Pools whose freelists are sealed while batching (heads durably zeroed
  // at activation; freed blocks recycle through DRAM; real heads restored
  // at deactivation). Register every pool the batched datapath allocates
  // from.
  void register_pool(PmPool& pool) { pools_.push_back(&pool); }

  /// Timer-driven closes run as pinned work on `core` of `cpu` (the core
  /// that issued the epoch's ops), so their fences and acks queue behind
  /// it like any request. Without a core they run inline in the event.
  void attach_cpu(sim::HostCpu& cpu, std::size_t core) noexcept {
    cpu_ = &cpu;
    core_ = core;
  }

  // --- Op bracketing (the owner calls these around each request) -------
  /// Joins the current request to an epoch when `backlogged`; otherwise
  /// closes any open epoch and drops to pass-through. Opening the first
  /// epoch seals the registered pools (one fence).
  void begin_op(bool backlogged, u64 now_ns);
  /// Marks the request complete; closes the epoch at max_epoch_ops, else
  /// arms the deadline check (if none is pending) and replaces the idle
  /// check.
  void end_op();
  /// True while ops should route through the batched paths.
  [[nodiscard]] bool batching() const noexcept { return batching_; }
  [[nodiscard]] bool epoch_open() const noexcept { return epoch_open_; }
  /// Monotonic id of the current/most-recent epoch; lets structures
  /// lazily invalidate per-epoch volatile state (e.g. fresh-node sets).
  [[nodiscard]] u64 epoch_serial() const noexcept { return epoch_serial_; }
  /// Open time of the current epoch (valid while epoch_open()); the
  /// deadline check fires at open + max_deferral_ns.
  [[nodiscard]] u64 epoch_opened_ns() const noexcept {
    return epoch_opened_ns_;
  }

  // --- Datapath primitives (pass-through when not batching) ------------
  /// clwb the range now; the fence is the epoch's. Lines already in
  /// flight (clwb'd, unfenced, not re-dirtied) are coalesced away.
  void flush(u64 offset, u64 len);
  /// A fence the legacy path would have issued here; deferred to close.
  void fence();
  /// flush + fence.
  void persist(u64 offset, u64 len) {
    flush(offset, len);
    fence();
  }
  /// Withheld 8-byte publication; applied and fenced at close.
  void publish_u64(u64 offset, u64 value);
  /// Queues `cb` to run once the epoch's second fence retires (the ack
  /// boundary). Runs immediately when not batching.
  void on_committed(std::function<void()> cb);
  /// Quarantines `fn` (typically a free of a replaced value) past the
  /// epoch close. Runs immediately when not batching.
  void defer(std::function<void()> fn);

  // --- Epoch control ---------------------------------------------------
  /// Retires the open epoch: fence #1 (content), apply publications,
  /// fence #2, acks, quarantined work. No-op when no epoch is open.
  void close();
  /// close() as pinned work on the attached core (inline without one).
  /// No-op when no epoch is open.
  void close_on_core();
  /// Leaves batching entirely: closes the epoch and restores the sealed
  /// pools' durable freelists. Safe to call when already idle.
  void deactivate();
  /// Host cut: cancels the pending close checks, so the open epoch never
  /// becomes durable — its writes die with the host.
  void abandon() noexcept;

  // --- Introspection (tests, benches) ----------------------------------
  [[nodiscard]] u64 epochs_closed() const noexcept { return epochs_closed_; }
  [[nodiscard]] u64 deferred_fences() const noexcept {
    return deferred_fences_total_;
  }
  [[nodiscard]] u32 ops_in_epoch() const noexcept { return ops_in_epoch_; }
  [[nodiscard]] u32 max_epoch_ops_seen() const noexcept {
    return max_epoch_ops_seen_;
  }

 private:
  // Consecutive pass-through (not-backlogged) ops before the sealed pools
  // restore their durable freelists: hysteresis so a momentary load dip
  // costs one epoch close, not a freelist restore + re-seal cycle.
  static constexpr u32 kIdleOpsBeforeRestore = 64;

  void open_epoch(u64 now_ns);
  // Schedules the deadline check for the open epoch unless one is
  // pending; a pending check that finds a newer epoch re-arms for it.
  void arm_deadline();
  // Replaces the pending idle check with one kIdleCloseNs from now.
  void arm_idle();

  PmDevice* dev_;
  GroupCommitPolicy policy_;
  std::vector<PmPool*> pools_;
  sim::HostCpu* cpu_ = nullptr;
  std::size_t core_ = 0;
  sim::EventId deadline_timer_ = 0;
  sim::EventId idle_timer_ = 0;
  bool active_ = false;      // pools sealed, batching regime on
  bool batching_ = false;    // current op routes through batched paths
  bool epoch_open_ = false;
  u64 epoch_opened_ns_ = 0;
  u32 ops_in_epoch_ = 0;
  u64 epoch_deferred_fences_ = 0;
  std::vector<u64> publishes_;  // withheld word offsets, applied at close
  std::vector<std::function<void()>> acks_;
  std::vector<std::function<void()>> quarantine_;
  u32 passthrough_run_ = 0;
  u64 epoch_serial_ = 0;
  u64 epochs_closed_ = 0;
  u64 deferred_fences_total_ = 0;
  u32 max_epoch_ops_seen_ = 0;
};

}  // namespace papm::pm

// Persistent-memory device model.
//
// Stands in for Intel Optane DCPMM in App-Direct mode (DESIGN.md §2). The
// device is a flat byte-addressable region with:
//
//  * cache-line-granularity persistence: stores land in the image at once
//    (the CPU view, caches included); `clwb` + `sfence` make lines
//    durable, charging the calibrated flush costs to the simulation clock;
//  * crash simulation: `crash()` discards everything that was not flushed
//    — and lines that were clwb'd but not yet fenced survive only with
//    probability 1/2 each, modelling the reordering the paper calls
//    "dumb" device behaviour (§4);
//  * fault injection: an armed FaultPlan (fault_plan.h) can cut power at
//    any flush/fence boundary and apply richer failure semantics — torn
//    64-byte lines (8-byte persistence granularity), spontaneous eviction
//    of unflushed stores, reordered unfenced drains;
//  * a named root directory so recovery code can find its structures
//    after a crash/remap without raw-offset bookkeeping.
//
// One image, plus pre-images: the image is what the CPU sees, and each
// line that is not durable yet keeps a 64-byte pre-image — its durable
// bytes — taken before the first byte lands on it. A line without a
// pre-image is durable as it stands. A fence retires the pre-images of
// the lines it drains; a power cut applies its drains to the pre-images
// and copies them back. So the durable view costs 64 bytes per line in
// flight, not a second image.
//
// Host cost scales with the bytes a run touches, not with the device
// size: the image is lazily zero-filled anonymous memory with a 4 KB-page
// touched bitmap (a clone copies touched pages only), a crash costs one
// copy per pre-image, and per-line flush state is one flat 8-byte record
// per cache line.
//
// Higher layers never hold raw pointers across a crash: they address PM
// with byte offsets (see pm_ptr.h) and re-resolve against the device.
#pragma once

#include <bit>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "pm/fault_plan.h"
#include "sim/env.h"

namespace papm::pm {

class FlushBatcher;

class PmDevice {
 public:
  /// Creates a zeroed region of `size` bytes. `size` must be a multiple of
  /// the cache-line size and large enough for the root directory header.
  /// The header is born durable (a real device is formatted offline).
  PmDevice(sim::Env& env, u64 size);
  ~PmDevice();

  PmDevice(const PmDevice&) = delete;
  PmDevice& operator=(const PmDevice&) = delete;

  [[nodiscard]] u64 size() const noexcept { return size_; }

  /// Lowest offset usable by allocators (above the root directory header).
  [[nodiscard]] u64 data_base() const noexcept;

  // --- CPU access (load/store view) ------------------------------------
  /// Bounds-checked read access into the image (caches included). Readers
  /// take this const view, also on a mutable device
  /// (`std::as_const(dev).at(...)`): it never takes a pre-image.
  /// Inline: index structures resolve every node field through at().
  [[nodiscard]] const u8* at(u64 offset, u64 len) const {
    check_range(offset, len);
    accessed_bytes_ += len;
    return mem_.data() + offset;
  }
  /// Writable access: takes the pre-image of each line in range that has
  /// none, so bytes written through the pointer revert at a crash until
  /// mark_dirty() + persist() (or store(), which marks for you) make them
  /// durable. Contract: the pointer is good for writes only until the
  /// next fence over its lines (an sfence draining one of them, a DMA
  /// covering one, a crash) — that retires the pre-image, and a later
  /// write through the old pointer would be durable unseen. Re-resolve
  /// after the fence. Costs a 64-byte copy per clean line: read through
  /// the const view.
  [[nodiscard]] u8* at(u64 offset, u64 len) {
    check_range(offset, len);
    accessed_bytes_ += len;
    prepare_write(offset, len);
    return mem_.data() + offset;
  }
  [[nodiscard]] std::span<u8> span(u64 offset, u64 len) { return {at(offset, len), len}; }
  [[nodiscard]] std::span<const u8> span(u64 offset, u64 len) const {
    return {at(offset, len), len};
  }

  /// Store with dirty-line tracking. Use this (or mark_dirty after in-place
  /// writes through at()) so crash simulation knows what is unflushed.
  /// Not durable until persist(); not atomic under a torn-write fault plan
  /// (only store_u64 is).
  void store(u64 offset, std::span<const u8> data);

  /// A deliberately undeclared store (DRAM-shadow state kept in PM, such
  /// as rebuilt skip-list towers): takes the pre-images but never marks
  /// the lines dirty, so the bytes never drain on their own — a crash
  /// reverts them unless a later store on the line is persisted. Counts
  /// as an access, like the at() write it stands for.
  void store_volatile(u64 offset, std::span<const u8> data);

  /// Declare that [offset, offset+len) was mutated in place via at().
  /// Forgetting this makes a write silently non-crashable — the harness's
  /// eviction mode (FaultPlan::evict_dirty_p) cannot surface it either.
  void mark_dirty(u64 offset, u64 len);

  /// Device-side DMA store (PCIe non-allocating write landing in the PM
  /// controller, bypassing the CPU cache): the bytes are durable on return
  /// — the image and the durable bytes both update (a fully covered line
  /// drops its pre-image, an edge line's pre-image takes the covered
  /// bytes), no clwb/sfence is owed, and fully covered cache lines leave
  /// the dirty/pending sets.
  /// Partially covered edge lines keep any pre-existing dirty state (the
  /// CPU may hold older bytes of those lines). Deferred-publication words
  /// are never written this way (DMA targets freshly reserved slots):
  /// a range covering a withheld word throws std::logic_error before any
  /// byte lands, since it would make the publication durable ahead of its
  /// epoch.
  /// Counts one fault-plan event (may throw PowerFailure — the cut lands
  /// right after placement, before any host-side publication).
  void store_dma(u64 offset, std::span<const u8> data);

  // --- Persistence primitives -----------------------------------------
  /// clwb: queue the cache lines covering [offset, offset+len) for
  /// write-back. Charged per line. Lines not dirty are still charged (the
  /// instruction executes regardless). Ordering guarantee: none until the
  /// next sfence — an unfenced line may drain, tear, or vanish at a cut.
  /// Each line is one fault-plan event (may throw PowerFailure).
  void clwb(u64 offset, u64 len);

  /// sfence: all previously clwb'd lines become durable. Charged once.
  /// This is the only ordering point: writes are durable *and ordered*
  /// only after the fence returns. One fault-plan event (may throw
  /// PowerFailure — after the fence's own drain completes).
  void sfence();

  /// Convenience: clwb + sfence over a range.
  void persist(u64 offset, u64 len) {
    clwb(offset, len);
    sfence();
  }

  /// An 8-byte atomic store; the publication primitive for lock-free
  /// persistent structures. Atomicity contract: never torn by any fault
  /// plan (DCPMM's 8-byte persistence granularity) — but like any store
  /// it is durable only after persist().
  void store_u64(u64 offset, u64 value);
  [[nodiscard]] u64 load_u64(u64 offset) const;

  // --- Deferred publication (group-commit store buffer) -----------------
  /// An 8-byte atomic store that is *withheld* from persistence: the
  /// image updates immediately (loads forward the new value), but the
  /// word is masked out of every drain path — sfence, unfenced drains,
  /// tears and dirty-line evictions at a power cut — so its line keeps
  /// the old word in its pre-image, which survives any crash until
  /// apply_deferred() re-injects the word
  /// into the normal dirty→clwb→sfence pipeline. This is the mechanism
  /// FlushBatcher uses to defer an epoch's publications past the fence
  /// that makes the epoch's content durable: a deferred link can never
  /// become durable ahead of the bytes it points at.
  void store_u64_deferred(u64 offset, u64 value);
  /// Releases a deferred word: removes the mask and marks + clwb's it so
  /// the next sfence makes it durable. No-op for non-deferred offsets.
  void apply_deferred(u64 offset);
  [[nodiscard]] std::size_t deferred_words() const noexcept {
    return deferred_words_;
  }

  /// Whole-host fault injection (HostCut): captures the *durable* bytes
  /// as a fresh device — what a rejoining host finds in its DIMMs after
  /// the cut: the touched pages with every pre-image laid over them. The
  /// clone's image equals this device's durable view and it holds no
  /// pre-images; dirty/pending/deferred state is empty (it died with the
  /// caches) and no fault plan is armed. The cut host's stale volatile
  /// objects may keep scribbling on *this* device afterwards; recovery
  /// runs against the frozen clone, so they can't corrupt it.
  [[nodiscard]] std::unique_ptr<PmDevice> clone_persisted() const;

  // --- Crash simulation -------------------------------------------------
  /// Simulates power loss: every line reverts to its durable bytes (each
  /// pre-image is copied back, then dropped).
  /// clwb'd-but-unfenced lines each survive with probability 1/2 (drawn
  /// from the env RNG). Dirty-but-not-clwb'd lines are always lost.
  /// With an armed fault plan, the plan's drain/tear/evict semantics apply
  /// instead (drawn from the plan's own deterministic RNG). Draws go line
  /// by line: pending lines in clwb order (the order each last went dirty
  /// -> pending), then dirty lines in store order (the order each last
  /// became dirty).
  void crash();

  // --- Fault injection ----------------------------------------------------
  /// Arms `plan` and resets the persistence-event counter. While armed,
  /// every clwb'd line and every sfence counts one event; reaching
  /// plan.crash_at_event applies the power cut (see fault_plan.h) and
  /// throws PowerFailure from inside the flush/fence call.
  void set_fault_plan(const FaultPlan& plan) {
    plan_ = plan;
    fault_events_ = 0;
  }
  /// Disarms injection (event counting stops; crash() reverts to the
  /// baseline semantics). Call before running recovery code.
  void clear_fault_plan() noexcept { plan_.reset(); }
  /// Events counted since the plan was armed — run a workload once with
  /// crash_at_event = 0 to size a crash-point sweep.
  [[nodiscard]] u64 fault_events() const noexcept { return fault_events_; }

  /// For tests: moves the dirty-stamp clock to `stamp` (at or above every
  /// stamp handed out so far), so a test can drive it across its 32-bit
  /// wrap without 2^32 stores.
  void set_dirty_clock(u32 stamp) noexcept { dirty_clock_ = stamp; }

  /// Number of lines currently dirty (unflushed) — test/introspection aid.
  [[nodiscard]] std::size_t dirty_lines() const noexcept { return dirty_count_; }
  [[nodiscard]] std::size_t pending_lines() const noexcept {
    return pending_count_;
  }
  /// Lines holding a pre-image: every line written (or marked dirty)
  /// since it was last durable, until a fence or a crash retires it.
  [[nodiscard]] std::size_t preimage_lines() const noexcept { return pre_count_; }

  // --- Observability ------------------------------------------------------
  /// Flush/fence accounting for one measurement window (the lifetime
  /// totals below are never reset).
  struct FlushEpoch {
    u64 clwb = 0;           // clwb instructions retired (one per line)
    u64 sfence = 0;         // ordering fences retired
    u64 lines_drained = 0;  // lines made durable at fences
    u64 bytes_flushed = 0;  // lines_drained * kCacheLine
    u64 dirty_hwm = 0;      // peak dirty (stored, un-clwb'd) line count
    u64 pending_hwm = 0;    // peak clwb'd-but-unfenced line count
    // Group-commit accounting. Deferred fences are counted when the
    // commit epoch that absorbed them *retires* (FlushBatcher::close),
    // never when the op issued them — so sfence + sfence_deferred always
    // reconciles against the ops the window actually completed.
    u64 sfence_deferred = 0;  // fences absorbed by retired commit epochs
    u64 clwb_coalesced = 0;   // clwb's skipped (line already in flight)
    // Peak lines holding a pre-image (host memory: a 72-byte slot each).
    // Starts at the count the window opens with; no metric mirrors it.
    u64 preimage_hwm = 0;
  };
  /// Starts a fresh accounting window (benches: call at the start of the
  /// measured region, read obs_epoch() at its end).
  void obs_begin_epoch() noexcept {
    epoch_ = {};
    epoch_.preimage_hwm = pre_count_;
  }
  [[nodiscard]] const FlushEpoch& obs_epoch() const noexcept { return epoch_; }

  /// Mirrors future flush/fence activity into `r` (per-shard registries
  /// merge at report time): counters pm.clwb / pm.sfence /
  /// pm.bytes_flushed / pm.sfence_deferred / pm.clwb_coalesced, gauges
  /// pm.dirty_lines_hwm / pm.pending_lines_hwm.
  void set_metrics(obs::MetricRegistry* r);

  /// Group-commit bookkeeping hooks (called by FlushBatcher when a commit
  /// epoch retires — attribution happens at retirement, not issue time).
  void note_deferred_sfence(u64 n) noexcept {
    epoch_.sfence_deferred += n;
    obs::inc(m_sfence_deferred_, n);
  }
  void note_coalesced_clwb(u64 n) noexcept {
    epoch_.clwb_coalesced += n;
    obs::inc(m_clwb_coalesced_, n);
  }

  /// True when the line holding `offset` is clwb'd and still awaiting a
  /// fence (and was not re-dirtied since) — the FlushBatcher coalesces a
  /// repeat clwb of such a line away.
  [[nodiscard]] bool line_in_flight(u64 offset) const noexcept {
    return offset < size_ && (lines_[offset / kCacheLine].flags & kPending) != 0;
  }

  /// Lifetime flush statistics (for benches).
  [[nodiscard]] u64 total_clwb() const noexcept { return total_clwb_; }
  [[nodiscard]] u64 total_sfence() const noexcept { return total_sfence_; }
  /// Bytes resolved through at() over the device's lifetime (reads and
  /// writes alike). Recovery benches diff this around a recovery call to
  /// report bytes scanned.
  [[nodiscard]] u64 total_accessed_bytes() const noexcept {
    return accessed_bytes_;
  }

  // --- Named roots --------------------------------------------------------
  // A fixed table of (name -> offset) entries in the region header,
  // persisted on update. Recovery looks structures up by name.
  // 64 entries: a scaled-out host needs ~3 roots per datapath shard
  // (packet pool, store pool, store metadata) at up to 8+ shards.
  static constexpr std::size_t kMaxRoots = 64;
  static constexpr std::size_t kMaxRootName = 23;

  /// Sets (or overwrites) a root, durably (persisted before returning).
  /// Overwriting an existing name updates only the 8-byte offset — atomic
  /// under every fault plan. Creating a new entry is not atomic: a cut
  /// mid-create can leave a torn (garbage-named) entry, which recovery
  /// ignores but which permanently consumes its slot (leak, not
  /// corruption). Returns invalid_argument for an over-long name,
  /// out_of_space if the table is full.
  Status set_root(std::string_view name, u64 offset);
  [[nodiscard]] Result<u64> get_root(std::string_view name) const;

  sim::Env& env() noexcept { return env_; }

  /// The device's batcher that never batches: every call goes straight
  /// to the device (persist = clwb + sfence, acks and deferred work run
  /// at once). PM structures start on it until their owner attaches a
  /// group-commit batcher (pm/flush_batch.h).
  [[nodiscard]] FlushBatcher& passthrough() noexcept { return *passthrough_; }

 private:
  struct RootEntry {
    char name[kMaxRootName + 1];
    u64 offset;
  };
  struct Header {
    u64 magic;
    u64 size;
    RootEntry roots[kMaxRoots];
  };
  static constexpr u64 kMagic = 0x50'41'50'4d'2d'50'4d'31ULL;  // "PAPM-PM1"

  [[nodiscard]] Header* header() { return reinterpret_cast<Header*>(mem_.data()); }
  [[nodiscard]] const Header* header() const {
    return reinterpret_cast<const Header*>(mem_.data());
  }

  static constexpr u64 kPage = 4096;

  // Zero-filled anonymous memory (mmap MAP_ANONYMOUS|MAP_NORESERVE): the
  // OS backs each page on first touch, so an untouched byte costs nothing.
  class LazyZero {
   public:
    explicit LazyZero(u64 bytes);
    ~LazyZero();
    LazyZero(const LazyZero&) = delete;
    LazyZero& operator=(const LazyZero&) = delete;
    [[nodiscard]] u8* data() const noexcept { return p_; }

   private:
    u8* p_;
    u64 bytes_;
  };

  // The image plus the set of 4 KB pages that may differ from its
  // zero-filled start. Marking is idempotent and never cleared.
  struct Image {
    explicit Image(u64 size) : bytes(size), touched((size / kPage + 63) / 64, 0) {}
    [[nodiscard]] u8* data() const noexcept { return bytes.data(); }
    void touch(u64 offset, u64 len) noexcept {
      if (len == 0) return;
      for (u64 p = offset / kPage; p <= (offset + len - 1) / kPage; p++) {
        touched[p / 64] |= u64{1} << (p % 64);
      }
    }
    template <class F>
    void for_each_touched(F&& f) const {
      for (u64 i = 0; i < touched.size(); i++) {
        for (u64 w = touched[i]; w != 0; w &= w - 1) {
          f(i * 64 + static_cast<u64>(std::countr_zero(w)));
        }
      }
    }
    LazyZero bytes;
    std::vector<u64> touched;  // one bit per page
  };

  // Flat per-line flush state: `flags` holds at most one of kDirty /
  // kPending; `deferred` has bit w set while aligned word w of the line is
  // withheld; `pre` is 1 + the slot of the line's pre-image, 0 for none.
  // Every dirty, pending or deferred line has a pre-image.
  struct LineState {
    u8 flags;
    u8 deferred;
    u32 pre;
  };
  static constexpr u8 kDirty = 1;
  static constexpr u8 kPending = 2;

  // The durable bytes of a line that is not durable yet. `pos` of a
  // pending line is the index of its live entry in pending_order_; `pos`
  // of a dirty line is its dirty stamp, the value of dirty_clock_ when it
  // last became dirty.
  struct PreImage {
    u8 bytes[kCacheLine];
    u32 line;
    u32 pos;
  };
  // Pre-images live in slots [0, pre_count_), in chunks that never move
  // (growing copies nothing); retiring a slot moves the last one into
  // its place.
  static constexpr std::size_t kPreChunk = 1024;
  [[nodiscard]] PreImage& slot(std::size_t i) const noexcept {
    return pre_chunks_[i / kPreChunk][i % kPreChunk];
  }
  [[nodiscard]] PreImage& pre_of(u64 line) const noexcept {
    return slot(lines_[line].pre - 1);
  }
  // Takes the pre-image of each line of [offset, offset+len) that has
  // none: the bytes about to be overwritten are its durable bytes.
  void prepare_write(u64 offset, u64 len) {
    if (len == 0) return;
    mem_.touch(offset, len);
    for (u64 line = offset / kCacheLine; line <= (offset + len - 1) / kCacheLine;
         line++) {
      LineState& ls = lines_[line];
      if (ls.pre == 0) take_preimage(line, ls);
    }
  }
  // Copies the line's durable bytes into a new pre-image slot, which
  // `ls` (the line's state) then names; returns the slot.
  PreImage& take_preimage(u64 line, LineState& ls);
  // The line is durable as it stands: drops its pre-image.
  void retire_preimage(u64 line);

  // Appends `line` to pending_order_ as its live entry (the line must not
  // be pending yet), first dropping stale entries once they make up half
  // of the vector — amortised O(1), order of live entries kept.
  void enter_pending(u64 line);
  // Calls f(line) for each pending line, in the order it last went
  // pending.
  template <class F>
  void for_each_pending(F&& f) const;
  // The dirty lines in the order each last became dirty (by stamp): found
  // among the pre-images, so only a power cut pays.
  [[nodiscard]] std::vector<u64> dirty_in_stamp_order() const;
  // Renumbers the dirty stamps 0..n-1 (order kept) before dirty_clock_
  // wraps.
  void restamp_dirty();

  static u64 checked_size(u64 size);
  void check_range(u64 offset, u64 len) const {
    if (offset > size_ || len > size_ - offset) throw_out_of_range();
  }
  [[noreturn]] static void throw_out_of_range();
  // One persistence-ordering instruction retired; fires the scheduled cut.
  void bump_fault_event();
  // Applies the armed plan's drain/tear/evict semantics to the pre-images
  // and reverts the image (the power cut itself).
  void power_cut();
  // Drains `line`; torn = each aligned 8-byte word independently old or
  // new. Deferred-publication words are always masked out: they keep
  // their durable value on every drain path.
  void drain_line(u64 line, bool torn, Rng& rng);
  // Whole-line drain (the sfence path): the line leaves the dirty and
  // pending sets, and its pre-image retires — or, with withheld words,
  // keeps only those.
  void drain_line_whole(u64 line);
  // The caches die: every pre-image is copied back and dropped, and all
  // line state (dirty, pending, deferred) with it.
  void revert_volatile();

  sim::Env& env_;
  u64 size_;
  Image mem_;  // the CPU view, caches included
  LazyZero line_state_;
  LineState* lines_;  // size_ / kCacheLine entries, in line_state_
  std::vector<std::unique_ptr<PreImage[]>> pre_chunks_;
  std::size_t pre_count_ = 0;
  // Lines in the order they last went pending (the crash draw order). An
  // entry is stale, and skipped, once its line has left that state or
  // re-entered it under a later entry.
  std::vector<u64> pending_order_;
  // Next dirty stamp. Dirty lines are ordered by stamp, not by a list, so
  // the store path pays no bookkeeping for lines that are never flushed.
  u32 dirty_clock_ = 0;
  std::size_t dirty_count_ = 0;
  std::size_t pending_count_ = 0;
  std::size_t deferred_words_ = 0;
  std::optional<FaultPlan> plan_;
  u64 fault_events_ = 0;
  u64 total_clwb_ = 0;
  u64 total_sfence_ = 0;
  mutable u64 accessed_bytes_ = 0;

  FlushEpoch epoch_{};
  obs::Counter* m_clwb_ = nullptr;
  obs::Counter* m_sfence_ = nullptr;
  obs::Counter* m_bytes_flushed_ = nullptr;
  obs::Counter* m_sfence_deferred_ = nullptr;
  obs::Counter* m_clwb_coalesced_ = nullptr;
  obs::Gauge* m_dirty_hwm_ = nullptr;
  obs::Gauge* m_pending_hwm_ = nullptr;
  std::unique_ptr<FlushBatcher> passthrough_;
};

}  // namespace papm::pm

#include "core/pktstore.h"

#include <stdexcept>

namespace papm::core {

namespace {
net::PmArena& pm_arena_of(net::PktBufPool& pool) {
  auto* arena = dynamic_cast<net::PmArena*>(&pool.arena());
  if (arena == nullptr) {
    throw std::invalid_argument(
        "PktStore requires a PM-backed packet pool (PmArena)");
  }
  return *arena;
}
}  // namespace

PktStore PktStore::create(net::PktBufPool& pktpool, std::string_view name,
                          PktStoreOptions opts) {
  net::PmArena& arena = pm_arena_of(pktpool);
  auto index = container::PSkipList::create(arena.device(), arena.pool(),
                                            std::string(name) + ".idx",
                                            opts.index);
  return PktStore(pktpool, arena, std::move(index), opts);
}

Result<PktStore> PktStore::recover(net::PktBufPool& pktpool,
                                   std::string_view name,
                                   PktStoreOptions opts) {
  net::PmArena& arena = pm_arena_of(pktpool);
  auto index = container::PSkipList::recover(arena.device(), arena.pool(),
                                             std::string(name) + ".idx",
                                             opts.index);
  if (!index.ok()) return index.errc();
  PktStore store(pktpool, arena, std::move(index.value()), opts);
  // Re-register every live data buffer with the fresh packet pool.
  Status st = Errc::ok;
  store.index_.scan("", "", [&](std::string_view, u64 head) {
    const Status s = store.chain_.restore(head);
    if (!s.ok()) st = s;
    return s.ok();
  });
  if (!st.ok()) return st.errc();
  return store;
}

void PktStore::retire_chain(u64 head) {
  // A chain that was durably referenced by the index may still be the
  // recovered value if the crash lands before this epoch's fence retires:
  // quarantine its free until the epoch commits. Without batching (or for
  // chains that never became durably reachable) the immediate free is safe.
  pm::FlushBatcher* b = chain_.batcher();
  if (b != nullptr && b->batching()) {
    b->defer([chain = &chain_, head] { chain->free_chain(head); });
  } else {
    chain_.free_chain(head);
  }
}

void PktStore::charge_prep(storage::OpBreakdown* bd) const {
  auto& env = chain_.device().env();
  const SimTime t0 = env.now();
  env.clock().advance(opts_.light_prep ? env.cost.pktstore_prep_ns
                                       : env.cost.request_prep_ns);
  if (bd != nullptr) bd->prep_ns += env.now() - t0;
}

Status PktStore::put_pkt(std::string_view key, net::PktBuf& pb, u32 val_off,
                         u32 val_len, storage::OpBreakdown* bd) {
  net::PktBuf* pkts[1] = {&pb};
  const u32 offs[1] = {val_off};
  const u32 lens[1] = {val_len};
  return put_pkts(key, pkts, offs, lens, bd);
}

Status PktStore::put_pkts(std::string_view key,
                          std::span<net::PktBuf* const> pkts,
                          std::span<const u32> offs, std::span<const u32> lens,
                          storage::OpBreakdown* bd) {
  obs::inc(m_puts_);
  charge_prep(bd);
  if (opts_.insert != InsertPolicy::host && opts_.zero_copy && !pkts.empty()) {
    bool all_sliced = true;
    u64 total = 0;
    for (std::size_t i = 0; i < pkts.size(); i++) {
      all_sliced = all_sliced && pkts[i]->sliced();
      total += lens[i];
    }
    if (all_sliced && (opts_.insert == InsertPolicy::nic ||
                       total >= opts_.nic_insert_min_bytes)) {
      return put_pkts_offloaded(key, pkts, offs, lens, bd);
    }
  }
  auto head = chain_.ingest_pkts(pkts, offs, lens, ingest_opts(), bd);
  if (!head.ok()) return head.errc();

  auto& env = chain_.device().env();
  const SimTime t0 = env.now();
  u64 old_head = 0;
  const Status st = index_.put(key, head.value(), &old_head);
  if (bd != nullptr) bd->alloc_insert_ns += env.now() - t0;
  if (!st.ok()) {
    chain_.free_chain(head.value());  // never indexed: immediate free is safe
    return st;
  }
  if (old_head != 0) retire_chain(old_head);
  return Errc::ok;
}

Status PktStore::put_pkts_offloaded(std::string_view key,
                                    std::span<net::PktBuf* const> pkts,
                                    std::span<const u32> offs,
                                    std::span<const u32> lens,
                                    storage::OpBreakdown* bd) {
  obs::inc(m_nic_inserts_);
  auto& env = chain_.device().env();
  const SimTime t0 = env.now();
  // Host side of the command: MMIO doorbell carrying the key and the
  // sliced-slot descriptor list.
  env.clock().advance(env.cost.nic_insert_doorbell_ns);
  const SimTime t_doorbell = env.now();

  // The engine executes the same ingest + level-0 insert the host would
  // — every PM state transition (and any injected fault) is identical —
  // but its time must not bill the host core: divert clock charges into a
  // discarded engine-local collector while it runs. The engine's latency
  // is modelled by the calibrated command constants below instead.
  SimTime engine_ns = 0;
  const auto scope = env.clock().exchange_scope(t_doorbell, &engine_ns);
  Result<u64> head = Errc::internal;
  Status st = Errc::internal;
  u64 old_head = 0;
  try {
    head = chain_.ingest_pkts(pkts, offs, lens, ingest_opts(), nullptr);
    if (head.ok()) st = index_.put(key, head.value(), &old_head);
  } catch (...) {
    env.clock().restore_scope(scope);
    throw;  // PowerFailure unwinds with the host scope back in place
  }
  env.clock().restore_scope(scope);
  if (!head.ok()) return head.errc();
  if (!st.ok()) {
    chain_.free_chain(head.value());  // never indexed: immediate free safe
    return st;
  }

  // Engine completion: fixed command execution plus a per-segment
  // metadata append. Un-batched, the host polls the completion queue and
  // waits the engine out before acking. Under group commit the ack is
  // already deferred to the epoch close, which dominates the engine's
  // completion time — no host wait is charged.
  const SimTime engine_done =
      t_doorbell + env.cost.nic_insert_cmd_ns +
      static_cast<SimTime>(pkts.size()) * env.cost.nic_insert_meta_ns;
  pm::FlushBatcher* b = chain_.batcher();
  const bool batching = b != nullptr && b->batching();
  if (!batching && engine_done > env.now()) {
    env.clock().advance(engine_done - env.now());
  }
  env.clock().advance(env.cost.nic_insert_completion_ns);
  if (bd != nullptr) bd->nic_insert_ns += env.now() - t0;

  if (old_head != 0) retire_chain(old_head);
  return Errc::ok;
}

Status PktStore::put_bytes(std::string_view key, std::span<const u8> value,
                           storage::OpBreakdown* bd) {
  obs::inc(m_puts_);
  charge_prep(bd);
  auto head = chain_.ingest_bytes(value, ingest_opts(), bd);
  if (!head.ok()) return head.errc();

  auto& env = chain_.device().env();
  const SimTime t0 = env.now();
  u64 old_head = 0;
  const Status st = index_.put(key, head.value(), &old_head);
  if (bd != nullptr) bd->alloc_insert_ns += env.now() - t0;
  if (!st.ok()) {
    chain_.free_chain(head.value());  // never indexed: immediate free is safe
    return st;
  }
  if (old_head != 0) retire_chain(old_head);
  return Errc::ok;
}

Result<std::vector<u8>> PktStore::get(std::string_view key) const {
  obs::inc(m_gets_);
  const auto head = index_.get(key);
  if (!head.ok()) return head.errc();
  const Status st = chain_.verify(head.value());
  if (!st.ok()) return st.errc();
  return chain_.read(head.value());
}

Result<std::vector<net::PktBuf*>> PktStore::get_as_pkts(
    std::string_view key) const {
  obs::inc(m_gets_);
  const auto head = index_.get(key);
  if (!head.ok()) return head.errc();
  return chain_.emit_pkts(head.value());
}

PktStore::ValueMeta PktStore::stat_of(u64 head) const {
  const PPktMeta* m = chain_.meta(head);
  ValueMeta vm{};
  vm.len = m->total_len;
  vm.csum_kind = static_cast<CsumKind>(m->csum_kind);
  vm.hw_tstamp = m->hw_tstamp;
  vm.segments = 0;
  for (u64 at = head; at != 0; at = chain_.meta(at)->next) vm.segments++;
  return vm;
}

Result<PktStore::ValueMeta> PktStore::stat(std::string_view key) const {
  const auto head = index_.get(key);
  if (!head.ok()) return head.errc();
  return stat_of(head.value());
}

Status PktStore::verify(std::string_view key) const {
  const auto head = index_.get(key);
  if (!head.ok()) return head.status();
  return chain_.verify(head.value());
}

bool PktStore::erase(std::string_view key) {
  obs::inc(m_erases_);
  const auto head = index_.get(key);
  if (!head.ok()) return false;
  if (!index_.erase(key)) return false;
  retire_chain(head.value());
  return true;
}

}  // namespace papm::core

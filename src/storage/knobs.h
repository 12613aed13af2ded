// Store knobs and per-operation breakdown — the instrumentation §3's
// methodology requires ("further modifying the storage stack to skip one
// or more logical operations").
#pragma once

#include "common/types.h"
#include "pm/flush_batch.h"

namespace papm::storage {

// Each flag enables one component of the Table 1 data-management cost.
struct StoreKnobs {
  bool request_prep = true;  // LevelDB-style request structure preparation
  bool checksum = true;      // CRC32C over the value
  bool data_copy = true;     // copy payload into a store-owned PM buffer
  bool index_insert = true;  // PM allocation + persistent skip-list insert
  bool persistence = true;   // flush the value record's cache lines to PM

  // Group/epoch-commit policy for the per-shard FlushBatcher (max epoch
  // size, max ack deferral); epochs open only while HostCpu::backlogged().
  pm::GroupCommitPolicy group_commit;
};

// Simulated-nanosecond cost of each phase of one operation; filled when a
// breakdown pointer is passed to put().
struct OpBreakdown {
  SimTime prep_ns = 0;
  SimTime checksum_ns = 0;
  SimTime slice_ns = 0;       // sliced-descriptor bookkeeping (NIC slicer)
  SimTime copy_ns = 0;
  SimTime alloc_insert_ns = 0;
  SimTime nic_insert_ns = 0;  // doorbell + wait + completion (NIC engine)
  SimTime persist_ns = 0;

  [[nodiscard]] SimTime data_mgmt_ns() const noexcept {
    return prep_ns + checksum_ns + slice_ns + copy_ns + alloc_insert_ns +
           nic_insert_ns;
  }
  [[nodiscard]] SimTime total_ns() const noexcept {
    return data_mgmt_ns() + persist_ns;
  }

  OpBreakdown& operator+=(const OpBreakdown& o) noexcept {
    prep_ns += o.prep_ns;
    checksum_ns += o.checksum_ns;
    slice_ns += o.slice_ns;
    copy_ns += o.copy_ns;
    alloc_insert_ns += o.alloc_insert_ns;
    nic_insert_ns += o.nic_insert_ns;
    persist_ns += o.persist_ns;
    return *this;
  }
  OpBreakdown& operator/=(SimTime n) noexcept {
    if (n > 0) {
      prep_ns /= n;
      checksum_ns /= n;
      slice_ns /= n;
      copy_ns /= n;
      alloc_insert_ns /= n;
      nic_insert_ns /= n;
      persist_ns /= n;
    }
    return *this;
  }
};

}  // namespace papm::storage

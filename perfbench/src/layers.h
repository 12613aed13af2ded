// Host wall-clock benches for single layers: each calls one public
// function of the papm libraries with the shapes of a benchmark workload
// (value size, segments per value, keyspace, heap depth, lines per epoch)
// and reports the median cost per call over timed batches.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "testbed.h"

namespace perfbench {

struct LayerTiming {
  std::string name;
  std::string unit;
  double value = 0;   // median over batches
  u64 samples = 0;    // calls timed
  std::string shape;  // the workload shape the bench used
};

// Runs every bench; `span(name, start)` is called as each bench group
// finishes, with its host-clock start time in seconds.
std::vector<LayerTiming> run_layer_benches(
    const Workload& w, u64 seed,
    const std::function<void(const std::string&, double)>& span);

}  // namespace perfbench

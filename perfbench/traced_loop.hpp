// The traced run: the benchmark drives its own copy of the trainer's step
// loop through the same public calls train::train_with_comm makes, with a
// span from this file around each call. Its final loss must equal the
// untraced trainer's bit for bit, which is what shows that the traced loop
// measures the same program.
#pragma once

#include <string>

#include "comm/communicator.hpp"
#include "workload.hpp"

namespace perfbench {

/// One rank of the traced loop over the workload's full run. `local_batch`
/// lets the single-rank baseline keep the global batch; `epochs` may
/// shorten that baseline. With `probe_layers` the rank also times the
/// model's nn and linalg work at the model's own shapes afterwards.
std::string traced_rank(const Workload& w, const Inputs& in,
                        dkfac::comm::Communicator& comm, int64_t local_batch,
                        int epochs, bool probe_layers);

}  // namespace perfbench

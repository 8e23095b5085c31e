// Launching rank groups and recording what each rank saw.
//
// Every launch starts from a process with no threads of its own: socket
// workloads fork one process per rank through comm::net::run_ranks, thread
// workloads fork one child that runs a comm::LocalGroup. Ranks hand their
// records back through a shared anonymous mapping created before the fork,
// so the launching process never runs training code and can launch again.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "workload.hpp"

namespace perfbench {

/// steady_clock (CLOCK_MONOTONIC) nanoseconds: comparable across the
/// processes of one launch.
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One rank's body: returns the rank's JSON record. An exception marks the
/// rank failed (exit code 1) with the message in its record.
using RankFn = std::function<std::string(dkfac::comm::Communicator&)>;

struct LaunchRecord {
  std::string kind;
  int ranks = 0;
  int64_t planned_steps = 0;  // training steps the launch sets out to run
  int64_t t0_ns = 0;     // just before the fork
  int64_t t_end_ns = 0;  // after every rank was reaped
  int status = 0;        // 0 iff every rank exited 0
  std::vector<std::string> rank_json;  // "null" for a rank that never wrote
};

/// Runs `fn` on `ranks` ranks of `backend`, each with
/// train::omp_threads_per_rank(ranks) OpenMP threads.
LaunchRecord launch(Backend backend, int ranks, const RankFn& fn,
                    const std::string& kind);

/// Serialises a launch record (ranks' records embedded verbatim).
std::string launch_json(const LaunchRecord& record);

/// Thrown from the step probe to end a set-up-only launch after its
/// warm-up steps. Not a dkfac::Error: nothing in the trainer catches it.
struct StopAfterWarmup {};

/// Rank body of an end-to-end launch: the real trainer
/// (train::train_with_comm), timed from outside through its public hooks.
/// With `stop_after_warmup` the launch ends at the first measured step.
std::string train_rank(const Workload& w, const Inputs& in,
                       dkfac::comm::Communicator& comm, bool stop_after_warmup);

/// Peak resident set of this process, KiB.
int64_t peak_rss_kib();

}  // namespace perfbench

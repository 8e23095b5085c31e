#include "jobs.hpp"

#include <omp.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include "comm/net/launch.hpp"
#include "comm/thread_comm.hpp"
#include "common/error.hpp"
#include "json_writer.hpp"
#include "nn/layer.hpp"

namespace perfbench {

namespace {

constexpr size_t kSlotBytes = size_t{1} << 20;
constexpr int kMaxRanks = 8;

struct Slot {
  int32_t written;
  int32_t exit_code;
  uint64_t length;
  char text[kSlotBytes];
};

/// Rank records cross the fork through this MAP_SHARED anonymous mapping;
/// the launcher reads a slot only after its writer was reaped or joined.
class SharedSlots {
 public:
  SharedSlots() {
    void* p = ::mmap(nullptr, sizeof(Slot) * kMaxRanks, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw dkfac::Error("perfbench: mmap failed");
    slots_ = static_cast<Slot*>(p);
    for (int r = 0; r < kMaxRanks; ++r) {
      slots_[r].written = 0;
      slots_[r].exit_code = 0;
      slots_[r].length = 0;
    }
  }
  ~SharedSlots() { ::munmap(slots_, sizeof(Slot) * kMaxRanks); }
  SharedSlots(const SharedSlots&) = delete;
  SharedSlots& operator=(const SharedSlots&) = delete;

  void write(int rank, const std::string& text, int exit_code) {
    Slot& s = slots_[rank];
    const size_t n = std::min(text.size(), kSlotBytes);
    std::memcpy(s.text, text.data(), n);
    s.length = n;
    s.exit_code = exit_code;
    s.written = 1;
  }
  std::string read(int rank) const {
    const Slot& s = slots_[rank];
    if (!s.written) return "null";
    return std::string(s.text, s.length);
  }
  int exit_code(int rank) const {
    return slots_[rank].written ? slots_[rank].exit_code : 1;
  }

 private:
  Slot* slots_ = nullptr;
};

std::string failure_json(int rank, const std::string& what) {
  JsonWriter j;
  j.begin_object().field("rank", rank).field("ok", false).field("error", what);
  return j.end_object().str();
}

/// Runs one rank body, turning any exception into a failed record.
int run_rank(const RankFn& fn, dkfac::comm::Communicator& comm, int ranks,
             SharedSlots& slots) {
  omp_set_num_threads(dkfac::train::omp_threads_per_rank(ranks));
  try {
    slots.write(comm.rank(), fn(comm), 0);
    return 0;
  } catch (const std::exception& e) {
    slots.write(comm.rank(), failure_json(comm.rank(), e.what()), 1);
  } catch (...) {
    slots.write(comm.rank(), failure_json(comm.rank(), "unknown exception"), 1);
  }
  return 1;
}

int launch_threads(int ranks, const RankFn& fn, SharedSlots& slots) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw dkfac::Error("perfbench: fork failed");
  if (pid == 0) {
    std::atomic<int> code{0};
    try {
      dkfac::comm::LocalGroup group(ranks);
      group.run([&](int, dkfac::comm::Communicator& comm) {
        if (run_rank(fn, comm, ranks, slots) != 0) code = 1;
      });
    } catch (...) {
      code = 1;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(code.load());
  }
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0) {
    if (errno != EINTR) throw dkfac::Error("perfbench: waitpid failed");
  }
  if (WIFEXITED(wstatus)) return WEXITSTATUS(wstatus);
  return WIFSIGNALED(wstatus) ? 128 + WTERMSIG(wstatus) : 1;
}

}  // namespace

LaunchRecord launch(Backend backend, int ranks, const RankFn& fn,
                    const std::string& kind) {
  DKFAC_CHECK(ranks >= 1 && ranks <= kMaxRanks);
  SharedSlots slots;
  LaunchRecord record;
  record.kind = kind;
  record.ranks = ranks;
  record.t0_ns = now_ns();
  try {
    if (backend == Backend::kSocket) {
      record.status = dkfac::comm::net::run_ranks(
          ranks, [&](dkfac::comm::Communicator& comm) {
            return run_rank(fn, comm, ranks, slots);
          });
    } else {
      record.status = launch_threads(ranks, fn, slots);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: launch failed: %s\n", e.what());
    record.status = 1;
  }
  record.t_end_ns = now_ns();
  for (int r = 0; r < ranks; ++r) {
    record.rank_json.push_back(slots.read(r));
    if (record.status == 0 && slots.exit_code(r) != 0) record.status = 1;
  }
  return record;
}

std::string launch_json(const LaunchRecord& record) {
  JsonWriter j;
  j.begin_object()
      .field("kind", record.kind)
      .field("ranks", record.ranks)
      .field("planned_steps", record.planned_steps)
      .field("t0_ns", record.t0_ns)
      .field("t_end_ns", record.t_end_ns)
      .field("status", record.status);
  j.key("rank_records").begin_array();
  for (const std::string& r : record.rank_json) j.raw(r);
  j.end_array();
  return j.end_object().str();
}

int64_t peak_rss_kib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss);
}

std::string train_rank(const Workload& w, const Inputs& in,
                       dkfac::comm::Communicator& comm, bool stop_after_warmup) {
  const int64_t t_fn = now_ns();
  int64_t t_model = 0;
  // Reserved up front so that the probe never allocates during a step.
  const size_t max_steps = static_cast<size_t>(w.epochs) * 64;
  std::vector<int64_t> probe_ns, probe_epoch, probe_batch;
  probe_ns.reserve(max_steps);
  probe_epoch.reserve(max_steps);
  probe_batch.reserve(max_steps);
  std::vector<int64_t> epoch_end_ns;

  dkfac::train::TrainConfig config = make_config(w, in);
  config.on_model_init = [&](dkfac::nn::Layer&) { t_model = now_ns(); };
  config.step_probe = [&](int epoch, int64_t batch) {
    probe_ns.push_back(now_ns());
    probe_epoch.push_back(epoch);
    probe_batch.push_back(batch);
    if (stop_after_warmup &&
        static_cast<int64_t>(probe_ns.size()) > kWarmupSteps) {
      throw StopAfterWarmup{};
    }
  };
  // Called on rank 0 only, right after the epoch's evaluation.
  config.on_epoch_checkpoint = [&](int, dkfac::nn::Layer&) {
    epoch_end_ns.push_back(now_ns());
  };

  dkfac::train::TrainResult result;
  bool stopped = false;
  try {
    result = dkfac::train::train_with_comm(model_factory(), in.spec, config, comm);
  } catch (const StopAfterWarmup&) {
    stopped = true;
  }
  if (stop_after_warmup && !stopped) {
    throw dkfac::Error("set-up launch ran to completion without stopping");
  }

  JsonWriter j;
  j.begin_object()
      .field("rank", comm.rank())
      .field("ok", true)
      .field("t_fn_ns", t_fn)
      .field("t_model_ns", t_model)
      .array_field("probe_ns", probe_ns)
      .array_field("probe_epoch", probe_epoch)
      .array_field("probe_batch", probe_batch)
      .array_field("epoch_end_ns", epoch_end_ns);
  std::vector<double> loss, val;
  std::vector<uint64_t> loss_bits;
  for (const dkfac::train::EpochMetrics& m : result.epochs) {
    loss.push_back(m.train_loss);
    val.push_back(m.val_accuracy);
    uint32_t bits = 0;
    std::memcpy(&bits, &m.train_loss, sizeof(bits));
    loss_bits.push_back(bits);
  }
  j.array_field("train_loss", loss)
      .array_field("train_loss_bits", loss_bits)
      .array_field("val_accuracy", val)
      .field("iterations", result.iterations)
      .field("steady_state_allocs", result.comm_stats.steady_state_allocs)
      .field("peak_rss_kib", peak_rss_kib());
  return j.end_object().str();
}

}  // namespace perfbench

// perfbench: the launching side of the repository benchmark (run.py drives
// it and turns its raw records into metrics).
//
//   perfbench manifest
//   perfbench e2e    --workload NAME --seed N --seconds S
//   perfbench traced --workload NAME --seed N
//
// `e2e` makes kSetupLaunches set-up launches (launch, build, warm-up steps,
// stop), then full untraced training launches through
// train::train_with_comm until S seconds of them have run (at least two).
// `traced` makes the same set-up launches, one full untraced launch, one
// launch of the bench-driven traced loop with the layer probes and, for
// kfac-socket-2r, the single-rank baseline of that loop. Either prints one
// JSON object of raw records.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "jobs.hpp"
#include "json_writer.hpp"
#include "traced_loop.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench manifest\n"
               "       perfbench e2e --workload NAME --seed N --seconds S\n"
               "       perfbench traced --workload NAME --seed N\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else {
      usage();
    }
    if (end != nullptr && *end != '\0') usage();
  }
  if (a.mode != "manifest" && a.mode != "e2e" && a.mode != "traced") usage();
  if (a.mode != "manifest" && (a.workload.empty() || a.seconds <= 0.0)) {
    usage();
  }
  return a;
}

void print_manifest() {
  JsonWriter j;
  j.begin_object()
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("native_arch", PERFBENCH_NATIVE_ARCH)
      .field("compiler", PERFBENCH_COMPILER)
      .end_object();
  std::printf("%s\n", j.str().c_str());
}

/// Steps per epoch of every rank at `ranks` x `local_batch`.
int64_t steps_per_epoch(const Inputs& in, int ranks, int64_t local_batch) {
  return in.spec.train_size / (local_batch * ranks);
}

void add_setup_launches(const Workload& w, const Inputs& in,
                        std::vector<LaunchRecord>& out) {
  for (int i = 0; i < kSetupLaunches; ++i) {
    out.push_back(launch(
        w.backend, w.ranks,
        [&](dkfac::comm::Communicator& comm) {
          return train_rank(w, in, comm, /*stop_after_warmup=*/true);
        },
        "setup"));
    out.back().planned_steps = kWarmupSteps;
  }
}

LaunchRecord full_launch(const Workload& w, const Inputs& in) {
  LaunchRecord r = launch(
      w.backend, w.ranks,
      [&](dkfac::comm::Communicator& comm) {
        return train_rank(w, in, comm, /*stop_after_warmup=*/false);
      },
      "full");
  r.planned_steps = w.epochs * steps_per_epoch(in, w.ranks, kLocalBatch);
  return r;
}

int run(const Args& a) {
  const Workload w = find_workload(a.workload);
  const Inputs in = make_inputs(a.seed);
  std::vector<LaunchRecord> launches;
  add_setup_launches(w, in, launches);

  if (a.mode == "e2e") {
    // At least two launches, so that every run checks that identical
    // launches end on identical loss, and enough timed steps for a p95
    // with kMinStepSamples / 20 samples beyond it; more until the time is
    // used up. Each epoch times all its steps but the last (whose interval
    // includes evaluation), and the warm-up steps are not timed.
    const int64_t spe = steps_per_epoch(in, w.ranks, kLocalBatch);
    const int64_t timed_per_launch = w.epochs * (spe - 1) - kWarmupSteps;
    const int64_t start = now_ns();
    for (int64_t n = 0; n < 2 || n * timed_per_launch < kMinStepSamples ||
                        static_cast<double>(now_ns() - start) * 1e-9 < a.seconds;
         ++n) {
      launches.push_back(full_launch(w, in));
      if (launches.back().status != 0) break;
    }
  } else {
    launches.push_back(full_launch(w, in));
    launches.push_back(launch(
        w.backend, w.ranks,
        [&](dkfac::comm::Communicator& comm) {
          return traced_rank(w, in, comm, kLocalBatch, w.epochs, /*probe_layers=*/true);
        },
        "traced"));
    launches.back().planned_steps = w.epochs * steps_per_epoch(in, w.ranks, kLocalBatch);
    if (w.name == "kfac-socket-2r") {
      // Single-worker baseline: the same global batch on one rank that
      // owns every core; two epochs are enough for per-phase medians.
      const int64_t batch = kLocalBatch * w.ranks;
      const int epochs = 2;
      launches.push_back(launch(
          w.backend, 1,
          [&](dkfac::comm::Communicator& comm) {
            return traced_rank(w, in, comm, batch, epochs, /*probe_layers=*/false);
          },
          "baseline"));
      launches.back().planned_steps = epochs * steps_per_epoch(in, 1, batch);
    }
  }

  JsonWriter j;
  j.begin_object()
      .field("mode", a.mode)
      .field("workload", w.name)
      .field("seed", a.seed)
      .field("backend", w.backend == Backend::kSocket ? "socket" : "thread")
      .field("ranks", w.ranks)
      .field("omp_threads_per_rank", dkfac::train::omp_threads_per_rank(w.ranks))
      .field("epochs", w.epochs)
      .field("warmup_steps", kWarmupSteps)
      .field("local_batch", kLocalBatch)
      .field("target_accuracy", static_cast<double>(kTargetAccuracy));
  j.key("launches").begin_array();
  for (const LaunchRecord& r : launches) j.raw(launch_json(r));
  j.end_array().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.mode == "manifest") {
    print_manifest();
    return 0;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

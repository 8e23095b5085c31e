// Benchmark workloads: the model, data, optimizer and backend each one runs,
// and the seed -> inputs derivation. run.py passes the workload name and the
// seed; everything else is fixed here so that two runs of one workload
// execute the same program on inputs that differ only through the seed.
#pragma once

#include <cstdint>
#include <string>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "train/trainer.hpp"

namespace perfbench {

enum class Backend { kThread, kSocket };

struct Workload {
  std::string name;
  bool kfac = false;
  /// K-FAC inverse (eigendecomposition) interval; factors every step.
  int inv_update_freq = 10;
  bool overlap = false;
  Backend backend = Backend::kSocket;
  int ranks = 2;
  /// Length of a full training launch; the learning rate drops tenfold at
  /// 60% and 85% of it.
  int epochs = 4;
  /// Peak learning rate (after a one-epoch warm-up from a quarter of it).
  float base_lr = 0.05f;
};

/// Returns the named workload; throws dkfac::Error for an unknown name.
Workload find_workload(const std::string& name);

/// Fixed run shape shared by all workloads.
inline constexpr int64_t kLocalBatch = 32;
/// Set-up launches per run; setup_s is the median over these and the full
/// launches.
inline constexpr int kSetupLaunches = 3;
/// Timed steps an end-to-end run collects at least.
inline constexpr int64_t kMinStepSamples = 200;
/// Steps at the start of a launch that warm caches and arenas; excluded
/// from step timings and counted in setup time.
inline constexpr int kWarmupSteps = 3;
/// Validation accuracy every workload must reach (time_to_target_s).
inline constexpr float kTargetAccuracy = 0.75f;

/// Seed-derived inputs: one workload seed drives the dataset prototypes,
/// the model initialisation and the shuffling order.
struct Inputs {
  dkfac::data::SyntheticSpec spec;
  uint64_t model_seed = 0;
  uint64_t data_seed = 0;
};

Inputs make_inputs(uint64_t seed);

/// ResNet-20 at width 8, 10 classes.
dkfac::train::ModelFactory model_factory();

/// The trainer configuration of `w` at `local_batch` per rank (the
/// single-rank baseline keeps the global batch by raising it).
dkfac::train::TrainConfig make_config(const Workload& w, const Inputs& in,
                                      int64_t local_batch = kLocalBatch);

}  // namespace perfbench

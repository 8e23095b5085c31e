#include "workload.hpp"

#include "common/error.hpp"

namespace perfbench {

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Workload find_workload(const std::string& name) {
  // Why each workload exists is recorded in perfbench/README.md.
  if (name == "kfac-socket-2r") {
    return {.name = name, .kfac = true, .inv_update_freq = 10, .overlap = false,
            .backend = Backend::kSocket, .ranks = 2, .epochs = 4, .base_lr = 0.05f};
  }
  if (name == "sgd-socket-2r") {
    return {.name = name, .kfac = false, .inv_update_freq = 10, .overlap = false,
            .backend = Backend::kSocket, .ranks = 2, .epochs = 8, .base_lr = 0.1f};
  }
  if (name == "kfac-inv1-overlap-thread-2r") {
    return {.name = name, .kfac = true, .inv_update_freq = 1, .overlap = true,
            .backend = Backend::kThread, .ranks = 2, .epochs = 4, .base_lr = 0.05f};
  }
  throw dkfac::Error("unknown workload '" + name + "'");
}

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  // The repository's bench CIFAR stand-in (bench/bench_util.hpp,
  // bench_cifar_spec), pinned here so the benchmark's inputs cannot drift
  // with the paper-reproduction benches.
  in.spec.num_classes = 10;
  in.spec.channels = 3;
  in.spec.height = in.spec.width = 16;
  in.spec.grid = 4;
  in.spec.train_size = 1280;
  in.spec.val_size = 512;
  in.spec.noise = 3.0f;
  in.spec.seed = splitmix64(seed ^ 0x5EC0ull);
  in.model_seed = splitmix64(seed ^ 0x30DE1ull);
  in.data_seed = splitmix64(seed ^ 0xDA7Aull);
  return in;
}

dkfac::train::ModelFactory model_factory() {
  return [](dkfac::Rng& rng) { return dkfac::nn::resnet_cifar(20, 10, rng, 8); };
}

dkfac::train::TrainConfig make_config(const Workload& w, const Inputs& in,
                                      int64_t local_batch) {
  // The train_cli defaults (examples/train_cli.cpp) for this model, except
  // the per-workload run length and peak learning rate.
  dkfac::train::TrainConfig config;
  config.local_batch = local_batch;
  config.epochs = w.epochs;
  config.lr = {.base_lr = w.base_lr,
               .warmup_epochs = 1.0f,
               .warmup_start_factor = 0.25f,
               .decay_epochs = {0.6f * w.epochs, 0.85f * w.epochs},
               .decay_factor = 0.1f};
  config.momentum = 0.9f;
  config.weight_decay = 5e-4f;
  config.overlap_comm = w.overlap;
  config.use_kfac = w.kfac;
  config.model_seed = in.model_seed;
  config.data_seed = in.data_seed;
  if (w.kfac) {
    config.kfac.damping = 0.003f;
    config.kfac.with_update_freq(w.inv_update_freq);
    config.kfac.strategy = dkfac::kfac::DistributionStrategy::kFactorWise;
  }
  return config;
}

}  // namespace perfbench

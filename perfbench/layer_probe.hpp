// Per-layer timings at the workload model's own shapes: the nn layers
// (conv forward/backward/im2col, batch norm), the linalg kernels behind
// them (conv GEMM, A-factor SYRK) and, for K-FAC, this rank's share of the
// eigendecompositions. Every rank of the group runs the probes at the same
// time, so each sees the same machine contention as during a step.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "core/preconditioner.hpp"
#include "data/synthetic.hpp"
#include "json_writer.hpp"
#include "nn/layer.hpp"

namespace perfbench {

/// Writes one JSON object of probe results into `j`. `kfac` is null for a
/// workload without K-FAC (the decomposition probe is then skipped);
/// otherwise `factors` holds one step's Kronecker factors of the model in
/// kfac->factor_dims() order.
void probe_model_layers(dkfac::nn::Layer& model,
                        const dkfac::kfac::KfacPreconditioner* kfac,
                        const std::vector<dkfac::Tensor>& factors,
                        dkfac::comm::Communicator& comm, int64_t local_batch,
                        const dkfac::data::SyntheticSpec& spec, JsonWriter& j);

}  // namespace perfbench

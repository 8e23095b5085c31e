#include "layer_probe.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "jobs.hpp"
#include "linalg/batch.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"

namespace perfbench {

namespace {

using dkfac::Shape;
using dkfac::Tensor;
namespace nn = dkfac::nn;
namespace linalg = dkfac::linalg;

constexpr int kReps = 7;

struct ConvSite {
  nn::Conv2dSpec spec;
  Shape input;
};

struct BnSite {
  int64_t channels;
  Shape input;
};

/// Propagates `in` through the model's topology, recording the input shape
/// of every conv and batch-norm layer it reaches.
Shape walk(nn::Layer& layer, const Shape& in, std::vector<ConvSite>& convs,
           std::vector<BnSite>& bns) {
  if (dynamic_cast<nn::Sequential*>(&layer) != nullptr) {
    Shape h = in;
    for (nn::Layer* child : layer.children()) h = walk(*child, h, convs, bns);
    return h;
  }
  if (dynamic_cast<nn::ResidualBlock*>(&layer) != nullptr) {
    // children(): main, [projection shortcut], relu.
    const std::vector<nn::Layer*> children = layer.children();
    const Shape out = walk(*children.front(), in, convs, bns);
    if (children.size() == 3) walk(*children[1], in, convs, bns);
    return out;
  }
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    const nn::Conv2dSpec& s = conv->spec();
    convs.push_back({s, in});
    return Shape{in[0], s.out_channels,
                 nn::conv_out_size(in[2], s.kernel, s.stride, s.padding),
                 nn::conv_out_size(in[3], s.kernel, s.stride, s.padding)};
  }
  if (dynamic_cast<nn::BatchNorm2d*>(&layer) != nullptr) {
    bns.push_back({in[1], in});
    return in;
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&layer) != nullptr) {
    return Shape{in[0], in[1]};
  }
  if (auto* linear = dynamic_cast<nn::Linear*>(&layer)) {
    return Shape{in[0], linear->kfac_g_dim()};
  }
  return in;  // elementwise layers
}

double ms_since(int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-6; }

double median(std::vector<double> v) {
  DKFAC_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over kReps of the summed time of `body`, with the ranks aligned
/// by a barrier before every repetition.
double timed_median_ms(dkfac::comm::Communicator& comm,
                       const std::function<void()>& body) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    comm.barrier();
    const int64_t t0 = now_ns();
    body();
    reps.push_back(ms_since(t0));
  }
  return median(reps);
}

}  // namespace

void probe_model_layers(nn::Layer& model,
                        const dkfac::kfac::KfacPreconditioner* kfac,
                        const std::vector<Tensor>& factors,
                        dkfac::comm::Communicator& comm, int64_t local_batch,
                        const dkfac::data::SyntheticSpec& spec, JsonWriter& j) {
  std::vector<ConvSite> conv_sites;
  std::vector<BnSite> bn_sites;
  walk(model, Shape{local_batch, spec.channels, spec.height, spec.width},
       conv_sites, bn_sites);

  // Stand-alone layers with the real layers' specs and input shapes.
  dkfac::Rng rng(0xB0B + static_cast<uint64_t>(comm.rank()));
  std::vector<std::unique_ptr<nn::Conv2d>> convs;
  std::vector<Tensor> conv_in, conv_grad, patches, weights, gemm_out, gram;
  double gemm_flops = 0.0, syrk_flops = 0.0;
  for (const ConvSite& site : conv_sites) {
    convs.push_back(std::make_unique<nn::Conv2d>(site.spec, rng));
    conv_in.push_back(Tensor::randn(site.input, rng));
    const Tensor y = convs.back()->forward(conv_in.back());
    conv_grad.push_back(Tensor::randn(y.shape(), rng));
    Tensor p = nn::im2col(conv_in.back(), site.spec.kernel, site.spec.stride,
                          site.spec.padding);
    const int64_t m = p.shape()[0], k = p.shape()[1];
    const int64_t n = site.spec.out_channels;
    weights.push_back(Tensor::randn(Shape{n, k}, rng));
    gemm_out.push_back(Tensor(Shape{m, n}));
    gram.push_back(Tensor(Shape{k, k}));
    patches.push_back(std::move(p));
    gemm_flops += 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                  static_cast<double>(n);
    syrk_flops += static_cast<double>(m) * static_cast<double>(k) *
                  static_cast<double>(k + 1);
  }
  std::vector<std::unique_ptr<nn::BatchNorm2d>> bns;
  std::vector<Tensor> bn_in, bn_grad;
  for (const BnSite& site : bn_sites) {
    bns.push_back(std::make_unique<nn::BatchNorm2d>(site.channels));
    bn_in.push_back(Tensor::randn(site.input, rng));
    bn_grad.push_back(Tensor::randn(site.input, rng));
    (void)bns.back()->forward(bn_in.back());
  }

  const size_t nc = convs.size(), nb = bns.size();
  const double conv_fwd = timed_median_ms(comm, [&] {
    for (size_t i = 0; i < nc; ++i) (void)convs[i]->forward(conv_in[i]);
  });
  // backward() consumes the batch cached by the forward pass that precedes
  // it, so the backward probe re-runs forward untimed first.
  std::vector<double> bwd_reps;
  for (int r = 0; r < kReps; ++r) {
    for (size_t i = 0; i < nc; ++i) (void)convs[i]->forward(conv_in[i]);
    comm.barrier();
    const int64_t t0 = now_ns();
    for (size_t i = 0; i < nc; ++i) (void)convs[i]->backward(conv_grad[i]);
    bwd_reps.push_back(ms_since(t0));
  }
  const double conv_bwd = median(bwd_reps);
  const double im2col = timed_median_ms(comm, [&] {
    for (size_t i = 0; i < nc; ++i) {
      const nn::Conv2dSpec& s = conv_sites[i].spec;
      (void)nn::im2col(conv_in[i], s.kernel, s.stride, s.padding);
    }
  });
  const double bn_fwd = timed_median_ms(comm, [&] {
    for (size_t i = 0; i < nb; ++i) (void)bns[i]->forward(bn_in[i]);
  });
  std::vector<double> bn_bwd_reps;
  for (int r = 0; r < kReps; ++r) {
    for (size_t i = 0; i < nb; ++i) (void)bns[i]->forward(bn_in[i]);
    comm.barrier();
    const int64_t t0 = now_ns();
    for (size_t i = 0; i < nb; ++i) (void)bns[i]->backward(bn_grad[i]);
    bn_bwd_reps.push_back(ms_since(t0));
  }
  const double bn_bwd = median(bn_bwd_reps);
  const double gemm_ms = timed_median_ms(comm, [&] {
    for (size_t i = 0; i < nc; ++i) {
      linalg::gemm(1.0f, patches[i], linalg::Trans::kNo, weights[i],
                   linalg::Trans::kYes, 0.0f, gemm_out[i]);
    }
  });
  const double syrk_ms = timed_median_ms(comm, [&] {
    for (size_t i = 0; i < nc; ++i) {
      linalg::syrk(1.0f, patches[i], linalg::Trans::kYes, 0.0f, gram[i]);
    }
  });

  j.begin_object()
      .field("conv_layers", static_cast<int64_t>(nc))
      .field("bn_layers", static_cast<int64_t>(nb))
      .field("conv_forward_ms", conv_fwd)
      .field("conv_backward_ms", conv_bwd)
      .field("conv_im2col_ms", im2col)
      .field("bn_forward_ms", bn_fwd)
      .field("bn_backward_ms", bn_bwd)
      .field("gemm_ms", gemm_ms)
      .field("gemm_flops", gemm_flops)
      .field("syrk_ms", syrk_ms)
      .field("syrk_flops", syrk_flops);

  if (kfac != nullptr) {
    // This rank's owned factors, decomposed the way update_decompositions
    // does it (one run_decomposition_batch of sym_eig tasks), on the real
    // layers' factor statistics from a step of the traced loop.
    const std::vector<int64_t>& dims = kfac->factor_dims();
    DKFAC_CHECK(factors.size() == dims.size()) << "factor list mismatch";
    std::vector<const Tensor*> owned;
    double owned_cube = 0.0;
    for (int64_t f : kfac->assignment().owned_by(comm.rank())) {
      owned.push_back(&factors[static_cast<size_t>(f)]);
      DKFAC_CHECK(owned.back()->shape()[0] == dims[static_cast<size_t>(f)]);
      owned_cube += dkfac::kfac::eig_cost(dims[static_cast<size_t>(f)]);
    }
    std::vector<linalg::SymEig> results(owned.size());
    std::vector<linalg::BatchTask> tasks;
    for (size_t i = 0; i < owned.size(); ++i) {
      tasks.push_back({owned[i]->shape()[0],
                       [&owned, &results, i] { results[i] = linalg::sym_eig(*owned[i]); }});
    }
    const double decomp_ms = timed_median_ms(
        comm, [&] { (void)linalg::run_decomposition_batch(tasks); });
    j.field("decomp_ms", decomp_ms)
        .field("decomp_owned", static_cast<int64_t>(owned.size()))
        .field("decomp_flops", 9.0 * owned_cube)
        .field("assign_imbalance", kfac->assignment().imbalance(dims));
  }
  j.end_object();
}

}  // namespace perfbench

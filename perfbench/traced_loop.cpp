#include "traced_loop.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "comm/async_executor.hpp"
#include "comm/fusion.hpp"
#include "core/preconditioner.hpp"
#include "data/loader.hpp"
#include "jobs.hpp"
#include "json_writer.hpp"
#include "layer_probe.hpp"
#include "nn/loss.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/sgd.hpp"

namespace perfbench {

namespace {

// Span names, in the order run.py's SPAN_NAMES lists them.
enum Phase : int {
  kStep = 0,
  kData,
  kForward,
  kBackward,
  kGradSync,
  kKfacStep,
  kOptimStep,
  kEval,
  kFactorProbe,
};

struct SpanRecord {
  int phase;
  int64_t step;  // global step, or -1 for spans outside a step
  int64_t t0;
  int64_t t1;
};

/// In-memory span list, written out once the loop has ended.
class Spans {
 public:
  explicit Spans(size_t reserve) { spans_.reserve(reserve); }

  class Scope {
   public:
    Scope(Spans& s, int phase, int64_t step)
        : spans_(s), phase_(phase), step_(step), t0_(now_ns()) {}
    ~Scope() { spans_.spans_.push_back({phase_, step_, t0_, now_ns()}); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int phase_;
    int64_t step_;
    int64_t t0_;
  };

  void write(JsonWriter& j) const {
    j.key("spans").begin_array();
    for (const SpanRecord& s : spans_) {
      j.begin_array().value(s.phase).value(s.step).value(s.t0).value(s.t1).end_array();
    }
    j.end_array();
  }

 private:
  std::vector<SpanRecord> spans_;
};

/// Running difference of the communicator's counters over the windows the
/// loop adds to it (grad-sync point to grad-sync point, where the async
/// worker is idle and the counters can be read without a race).
struct CommWindow {
  dkfac::comm::CommStats begin;
  dkfac::comm::AsyncCommStats async_begin;
  uint64_t allreduce_calls = 0, allreduce_bytes = 0;
  uint64_t allgather_calls = 0, allgather_bytes = 0;
  uint64_t wire_sent_bytes = 0, factor_encoded_bytes = 0;
  double async_comm_s = 0.0, async_wait_s = 0.0;
  int64_t steps = 0;

  void open(const dkfac::comm::CommStats& s, const dkfac::comm::AsyncCommStats& a) {
    begin = s;
    async_begin = a;
  }
  void close(const dkfac::comm::CommStats& s, const dkfac::comm::AsyncCommStats& a,
             int64_t window_steps) {
    allreduce_calls += s.allreduce_calls - begin.allreduce_calls;
    allreduce_bytes += s.allreduce_bytes - begin.allreduce_bytes;
    allgather_calls += s.allgather_calls - begin.allgather_calls;
    allgather_bytes += s.allgather_bytes - begin.allgather_bytes;
    wire_sent_bytes += s.wire_sent_bytes - begin.wire_sent_bytes;
    factor_encoded_bytes += s.factor_encoded_bytes - begin.factor_encoded_bytes;
    async_comm_s += a.comm_seconds - async_begin.comm_seconds;
    async_wait_s += a.wait_seconds - async_begin.wait_seconds;
    steps += window_steps;
  }
};

uint32_t float_bits(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

std::string traced_rank(const Workload& w, const Inputs& in,
                        dkfac::comm::Communicator& comm, int64_t local_batch,
                        int epochs, bool probe_layers) {
  namespace comm_ns = dkfac::comm;
  using dkfac::Tensor;
  const int64_t t_fn = now_ns();
  const dkfac::train::TrainConfig config = make_config(w, in, local_batch);

  // ---- set-up, exactly as train::train_with_comm does it -----------------
  const dkfac::data::SyntheticImageDataset train_set(
      in.spec, dkfac::data::SyntheticImageDataset::Split::kTrain);
  const dkfac::data::SyntheticImageDataset val_set(
      in.spec, dkfac::data::SyntheticImageDataset::Split::kVal);
  const dkfac::data::ShardedLoader loader(train_set, config.local_batch,
                                          comm.rank(), comm.size(),
                                          config.data_seed);
  dkfac::Rng model_rng(config.model_seed);
  dkfac::nn::LayerPtr model = model_factory()(model_rng);
  std::vector<dkfac::nn::Parameter*> params = model->parameters();
  for (dkfac::nn::Parameter* p : params) comm.broadcast(p->value, /*root=*/0);
  comm.reset_stats();
  const int64_t t_model = now_ns();

  const dkfac::optim::LrSchedule schedule(config.lr);
  dkfac::optim::Sgd optimizer(params, {.lr = schedule.lr_at(0.0f),
                                       .momentum = config.momentum,
                                       .weight_decay = config.weight_decay});
  const comm_ns::CostModel& cost = comm.cost_model();
  std::optional<comm_ns::AsyncExecutor> executor;
  if (config.overlap_comm) {
    executor.emplace(comm, cost.recommended_fusion_bytes(comm.size()),
                     cost.recommended_eager_bytes(comm.size()));
  }
  std::optional<comm_ns::FusionBuffer> grad_fusion;
  if (!executor && comm.size() > 1) {
    grad_fusion.emplace(comm, cost.recommended_fusion_bytes(comm.size()));
  }
  std::optional<dkfac::kfac::KfacPreconditioner> kfac;
  float damping = config.kfac.damping;
  if (config.use_kfac) {
    dkfac::kfac::KfacOptions opts = config.kfac;
    opts.lr = schedule.lr_at(0.0f);
    opts.overlap_comm = opts.overlap_comm || config.overlap_comm;
    kfac.emplace(*model, comm, opts);
    if (executor) kfac->set_async_executor(&*executor);
  }
  std::shared_ptr<const dkfac::nn::BackwardHook> ready_hook;
  if (executor && comm.size() > 1) {
    ready_hook = std::make_shared<const dkfac::nn::BackwardHook>(
        [&executor](dkfac::nn::Layer& layer) {
          for (dkfac::nn::Parameter* p : layer.local_parameters()) {
            executor->submit(p->grad.span(), comm_ns::ReduceOp::kAverage);
          }
        });
    model->set_backward_hook(ready_hook);
  }

  // ---- the step loop -------------------------------------------------------
  const int64_t batches = loader.batches_per_epoch();
  Spans spans(static_cast<size_t>(epochs * batches * 8 + 64));
  CommWindow window;
  const auto async_stats = [&executor] {
    return executor ? executor->stats() : comm_ns::AsyncCommStats{};
  };
  // Per-step K-FAC report fields (bench-timed step() is the kKfacStep span).
  std::vector<int64_t> report_step, report_decomp_updated;
  std::vector<double> report_factor_s, report_decomp_s, report_precond_s;
  // Factor-statistics probes: the real layers' kfac_a_factor() /
  // kfac_g_factor() after a step's backward, outside the step's span.
  std::vector<double> a_factor_ms, g_factor_ms;
  std::vector<dkfac::nn::KfacCapturable*> kfac_layers = model->kfac_layers();
  // The latest probe's factors (A0, G0, A1, G1, ...: factor_dims() order),
  // kept for the decomposition probe after the loop.
  std::vector<Tensor> last_factors(2 * kfac_layers.size());
  std::vector<double> epoch_loss;
  std::vector<uint64_t> epoch_loss_bits;
  std::vector<double> epoch_val;
  int64_t global_step = 0;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (kfac) {
      const float d = dkfac::train::decayed_damping(config, epoch);
      if (d != damping) {
        damping = d;
        kfac->set_damping(damping);
      }
    }
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    for (int64_t b = 0; b < batches; ++b) {
      {
        Spans::Scope step_span(spans, kStep, global_step);
        dkfac::data::Batch batch;
        {
          Spans::Scope s(spans, kData, global_step);
          const float frac_epoch = static_cast<float>(epoch) +
                                   static_cast<float>(b) / static_cast<float>(batches);
          const float lr = schedule.lr_at(frac_epoch);
          optimizer.set_lr(lr);
          if (kfac) kfac->set_lr(lr);
          batch = loader.batch(epoch, b);
        }
        Tensor logits;
        dkfac::nn::LossResult loss;
        {
          Spans::Scope s(spans, kForward, global_step);
          model->zero_grad();
          logits = model->forward(batch.images);
          loss = dkfac::nn::softmax_cross_entropy(logits, batch.labels,
                                                  config.label_smoothing);
        }
        {
          Spans::Scope s(spans, kBackward, global_step);
          model->backward(loss.grad);
        }
        {
          Spans::Scope s(spans, kGradSync, global_step);
          if (executor) {
            executor->wait();
          } else if (grad_fusion) {
            for (dkfac::nn::Parameter* p : params) grad_fusion->add(p->grad);
            grad_fusion->execute(comm_ns::ReduceOp::kAverage);
          }
        }
        if (b == 0) window.open(comm.stats(), async_stats());
        if (b == batches - 1) window.close(comm.stats(), async_stats(), batches - 1);
        if (epoch == 0 && b == 1) {
          if (kfac) kfac->mark_steady_state();
          if (executor) executor->mark_steady_state();
          if (grad_fusion) grad_fusion->mark_steady_state();
        }
        if (kfac) {
          Spans::Scope s(spans, kKfacStep, global_step);
          kfac->step();
        }
        {
          Spans::Scope s(spans, kOptimStep, global_step);
          optimizer.step();
          loss_sum += loss.loss;
          acc_sum += dkfac::nn::accuracy(logits, batch.labels);
        }
      }
      if (kfac) {
        const dkfac::kfac::KfacPreconditioner::StepReport& r = kfac->last_report();
        report_step.push_back(global_step);
        report_decomp_updated.push_back(r.decompositions_updated ? 1 : 0);
        report_factor_s.push_back(r.factor_seconds);
        report_decomp_s.push_back(r.decomposition_seconds);
        report_precond_s.push_back(r.precondition_seconds);
      }
      // Two factor probes per epoch, never on the epoch's last step (whose
      // cached activations evaluation is about to overwrite).
      if (b == batches / 4 || b == (3 * batches) / 4) {
        Spans::Scope s(spans, kFactorProbe, global_step);
        double a_ms = 0.0, g_ms = 0.0;
        for (size_t i = 0; i < kfac_layers.size(); ++i) {
          const int64_t t0 = now_ns();
          Tensor a = kfac_layers[i]->kfac_a_factor();
          const int64_t t1 = now_ns();
          Tensor g = kfac_layers[i]->kfac_g_factor();
          const int64_t t2 = now_ns();
          a_ms += static_cast<double>(t1 - t0) * 1e-6;
          g_ms += static_cast<double>(t2 - t1) * 1e-6;
          last_factors[2 * i] = std::move(a);
          last_factors[2 * i + 1] = std::move(g);
        }
        a_factor_ms.push_back(a_ms);
        g_factor_ms.push_back(g_ms);
      }
      ++global_step;
    }
    if (executor) executor->wait();
    std::vector<float> stats{static_cast<float>(loss_sum / batches),
                             static_cast<float>(acc_sum / batches)};
    comm.allreduce(stats, comm_ns::ReduceOp::kAverage);
    float val = 0.0f;
    {
      Spans::Scope s(spans, kEval, -1);
      val = dkfac::train::evaluate(*model, val_set, comm, config.eval_batch);
    }
    epoch_loss.push_back(stats[0]);
    epoch_loss_bits.push_back(float_bits(stats[0]));
    epoch_val.push_back(val);
  }
  model->set_backward_hook(nullptr);

  comm_ns::ArenaStats arenas;
  if (kfac) arenas += kfac->arena_stats();
  if (executor) arenas += executor->arena_stats();
  if (grad_fusion) arenas += grad_fusion->arena_stats();

  JsonWriter j;
  j.begin_object()
      .field("rank", comm.rank())
      .field("ok", true)
      .field("t_fn_ns", t_fn)
      .field("t_model_ns", t_model)
      .field("local_batch", config.local_batch)
      .field("world", comm.size())
      .field("batches_per_epoch", batches)
      .array_field("train_loss", epoch_loss)
      .array_field("train_loss_bits", epoch_loss_bits)
      .array_field("val_accuracy", epoch_val)
      .field("steady_state_allocs", arenas.steady_state_allocs)
      .field("peak_rss_kib", peak_rss_kib());
  j.key("comm").begin_object()
      .field("steps", window.steps)
      .field("allreduce_calls", window.allreduce_calls)
      .field("allreduce_bytes", window.allreduce_bytes)
      .field("allgather_calls", window.allgather_calls)
      .field("allgather_bytes", window.allgather_bytes)
      .field("wire_sent_bytes", window.wire_sent_bytes)
      .field("factor_encoded_bytes", window.factor_encoded_bytes)
      .field("async_comm_s", window.async_comm_s)
      .field("async_wait_s", window.async_wait_s)
      .end_object();
  j.key("kfac_report").begin_object()
      .array_field("step", report_step)
      .array_field("decompositions_updated", report_decomp_updated)
      .array_field("factor_s", report_factor_s)
      .array_field("decomposition_s", report_decomp_s)
      .array_field("precondition_s", report_precond_s)
      .end_object();
  j.array_field("a_factor_ms", a_factor_ms).array_field("g_factor_ms", g_factor_ms);
  spans.write(j);
  if (probe_layers) {
    j.key("layers");
    probe_model_layers(*model, kfac ? &*kfac : nullptr, last_factors, comm,
                       config.local_batch, in.spec, j);
  }
  return j.end_object().str();
}

}  // namespace perfbench

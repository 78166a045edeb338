#include "core/search_step.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/ops.hpp"

namespace lightnas::core {

namespace {

/// GDAS-style hard gate: value exactly 1, gradient d(gate)/d(p_soft) = 1,
/// so the path's output gradient is credited to its soft probability.
nn::VarPtr hard_gate(const nn::VarPtr& soft_prob) {
  return nn::ops::add_scalar(
      nn::ops::sub(soft_prob, nn::ops::detach(soft_prob)), 1.0);
}

std::size_t infer_num_classes(const nn::SyntheticTask& task) {
  return task.train.labels.empty()
             ? 10
             : 1 + *std::max_element(task.train.labels.begin(),
                                     task.train.labels.end());
}

}  // namespace

// ---------------------------------------------------------------- topology

SearchTopology::SearchTopology(const space::SearchSpace& space)
    : space_(&space),
      num_layers_(space.num_layers()),
      num_ops_(space.num_ops()) {
  for (std::size_t l = 0; l < num_layers_; ++l) {
    if (space.layers()[l].searchable) searchable_layers_.push_back(l);
  }
}

PathSample SearchTopology::sample_path(const nn::VarPtr& alpha, double tau,
                                       util::Rng& rng) const {
  PathSample sample;
  sample.p_hat = nn::ops::row_softmax(nn::ops::scale(
      nn::ops::add(alpha, nn::make_const(gumbel_noise(
                              num_searchable(), num_ops_, rng))),
      1.0 / tau));
  sample.op_choice.assign(num_layers_, 0);
  for (std::size_t s = 0; s < num_searchable(); ++s) {
    sample.op_choice[searchable_layers_[s]] =
        sample.p_hat->value.argmax_row(s);
  }
  return sample;
}

space::Architecture SearchTopology::derive(const nn::Tensor& alpha) const {
  std::vector<std::size_t> ops(num_layers_, 0);
  for (std::size_t s = 0; s < num_searchable(); ++s) {
    ops[searchable_layers_[s]] = alpha.argmax_row(s);
  }
  return space::Architecture(std::move(ops));
}

nn::VarPtr SearchTopology::assemble_encoding(
    const nn::VarPtr& binarized) const {
  std::vector<nn::VarPtr> rows;
  rows.reserve(num_layers_);
  std::size_t s = 0;
  for (std::size_t l = 0; l < num_layers_; ++l) {
    if (space_->layers()[l].searchable) {
      rows.push_back(nn::ops::slice_rows(binarized, s++, 1));
    } else {
      nn::Tensor one_hot = nn::Tensor::zeros(1, num_ops_);
      one_hot.at(0, 0) = 1.0f;
      rows.push_back(nn::make_const(std::move(one_hot)));
    }
  }
  return nn::ops::reshape(nn::ops::vstack(rows), 1, num_layers_ * num_ops_);
}

// ------------------------------------------------------- shared-w trainer

SharedWTrainer::SharedWTrainer(const SearchTopology& topology,
                               const nn::SyntheticTask& task,
                               const SupernetConfig& supernet,
                               const LightNasConfig& config,
                               std::size_t total_w_steps)
    : supernet_(topology.space(), task.train.feature_dim(),
                infer_num_classes(task),
                [&] {
                  SupernetConfig seeded = supernet;
                  seeded.seed ^= config.seed;
                  return seeded;
                }()),
      weight_params_(supernet_.weight_parameters()),
      w_optimizer_(weight_params_, config.w_lr, config.w_momentum,
                   config.w_weight_decay, /*clip_norm=*/5.0),
      w_schedule_(config.w_lr, total_w_steps) {
  manifest_.reserve(weight_params_.size());
}

double SharedWTrainer::step(const nn::Dataset& batch,
                            const std::vector<std::size_t>& op_choice) {
  // Only the previous step's path holds gradients (alpha steps compute
  // none), so zeroing its manifest leaves every gradient zero — the
  // precondition of Sgd::step_on below.
  if (zero_all_) {
    w_optimizer_.zero_grad();
    zero_all_ = false;
  } else {
    for (const std::uint32_t i : manifest_) weight_params_[i]->zero_grad();
  }
  // Taken before the forward, so even a step that throws midway leaves
  // a manifest covering whatever its backward wrote.
  supernet_.path_parameters(op_choice, manifest_);
  const nn::VarPtr logits =
      supernet_.forward_single_path(batch.features, op_choice);
  const nn::VarPtr loss = nn::ops::softmax_cross_entropy(logits, batch.labels);
  nn::backward(loss);
  w_optimizer_.set_lr(w_schedule_.lr_at(step_counter_++));
  w_optimizer_.step_on(manifest_);
  return static_cast<double>(loss->value.item());
}

SharedWTrainer::State SharedWTrainer::export_state() const {
  State state;
  state.weights.reserve(weight_params_.size());
  for (const nn::VarPtr& p : weight_params_) {
    state.weights.push_back(p->value);
  }
  state.velocity = w_optimizer_.export_state().velocity;
  state.step_counter = step_counter_;
  return state;
}

void SharedWTrainer::restore_state(const State& state) {
  if (state.weights.size() != weight_params_.size()) {
    throw std::invalid_argument(
        "SharedWTrainer: supernet parameter count mismatch");
  }
  for (std::size_t i = 0; i < weight_params_.size(); ++i) {
    if (!state.weights[i].same_shape(weight_params_[i]->value)) {
      throw std::invalid_argument(
          "SharedWTrainer: supernet tensor shape mismatch");
    }
    weight_params_[i]->value = state.weights[i];
  }
  w_optimizer_.restore_state({state.velocity});
  step_counter_ = state.step_counter;
  // Whatever gradients are in flight belong to the pre-restore
  // trajectory — make the next step sweep all of them.
  zero_all_ = true;
}

// ------------------------------------------------------ alpha-lambda head

AlphaLambdaHead::AlphaLambdaHead(const SearchTopology& topology,
                                 const std::vector<Constraint>& constraints,
                                 const LightNasConfig& config)
    : topology_(&topology),
      constraints_(&constraints),
      alpha_lr_(config.alpha_lr),
      lambda_lr_(config.lambda_lr),
      penalty_mu_(config.penalty_mu),
      alpha_(nn::make_leaf(
          nn::Tensor::zeros(topology.num_searchable(), topology.num_ops()),
          "alpha")),
      alpha_optimizer_({alpha_}, config.alpha_lr, 0.9, 0.999, 1e-8,
                       config.alpha_weight_decay),
      lambdas_(constraints.size(),
               nn::LambdaAscent(config.lambda_lr, config.lambda_init)) {}

PathSample AlphaLambdaHead::sample(double tau, util::Rng& rng) const {
  return topology_->sample_path(alpha_, tau, rng);
}

double AlphaLambdaHead::alpha_step(
    const SurrogateSupernet& supernet,
    const std::vector<nn::VarPtr>& weight_params, const nn::Dataset& batch,
    double tau, util::Rng& rng) {
  const std::size_t num_layers = topology_->num_layers();
  const std::vector<std::size_t>& searchable =
      topology_->searchable_layers();
  const std::vector<Constraint>& constraints = *constraints_;
  const nn::RequiresGradScope frozen(weight_params, false);

  const nn::VarPtr p_hat = nn::ops::row_softmax(nn::ops::scale(
      nn::ops::add(alpha_, nn::make_const(gumbel_noise(
                               searchable.size(), topology_->num_ops(),
                               rng))),
      1.0 / tau));

  // Sampled path + GDAS gates so d(CE)/d(alpha) exists (Eq 12).
  std::vector<std::size_t> op_choice(num_layers, 0);
  std::vector<nn::VarPtr> gates(num_layers, nullptr);
  for (std::size_t s = 0; s < searchable.size(); ++s) {
    const std::size_t j = p_hat->value.argmax_row(s);
    op_choice[searchable[s]] = j;
    gates[searchable[s]] = hard_gate(nn::ops::select(p_hat, s, j));
  }

  const nn::VarPtr logits =
      supernet.forward_single_path(batch.features, op_choice, gates);
  nn::VarPtr loss = nn::ops::softmax_cross_entropy(logits, batch.labels);

  // Differentiable cost of the binarized architecture (Eq 9 + 12), one
  // penalty term per constraint.
  double sampled_cost = 0.0;
  const nn::VarPtr p_bar = nn::ops::binarize_rows_ste(p_hat);
  const nn::VarPtr encoding = topology_->assemble_encoding(p_bar);
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    const nn::VarPtr cost = constraints[c].predictor->forward_var(encoding);
    const nn::VarPtr violation = nn::ops::add_scalar(
        nn::ops::scale(cost, 1.0 / constraints[c].target), -1.0);
    loss = nn::ops::add(loss, nn::ops::scale(violation, lambdas_[c].value()));
    if (penalty_mu_ != 0.0) {
      loss = nn::ops::add(
          loss, nn::ops::scale(nn::ops::mul(violation, violation),
                               penalty_mu_));
    }
    if (c == 0) sampled_cost = static_cast<double>(cost->value.item());
  }

  alpha_optimizer_.zero_grad();
  nn::backward(loss);
  alpha_optimizer_.step();

  // Gradient ascent on each lambda (Eq 11): dL/dlambda_c =
  // COST_c(alpha)/T_c - 1, where the architecture encoded by alpha is the
  // argmax one of Eq (4) — NOT the Gumbel-sampled path, whose cost is a
  // noisy draw centred on the distribution rather than on the encoding.
  const space::Architecture derived_arch = derive();
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    lambdas_[c].step(constraints[c].predictor->predict(derived_arch) /
                         constraints[c].target -
                     1.0);
  }
  return sampled_cost;
}

space::Architecture AlphaLambdaHead::derive() const {
  return topology_->derive(alpha_->value);
}

std::vector<double> AlphaLambdaHead::lambda_values() const {
  std::vector<double> values;
  values.reserve(lambdas_.size());
  for (const nn::LambdaAscent& l : lambdas_) values.push_back(l.value());
  return values;
}

void AlphaLambdaHead::set_cooldown_scale(double scale) {
  alpha_optimizer_.set_lr(alpha_lr_ * scale);
  for (nn::LambdaAscent& l : lambdas_) {
    l.set_lr(lambda_lr_ * scale);
  }
}

AlphaLambdaHead::State AlphaLambdaHead::export_state() const {
  State state;
  state.alpha = alpha_->value;
  nn::Adam::State adam = alpha_optimizer_.export_state();
  state.adam_m = std::move(adam.m);
  state.adam_v = std::move(adam.v);
  state.adam_t = adam.t;
  state.lambdas = lambda_values();
  return state;
}

void AlphaLambdaHead::restore_state(const State& state) {
  if (!state.alpha.same_shape(alpha_->value)) {
    throw std::invalid_argument(
        "AlphaLambdaHead: alpha shape does not match the search space");
  }
  if (state.lambdas.size() != lambdas_.size()) {
    throw std::invalid_argument("AlphaLambdaHead: lambda count mismatch");
  }
  alpha_->value = state.alpha;
  alpha_optimizer_.restore_state({state.adam_m, state.adam_v, state.adam_t});
  for (std::size_t c = 0; c < lambdas_.size(); ++c) {
    lambdas_[c].reset(state.lambdas[c]);
  }
}

}  // namespace lightnas::core

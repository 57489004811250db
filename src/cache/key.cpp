#include "nanocost/cache/key.hpp"

namespace nanocost::cache {

Digest128 sweep_eq4_key(const core::Eq4Inputs& inputs, double lo, double hi, int steps) {
  KeyBuilder key("core.sweep_eq4");
  core::append_eq4_inputs(key, inputs);
  key.f64("lo", lo).f64("hi", hi).i32("steps", steps);
  return key.digest();
}

Digest128 monte_carlo_cost_key(const core::UncertainInputs& inputs, double s_d, int samples,
                               std::uint64_t seed, double die_budget) {
  KeyBuilder key("core.monte_carlo_cost");
  core::append_uncertain_inputs(key, inputs);
  key.f64("s_d", s_d).i32("samples", samples).u64("seed", seed).f64("die_budget", die_budget);
  return key.digest();
}

Digest128 robust_sd_key(const core::UncertainInputs& inputs, double quantile, double lo,
                        double hi, int steps, int samples, std::uint64_t seed) {
  KeyBuilder key("core.robust_sd");
  core::append_uncertain_inputs(key, inputs);
  key.f64("quantile", quantile)
      .f64("lo", lo)
      .f64("hi", hi)
      .i32("steps", steps)
      .i32("samples", samples)
      .u64("seed", seed);
  return key.digest();
}

Digest128 fabsim_run_key(const fabsim::FabConfig& config, std::int64_t n_wafers,
                         std::uint64_t seed) {
  return KeyBuilder("fabsim.run")
      .sub("simulator", config.digest())
      .i64("n_wafers", n_wafers)
      .u64("seed", seed)
      .digest();
}

}  // namespace nanocost::cache

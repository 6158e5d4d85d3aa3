#include "hymv/driver/env_options.hpp"

#include <array>
#include <cstdlib>
#include <string>

#include "hymv/common/env.hpp"

namespace hymv::driver {

core::HymvOptions hymv_options_from_env(core::HymvOptions fallback) {
  using core::StoreLayout;
  using core::ThreadSchedule;
  fallback.layout = env_enum(
      "HYMV_STORE_LAYOUT", fallback.layout,
      std::array{StoreLayout::kPadded, StoreLayout::kInterleaved,
                 StoreLayout::kSymPacked, StoreLayout::kFp32},
      [](StoreLayout l) { return core::to_string(l); });
  fallback.schedule = env_enum(
      "HYMV_THREAD_SCHEDULE", fallback.schedule,
      std::array{ThreadSchedule::kSerial, ThreadSchedule::kColored},
      [](ThreadSchedule s) { return core::to_string(s); });
  fallback.taskgraph = env_flag("HYMV_APPLY_TASKGRAPH", fallback.taskgraph);
  return fallback;
}

core::AdaptiveOptions adaptive_options_from_env(
    core::AdaptiveOptions fallback) {
  using core::RegionBackendKind;
  fallback.sell_c = static_cast<int>(
      env_int_in_range("HYMV_SELL_C", fallback.sell_c, 1, 256));
  fallback.sell_sigma = static_cast<int>(
      env_int_in_range("HYMV_SELL_SIGMA", fallback.sell_sigma, 1, 1048576));
  fallback.probes = static_cast<int>(
      env_int_in_range("HYMV_ADAPTIVE_PROBES", fallback.probes, 0, 1000));
  // "" autotunes, as an unset force does.
  const std::array<std::string, 4> forces = {
      "", core::to_string(RegionBackendKind::kStored),
      core::to_string(RegionBackendKind::kMatrixFree),
      core::to_string(RegionBackendKind::kSell)};
  fallback.force =
      env_enum("HYMV_ADAPTIVE_FORCE", fallback.force, forces,
               [](const std::string& force) { return force.c_str(); });
  if (const char* replay = std::getenv("HYMV_ADAPTIVE_REPLAY")) {
    fallback.replay_path = replay;
  }
  return fallback;
}

pla::ChebyshevOptions chebyshev_options_from_env(
    pla::ChebyshevOptions fallback) {
  fallback.degree = static_cast<int>(
      env_int_in_range("HYMV_CHEB_DEGREE", fallback.degree, 1, 64));
  fallback.eig_iters = static_cast<int>(
      env_int_in_range("HYMV_CHEB_EIG_ITERS", fallback.eig_iters, 1, 1000));
  fallback.eig_ratio =
      env_double_above("HYMV_CHEB_EIG_RATIO", fallback.eig_ratio, 1.0);
  return fallback;
}

pla::MultigridOptions multigrid_options_from_env(
    pla::MultigridOptions fallback) {
  using Smoother = pla::MultigridOptions::Smoother;
  using CoarseSolve = pla::MultigridOptions::CoarseSolve;
  fallback.max_levels = static_cast<int>(
      env_int_in_range("HYMV_MG_LEVELS", fallback.max_levels, 2, 10));
  fallback.sweeps = static_cast<int>(
      env_int_in_range("HYMV_MG_SWEEPS", fallback.sweeps, 1, 8));
  fallback.cheb_degree = static_cast<int>(
      env_int_in_range("HYMV_MG_CHEB_DEGREE", fallback.cheb_degree, 1, 8));
  fallback.smoother = env_enum(
      "HYMV_MG_SMOOTHER", fallback.smoother,
      std::array{Smoother::kChebyshev, Smoother::kJacobi},
      [](Smoother s) {
        return s == Smoother::kJacobi ? "jacobi" : "chebyshev";
      });
  fallback.coarse = env_enum(
      "HYMV_MG_COARSE", fallback.coarse,
      std::array{CoarseSolve::kDirect, CoarseSolve::kIlu0},
      [](CoarseSolve c) {
        return c == CoarseSolve::kIlu0 ? "ilu0" : "direct";
      });
  return fallback;
}

int nrhs_from_env(int fallback) {
  return static_cast<int>(env_int_in_range("HYMV_NRHS", fallback, 1, 64));
}

Backend backend_from_env(Backend fallback) {
  return env_enum("HYMV_BACKEND", fallback,
                  std::array{Backend::kAssembled, Backend::kHymv,
                             Backend::kMatrixFree, Backend::kHymvGpu,
                             Backend::kAssembledGpu, Backend::kAdaptive},
                  backend_name);
}

Precond precond_from_env(Precond fallback) {
  return env_enum("HYMV_PRECOND", fallback,
                  std::array{Precond::kNone, Precond::kJacobi,
                             Precond::kBlockJacobi, Precond::kNodeBlockJacobi,
                             Precond::kChebyshev, Precond::kMultigrid},
                  precond_name);
}

}  // namespace hymv::driver

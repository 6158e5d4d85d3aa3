#pragma once

/// \file dual_timer.hpp
/// Phase timer shared by the operator setup and the apply skeleton.

#include "hymv/common/timer.hpp"
#include "hymv/obs/metrics.hpp"

namespace hymv::core {

/// Samples the wall and per-thread-CPU clocks together, so every phase is
/// recorded on both axes.
struct DualTimer {
  hymv::Timer wall;
  hymv::ThreadCpuTimer cpu;
  void restart() {
    wall.restart();
    cpu.restart();
  }
  void add_to(hymv::obs::Gauge* wall_g, hymv::obs::Gauge* cpu_g) const {
    wall_g->add(wall.elapsed_s());
    cpu_g->add(cpu.elapsed_s());
  }
};

}  // namespace hymv::core

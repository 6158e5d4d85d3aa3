#include "hymv/common/numa.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

#include "hymv/common/aligned.hpp"
#include "hymv/common/env.hpp"
#include "hymv/common/timer.hpp"

namespace hymv::numa {

namespace {

/// Below this element count a parallel fill costs more than it places
/// (fork/join overhead vs one page per thread): ~4 pages of doubles.
constexpr std::size_t kMinParallelFill = 2048;

std::atomic<int> g_first_touch{-1};  // -1 unresolved, else 0/1
std::atomic<bool> g_pinned{false};
std::atomic<int> g_pinned_threads{0};
std::atomic<double> g_triad{-1.0};  // <0 unmeasured, else bytes/s (0 = off)

bool resolve_first_touch() {
  // Once per process: the rank threads of a simmpi run fill concurrently,
  // and a rejected value must warn once, not once per racing thread.
  static std::once_flag once;
  std::call_once(once, [] {
    if (g_first_touch.load(std::memory_order_relaxed) < 0) {
      g_first_touch.store(hymv::env_flag("HYMV_FIRST_TOUCH", true) ? 1 : 0,
                          std::memory_order_relaxed);
    }
  });
  return g_first_touch.load(std::memory_order_relaxed) != 0;
}

template <typename T>
void fill_impl(T* p, std::size_t n, T value) {
  if (p == nullptr || n == 0) {
    return;
  }
#ifdef _OPENMP
  if (resolve_first_touch() && n >= kMinParallelFill) {
    // schedule(static) gives every thread the same contiguous slice the
    // compute sweeps' static loops will read, so the pages it faults in
    // here are the pages it streams later.
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      p[i] = value;
    }
    return;
  }
#endif
  std::fill(p, p + n, value);
}

}  // namespace

bool first_touch_enabled() { return resolve_first_touch(); }

void set_first_touch(bool enabled) {
  g_first_touch.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void first_touch_fill(double* p, std::size_t n, double value) {
  fill_impl(p, n, value);
}

void first_touch_fill(float* p, std::size_t n, float value) {
  fill_impl(p, n, value);
}

void first_touch_fill(std::int64_t* p, std::size_t n, std::int64_t value) {
  fill_impl(p, n, value);
}

int pin_threads_from_env() {
#if defined(__linux__) && defined(_OPENMP)
  static std::once_flag once;
  std::call_once(once, [] {
    if (!hymv::env_flag("HYMV_PIN_THREADS", false)) {
      return;
    }
    // User-level affinity always wins: OMP_PLACES / OMP_PROC_BIND direct
    // the OpenMP runtime itself, and fighting it with sched_setaffinity
    // would silently override the user's layout.
    if (std::getenv("OMP_PLACES") != nullptr ||
        std::getenv("OMP_PROC_BIND") != nullptr) {
      return;
    }
    const long ncpu_l = sysconf(_SC_NPROCESSORS_ONLN);
    const int ncpu = ncpu_l > 0 ? static_cast<int>(ncpu_l) : 1;
    int pinned = 0;
#pragma omp parallel reduction(+ : pinned)
    {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(omp_get_thread_num() % ncpu, &set);
      if (sched_setaffinity(0, sizeof(set), &set) == 0) {
        pinned = 1;
      }
    }
    if (pinned > 0) {
      g_pinned.store(true, std::memory_order_relaxed);
      g_pinned_threads.store(pinned, std::memory_order_relaxed);
    }
  });
  return g_pinned_threads.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

bool threads_pinned() { return g_pinned.load(std::memory_order_relaxed); }

double measured_triad_bytes_per_s() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (!hymv::env_flag("HYMV_TRIAD_PROBE", true)) {
      g_triad.store(0.0, std::memory_order_relaxed);
      return;
    }
    // STREAM triad over three 16 MiB arrays — large enough to defeat any
    // single-socket LLC, small enough that 3 reps stay near 10-20 ms.
    constexpr std::size_t kN = std::size_t{1} << 21;
    hymv::aligned_uninit_vector<double> a, b, c;
    a.resize(kN);
    b.resize(kN);
    c.resize(kN);
    first_touch_fill(a.data(), kN, 0.0);
    first_touch_fill(b.data(), kN, 1.0);
    first_touch_fill(c.data(), kN, 2.0);
    const double s = 3.0;
    double best_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      hymv::Timer t;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(kN); ++i) {
        a[static_cast<std::size_t>(i)] =
            b[static_cast<std::size_t>(i)] +
            s * c[static_cast<std::size_t>(i)];
      }
      const double elapsed = t.elapsed_s();
      if (rep == 0) {
        continue;  // warm-up: page faults + frequency ramp
      }
      if (best_s == 0.0 || elapsed < best_s) {
        best_s = elapsed;
      }
    }
    // Counted traffic: read b, read c, write a (write-allocate traffic on
    // a is real but STREAM convention omits it).
    const double bytes = 3.0 * sizeof(double) * static_cast<double>(kN);
    g_triad.store(best_s > 0.0 ? bytes / best_s : 0.0,
                  std::memory_order_relaxed);
  });
  const double v = g_triad.load(std::memory_order_relaxed);
  return v < 0.0 ? 0.0 : v;
}

Report report() {
  Report r;
  r.first_touch = first_touch_enabled();
  r.pinned = threads_pinned();
  r.pinned_threads = g_pinned_threads.load(std::memory_order_relaxed);
  const double triad = g_triad.load(std::memory_order_relaxed);
  r.triad_bytes_per_s = triad > 0.0 ? triad : 0.0;
  return r;
}

}  // namespace hymv::numa

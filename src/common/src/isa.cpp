#include "hymv/common/isa.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "hymv/common/env.hpp"

namespace hymv::isa {

namespace {

IsaLevel detect_cpu() {
#if HYMV_ISA_X86
  // __builtin_cpu_supports consults CPUID (and, for AVX-512/AVX2, the
  // XGETBV-reported OS state), so a kernel that disabled ZMM state
  // correctly reports no AVX-512.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    return IsaLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return IsaLevel::kAvx2;
  }
#endif
  return IsaLevel::kScalar;
}

/// Parse HYMV_ISA (case-insensitive). Returns -1 for "unset/invalid".
int parse_isa_name(const char* value) {
  std::string s(value);
  for (char& ch : s) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  if (s == "scalar") return static_cast<int>(IsaLevel::kScalar);
  if (s == "avx2") return static_cast<int>(IsaLevel::kAvx2);
  if (s == "avx512") return static_cast<int>(IsaLevel::kAvx512);
  return -1;
}

}  // namespace

namespace detail {

std::atomic<int> g_active{-1};

int resolve_active() {
  const IsaLevel cpu = hymv::isa::detected();
  int level = static_cast<int>(cpu);
  if (const char* env = std::getenv("HYMV_ISA")) {
    const int wanted = parse_isa_name(env);
    if (wanted < 0) {
      hymv::warn_env_rejected("HYMV_ISA", env, "scalar|avx2|avx512");
    } else if (wanted > level) {
      std::fprintf(stderr,
                   "hymv: HYMV_ISA=%s exceeds CPU support; clamping to %s\n",
                   env, std::string(to_string(cpu)).c_str());
    } else {
      level = wanted;
    }
  }
  g_active.store(level, std::memory_order_relaxed);
  return level;
}

}  // namespace detail

std::string_view to_string(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

IsaLevel detected() {
  static const IsaLevel cached = detect_cpu();
  return cached;
}

IsaLevel active() { return static_cast<IsaLevel>(active_index()); }

IsaLevel force(IsaLevel level) {
  int wanted = static_cast<int>(level);
  const int cpu = static_cast<int>(detected());
  if (wanted > cpu) {
    wanted = cpu;
  }
  if (wanted < 0) {
    wanted = 0;
  }
  detail::g_active.store(wanted, std::memory_order_relaxed);
  return static_cast<IsaLevel>(wanted);
}

void reset() { detail::g_active.store(-1, std::memory_order_relaxed); }

}  // namespace hymv::isa

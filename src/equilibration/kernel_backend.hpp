// Benchmark compatibility only. The repository benchmark (perfbench/) reads
// three names for its context line: this header,
// sea::ResolveKernelBackend(SeaOptions{}.backend).kernel->name() and
// SeaResult::kernel_backend. The market kernel has one implementation
// (equilibration/breakpoint_solver.hpp), so all three report "scalar" and
// none can be set. Nothing else in the repository reads them; they go when
// the benchmark is next revised.
#pragma once

namespace sea {

struct KernelName {
  static constexpr const char* name() { return "scalar"; }
};

struct KernelResolution {
  const KernelName* kernel = nullptr;
};

inline constexpr KernelName kKernelName{};

inline KernelResolution ResolveKernelBackend(const char* /*backend*/) {
  return {&kKernelName};
}

}  // namespace sea

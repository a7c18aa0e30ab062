// Test helper: a solve observer (core/solve_observer.hpp) that runs a
// callable on every check event, e.g.
//   CheckCallback on_check([&](const IterationEvent& ev) { ... });
//   opts.observers = {&on_check};
#pragma once

#include <utility>

#include "core/options.hpp"
#include "core/solve_observer.hpp"

namespace sea {

template <typename Fn>
class CheckCallback : public SolveObserver {
 public:
  explicit CheckCallback(Fn fn) : fn_(std::move(fn)) {}
  void OnCheck(const IterationEvent& ev) override { fn_(ev); }

 private:
  Fn fn_;
};

}  // namespace sea

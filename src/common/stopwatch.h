#ifndef WSIE_COMMON_STOPWATCH_H_
#define WSIE_COMMON_STOPWATCH_H_

#include <chrono>

namespace wsie {

/// Monotonic wall-clock stopwatch used by benchmarks and the executor's
/// per-operator timing.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed time in integral nanoseconds — the unit the observability
  /// layer's latency histograms record.
  int64_t ElapsedNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace wsie

#endif  // WSIE_COMMON_STOPWATCH_H_

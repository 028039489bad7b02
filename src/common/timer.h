#ifndef DBSCOUT_COMMON_TIMER_H_
#define DBSCOUT_COMMON_TIMER_H_

#include <chrono>

namespace dbscout {

/// Monotonic wall-clock timer. Starts running on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dbscout

#endif  // DBSCOUT_COMMON_TIMER_H_

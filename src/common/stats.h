// Streaming statistics: an exponentially weighted moving average (the EWMA
// that drives Gimbal's latency monitor) and a windowed rate meter.
#pragma once

#include <cstdint>

namespace gimbal {

// Exponentially weighted moving average with weight `alpha` on the newest
// sample: ewma = (1-alpha)*ewma + alpha*sample. The first sample initializes
// the average directly, matching the behaviour Gimbal's latency monitor
// needs (no cold-start bias toward zero).
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void Add(double sample) {
    if (!initialized_) {
      value_ = sample;
      initialized_ = true;
    } else {
      value_ = (1.0 - alpha_) * value_ + alpha_ * sample;
    }
  }

  void Reset() { initialized_ = false; value_ = 0; }

  bool initialized() const { return initialized_; }
  double value() const { return value_; }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double value_ = 0;
  bool initialized_ = false;
};

// Windowed rate meter: counts bytes (or ops) completed and reports the rate
// over the elapsed window. Used by Gimbal's overloaded-state handling, which
// snaps the target rate to the measured completion rate.
class RateMeter {
 public:
  void Add(uint64_t amount) { accumulated_ += amount; }

  // Close the window that started at `window_start` and ended `now`;
  // returns the rate in units/sec and restarts the window.
  double Roll(int64_t window_start, int64_t now) {
    int64_t elapsed = now - window_start;
    double rate = elapsed > 0
                      ? static_cast<double>(accumulated_) * 1e9 /
                            static_cast<double>(elapsed)
                      : 0.0;
    last_rate_ = rate;
    accumulated_ = 0;
    return rate;
  }

  double last_rate() const { return last_rate_; }
  uint64_t accumulated() const { return accumulated_; }

 private:
  uint64_t accumulated_ = 0;
  double last_rate_ = 0;
};

}  // namespace gimbal

#ifndef WSIE_OBS_SCOPED_TIMER_H_
#define WSIE_OBS_SCOPED_TIMER_H_

#include <string_view>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsie::obs {

/// RAII timer feeding both a latency histogram (elapsed ns at destruction)
/// and, when tracing is enabled, a span of the same name. The histogram
/// pointer may be null (span only); lookups should be hoisted by the caller
/// via MetricsRegistry::GetHistogram so construction is allocation-free.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram, std::string_view span_name = {},
                       std::string_view span_args = {})
      : histogram_(histogram) {
    if (!span_name.empty() && TraceRecorder::Global().enabled()) {
      recording_ = true;
      TraceRecorder::Global().Begin(span_name, span_args);
    }
  }

  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Observe(static_cast<double>(watch_.ElapsedNs()));
    }
    if (recording_) TraceRecorder::Global().End();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Elapsed time so far, for callers that also want the raw reading.
  int64_t ElapsedNs() const { return watch_.ElapsedNs(); }

 private:
  Histogram* histogram_;
  Stopwatch watch_;
  bool recording_ = false;
};

}  // namespace wsie::obs

#endif  // WSIE_OBS_SCOPED_TIMER_H_

#include "dataflow/fault_injection.h"

#include "common/hash.h"
#include "common/rng.h"
#include "fault/wire_format.h"

namespace wsie::dataflow {

namespace {
/// The morsel key most recently failed by this worker thread. A transient
/// fault "clears" once the same worker immediately re-runs the same morsel —
/// the executor's retry contract — while a fresh morsel that happens to
/// share content on another thread still draws its own (identical, by
/// determinism) decision.
thread_local uint64_t t_last_failed_key = 0;
thread_local bool t_has_failed_key = false;
}  // namespace

uint64_t FaultInjectingOperator::KeyFor(std::span<const Record> input) {
  uint64_t key = fault::wire::Mix(0x1ef7ULL, input.size());
  for (const Record& r : input) {
    key = fault::wire::Mix(key, Fnv1a(r.ToJson()));
  }
  return key;
}

Status FaultInjectingOperator::Decide(uint64_t key) const {
  Rng rng(fault::wire::Mix(options_.seed, key));
  double draw = rng.NextDouble();
  if (draw < options_.permanent_prob) {
    permanent_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("injected permanent fault");
  }
  if (draw < options_.permanent_prob + options_.transient_prob) {
    if (t_has_failed_key && t_last_failed_key == key) {
      // The retry of the morsel we just failed: the transient fault has
      // passed.
      t_has_failed_key = false;
      return Status::OK();
    }
    t_last_failed_key = key;
    t_has_failed_key = true;
    transient_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected transient fault");
  }
  return Status::OK();
}

Status FaultInjectingOperator::ProcessSpan(std::span<const Record> input,
                                           Dataset* output) const {
  Status injected = Decide(KeyFor(input));
  if (!injected.ok()) return injected;
  return inner_->ProcessSpan(input, output);
}

Status FaultInjectingOperator::ProcessOwned(std::span<Record> input,
                                            Dataset* output) const {
  Status injected =
      Decide(KeyFor(std::span<const Record>(input.data(), input.size())));
  if (!injected.ok()) return injected;
  return inner_->ProcessOwned(input, output);
}

}  // namespace wsie::dataflow

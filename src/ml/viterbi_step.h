#ifndef WSIE_ML_VITERBI_STEP_H_
#define WSIE_ML_VITERBI_STEP_H_

#include <cstddef>
#include <cstdint>

// One step of TrigramHmm::Decode() (ml/hmm.h), the exact Viterbi kernel.
// TrigramHmm is its only caller; it is declared apart from hmm.h so a test
// can drive a single step with hand-built rows, deltas and emissions.

namespace wsie::ml::viterbi {

/// Log-probability of an impossible event. A (prev, cur) pair whose delta is
/// at most this is dead: it extends to no successor.
inline constexpr double kLogZero = -1e9;

/// The inputs and outputs of one step over tag-pair states, in the layout
/// TrigramHmm::Finalize() builds. Every `prev` in one row class of a `cur`
/// reads the same stored row.
struct StepArgs {
  int s;                      // states
  size_t stride;              // s rounded up to a multiple of 4
  const uint8_t* row_class;   // [cur * s + prev] -> row class within cur
  const uint32_t* first_row;  // [cur] -> row of class 0; [s] = row count
  const double* rows;         // [row * stride + nxt], padded with kLogZero
  const double* row_abs_max;  // [row] -> max |rows[row][nxt < s]|
  const double* delta;        // [prev * stride + cur]
  const double* em;           // [nxt], padded with 0
  double em_abs_max;          // max |em[nxt < s]|
  double* next;               // out: [cur * stride + nxt]
  uint8_t* bp;                // out: [cur * stride + nxt]
};

/// For every cur and every nxt < s, writes what the legacy loop computes:
/// next = the largest of kLogZero and every live prev's
/// (delta[prev][cur] + row[nxt]) + em[nxt] (live: delta > kLogZero), and
/// bp = the first prev, ascending, that strictly raised it (0 if none did).
void Step(const StepArgs& args);

}  // namespace wsie::ml::viterbi

#endif  // WSIE_ML_VITERBI_STEP_H_

// Alternative viewport predictors.
//
// The paper picks ridge regression because it "is more robust to deal with
// overfitting"; these baselines make that claim testable (see
// bench_ablation and predict_test):
//
//   * kHold   — no-motion model: the center stays where it is now. The
//               strongest simple baseline at very short horizons.
//   * kLinear — ordinary least squares on a linear basis (no regularisation,
//               no curvature): chases noise harder than ridge.
//   * kRidge  — the paper's choice (ViewportPredictor).
//   * kOracle — perfect prediction (returns the trace's true future center).
//               Not realisable — it deliberately breaks causality — but it
//               bounds how much better any predictor could make the system
//               (a standard upper-bound ablation).
//
// All of them share the ViewportPredictor windowing so the comparison
// isolates the estimator.
#pragma once

#include "predict/viewport_predictor.h"
#include "util/units.h"

namespace ps360::predict {

enum class PredictorKind { kHold = 0, kLinear = 1, kRidge = 2, kOracle = 3 };
inline constexpr std::size_t kPredictorKindCount = 4;

const std::string& predictor_name(PredictorKind kind);

// Build the predictor config realising `kind` on top of `base`: linear as
// degree 1 with zero penalty; ridge, hold and the oracle as the base config
// itself (hold and the oracle never run the regression).
ViewportPredictorConfig make_predictor_config(PredictorKind kind,
                                              ViewportPredictorConfig base = {});

// Convenience: predict with a given kind.
geometry::EquirectPoint predict_with(PredictorKind kind, const trace::HeadTrace& trace,
                                     double now_t, double target_t,
                                     ViewportPredictorConfig base = {});

// Mean angular prediction error (degrees) of a predictor over a trace at a
// fixed horizon, sampled every `stride_s` seconds. Used by tests and the
// ablation bench.
double mean_prediction_error(PredictorKind kind, const trace::HeadTrace& trace,
                             util::Seconds horizon,
                             util::Seconds stride = util::Seconds(1.0),
                             ViewportPredictorConfig base = {});

}  // namespace ps360::predict

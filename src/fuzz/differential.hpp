#pragma once
/// \file differential.hpp
/// Differential oracles.
///
/// The paper's oracle is *self-differential*: the reference is the model's
/// own prediction on the original input, and a mutant that predicts
/// differently is an adversarial finding — no manual labels needed
/// (Fuzzer implements this natively).
///
/// CrossModelFuzzer generalizes the idea along the classic differential-
/// testing axis (McKeeman '98, cited by the paper): two independently-seeded
/// HDC models vote on every mutant, and a *disagreement* between the models
/// is the finding. This catches inputs near decision boundaries of either
/// model and demonstrates the section V-E claim that HDTest extends to any
/// HDC structure exposing HV distances. It is Fuzzer's GenerationStep with both models registered and one
/// packed predict_block per model as the judge.

#include <cstddef>

#include "data/image.hpp"
#include "fuzz/fuzzer.hpp"
#include "hdc/classifier.hpp"

namespace hdtest::fuzz {

/// Outcome of cross-model differential fuzzing for one input.
struct CrossModelOutcome {
  bool success = false;        ///< models disagreed on some mutant
  bool skipped = false;        ///< models already disagree on the original
  data::Image divergent;       ///< the disagreement-inducing mutant
  std::size_t label_a = 0;     ///< model A's prediction on the mutant
  std::size_t label_b = 0;     ///< model B's prediction on the mutant
  std::size_t iterations = 0;
  Perturbation perturbation;
  std::size_t encodes = 0;  ///< both models' queries, counted as FuzzOutcome
};

/// Fuzzes for inputs where two HDC models disagree.
class CrossModelFuzzer {
 public:
  /// Both models must be trained and share image shape and class count.
  /// \throws std::invalid_argument / std::logic_error on violations.
  CrossModelFuzzer(const hdc::HdcClassifier& model_a,
                   const hdc::HdcClassifier& model_b,
                   const MutationStrategy& strategy, FuzzConfig config);

  /// Runs the fuzz loop on one input. If the models already disagree on the
  /// original, returns with skipped = true (the input is itself a finding,
  /// but not a *generated* one).
  ///
  /// Fitness drives seeds toward the joint decision boundary:
  ///   fitness = 1 - 0.5 * (CosimA(AM_A[yA], q_A) + CosimB(AM_B[yB], q_B)).
  [[nodiscard]] CrossModelOutcome fuzz_one(const data::Image& input,
                                           util::Rng& rng) const;

 private:
  const hdc::HdcClassifier* model_a_;
  const hdc::HdcClassifier* model_b_;
  const MutationStrategy* strategy_;
  FuzzConfig config_;
};

}  // namespace hdtest::fuzz

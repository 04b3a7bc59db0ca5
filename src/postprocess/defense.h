// Detection and mitigation baselines against LDP data poisoning (Cao et
// al., "Data Poisoning Attacks to Local Differential Privacy Protocols";
// attacker model in scenario/attack.h).
//
// The detectors are frequency-consistency checks computable from nothing
// but the aggregate the server already holds:
//
//   - sum-to-one: an unbiased frequency-oracle estimate sums to 1 in
//     expectation with O(1/sqrt(n)) noise. Output poisoning that crafts
//     reports instead of perturbing values breaks this — the OUE one-hot
//     attack deflates the sum, the OLH maximal-gain attack inflates it.
//   - negative mass: honest estimates go slightly negative per bucket;
//     a large clamped mass indicates the raw vector was distorted.
//   - spike z-score: a target bucket inflated by concentrated malicious
//     mass stands out against a leave-one-out mean/stddev of the rest.
//     This is the only one of the three that catches GRR output
//     poisoning, whose estimate still sums to exactly 1.
//
// Mitigation is the paper's norm-sub projection (postprocess/norm_sub.h),
// quantified rather than re-invented: scenario checkpoints score both the
// raw and the projected estimate against clean ground truth so the
// residual attack gain after projection is a measured column, not a claim.
//
// This layer depends only on numdist_common; everything here operates on
// plain estimate/count vectors so fo/, core/ and scenario/ can all link it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace numdist {

/// Thresholds for the consistency checks. Defaults are loose enough that
/// honest runs at the scenario engine's report volumes never trip them
/// (asserted by tests/attack_test.cc) while the built-in attacks at
/// fraction >= 0.05 reliably do.
struct DefenseOptions {
  /// Flag when |sum(estimate) - 1| exceeds this.
  double sum_tolerance = 0.05;
  /// Flag when a bucket's leave-one-out z-score exceeds this.
  double spike_z_threshold = 8.0;
};

/// What the detectors saw. All fields are populated on every call; the
/// three *_flag bits apply DefenseOptions thresholds and `flagged` is
/// their disjunction.
struct DefenseReport {
  double sum_deviation = 0.0;   // sum(estimate) - 1 (signed)
  double negative_mass = 0.0;   // -sum over negative entries (>= 0)
  double max_spike_z = 0.0;     // largest leave-one-out z-score
  size_t spike_bucket = 0;      // argmax of the z-scores
  bool sum_flag = false;
  bool spike_flag = false;
  bool flagged = false;
};

/// Runs the consistency checks on a raw (pre-projection) frequency
/// estimate. Errors on an empty vector or non-finite entries — hostile
/// NaN must surface as a typed error, not propagate through comparisons.
Result<DefenseReport> AnalyzeFrequencies(const std::vector<double>& estimate,
                                         const DefenseOptions& options = {});

/// Spike detection on integer output counts (e.g. a merged shard
/// aggregate before reconstruction). Counts always sum to n by
/// construction, so only the spike check is meaningful here; sum_deviation
/// and negative_mass are reported as 0. Errors on empty input, negative
/// counts, or total == 0.
Result<DefenseReport> AnalyzeCounts(const std::vector<int64_t>& counts,
                                    const DefenseOptions& options = {});

/// Overload for unsigned count state (e.g. a scenario checkpoint's summed
/// output counts).
Result<DefenseReport> AnalyzeCounts(const std::vector<uint64_t>& counts,
                                    const DefenseOptions& options = {});

/// Validates `options` (finite, positive thresholds).
Status ValidateDefenseOptions(const DefenseOptions& options);

}  // namespace numdist

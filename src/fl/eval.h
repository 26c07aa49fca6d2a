// Model evaluation: loss, accuracy, and multi-label average precision.
#pragma once

#include <span>

#include "data/dataset.h"
#include "nn/model.h"

namespace hetero {

/// Rows per eval forward wherever an evaluation is cut into slices: the
/// per-device task list (fl/simulation.h) and the HeteroSwitch loss probes.
/// Four workers forwarding 8 rows each hold the scratch one 32-row batch
/// held, and 8-row batches cost no more per sample. Under the reference
/// and tiled kernels the slice size cannot change a result (DESIGN.md §13).
inline constexpr std::size_t kEvalSliceRows = 8;

/// Eval-mode forward of rows [begin, end) of `data` as one batch; returns
/// the (end - begin, outputs) logits. Every evaluation below, and the
/// per-device task list of fl/simulation.h, forwards through it.
Tensor forward_rows(Model& model, const Dataset& data, std::size_t begin,
                    std::size_t end);

/// Concatenates (rows, cols) logit blocks with equal column counts along
/// the rows, in order.
Tensor stack_rows(std::span<const Tensor> parts);

/// Mean loss of the model on a dataset (no gradient, eval-mode batch norm).
/// Uses softmax-CE for single-label data, BCE for multi-label.
double evaluate_loss(Model& model, const Dataset& data,
                     std::size_t batch_size = 32);

/// Top-1 accuracy on a single-label dataset.
double evaluate_accuracy(Model& model, const Dataset& data,
                         std::size_t batch_size = 32);

/// Macro-averaged average precision (area under the precision-recall curve,
/// averaged over labels with at least one positive) on a multi-label
/// dataset. Scores are the sigmoid of the logits.
double evaluate_average_precision(Model& model, const Dataset& data,
                                  std::size_t batch_size = 32);

/// Macro-averaged AP of stacked logits (N, L) against multi-hot targets
/// (N, L); labels with no positive are skipped.
double macro_average_precision(const Tensor& logits, const Tensor& targets);

/// AP of one label column given (score, relevance) pairs — exposed for unit
/// tests.
double average_precision(const std::vector<float>& scores,
                         const std::vector<bool>& relevant);

/// Detailed single-label evaluation: confusion matrix and per-class recall.
struct ClassificationReport {
  /// confusion[true_class][predicted_class] = count.
  std::vector<std::vector<std::size_t>> confusion;
  std::vector<double> per_class_recall;  ///< 0 for classes with no samples
  double accuracy = 0.0;
  /// Mean recall over classes that appear in the data.
  double macro_recall = 0.0;
};

ClassificationReport classification_report(Model& model, const Dataset& data,
                                           std::size_t num_classes,
                                           std::size_t batch_size = 32);

}  // namespace hetero

#include "fl/eval.h"

#include <algorithm>
#include <numeric>

#include "nn/loss.h"
#include "tensor/tensor_ops.h"

namespace hetero {
namespace {

/// Runs the model over the dataset in eval mode and returns stacked logits.
Tensor forward_all(Model& model, const Dataset& data, std::size_t batch_size) {
  HS_CHECK(!data.empty(), "forward_all: empty dataset");
  Tensor logits;
  std::size_t out_dim = 0;
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t end = std::min(start + batch_size, data.size());
    idx.resize(end - start);
    std::iota(idx.begin(), idx.end(), start);
    Tensor out = model.forward(data.gather_x(idx), /*train=*/false);
    if (logits.empty()) {
      out_dim = out.dim(1);
      // The batch loop covers [0, data.size()) exactly once, so every row
      // is written before the tensor is read.
      logits = Tensor::uninit({data.size(), out_dim});
    }
    for (std::size_t i = 0; i < idx.size(); ++i) {
      std::copy(out.data() + i * out_dim, out.data() + (i + 1) * out_dim,
                logits.data() + idx[i] * out_dim);
    }
  }
  return logits;
}

}  // namespace

double evaluate_loss(Model& model, const Dataset& data,
                     std::size_t batch_size) {
  Tensor logits = forward_all(model, data, batch_size);
  if (data.is_multi_label()) {
    return BceWithLogits()(logits, data.multi_targets(), false).loss;
  }
  return SoftmaxCrossEntropy()(logits, data.labels(), false).loss;
}

double evaluate_accuracy(Model& model, const Dataset& data,
                         std::size_t batch_size) {
  HS_CHECK(!data.is_multi_label(),
           "evaluate_accuracy: use evaluate_average_precision for multi-label");
  Tensor logits = forward_all(model, data, batch_size);
  return accuracy(logits, data.labels());
}

double average_precision(const std::vector<float>& scores,
                         const std::vector<bool>& relevant) {
  HS_CHECK(scores.size() == relevant.size(),
           "average_precision: size mismatch");
  std::size_t positives = 0;
  for (bool r : relevant) positives += r ? 1 : 0;
  if (positives == 0) return 0.0;

  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return scores[a] > scores[b];
  });
  double ap = 0.0;
  std::size_t hits = 0;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    if (relevant[order[rank]]) {
      ++hits;
      ap += static_cast<double>(hits) / static_cast<double>(rank + 1);
    }
  }
  return ap / static_cast<double>(positives);
}

ClassificationReport classification_report(Model& model, const Dataset& data,
                                           std::size_t num_classes,
                                           std::size_t batch_size) {
  HS_CHECK(!data.is_multi_label(),
           "classification_report: single-label data required");
  HS_CHECK(num_classes > 0, "classification_report: zero classes");
  Tensor logits = forward_all(model, data, batch_size);
  HS_CHECK(logits.dim(1) == num_classes,
           "classification_report: class-count mismatch with model output");
  const auto preds = argmax_rows(logits);

  ClassificationReport report;
  report.confusion.assign(num_classes,
                          std::vector<std::size_t>(num_classes, 0));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t truth = data.labels()[i];
    HS_CHECK(truth < num_classes, "classification_report: label out of range");
    ++report.confusion[truth][preds[i]];
    if (preds[i] == truth) ++correct;
  }
  report.accuracy = static_cast<double>(correct) /
                    static_cast<double>(data.size());
  report.per_class_recall.assign(num_classes, 0.0);
  double recall_sum = 0.0;
  std::size_t present = 0;
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::size_t total = 0;
    for (std::size_t p = 0; p < num_classes; ++p) {
      total += report.confusion[c][p];
    }
    if (total == 0) continue;
    report.per_class_recall[c] =
        static_cast<double>(report.confusion[c][c]) /
        static_cast<double>(total);
    recall_sum += report.per_class_recall[c];
    ++present;
  }
  report.macro_recall = present ? recall_sum / static_cast<double>(present)
                                : 0.0;
  return report;
}

double evaluate_average_precision(Model& model, const Dataset& data,
                                  std::size_t batch_size) {
  HS_CHECK(data.is_multi_label(),
           "evaluate_average_precision: needs a multi-label dataset");
  Tensor logits = forward_all(model, data, batch_size);
  const std::size_t n = data.size();
  const std::size_t l = data.multi_targets().dim(1);
  double sum_ap = 0.0;
  std::size_t counted = 0;
  std::vector<float> scores(n);
  std::vector<bool> relevant(n);
  for (std::size_t label = 0; label < l; ++label) {
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      scores[i] = logits.at(i, label);
      relevant[i] = data.multi_targets().at(i, label) > 0.5f;
      any = any || relevant[i];
    }
    if (!any) continue;  // labels absent from the set are skipped (macro AP)
    sum_ap += average_precision(scores, relevant);
    ++counted;
  }
  return counted ? sum_ap / static_cast<double>(counted) : 0.0;
}

}  // namespace hetero

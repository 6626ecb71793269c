#include "opt/stats.h"

#include <algorithm>
#include <cmath>

namespace zstream {

double StatsCatalog::PairSel(int i, int j) const {
  auto it = pair_sel_.find(Key(i, j));
  return it == pair_sel_.end() ? 1.0 : it->second;
}

void StatsCatalog::SetPairSel(int i, int j, double sel) {
  pair_sel_[Key(i, j)] = sel;
}

double StatsCatalog::TimeSel(int i, int j) const {
  auto it = time_sel_.find(Key(i, j));
  return it == time_sel_.end() ? kDefaultTimeSelectivity : it->second;
}

void StatsCatalog::SetTimeSel(int i, int j, double sel) {
  time_sel_[Key(i, j)] = sel;
}

namespace {
double RelChange(double a, double b) {
  const double denom = std::max(std::abs(a), 1e-12);
  return std::abs(a - b) / denom;
}
}  // namespace

double StatsCatalog::MaxRelativeChange(const StatsCatalog& other) const {
  double drift = 0.0;
  const int n = std::min(num_classes(), other.num_classes());
  for (int i = 0; i < n; ++i) {
    drift = std::max(drift, RelChange(rate(i), other.rate(i)));
  }
  for (const auto& [key, sel] : pair_sel_) {
    drift = std::max(drift, RelChange(sel, other.PairSel(key.first,
                                                         key.second)));
  }
  for (const auto& [key, sel] : other.pair_sel_) {
    drift = std::max(drift, RelChange(PairSel(key.first, key.second), sel));
  }
  return drift;
}

WindowedClassStats::WindowedClassStats(int num_classes, int num_predicates,
                           Duration bucket_width, int num_buckets)
    : num_classes_(num_classes),
      num_predicates_(num_predicates),
      bucket_width_(std::max<Duration>(bucket_width, 1)),
      num_buckets_(static_cast<size_t>(std::max(num_buckets, 2))) {}

void WindowedClassStats::Roll(Timestamp ts) {
  if (buckets_.empty()) {
    Bucket b;
    b.start = ts;
    b.admits.assign(static_cast<size_t>(num_classes_), 0);
    b.pred_evals.assign(static_cast<size_t>(num_predicates_), 0);
    b.pred_passes.assign(static_cast<size_t>(num_predicates_), 0);
    buckets_.push_back(std::move(b));
    return;
  }
  while (ts >= buckets_.back().start + bucket_width_) {
    Bucket b;
    b.start = buckets_.back().start + bucket_width_;
    b.admits.assign(static_cast<size_t>(num_classes_), 0);
    b.pred_evals.assign(static_cast<size_t>(num_predicates_), 0);
    b.pred_passes.assign(static_cast<size_t>(num_predicates_), 0);
    buckets_.push_back(std::move(b));
    if (buckets_.size() > num_buckets_) buckets_.pop_front();
  }
}

void WindowedClassStats::OnEvent(Timestamp ts) {
  Roll(ts);
  ++buckets_.back().events;
  ++total_events_;
}

void WindowedClassStats::OnClassAdmit(int cls) {
  if (buckets_.empty()) return;
  ++buckets_.back().admits[static_cast<size_t>(cls)];
}

void WindowedClassStats::OnPredicateEval(int pred_idx, bool passed) {
  if (buckets_.empty() || pred_idx < 0 || pred_idx >= num_predicates_) return;
  ++buckets_.back().pred_evals[static_cast<size_t>(pred_idx)];
  if (passed) ++buckets_.back().pred_passes[static_cast<size_t>(pred_idx)];
}

StatsCatalog WindowedClassStats::Snapshot(const Pattern& pattern,
                                    const StatsCatalog& defaults) const {
  StatsCatalog out(pattern.num_classes(),
                   static_cast<double>(pattern.window));
  if (buckets_.empty()) return defaults;

  // Elapsed event-time covered by the retained buckets.
  const Timestamp begin = buckets_.front().start;
  const Timestamp end = buckets_.back().start + bucket_width_;
  const double elapsed = static_cast<double>(end - begin);
  if (elapsed <= 0) return defaults;

  std::vector<int64_t> admits(static_cast<size_t>(num_classes_), 0);
  std::vector<int64_t> evals(static_cast<size_t>(num_predicates_), 0);
  std::vector<int64_t> passes(static_cast<size_t>(num_predicates_), 0);
  for (const Bucket& b : buckets_) {
    for (int c = 0; c < num_classes_; ++c) {
      admits[static_cast<size_t>(c)] += b.admits[static_cast<size_t>(c)];
    }
    for (int p = 0; p < num_predicates_; ++p) {
      evals[static_cast<size_t>(p)] += b.pred_evals[static_cast<size_t>(p)];
      passes[static_cast<size_t>(p)] += b.pred_passes[static_cast<size_t>(p)];
    }
  }

  for (int c = 0; c < num_classes_; ++c) {
    const int64_t a = admits[static_cast<size_t>(c)];
    out.set_rate(c, a > 0 ? static_cast<double>(a) / elapsed
                          : defaults.rate(c));
  }

  // Fold per-predicate pass ratios into pairwise selectivities.
  std::map<std::pair<int, int>, double> pair_product;
  for (size_t p = 0; p < pattern.multi_predicates.size(); ++p) {
    const std::set<int> classes =
        ReferencedClasses(pattern.multi_predicates[p]);
    if (classes.size() < 2) continue;
    const int i = *classes.begin();
    const int j = *classes.rbegin();
    const auto key = i < j ? std::make_pair(i, j) : std::make_pair(j, i);
    double sel;
    if (evals[p] >= 32) {
      sel = static_cast<double>(passes[p]) / static_cast<double>(evals[p]);
      sel = std::max(sel, 1e-6);
    } else {
      sel = defaults.PairSel(i, j);
    }
    auto [it, inserted] = pair_product.emplace(key, sel);
    if (!inserted) it->second *= sel;
  }
  for (const auto& [key, sel] : pair_product) {
    out.SetPairSel(key.first, key.second, sel);
  }
  return out;
}

}  // namespace zstream

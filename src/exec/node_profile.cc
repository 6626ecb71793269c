#include "exec/node_profile.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace zstream {

bool NodeProfile::SameShape(const NodeProfile& other) const {
  if (label != other.label || children.size() != other.children.size()) {
    return false;
  }
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i].SameShape(other.children[i])) return false;
  }
  return true;
}

uint64_t NodeProfile::TotalPairs() const {
  uint64_t total = pairs_tried;
  for (const NodeProfile& child : children) total += child.TotalPairs();
  return total;
}

namespace {

/// Sums `from` into `into`; the trees have the same shape.
void MergeNode(NodeProfile* into, const NodeProfile& from) {
  into->events_in += from.events_in;
  into->records_out += from.records_out;
  into->pairs_tried += from.pairs_tried;
  into->buffer_records += from.buffer_records;
  into->eval_ns += from.eval_ns;
  for (size_t i = 0; i < into->children.size(); ++i) {
    MergeNode(&into->children[i], from.children[i]);
  }
}

}  // namespace

void FoldPlanProfiles(PlanProfiles* into, PlanProfiles from) {
  for (PlanProfile& entry : from) {
    auto same = std::find_if(into->begin(), into->end(),
                             [&](const PlanProfile& p) {
                               return p.plan == entry.plan &&
                                      p.root.SameShape(entry.root);
                             });
    if (same == into->end()) {
      into->push_back(std::move(entry));
      continue;
    }
    const double engines = static_cast<double>(same->engines + entry.engines);
    same->estimated_cost =
        (same->estimated_cost * static_cast<double>(same->engines) +
         entry.estimated_cost * static_cast<double>(entry.engines)) /
        engines;
    same->engines += entry.engines;
    MergeNode(&same->root, entry.root);
  }
  std::stable_sort(into->begin(), into->end(),
                   [](const PlanProfile& a, const PlanProfile& b) {
                     return a.engines > b.engines;
                   });
}

namespace {

void RenderTime(std::ostringstream& os, uint64_t ns) {
  os << " time=";
  os << std::fixed << std::setprecision(3);
  if (ns >= 1000000000ULL) {
    os << static_cast<double>(ns) / 1e9 << "s";
  } else if (ns >= 1000000ULL) {
    os << static_cast<double>(ns) / 1e6 << "ms";
  } else {
    os << static_cast<double>(ns) / 1e3 << "us";
  }
  os.unsetf(std::ios::fixed);
}

void RenderNode(std::ostringstream& os, const NodeProfile& node,
                int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << node.label << " in=" << node.events_in << " out="
     << node.records_out;
  if (node.pairs_tried > 0) os << " pairs=" << node.pairs_tried;
  os << " buf=" << node.buffer_records;
  if (node.eval_ns > 0) RenderTime(os, node.eval_ns);
  os << "\n";
  for (const NodeProfile& child : node.children) {
    RenderNode(os, child, depth + 1);
  }
}

}  // namespace

std::string RenderPlanProfiles(const PlanProfiles& plans) {
  std::ostringstream os;
  for (const PlanProfile& p : plans) {
    if (plans.size() > 1) {
      os << "plan=" << p.plan << " cost_est=" << std::setprecision(6)
         << p.estimated_cost << " engines=" << p.engines << "\n";
    }
    RenderNode(os, p.root, 0);
  }
  return os.str();
}

}  // namespace zstream

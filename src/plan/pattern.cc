#include "plan/pattern.h"

#include <sstream>

namespace zstream {

PatternNodePtr PatternNode::Class(int idx) {
  auto n = std::make_shared<PatternNode>();
  n->op = PatternOp::kClass;
  n->class_idx = idx;
  return n;
}

PatternNodePtr PatternNode::Make(PatternOp op,
                                 std::vector<PatternNodePtr> kids) {
  auto n = std::make_shared<PatternNode>();
  n->op = op;
  n->children = std::move(kids);
  return n;
}

bool Pattern::IsSequence() const {
  if (root == nullptr) return false;
  if (root->is_class()) return true;
  if (root->op != PatternOp::kSeq) return false;
  for (const auto& c : root->children) {
    if (!c->is_class()) return false;
  }
  return true;
}

int Pattern::KleeneClass() const {
  for (int i = 0; i < num_classes(); ++i) {
    if (classes[static_cast<size_t>(i)].is_kleene()) return i;
  }
  return -1;
}

std::vector<int> Pattern::NegatedClasses() const {
  std::vector<int> out;
  for (int i = 0; i < num_classes(); ++i) {
    if (classes[static_cast<size_t>(i)].negated) out.push_back(i);
  }
  return out;
}

namespace {
void MarkDisjunctionClasses(const PatternNodePtr& node, bool under,
                            std::vector<bool>* optional) {
  if (node == nullptr) return;
  if (node->is_class()) {
    if (under) (*optional)[static_cast<size_t>(node->class_idx)] = true;
    return;
  }
  const bool next = under || node->op == PatternOp::kDisj;
  for (const PatternNodePtr& child : node->children) {
    MarkDisjunctionClasses(child, next, optional);
  }
}
}  // namespace

std::vector<bool> Pattern::OptionalClasses() const {
  std::vector<bool> optional(static_cast<size_t>(num_classes()), false);
  for (int i = 0; i < num_classes(); ++i) {
    const EventClass& ec = classes[static_cast<size_t>(i)];
    if (ec.negated || ec.is_kleene()) optional[static_cast<size_t>(i)] = true;
  }
  MarkDisjunctionClasses(root, false, &optional);
  return optional;
}

namespace {
void CollectTriggers(const Pattern& p, const PatternNodePtr& node,
                     std::vector<int>* out) {
  switch (node->op) {
    case PatternOp::kClass:
      if (!p.classes[static_cast<size_t>(node->class_idx)].negated) {
        out->push_back(node->class_idx);
      }
      break;
    case PatternOp::kSeq: {
      // The last positive child completes the sequence.
      for (auto it = node->children.rbegin(); it != node->children.rend();
           ++it) {
        const size_t before = out->size();
        CollectTriggers(p, *it, out);
        if (out->size() > before) return;
      }
      break;
    }
    case PatternOp::kConj:
    case PatternOp::kDisj:
      for (const auto& c : node->children) CollectTriggers(p, c, out);
      break;
  }
}
}  // namespace

std::vector<int> Pattern::TriggerClasses() const {
  std::vector<int> out;
  if (root != nullptr) CollectTriggers(*this, root, &out);
  return out;
}

std::vector<ExprPtr> Pattern::PredicatesFor(
    const std::vector<bool>& covered,
    const std::vector<std::vector<bool>>& child_covers) const {
  std::vector<ExprPtr> out;
  for (const ExprPtr& pred : multi_predicates) {
    const std::set<int> classes_used = ReferencedClasses(pred);
    bool in_cover = true;
    for (int c : classes_used) {
      if (c < 0 || c >= static_cast<int>(covered.size()) ||
          !covered[static_cast<size_t>(c)]) {
        in_cover = false;
        break;
      }
    }
    if (!in_cover) continue;
    // Skip predicates fully contained in one child: they attach deeper.
    bool in_child = false;
    for (const auto& child : child_covers) {
      bool all = true;
      for (int c : classes_used) {
        if (!child[static_cast<size_t>(c)]) {
          all = false;
          break;
        }
      }
      if (all) {
        in_child = true;
        break;
      }
    }
    if (!in_child) out.push_back(pred);
  }
  return out;
}

namespace {
Status ValidateNode(const Pattern& p, const PatternNodePtr& node) {
  switch (node->op) {
    case PatternOp::kClass: {
      const EventClass& ec = p.classes[static_cast<size_t>(node->class_idx)];
      if (ec.negated && ec.is_kleene()) {
        return Status::SemanticError(
            "negation cannot combine with Kleene closure (!A*)");
      }
      if (ec.kleene == KleeneKind::kCount && ec.kleene_count <= 0) {
        return Status::SemanticError("Kleene closure count must be positive");
      }
      return Status::OK();
    }
    case PatternOp::kSeq: {
      if (node->children.size() < 2) {
        return Status::Internal("sequence node must have >= 2 children");
      }
      for (const auto& c : node->children) {
        ZS_RETURN_IF_ERROR(ValidateNode(p, c));
      }
      // Negation cannot begin or end a sequence: there would be no
      // enclosing events to bound the non-occurrence.
      const auto neg_at = [&](const PatternNodePtr& n) {
        return n->is_class() &&
               p.classes[static_cast<size_t>(n->class_idx)].negated;
      };
      if (neg_at(node->children.front()) || neg_at(node->children.back())) {
        return Status::SemanticError(
            "negation must be enclosed by non-negated classes in a "
            "sequence (e.g. A;!B;C)");
      }
      for (size_t i = 0; i + 1 < node->children.size(); ++i) {
        if (neg_at(node->children[i]) && neg_at(node->children[i + 1])) {
          return Status::NotSupported(
              "adjacent negated classes are not supported");
        }
      }
      return Status::OK();
    }
    case PatternOp::kConj:
    case PatternOp::kDisj: {
      if (node->children.size() < 2) {
        return Status::Internal("conj/disj node must have >= 2 children");
      }
      for (const auto& c : node->children) {
        if (c->is_class()) {
          const EventClass& ec = p.classes[static_cast<size_t>(c->class_idx)];
          if (ec.negated && node->op == PatternOp::kDisj) {
            return Status::SemanticError(
                "negation cannot combine with disjunction (A|!B)");
          }
          if (ec.negated && node->op == PatternOp::kConj) {
            return Status::NotSupported(
                "negation directly under conjunction is not supported; "
                "rewrite with De Morgan (!B & !C -> !(B|C))");
          }
        }
        ZS_RETURN_IF_ERROR(ValidateNode(p, c));
      }
      return Status::OK();
    }
  }
  return Status::OK();
}
}  // namespace

Status Pattern::Validate() const {
  if (root == nullptr) return Status::SemanticError("empty pattern");
  if (num_classes() == 0) return Status::SemanticError("no event classes");
  if (window <= 0) {
    return Status::SemanticError("WITHIN window must be positive");
  }
  if (window > kMaxEventTimestamp) {
    return Status::SemanticError("WITHIN window exceeds 2^62 time units");
  }
  if (root->is_class()) {
    const EventClass& ec = classes[static_cast<size_t>(root->class_idx)];
    if (ec.negated) {
      return Status::SemanticError(
          "negation cannot appear by itself (Section 4.4.2)");
    }
  }
  ZS_RETURN_IF_ERROR(ValidateNode(*this, root));
  // At most one Kleene class (the paper's KSEQ is trinary around one
  // closure buffer).
  int kleene_seen = 0;
  for (const EventClass& ec : classes) {
    if (ec.is_kleene()) ++kleene_seen;
  }
  if (kleene_seen > 1) {
    return Status::NotSupported("at most one Kleene closure per pattern");
  }
  for (const ReturnItem& item : return_items) {
    if (item.expr == nullptr) {
      const EventClass& ec = classes[static_cast<size_t>(item.class_idx)];
      if (ec.negated) {
        return Status::SemanticError("RETURN cannot reference negated class '" +
                                     ec.alias + "'");
      }
    }
  }
  return Status::OK();
}

namespace {
void PrintNode(const Pattern& p, const PatternNodePtr& node,
               std::ostringstream* os) {
  switch (node->op) {
    case PatternOp::kClass: {
      const EventClass& ec = p.classes[static_cast<size_t>(node->class_idx)];
      if (ec.negated) *os << "!";
      *os << ec.alias;
      switch (ec.kleene) {
        case KleeneKind::kNone:
          break;
        case KleeneKind::kStar:
          *os << "*";
          break;
        case KleeneKind::kPlus:
          *os << "+";
          break;
        case KleeneKind::kCount:
          *os << "^" << ec.kleene_count;
          break;
      }
      break;
    }
    case PatternOp::kSeq:
    case PatternOp::kConj:
    case PatternOp::kDisj: {
      const char* sep = node->op == PatternOp::kSeq
                            ? " ; "
                            : (node->op == PatternOp::kConj ? " & " : " | ");
      *os << "(";
      for (size_t i = 0; i < node->children.size(); ++i) {
        if (i > 0) *os << sep;
        PrintNode(p, node->children[i], os);
      }
      *os << ")";
      break;
    }
  }
}
}  // namespace

std::string Pattern::ToString() const {
  std::ostringstream os;
  os << "PATTERN ";
  if (root != nullptr) PrintNode(*this, root, &os);
  os << " WITHIN " << window;
  if (!multi_predicates.empty()) {
    os << " WHERE ";
    for (size_t i = 0; i < multi_predicates.size(); ++i) {
      if (i > 0) os << " AND ";
      os << multi_predicates[i]->ToString();
    }
  }
  if (partition.has_value()) {
    os << " [partitioned on " << partition->field_name << "]";
  }
  return os.str();
}

}  // namespace zstream

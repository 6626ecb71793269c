#include "exec/operators.h"

#include <algorithm>

#include "common/macros.h"
#include "expr/analysis.h"

namespace zstream {

// ---------------------------------------------------------------------
// OperatorNode
// ---------------------------------------------------------------------

OperatorNode::OperatorNode(const Pattern* pattern, PhysOp op,
                           MemoryTracker* tracker, bool leaf_buffer)
    : pattern_(pattern),
      op_(op),
      output_(tracker, leaf_buffer, pattern->num_classes()),
      group_class_(pattern->KleeneClass()),
      window_(pattern->window),
      scratch_(static_cast<size_t>(pattern->num_classes())) {}

void OperatorNode::AttachPredicate(ExprPtr pred, int pred_idx) {
  AttachedPred p;
  const std::set<int> classes = ReferencedClasses(pred);
  p.classes.assign(classes.begin(), classes.end());
  p.has_aggregate = ContainsAggregate(pred);
  // AND-of-comparison shapes take the flat compiled path; everything
  // else (OR, NOT, arithmetic, aggregates) keeps the tree walker.
  p.compiled = CompiledPredicate::Compile(pred);
  p.expr = std::move(pred);
  p.pred_idx = pred_idx;
  preds_.push_back(std::move(p));
}

ZS_HOT bool OperatorNode::EvalOnePred(const AttachedPred& p,
                                      const EvalInput& in) {
  // Vacuous pass when a referenced slot is unbound (disjunction
  // branches). The Kleene class binds through the group instead.
  for (int c : p.classes) {
    const bool bound = in.slots[c] != nullptr ||
                       (c == group_class_ && in.group != nullptr);
    if (!bound) return true;
  }
  const bool pass = p.compiled.has_value() ? p.compiled->Eval(in)
                                           : p.expr->EvalPredicate(in);
  if (stats_ != nullptr && p.pred_idx >= 0) {
    stats_->OnPredicateEval(p.pred_idx, pass);
  }
  return pass;
}

ZS_HOT bool OperatorNode::EvalPreds(const EvalInput& in) {
  for (const AttachedPred& p : preds_) {
    if (!EvalOnePred(p, in)) return false;
  }
  return true;
}

ZS_HOT EvalInput OperatorNode::MergedView(const RecordRef& a,
                                          const RecordRef& b) {
  // Non-owning aliases: evaluating a candidate pair touches no
  // refcounts; rejected pairs cost nothing beyond the predicate itself.
  const int n = a.num_slots;
  for (int i = 0; i < n; ++i) {
    const Event* raw =
        a.slots[i] != nullptr ? a.slots[i].get() : b.slots[i].get();
    scratch_[static_cast<size_t>(i)] = EventPtr(EventPtr(), raw);
  }
  EvalInput in;
  in.slots = scratch_.data();
  in.num_slots = n;
  in.group = a.has_group() ? a.group() : b.group();
  in.group_class = group_class_;
  return in;
}

ZS_HOT void OperatorNode::EmitMerged(const RecordRef& a, const RecordRef& b,
                                     Timestamp start_ts, Timestamp end_ts) {
  if (sink_ != nullptr) {
    // Both inputs live in chunk storage for the whole round: the sink
    // sees the union as a view over the two records, staged nowhere.
    const RecordRef& g = a.has_group() ? a : b;
    sink_->OnMatch(Match{TimeSpan{start_ts, end_ts},
                         MatchSlots(a.slots, a.num_slots, b.slots),
                         g.group(), g.has_group() ? g.group_sp : nullptr});
    return;
  }
  output_.AppendMerged(a, b, start_ts, end_ts);
}

ZS_HOT void OperatorNode::EmitRef(const RecordRef& r) {
  if (sink_ != nullptr) {
    sink_->OnMatch(RecordMatch(r));
    return;
  }
  output_.AppendRef(r);
}

// ---------------------------------------------------------------------
// LeafNode
// ---------------------------------------------------------------------

LeafNode::LeafNode(const Pattern* pattern, int class_idx,
                   MemoryTracker* tracker)
    : OperatorNode(pattern, PhysOp::kLeaf, tracker, /*leaf_buffer=*/true),
      class_idx_(class_idx),
      event_class_(&pattern->classes[static_cast<size_t>(class_idx)]),
      probe_slots_(static_cast<size_t>(pattern->num_classes())) {
  set_covered({class_idx});
  batchable_ = event_class_->neg_branches.empty();
  for (const ExprPtr& pred : event_class_->leaf_predicates) {
    LeafPred lp;
    lp.expr = pred.get();
    lp.compiled = CompiledPredicate::Compile(pred);
    if (lp.compiled.has_value() && !lp.compiled->SingleClass(class_idx_)) {
      lp.compiled.reset();
    }
    if (!lp.compiled.has_value()) batchable_ = false;
    leaf_preds_.push_back(std::move(lp));
  }
}

ZS_HOT void LeafNode::Admit(const EventPtr& event) {
  // Probe with a non-owning alias in the reused slot vector: most
  // events are rejected by the pushed-down predicates, and rejecting
  // must not pay for materialization (refcount up/down on the event).
  probe_slots_[static_cast<size_t>(class_idx_)] =
      EventPtr(EventPtr(), event.get());
  EvalInput in;
  in.slots = probe_slots_.data();
  in.num_slots = static_cast<int>(probe_slots_.size());
  in.group = nullptr;
  in.group_class = group_class_;
  bool admitted = true;
  for (const LeafPred& lp : leaf_preds_) {
    const bool pass = lp.compiled.has_value() ? lp.compiled->Eval(in)
                                              : lp.expr->EvalPredicate(in);
    if (!pass) {
      admitted = false;
      break;
    }
  }
  if (admitted && !event_class_->neg_branches.empty()) {
    bool any = false;
    for (const NegBranch& branch : event_class_->neg_branches) {
      bool all = true;
      for (const ExprPtr& pred : branch.predicates) {
        if (!pred->EvalPredicate(in)) {
          all = false;
          break;
        }
      }
      if (all) {
        any = true;
        break;
      }
    }
    if (!any) admitted = false;
  }
  probe_slots_[static_cast<size_t>(class_idx_)] = nullptr;
  if (admitted) Accept(event);
}

ZS_HOT void LeafNode::Accept(const EventPtr& event) {
  output_.AppendEvent(class_idx_, event);
  ++records_emitted_;
  if (stats_ != nullptr) stats_->OnClassAdmit(class_idx_);
}

ZS_HOT void LeafNode::OfferBatch(const EventPtr* events, int n) {
  offered_ += static_cast<uint64_t>(n);
  if (!batchable_) {
    for (int i = 0; i < n; ++i) Admit(events[i]);
    return;
  }
  // Term-major admission: each compiled predicate sweeps the whole
  // batch narrowing the selection mask, then survivors append.
  mask_.assign(static_cast<size_t>(n), 1);  // zs-hotpath-allow(amortized: capacity reused across batches)
  for (const LeafPred& lp : leaf_preds_) {
    lp.compiled->FilterBatch(events, n, mask_.data());
  }
  for (int i = 0; i < n; ++i) {
    if (mask_[static_cast<size_t>(i)] != 0) Accept(events[i]);
  }
}

// ---------------------------------------------------------------------
// SeqNode (Algorithm 1)
// ---------------------------------------------------------------------

SeqNode::SeqNode(const Pattern* pattern, OperatorNode* left,
                 OperatorNode* right, MemoryTracker* tracker)
    : OperatorNode(pattern, PhysOp::kSeq, tracker),
      left_(left),
      right_(right) {
  children_ = {left, right};
}

void SeqNode::SetHashEquality(const EqualityJoin& eq) {
  hash_eq_ = eq;
  left_->output()->EnableHashIndex(eq.left_class, eq.left_field);
}

void SeqNode::AddNegGuard(int neg_class, bool neg_bound_on_right) {
  guards_.push_back(NegGuard{neg_class, neg_bound_on_right});
}

ZS_HOT bool SeqNode::PassesGuards(const RecordRef& l,
                                  const RecordRef& r) const {
  for (const NegGuard& g : guards_) {
    const int nc = g.neg_class;
    if (g.neg_bound_on_right) {
      // Pattern ...A;!B;C...: right side carries (b, c); survival
      // requires a.ts >= b.ts (Figure 4's T1.ts >= T2.ts).
      const EventPtr& b = r.slots[nc];
      if (b == nullptr) continue;
      const EventPtr& a = l.slots[nc - 1];
      if (a != nullptr && a->timestamp() < b->timestamp()) return false;
    } else {
      // Left side carries (a, b) with b the first negator after a;
      // survival requires b.ts >= c.ts.
      const EventPtr& b = l.slots[nc];
      if (b == nullptr) continue;
      const EventPtr& c = r.slots[nc + 1];
      if (c != nullptr && b->timestamp() < c->timestamp()) return false;
    }
  }
  return true;
}

ZS_HOT void SeqNode::TryCombine(const RecordRef& l, const RecordRef& r) {
  ++pairs_tried_;
  if (!PassesGuards(l, r)) return;
  // Evaluate before materializing: a rejected pair allocates nothing.
  if (!preds_.empty() && !EvalPreds(MergedView(l, r))) return;
  EmitMerged(l, r, std::min(l.start_ts, r.start_ts),
             std::max(l.end_ts, r.end_ts));
  ++records_emitted_;
}

ZS_HOT void SeqNode::Assemble(Timestamp eat) {
  Buffer& lbuf = *left_->output();
  Buffer& rbuf = *right_->output();
  lbuf.PurgeBefore(eat);

  for (RecordId rid = rbuf.watermark(); rid < rbuf.end_id(); ++rid) {
    const RecordRef rr = rbuf.Get(rid);
    if (rr.start_ts < eat) continue;
    // Window bound: combined span rr.end - lr.start must fit.
    const Timestamp min_start = rr.end_ts - window_;

    // The hash path requires the equality's class bound on this record;
    // a record from a disjunction branch that leaves it unbound must
    // take the scan path instead (the predicate vacuous-passes there).
    const EventPtr* hash_key_event =
        hash_eq_.has_value() && lbuf.has_hash_index()
            ? &rr.slots[hash_eq_->right_class]
            : nullptr;
    if (hash_key_event != nullptr && *hash_key_event != nullptr) {
      const Value key = (*hash_key_event)->value(hash_eq_->right_field);
      for (uint64_t lid : lbuf.hash_index()->Probe(key)) {
        if (lid < lbuf.base_id()) continue;
        const RecordRef lr = lbuf.Get(lid);
        if (lr.end_ts >= rr.start_ts) break;
        if (lr.start_ts < eat || lr.start_ts < min_start) continue;
        TryCombine(lr, rr);
      }
    } else {
      for (RecordId lid = lbuf.base_id(); lid < lbuf.end_id(); ++lid) {
        const RecordRef lr = lbuf.Get(lid);
        if (lr.end_ts >= rr.start_ts) break;
        if (lr.start_ts < eat || lr.start_ts < min_start) continue;
        TryCombine(lr, rr);
      }
    }
  }

  rbuf.SetWatermark(rbuf.end_id());
  if (right_->is_leaf()) {
    rbuf.PurgeBefore(eat);
  } else {
    rbuf.Clear();  // Algorithm 1, step 7
  }
}

// ---------------------------------------------------------------------
// NSeqNode (Algorithm 2)
// ---------------------------------------------------------------------

NSeqNode::NSeqNode(const Pattern* pattern, LeafNode* neg, OperatorNode* other,
                   bool neg_left, MemoryTracker* tracker)
    : OperatorNode(pattern, PhysOp::kNSeq, tracker),
      neg_(neg),
      other_(other),
      neg_left_(neg_left) {
  children_ = neg_left ? std::vector<OperatorNode*>{neg, other}
                       : std::vector<OperatorNode*>{other, neg};
}

ZS_HOT void NSeqNode::Assemble(Timestamp eat) {
  Buffer& nbuf = *neg_->output();
  Buffer& obuf = *other_->output();
  nbuf.PurgeBefore(eat);

  RecordId consumed_to = obuf.end_id();
  for (RecordId oid = obuf.watermark(); oid < obuf.end_id(); ++oid) {
    const RecordRef orec = obuf.Get(oid);
    if (!neg_left_ && orec.end_ts + window_ >= horizon_) {
      // A negator that matters for this record could still arrive
      // (Section 4.4.2's "B;!C" direction); hold it for a later round.
      consumed_to = oid;
      break;
    }
    if (orec.start_ts < eat) continue;

    bool emitted = false;
    if (neg_left_) {
      // Find the latest negator strictly before orec, newest first.
      for (RecordId nid = nbuf.end_id(); nid-- > nbuf.base_id();) {
        const RecordRef nr = nbuf.Get(nid);
        ++pairs_tried_;
        if (nr.end_ts >= orec.start_ts) continue;
        if (nr.start_ts < eat) break;  // leaf: older ids are even earlier
        if (!preds_.empty() && !EvalPreds(MergedView(nr, orec))) continue;
        EmitMerged(nr, orec, orec.start_ts, orec.end_ts);
        emitted = true;
        break;
      }
    } else {
      // Find the first negator strictly after orec, oldest first.
      for (RecordId nid = nbuf.base_id(); nid < nbuf.end_id(); ++nid) {
        const RecordRef nr = nbuf.Get(nid);
        ++pairs_tried_;
        if (nr.start_ts <= orec.end_ts) continue;
        if (!preds_.empty() && !EvalPreds(MergedView(nr, orec))) continue;
        EmitMerged(nr, orec, orec.start_ts, orec.end_ts);
        emitted = true;
        break;
      }
    }
    if (!emitted) {
      EmitRef(orec);  // (NULL, Rr)
    }
    ++records_emitted_;
  }

  obuf.SetWatermark(consumed_to);
  if (other_->is_leaf() || !neg_left_) {
    // Leaves persist; the neg-right side may hold unconsumed records.
    obuf.PurgeBefore(eat);
  } else {
    obuf.Clear();
  }
}

// ---------------------------------------------------------------------
// ConjNode (Algorithm 3)
// ---------------------------------------------------------------------

ConjNode::ConjNode(const Pattern* pattern, OperatorNode* left,
                   OperatorNode* right, MemoryTracker* tracker)
    : OperatorNode(pattern, PhysOp::kConj, tracker),
      left_(left),
      right_(right) {
  children_ = {left, right};
}

void ConjNode::SetHashEquality(const EqualityJoin& eq) {
  hash_eq_ = eq;
  left_->output()->EnableHashIndex(eq.left_class, eq.left_field);
  right_->output()->EnableHashIndex(eq.right_class, eq.right_field);
}

ZS_HOT void ConjNode::CombineWithEarlier(const RecordRef& pivot,
                                         Buffer& partner, RecordId limit,
                                         bool pivot_is_left, Timestamp eat) {
  const auto try_one = [&](const RecordRef& br) {
    ++pairs_tried_;
    if (br.start_ts < eat) return;
    const Timestamp start = std::min(pivot.start_ts, br.start_ts);
    const Timestamp end = std::max(pivot.end_ts, br.end_ts);
    if (end - start > window_) return;
    if (!preds_.empty()) {
      const EvalInput view = pivot_is_left ? MergedView(pivot, br)
                                           : MergedView(br, pivot);
      if (!EvalPreds(view)) return;
    }
    if (pivot_is_left) {
      EmitMerged(pivot, br, start, end);
    } else {
      EmitMerged(br, pivot, start, end);
    }
    ++records_emitted_;
  };

  if (hash_eq_.has_value() && partner.has_hash_index()) {
    const HashIndex* idx = partner.hash_index();
    // The pivot's key field is the opposite side of the equality.
    const int key_class =
        pivot_is_left ? hash_eq_->left_class : hash_eq_->right_class;
    const int key_field =
        pivot_is_left ? hash_eq_->left_field : hash_eq_->right_field;
    const EventPtr& key_event = pivot.slots[key_class];
    // A pivot that leaves the key class unbound (disjunction branch)
    // falls through to the scan: the predicate vacuous-passes.
    if (key_event != nullptr) {
      const Value key = key_event->value(key_field);
      for (uint64_t id : idx->Probe(key)) {
        if (id < partner.base_id()) continue;
        if (id >= limit) break;
        try_one(partner.Get(id));
      }
      return;
    }
  }
  for (RecordId id = partner.base_id(); id < limit; ++id) {
    try_one(partner.Get(id));
  }
}

ZS_HOT void ConjNode::Assemble(Timestamp eat) {
  Buffer& lbuf = *left_->output();
  Buffer& rbuf = *right_->output();
  lbuf.PurgeBefore(eat);
  rbuf.PurgeBefore(eat);

  RecordId li = lbuf.watermark();
  RecordId ri = rbuf.watermark();
  while (li < lbuf.end_id() || ri < rbuf.end_id()) {
    bool pick_right;
    if (li >= lbuf.end_id()) {
      pick_right = true;
    } else if (ri >= rbuf.end_id()) {
      pick_right = false;
    } else {
      pick_right = lbuf.Get(li).end_ts > rbuf.Get(ri).end_ts;
    }
    if (pick_right) {
      const RecordRef pivot = rbuf.Get(ri);
      ++ri;
      if (pivot.start_ts < eat) continue;
      CombineWithEarlier(pivot, lbuf, li, /*pivot_is_left=*/false, eat);
    } else {
      const RecordRef pivot = lbuf.Get(li);
      ++li;
      if (pivot.start_ts < eat) continue;
      CombineWithEarlier(pivot, rbuf, ri, /*pivot_is_left=*/true, eat);
    }
  }
  lbuf.SetWatermark(li);
  rbuf.SetWatermark(ri);
}

// ---------------------------------------------------------------------
// DisjNode
// ---------------------------------------------------------------------

DisjNode::DisjNode(const Pattern* pattern, OperatorNode* left,
                   OperatorNode* right, MemoryTracker* tracker)
    : OperatorNode(pattern, PhysOp::kDisj, tracker),
      left_(left),
      right_(right) {
  children_ = {left, right};
}

ZS_HOT void DisjNode::Assemble(Timestamp eat) {
  Buffer& lbuf = *left_->output();
  Buffer& rbuf = *right_->output();

  RecordId li = lbuf.watermark();
  RecordId ri = rbuf.watermark();
  while (li < lbuf.end_id() || ri < rbuf.end_id()) {
    bool pick_right;
    if (li >= lbuf.end_id()) {
      pick_right = true;
    } else if (ri >= rbuf.end_id()) {
      pick_right = false;
    } else {
      pick_right = rbuf.Get(ri).end_ts <= lbuf.Get(li).end_ts;
    }
    const RecordRef rec = pick_right ? rbuf.Get(ri) : lbuf.Get(li);
    (pick_right ? ri : li) += 1;
    ++pairs_tried_;
    if (rec.start_ts < eat) continue;
    if (!EvalPreds(rec.ToEvalInput(group_class_))) continue;
    EmitRef(rec);
    ++records_emitted_;
  }
  lbuf.SetWatermark(li);
  rbuf.SetWatermark(ri);
  // Both inputs are fully consumed merges; internal ones can be cleared.
  if (!left_->is_leaf()) lbuf.Clear();
  if (!right_->is_leaf()) rbuf.Clear();
}

// ---------------------------------------------------------------------
// NegFilterNode
// ---------------------------------------------------------------------

NegFilterNode::NegFilterNode(const Pattern* pattern, OperatorNode* input,
                             LeafNode* neg_leaf, int neg_class,
                             MemoryTracker* tracker)
    : OperatorNode(pattern, PhysOp::kNegFilter, tracker),
      input_(input),
      neg_leaf_(neg_leaf),
      neg_class_(neg_class) {
  children_ = {input, neg_leaf};
}

ZS_HOT void NegFilterNode::Assemble(Timestamp eat) {
  Buffer& in = *input_->output();
  Buffer& nbuf = *neg_leaf_->output();
  nbuf.PurgeBefore(eat);

  const int nc = neg_class_;
  for (RecordId id = in.watermark(); id < in.end_id(); ++id) {
    const RecordRef rec = in.Get(id);
    if (rec.start_ts < eat) continue;
    // The negation position is enclosed by classes nc-1 and nc+1. A
    // record that binds neither enclosing class (the negation lives in
    // a disjunction branch this record did not take) is outside the
    // negation's scope and passes through untouched.
    const EventPtr& a = rec.slots[nc - 1];
    const EventPtr& c = rec.slots[nc + 1];
    if (a == nullptr && c == nullptr) {
      EmitRef(rec);
      ++records_emitted_;
      continue;
    }
    const Timestamp lo = a != nullptr ? a->timestamp() : rec.start_ts;
    const Timestamp hi = c != nullptr ? c->timestamp() : rec.end_ts;

    bool negated = false;
    for (RecordId bid = nbuf.end_id(); bid-- > nbuf.base_id();) {
      const RecordRef br = nbuf.Get(bid);
      ++pairs_tried_;
      if (br.end_ts >= hi) continue;
      if (br.end_ts <= lo) break;  // leaf: sorted, all older from here
      if (preds_.empty() || EvalPreds(MergedView(br, rec))) {
        negated = true;
        break;
      }
    }
    if (!negated) {
      EmitRef(rec);
      ++records_emitted_;
    }
  }
  in.SetWatermark(in.end_id());
  if (!input_->is_leaf()) in.Clear();
}

}  // namespace zstream

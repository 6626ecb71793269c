#include "exec/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "common/macros.h"
#include "exec/partitioned_engine.h"
#include "expr/analysis.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "verify/plan_verifier.h"

namespace zstream {

Engine::Engine(PatternPtr pattern, const EngineOptions& options,
               MemoryTracker* tracker)
    : pattern_(std::move(pattern)), options_(options), tracker_(tracker) {
  if (tracker_ == nullptr) {
    owned_tracker_ = std::make_unique<MemoryTracker>();
    tracker_ = owned_tracker_.get();
  }
  // batch_size < 1 behaves as 1: a round after every event.
  options_.batch_size = std::max(options_.batch_size, 1);
  // Hash-equality routing must avoid classes that may be unbound in a
  // record (see BuildNode).
  optional_class_ = pattern_->OptionalClasses();
  profiling_ = options_.profile || options_.slow_event_ns > 0;
}

Engine::~Engine() = default;

Result<std::unique_ptr<Engine>> Engine::Create(PatternPtr pattern,
                                               const PhysicalPlan& plan,
                                               const EngineOptions& options,
                                               MemoryTracker* tracker) {
  ZS_RETURN_IF_ERROR(pattern->Validate());
  ZS_RETURN_IF_ERROR(verify::VerifyPlan(*pattern, plan));
  return CreateTrusted(std::move(pattern), plan, options, tracker);
}

Result<std::unique_ptr<Engine>> Engine::CreateTrusted(
    PatternPtr pattern, const PhysicalPlan& plan, const EngineOptions& options,
    MemoryTracker* tracker) {
  auto engine =
      std::unique_ptr<Engine>(new Engine(std::move(pattern), options, tracker));
  ZS_RETURN_IF_ERROR(engine->Build(plan, /*initial=*/true));
  return engine;
}

Status ProbeEngine(const PatternPtr& pattern, const PhysicalPlan& plan,
                   const EngineOptions& options) {
  return Engine::CreateTrusted(pattern, plan, options).status();
}

std::unique_ptr<EngineCore> MakeEngine(PatternPtr pattern,
                                       const PhysicalPlan& plan,
                                       const EngineOptions& options,
                                       MemoryTracker* tracker) {
  if (pattern->partition.has_value()) {
    return std::make_unique<PartitionedEngine>(std::move(pattern), plan,
                                               options, tracker);
  }
  Result<std::unique_ptr<Engine>> engine =
      Engine::CreateTrusted(std::move(pattern), plan, options, tracker);
  if (!engine.ok()) {
    std::fprintf(stderr, "MakeEngine: plan was never probed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine).value();
}

Status Engine::Build(const PhysicalPlan& plan, bool initial) {
  const int n = pattern_->num_classes();

  if (initial) {
    if (options_.adaptive) {
      // Bucket the window so rate changes show up within a few windows.
      const Duration bucket =
          std::max<Duration>(pattern_->window, 1);
      windowed_stats_ = std::make_unique<WindowedClassStats>(
          n, static_cast<int>(pattern_->multi_predicates.size()), bucket);
      adaptive_ = std::make_unique<AdaptiveController>(
          pattern_, options_.adaptive_options);
    }
    leaves_.clear();
    for (int c = 0; c < n; ++c) {
      leaves_.push_back(std::make_unique<LeafNode>(pattern_.get(), c,
                                                   tracker_));
      leaves_.back()->set_runtime_stats(windowed_stats_.get());
    }
  }

  internal_nodes_.clear();
  assembly_order_.clear();
  for (auto& leaf : leaves_) {
    leaf->output()->DisableHashIndex();
  }

  std::vector<ExprPtr> unattached = pattern_->multi_predicates;
  pred_index_of_.clear();
  for (size_t i = 0; i < unattached.size(); ++i) {
    pred_index_of_.push_back(static_cast<int>(i));
  }

  ZS_ASSIGN_OR_RETURN(root_, BuildNode(plan.root, &unattached));
  // Internal roots stream matches straight to the engine instead of
  // materializing them (leaf roots keep the buffer: the leaf must
  // retain its events for purging semantics anyway, and DrainRoot
  // consumes it by watermark).
  if (!root_->is_leaf()) root_->SetSink(this);
  if (!unattached.empty()) {
    return Status::Internal("predicate not attachable to plan: " +
                            unattached.front()->ToString());
  }
  plan_ = plan;
  // One render per plan install: the fingerprint hashes it and the
  // provenance path caches it, so per-match recording never re-renders
  // (Explain allocates — far too hot for the sampled-match path).
  const std::string shape = plan_.Explain(*pattern_);
  plan_fingerprint_ = obs::Fnv1a64(shape);
  obs::CopyLabel(op_path_, shape.c_str());
  trigger_classes_ = pattern_->TriggerClasses();
  if (initial && adaptive_ != nullptr) {
    const StatsCatalog defaults(n, static_cast<double>(pattern_->window));
    adaptive_->OnPlanInstalled(plan_, defaults);
  }
  return Status::OK();
}

namespace {
bool CoversAll(const std::vector<int>& cover, const std::set<int>& classes) {
  for (int c : classes) {
    if (std::find(cover.begin(), cover.end(), c) == cover.end()) return false;
  }
  return true;
}
}  // namespace

void Engine::AttachPredicates(OperatorNode* op,
                              std::vector<ExprPtr>* unattached) {
  // A predicate attaches at the lowest node covering all its classes;
  // since we build bottom-up post-order, "still unattached and covered
  // here" is exactly that node.
  const std::vector<int>& cover = op->covered();
  std::vector<ExprPtr> rest;
  std::vector<int> rest_idx;
  for (size_t i = 0; i < unattached->size(); ++i) {
    const ExprPtr& pred = (*unattached)[i];
    const std::set<int> classes = ReferencedClasses(pred);
    if (!CoversAll(cover, classes)) {
      rest.push_back(pred);
      rest_idx.push_back(pred_index_of_[i]);
      continue;
    }
    op->AttachPredicate(pred, pred_index_of_[i]);
  }
  *unattached = std::move(rest);
  pred_index_of_ = std::move(rest_idx);
}

Result<OperatorNode*> Engine::BuildNode(const PhysNodePtr& node,
                                        std::vector<ExprPtr>* unattached) {
  switch (node->op) {
    case PhysOp::kLeaf:
      return static_cast<OperatorNode*>(
          leaves_[static_cast<size_t>(node->class_idx)].get());

    case PhysOp::kSeq:
    case PhysOp::kConj:
    case PhysOp::kDisj: {
      ZS_ASSIGN_OR_RETURN(OperatorNode * left,
                          BuildNode(node->children[0], unattached));
      ZS_ASSIGN_OR_RETURN(OperatorNode * right,
                          BuildNode(node->children[1], unattached));
      const auto lcov = node->children[0]->CoveredClasses();
      const auto rcov = node->children[1]->CoveredClasses();
      std::unique_ptr<OperatorNode> op;
      SeqNode* seq = nullptr;
      ConjNode* conj = nullptr;
      if (node->op == PhysOp::kSeq) {
        auto s = std::make_unique<SeqNode>(pattern_.get(), left, right,
                                           tracker_);
        seq = s.get();
        op = std::move(s);
      } else if (node->op == PhysOp::kConj) {
        auto c = std::make_unique<ConjNode>(pattern_.get(), left, right,
                                            tracker_);
        conj = c.get();
        op = std::move(c);
      } else {
        op = std::make_unique<DisjNode>(pattern_.get(), left, right,
                                        tracker_);
      }
      op->set_covered(node->CoveredClasses());
      op->set_runtime_stats(windowed_stats_.get());

      // Attach predicates newly covered here; route the first equality
      // predicate through a hash index when enabled.
      const std::vector<int>& cover = op->covered();
      std::vector<ExprPtr> rest;
      std::vector<int> rest_idx;
      bool hashed = false;
      for (size_t i = 0; i < unattached->size(); ++i) {
        const ExprPtr& pred = (*unattached)[i];
        const std::set<int> classes = ReferencedClasses(pred);
        if (!CoversAll(cover, classes)) {
          rest.push_back(pred);
          rest_idx.push_back(pred_index_of_[i]);
          continue;
        }
        if (options_.use_hash_indexes && !hashed &&
            (seq != nullptr || conj != nullptr)) {
          auto eq = AsEqualityJoin(pred);
          // Hash routing requires both classes bound in every record on
          // their side: a record leaving the key class unbound (optional
          // class: disjunction branch) is never indexed under any key,
          // so probes would silently miss it although the predicate
          // vacuous-passes.
          if (eq.has_value() &&
              (optional_class_[static_cast<size_t>(eq->left_class)] ||
               optional_class_[static_cast<size_t>(eq->right_class)])) {
            eq.reset();
          }
          if (eq.has_value()) {
            // Orient so that left_class lies in the left child's cover.
            EqualityJoin oriented = *eq;
            const bool left_in_l =
                std::find(lcov.begin(), lcov.end(), eq->left_class) !=
                lcov.end();
            if (!left_in_l) {
              std::swap(oriented.left_class, oriented.right_class);
              std::swap(oriented.left_field, oriented.right_field);
            }
            const bool ok_split =
                std::find(lcov.begin(), lcov.end(), oriented.left_class) !=
                    lcov.end() &&
                std::find(rcov.begin(), rcov.end(), oriented.right_class) !=
                    rcov.end();
            if (ok_split) {
              if (seq != nullptr) seq->SetHashEquality(oriented);
              if (conj != nullptr) conj->SetHashEquality(oriented);
              hashed = true;
              continue;  // enforced by the probe, not re-evaluated
            }
          }
        }
        op->AttachPredicate(pred, pred_index_of_[i]);
      }
      *unattached = std::move(rest);
      pred_index_of_ = std::move(rest_idx);

      // Negation time-guards (Figure 4's extra constraints).
      if (seq != nullptr) {
        for (int nc : pattern_->NegatedClasses()) {
          const auto in = [](const std::vector<int>& v, int x) {
            return std::find(v.begin(), v.end(), x) != v.end();
          };
          if (in(rcov, nc) && in(lcov, nc - 1)) {
            seq->AddNegGuard(nc, /*neg_bound_on_right=*/true);
          } else if (in(lcov, nc) && in(rcov, nc + 1)) {
            seq->AddNegGuard(nc, /*neg_bound_on_right=*/false);
          }
        }
      }

      OperatorNode* raw = op.get();
      internal_nodes_.push_back(std::move(op));
      assembly_order_.push_back(raw);
      return raw;
    }

    case PhysOp::kNSeq: {
      const PhysNodePtr& neg_child =
          node->neg_left ? node->children[0] : node->children[1];
      const PhysNodePtr& other_child =
          node->neg_left ? node->children[1] : node->children[0];
      if (!neg_child->is_leaf()) {
        return Status::SemanticError("NSEQ negated operand must be a leaf");
      }
      LeafNode* neg =
          leaves_[static_cast<size_t>(neg_child->class_idx)].get();
      ZS_ASSIGN_OR_RETURN(OperatorNode * other,
                          BuildNode(other_child, unattached));
      auto op = std::make_unique<NSeqNode>(pattern_.get(), neg, other,
                                           node->neg_left, tracker_);
      op->set_covered(node->CoveredClasses());
      op->set_runtime_stats(windowed_stats_.get());

      // NSEQ-local predicates: everything covered here and not already
      // attached deeper. Predicates referencing this negated class plus
      // classes outside this node's cover would change which event
      // negates — reject such plans (Section 4.4.2's restriction).
      const int nc = neg_child->class_idx;
      AttachPredicates(op.get(), unattached);
      for (const ExprPtr& pred : *unattached) {
        if (ReferencedClasses(pred).count(nc) > 0) {
          return Status::NotSupported(
              "negated class '" +
              pattern_->classes[static_cast<size_t>(nc)].alias +
              "' has predicates spanning multiple non-negated classes; "
              "use a negation filter on top (Section 4.4.2)");
        }
      }
      OperatorNode* raw = op.get();
      internal_nodes_.push_back(std::move(op));
      assembly_order_.push_back(raw);
      return raw;
    }

    case PhysOp::kKSeq: {
      OperatorNode* start = nullptr;
      OperatorNode* end = nullptr;
      if (node->children[0] != nullptr) {
        ZS_ASSIGN_OR_RETURN(start, BuildNode(node->children[0], unattached));
      }
      LeafNode* closure =
          leaves_[static_cast<size_t>(node->children[1]->class_idx)].get();
      if (node->children[2] != nullptr) {
        ZS_ASSIGN_OR_RETURN(end, BuildNode(node->children[2], unattached));
      }
      auto op = std::make_unique<KSeqNode>(pattern_.get(), start, closure,
                                           end, tracker_);
      op->set_covered(node->CoveredClasses());
      op->set_runtime_stats(windowed_stats_.get());
      AttachPredicates(op.get(), unattached);
      // A non-aggregate predicate on the closure class filters closure
      // events one by one (Algorithm 4's qualification step), which is
      // only possible while the group is being assembled HERE. One that
      // also references a class outside this KSEQ would have to attach
      // higher, where the group already exists and per-event filtering
      // is impossible — reject instead of silently dropping matches.
      const int kc = closure->class_idx();
      for (const ExprPtr& pred : *unattached) {
        if (ReferencedClasses(pred).count(kc) > 0 &&
            !ContainsAggregate(pred)) {
          return Status::NotSupported(
              "closure class '" +
              pattern_->classes[static_cast<size_t>(kc)].alias +
              "' has a non-aggregate predicate spanning classes outside "
              "the KSEQ operands");
        }
      }
      OperatorNode* raw = op.get();
      internal_nodes_.push_back(std::move(op));
      assembly_order_.push_back(raw);
      return raw;
    }

    case PhysOp::kNegFilter: {
      ZS_ASSIGN_OR_RETURN(OperatorNode * input,
                          BuildNode(node->children[0], unattached));
      LeafNode* neg_leaf =
          leaves_[static_cast<size_t>(node->class_idx)].get();
      auto op = std::make_unique<NegFilterNode>(
          pattern_.get(), input, neg_leaf, node->class_idx, tracker_);
      op->set_covered(node->CoveredClasses());
      op->set_runtime_stats(windowed_stats_.get());
      AttachPredicates(op.get(), unattached);
      OperatorNode* raw = op.get();
      internal_nodes_.push_back(std::move(op));
      assembly_order_.push_back(raw);
      return raw;
    }
  }
  return Status::Internal("unreachable physical operator");
}

ZS_HOT void Engine::Offer(const EventBatch& batch) {
  const EventPtr* events = batch.data;
  const size_t n = batch.count;
  size_t i = 0;
  while (i < n) {
    // Longest in-order run starting at i: offered to every leaf as one
    // columnar batch.
    size_t j = i;
    Timestamp run_max = max_ts_seen_;
    while (j < n) {
      const Timestamp t = events[j]->timestamp();
      if (t < run_max) break;
      run_max = t;
      ++j;
    }
    if (j > i) {
      events_pushed_ += j - i;
      max_ts_seen_ = run_max;
      if (windowed_stats_ != nullptr) {
        for (size_t k = i; k < j; ++k) {
          windowed_stats_->OnEvent(events[k]->timestamp());
        }
      }
      for (auto& leaf : leaves_) {
        leaf->OfferBatch(events + i, static_cast<int>(j - i));
      }
      i = j;
    }
    // Leaf buffers require timestamp order: late stragglers are dropped
    // (and counted) rather than corrupting the end-timestamp invariant.
    while (i < n && events[i]->timestamp() < max_ts_seen_) {
      ++events_pushed_;
      ++late_events_;
      ++i;
    }
  }
}

ZS_HOT void Engine::PushBatch(const EventBatch& batch) {
  // One ingest step per chunk: the events up to the next batch boundary
  // plus the assembly round that boundary triggers.
  size_t i = 0;
  while (i < batch.count) {
    const bool timed = options_.slow_event_ns > 0;
    const uint64_t t0 = timed ? obs::MonotonicNanos() : 0;
    const size_t room =
        static_cast<size_t>(options_.batch_size - pending_in_batch_);
    const size_t take = std::min(batch.count - i, room);
    Offer(EventBatch{batch.data + i, take});
    pending_in_batch_ += static_cast<int>(take);
    i += take;
    if (pending_in_batch_ >= options_.batch_size) AssemblyRound();
    if (timed) {
      const uint64_t elapsed = obs::MonotonicNanos() - t0;
      if (elapsed >= static_cast<uint64_t>(options_.slow_event_ns)) {
        LogSlowEvent(elapsed);
      }
    }
  }
}

void Engine::Finish() { AssemblyRound(); }

ZS_HOT void Engine::AssemblyRound() {
  pending_in_batch_ = 0;
  // Idle round unless a trigger class has an unconsumed instance
  // (Section 4.3, steps 1-2).
  Timestamp min_end = kMaxTimestamp;
  bool any = false;
  for (int t : trigger_classes_) {
    const auto first =
        leaves_[static_cast<size_t>(t)]->output()->FirstUnconsumedEndTs();
    if (first.has_value()) {
      any = true;
      min_end = std::min(min_end, *first);
    }
  }
  if (!any) return;

  const Timestamp eat = min_end - pattern_->window;
  const Timestamp horizon = max_ts_seen_ + 1;
  // Streaming-sink state for the round: OnMatch filters against the
  // round's EAT and records provenance under the sampled trace id.
  round_eat_ = eat;
  cur_trace_ = obs::CurrentTraceId();
  for (auto& leaf : leaves_) {
    leaf->set_horizon(horizon);
    leaf->output()->PurgeBefore(eat);
  }
  // The timed loop runs for profiling (EXPLAIN ANALYZE / slow-event
  // attribution) and for traced rounds; `add_eval_ns` stays gated on
  // profiling_ alone so tracing never perturbs the `time=` column.
  const uint64_t trace = cur_trace_;
  if (profiling_ || trace != 0) {
    const uint64_t round_t0 = obs::MonotonicNanos();
    uint64_t t0 = round_t0;
    for (OperatorNode* op : assembly_order_) {
      op->set_horizon(horizon);
      op->Assemble(eat);
      const uint64_t t1 = obs::MonotonicNanos();
      if (profiling_) op->add_eval_ns(t1 - t0);
      obs::TraceRecord(obs::CurrentLane(), obs::SpanKind::kOperator, trace,
                       t0, t1, PhysOpName(op->op()), op->records_emitted());
      t0 = t1;
    }
    obs::TraceRecord(obs::CurrentLane(), obs::SpanKind::kExec, trace,
                     round_t0, obs::MonotonicNanos(), options_.label.c_str(),
                     plan_fingerprint_);
  } else {
    for (OperatorNode* op : assembly_order_) {
      op->set_horizon(horizon);
      op->Assemble(eat);
    }
  }
  DrainRoot(eat);
  ++assembly_rounds_;
  if (rebuild_round_pending_) rebuild_round_pending_ = false;
  MaybeAdapt();
}

ZS_HOT void Engine::OnMatch(Match&& match) {
  // Replicates DrainRoot's EAT filter: operators already skip stale
  // inputs, this is the defensive boundary for the streamed path.
  if (match.span.start < round_eat_) return;
  ++num_matches_;
  if (cur_trace_ != 0) RecordMatchTrace(cur_trace_, match);
  if (callback_) callback_(std::move(match));
}

ZS_HOT void Engine::DrainRoot(Timestamp eat) {
  // Internal roots stream through OnMatch and keep their buffer empty;
  // this loop only does work for leaf roots (single-class patterns).
  Buffer& out = *root_->output();
  for (RecordId id = out.watermark(); id < out.end_id(); ++id) {
    OnMatch(RecordMatch(out.Get(id)));
  }
  out.SetWatermark(out.end_id());
  if (!root_->is_leaf()) {
    out.Clear();
  } else {
    out.PurgeBefore(eat);
  }
}

void Engine::RecordMatchTrace(uint64_t trace_id, const Match& match) {
  const uint64_t now = obs::MonotonicNanos();
  obs::TraceRecord(obs::CurrentLane(), obs::SpanKind::kMatch, trace_id, now,
                   now, options_.label.c_str(), plan_fingerprint_);
  // The span above is per match (tests reconcile the kMatch counter
  // against sink totals); full provenance is capped per traced batch —
  // the global ring holds 256 entries, so recording every match of a
  // high-rate query (tens of thousands per batch) would be almost
  // entirely overwritten work, and it is what pushed 1-in-100 sampling
  // past the overhead budget.
  if (trace_id != prov_trace_) {
    prov_trace_ = trace_id;
    prov_in_trace_ = 0;
  }
  if (prov_in_trace_ >= kProvenancePerTrace) return;
  ++prov_in_trace_;
  obs::MatchProvenance p;
  p.trace_id = trace_id;
  p.plan_fingerprint = plan_fingerprint_;
  p.match_start_ts = match.span.start;
  p.match_end_ts = match.span.end;
  obs::CopyLabel(p.label, options_.label.c_str());
  obs::CopyLabel(p.op_path, op_path_);
  auto add_event = [&p](const EventPtr& e) {
    if (e == nullptr) return;
    if (p.num_events < obs::MatchProvenance::kMaxEvents) {
      p.event_ids[p.num_events] = e->id();
      p.event_ts[p.num_events] = e->timestamp();
    }
    ++p.num_events;
  };
  for (const EventPtr& e : match.slots) add_event(e);
  if (match.group != nullptr) {
    for (const EventPtr& e : *match.group) add_event(e);
  }
  obs::Tracer::Global().RecordProvenance(p);
}

void Engine::MaybeAdapt() {
  if (adaptive_ == nullptr) return;
  if (assembly_rounds_ %
          static_cast<uint64_t>(
              std::max(options_.adaptive_options.check_every_rounds, 1)) !=
      0) {
    return;
  }
  const StatsCatalog defaults(pattern_->num_classes(),
                              static_cast<double>(pattern_->window));
  const StatsCatalog current = windowed_stats_->Snapshot(*pattern_, defaults);
  // Replan evaluations are control-plane work: each one that runs gets
  // its own trace, so plan churn is auditable next to event spans.
  const int evaluations = adaptive_->replan_evaluations();
  const uint64_t t0 = obs::TraceEnabled() ? obs::MonotonicNanos() : 0;
  std::optional<PhysicalPlan> next = adaptive_->MaybeReplan(current);
  bool switched = false;
  if (next.has_value()) {
    const Status st = SwitchPlan(*next);
    switched = st.ok();
    if (!st.ok()) {
      ZS_LOG(Warn) << "plan switch failed: " << st.ToString();
    }
  }
  if (t0 == 0 || adaptive_->replan_evaluations() == evaluations) return;
  const uint64_t trace = obs::Tracer::Global().NewTraceId();
  const uint64_t t1 = obs::MonotonicNanos();
  obs::TraceRecord(obs::CurrentLane(), obs::SpanKind::kReplan, trace, t0, t1,
                   options_.label.c_str(), switched ? 1 : 0);
  if (switched) {
    obs::TraceRecord(obs::CurrentLane(), obs::SpanKind::kPlanSwitch, trace,
                     t1, t1, options_.label.c_str(), plan_fingerprint_);
  }
}

Status Engine::SwitchPlan(const PhysicalPlan& plan) {
  // Full invariant pass: a plan the verifier refuses never replaces the
  // running one.
  ZS_RETURN_IF_ERROR(verify::VerifyPlan(*pattern_, plan));
  ZS_RETURN_IF_ERROR(Build(plan, /*initial=*/false));
  // Rebuild round (Section 5.3): non-trigger leaves replay their
  // retained records so the new plan's internal state is reconstructed;
  // trigger leaves keep their consumption point, so no match is
  // duplicated.
  for (int c = 0; c < pattern_->num_classes(); ++c) {
    const bool is_trigger =
        std::find(trigger_classes_.begin(), trigger_classes_.end(), c) !=
        trigger_classes_.end();
    if (!is_trigger) {
      leaves_[static_cast<size_t>(c)]->output()->RewindWatermark();
    }
  }
  rebuild_round_pending_ = true;
  ++plan_switches_;
  return Status::OK();
}

uint64_t Engine::pairs_tried() const {
  uint64_t total = 0;
  for (const auto& op : internal_nodes_) {
    total += op->pairs_tried();
  }
  return total;
}

namespace {

NodeProfile ProfileNode(const Pattern& pattern, const OperatorNode& node) {
  NodeProfile out;
  out.records_out = node.records_emitted();
  out.pairs_tried = node.pairs_tried();
  out.buffer_records = node.output()->size();
  out.eval_ns = node.eval_ns();
  if (node.is_leaf()) {
    const auto& leaf = static_cast<const LeafNode&>(node);
    out.label =
        std::string("LEAF ") +
        pattern.classes[static_cast<size_t>(leaf.class_idx())].alias;
    out.events_in = leaf.offered();
    return out;
  }
  out.label = PhysOpName(node.op());
  for (const OperatorNode* child : node.children()) {
    out.children.push_back(ProfileNode(pattern, *child));
    // A node consumes exactly what its children emit; summing the
    // children's output counters here keeps the hot path free of a
    // second per-record counter.
    out.events_in += out.children.back().records_out;
  }
  return out;
}

}  // namespace

PlanProfiles Engine::Profile() const {
  return {PlanProfile{plan_.Explain(*pattern_), plan_.estimated_cost, 1,
                      ProfileNode(*pattern_, *root_)}};
}

std::string Engine::ExplainAnalyze() const {
  std::ostringstream os;
  if (!options_.label.empty()) os << "query=" << options_.label << " ";
  os << "plan=" << plan_.Explain(*pattern_);
  os.precision(6);
  os << " cost_est=" << plan_.estimated_cost
     << " observed_pairs=" << pairs_tried() << "\n";
  os << "events_pushed=" << events_pushed_ << " matches=" << num_matches_
     << " rounds=" << assembly_rounds_ << " plan_switches=" << plan_switches_
     << " late=" << late_events_;
  if (options_.slow_event_ns > 0) os << " slow_events=" << slow_events_;
  os << "\n" << RenderPlanProfiles(Profile());
  return os.str();
}

void Engine::LogSlowEvent(uint64_t elapsed_ns) {
  ++slow_events_;
  const std::string& name = options_.label.empty() ? "?" : options_.label;
  obs::Registry::Default()
      .GetCounter("zstream_slow_events_total", {{"query", name}},
                  "Events whose processing exceeded the slow-event "
                  "threshold")
      ->Inc();
  // At most one log line per second per engine; the rest are counted
  // and reported with the next line.
  constexpr uint64_t kLogPeriodNs = 1000000000ULL;
  const uint64_t now = obs::MonotonicNanos();
  if (last_slow_log_ns_ != 0 && now - last_slow_log_ns_ < kLogPeriodNs) {
    ++slow_suppressed_;
    return;
  }
  last_slow_log_ns_ = now;
  // slow_event_ns > 0 implies profiling_, so cumulative eval times are
  // live; the hottest node is the best single suspect to name.
  const OperatorNode* hottest = nullptr;
  for (const OperatorNode* op : assembly_order_) {
    if (hottest == nullptr || op->eval_ns() > hottest->eval_ns()) {
      hottest = op;
    }
  }
  std::ostringstream line;
  line << "slow event in query '" << name << "': "
       << static_cast<double>(elapsed_ns) / 1e6 << " ms (threshold "
       << static_cast<double>(options_.slow_event_ns) / 1e6 << " ms)";
  if (hottest != nullptr) {
    line << ", hottest node " << PhysOpName(hottest->op()) << " (cum "
         << static_cast<double>(hottest->eval_ns()) / 1e6 << " ms)";
  }
  // A traced slow event is directly inspectable: name the trace id so
  // the log line joins against GET /trace output, and snapshot the
  // span rings (flight recorder rate-limits to one dump per window) so
  // "what else was running" survives for post-mortem.
  const uint64_t trace = obs::CurrentTraceId();
  if (trace != 0) {
    line << ", trace=0x" << std::hex << trace << std::dec;
  }
  if (slow_suppressed_ > 0) {
    line << "; " << slow_suppressed_ << " similar suppressed";
    slow_suppressed_ = 0;
  }
  ZS_LOG(Warn) << line.str();
  obs::FlightRecorder::Global().TriggerDump("slow-event");
}

}  // namespace zstream

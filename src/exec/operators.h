// Operator nodes of a tree plan (Section 4.4), batch-oriented edition.
//
// Every internal node owns a columnar output buffer and implements one
// assembly round over its children's buffers. Candidate combinations
// are evaluated *before* materialization: the slot-wise union of a pair
// is assembled as a scratch view of non-owning aliases, predicates run
// against that view, and only surviving results are copied into the
// output chunk (or streamed to the engine's MatchSink when this node is
// the plan root — completed matches never materialize at all).
// Consumption rules follow the paper:
//
//   * SEQ  (Alg 1): outer loop = new right records; right internal
//     buffers are cleared after the round; left buffers persist
//     (materialization) and are EAT-purged.
//   * NSEQ (Alg 2): pairs each new non-negated record with the latest
//     (resp. first) negating event; emits (b, c) or (NULL, c).
//   * CONJ (Alg 3): sort-merge on end timestamps with persistent cursors
//     on both inputs.
//   * DISJ: order-preserving merge of both inputs.
//   * KSEQ (Alg 4): trinary closure assembly; see kleene.cc.
//   * NEG filter: drops composites with an interleaving negator (the
//     "last-filter-step" strategy the paper compares against).
//
// All nodes are owned by the Engine. Leaf nodes survive plan switches;
// internal nodes are rebuilt (Section 5.3).
#ifndef ZSTREAM_EXEC_OPERATORS_H_
#define ZSTREAM_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/buffer.h"
#include "exec/match.h"
#include "expr/compiled.h"
#include "opt/stats.h"
#include "plan/pattern.h"
#include "plan/physical_plan.h"

namespace zstream {

/// \brief Streaming consumer of completed matches (installed on the plan
/// root by the Engine). The match is a view into the root's input
/// buffers, valid for the duration of the call.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void OnMatch(Match&& match) = 0;
};

/// A buffered record viewed as a completed match (valid while the record
/// stays buffered).
inline Match RecordMatch(const RecordRef& r) {
  return Match{TimeSpan{r.start_ts, r.end_ts},
               MatchSlots(r.slots, r.num_slots), r.group(),
               r.has_group() ? r.group_sp : nullptr};
}

/// \brief Base class for all plan-tree nodes.
class OperatorNode {
 public:
  OperatorNode(const Pattern* pattern, PhysOp op, MemoryTracker* tracker,
               bool leaf_buffer = false);
  virtual ~OperatorNode() = default;
  ZS_DISALLOW_COPY_AND_ASSIGN(OperatorNode);

  PhysOp op() const { return op_; }
  bool is_leaf() const { return op_ == PhysOp::kLeaf; }
  Buffer* output() { return &output_; }
  const Buffer* output() const { return &output_; }

  /// Runs one assembly round with the given earliest allowed timestamp.
  virtual void Assemble(Timestamp eat) = 0;

  /// Stream horizon: every event with timestamp < horizon has arrived.
  /// Set by the engine before each assembly round; right-side negation
  /// uses it to avoid finalizing pairings a future negator could change.
  void set_horizon(Timestamp h) { horizon_ = h; }

  /// Installs a streaming sink: results bypass the output buffer and go
  /// straight to the consumer (set on the plan root only).
  void SetSink(MatchSink* sink) { sink_ = sink; }

  /// Attaches a multi-class predicate (with its pattern-level index for
  /// runtime selectivity tracking; -1 when untracked).
  void AttachPredicate(ExprPtr pred, int pred_idx);

  /// Classes covered by this subtree (set at build time by the Engine).
  const std::vector<int>& covered() const { return covered_; }
  void set_covered(std::vector<int> c) { covered_ = std::move(c); }

  void set_runtime_stats(WindowedClassStats* stats) { stats_ = stats; }

  uint64_t pairs_tried() const { return pairs_tried_; }
  uint64_t records_emitted() const { return records_emitted_; }

  /// Child operators in plan order (leaves included); set at
  /// construction, used only for profile-tree traversal.
  const std::vector<OperatorNode*>& children() const { return children_; }

  /// Cumulative wall time spent in Assemble. Charged by the engine's
  /// assembly loop when profiling is on; stays 0 otherwise.
  uint64_t eval_ns() const { return eval_ns_; }
  void add_eval_ns(uint64_t ns) { eval_ns_ += ns; }

 protected:
  struct AttachedPred {
    ExprPtr expr;
    /// Fast path for AND-of-comparison shapes; nullopt falls back to the
    /// tree-walking interpreter.
    std::optional<CompiledPredicate> compiled;
    std::vector<int> classes;  // referenced classes
    bool has_aggregate = false;
    int pred_idx = -1;
  };

  /// True when all attached predicates pass on the record view. A
  /// predicate whose referenced slots are not all bound (disjunction
  /// branches) passes vacuously; aggregate predicates check group
  /// presence instead of the Kleene class's slot.
  bool EvalPreds(const EvalInput& in);
  bool EvalOnePred(const AttachedPred& p, const EvalInput& in);

  /// Scratch slot-union view of two records (disjoint class sets, `a`
  /// wins ties), built from non-owning aliases: evaluating a candidate
  /// pair costs no allocation and no refcount traffic. The view is valid
  /// until the next MergedView call on this node.
  EvalInput MergedView(const RecordRef& a, const RecordRef& b);

  /// Emits the union of `a` and `b` with an explicit span: streams a
  /// view of both records to the sink when installed, otherwise
  /// materializes into output().
  void EmitMerged(const RecordRef& a, const RecordRef& b, Timestamp start_ts,
                  Timestamp end_ts);
  /// Emits a copy of an existing record (pass-through operators).
  void EmitRef(const RecordRef& r);

  const Pattern* pattern_;
  PhysOp op_;
  Buffer output_;
  MatchSink* sink_ = nullptr;
  std::vector<AttachedPred> preds_;
  std::vector<int> covered_;
  int group_class_;  // pattern's Kleene class (or -1)
  Duration window_;
  Timestamp horizon_ = kMaxTimestamp;
  WindowedClassStats* stats_ = nullptr;
  uint64_t pairs_tried_ = 0;
  uint64_t records_emitted_ = 0;
  uint64_t eval_ns_ = 0;
  std::vector<OperatorNode*> children_;
  /// Non-owning alias slots backing MergedView.
  std::vector<EventPtr> scratch_;
};

/// \brief Leaf buffer for one event class, with pushed-down single-class
/// predicates (and negated-disjunction admission branches).
class LeafNode : public OperatorNode {
 public:
  LeafNode(const Pattern* pattern, int class_idx, MemoryTracker* tracker);

  int class_idx() const { return class_idx_; }

  /// Columnar admission: evaluates the pushed-down predicates term-major
  /// over the whole batch (compiled single-class shapes narrow a
  /// selection mask), then appends survivors. Falls back to per-event
  /// admission when a predicate did not compile.
  void OfferBatch(const EventPtr* events, int n);

  /// Primitive events offered (before predicate admission); admitted
  /// events are records_emitted().
  uint64_t offered() const { return offered_; }

  void Assemble(Timestamp) override {}

 private:
  struct LeafPred {
    const Expr* expr;
    std::optional<CompiledPredicate> compiled;
  };

  void Admit(const EventPtr& event);
  void Accept(const EventPtr& event);

  int class_idx_;
  uint64_t offered_ = 0;
  const EventClass* event_class_;
  std::vector<LeafPred> leaf_preds_;
  bool batchable_ = false;  // every pred compiled, no neg branches
  std::vector<uint8_t> mask_;
  /// Scratch slot vector for the admission probe: sized once, holding a
  /// non-owning alias of the offered event while predicates run, so a
  /// rejected event costs no allocation and no shared_ptr refcounting.
  std::vector<EventPtr> probe_slots_;
};

/// \brief Sequence (Algorithm 1), with optional hash-probe inner path
/// and negation time-guards (the "extra time constraints" of Figure 4).
class SeqNode : public OperatorNode {
 public:
  SeqNode(const Pattern* pattern, OperatorNode* left, OperatorNode* right,
          MemoryTracker* tracker);

  /// Uses a hash index on the left buffer keyed by (left_class,
  /// left_field); the probe key comes from the right record's
  /// (right_class, right_field).
  void SetHashEquality(const EqualityJoin& eq);

  /// Adds the survival guard for negated class `nc`:
  /// bound-on-right: slots[nc-1].ts >= slots[nc].ts;
  /// bound-on-left:  slots[nc].ts  >= slots[nc+1].ts.
  void AddNegGuard(int neg_class, bool neg_bound_on_right);

  void Assemble(Timestamp eat) override;

 private:
  bool PassesGuards(const RecordRef& l, const RecordRef& r) const;
  void TryCombine(const RecordRef& l, const RecordRef& r);

  OperatorNode* left_;
  OperatorNode* right_;
  std::optional<EqualityJoin> hash_eq_;
  struct NegGuard {
    int neg_class;
    bool neg_bound_on_right;
  };
  std::vector<NegGuard> guards_;
};

/// \brief Negation pushed down (Algorithm 2). `neg` must be the negated
/// class's leaf. When `neg_left`, pairs each new record of `other` with
/// the *latest* earlier negator; otherwise with the *first* later one.
class NSeqNode : public OperatorNode {
 public:
  NSeqNode(const Pattern* pattern, LeafNode* neg, OperatorNode* other,
           bool neg_left, MemoryTracker* tracker);

  void Assemble(Timestamp eat) override;

 private:
  LeafNode* neg_;
  OperatorNode* other_;
  bool neg_left_;
};

/// \brief Conjunction (Algorithm 3): order-free sort-merge join.
class ConjNode : public OperatorNode {
 public:
  ConjNode(const Pattern* pattern, OperatorNode* left, OperatorNode* right,
           MemoryTracker* tracker);

  /// Enables hash probing for an equality predicate; indexes are built
  /// on both inputs since either side can pivot.
  void SetHashEquality(const EqualityJoin& eq);

  void Assemble(Timestamp eat) override;

 private:
  void CombineWithEarlier(const RecordRef& pivot, Buffer& partner,
                          RecordId limit, bool pivot_is_left, Timestamp eat);

  OperatorNode* left_;
  OperatorNode* right_;
  std::optional<EqualityJoin> hash_eq_;
};

/// \brief Disjunction: end-timestamp-ordered union of both inputs.
class DisjNode : public OperatorNode {
 public:
  DisjNode(const Pattern* pattern, OperatorNode* left, OperatorNode* right,
           MemoryTracker* tracker);

  void Assemble(Timestamp eat) override;

 private:
  OperatorNode* left_;
  OperatorNode* right_;
};

/// \brief Negation as a final filtration step. Scans the negated class's
/// leaf buffer for an interleaving negator between the classes adjacent
/// to the negation position.
class NegFilterNode : public OperatorNode {
 public:
  NegFilterNode(const Pattern* pattern, OperatorNode* input,
                LeafNode* neg_leaf, int neg_class, MemoryTracker* tracker);

  void Assemble(Timestamp eat) override;

 private:
  OperatorNode* input_;
  LeafNode* neg_leaf_;
  int neg_class_;
};

/// \brief Kleene closure (Algorithm 4); defined in kleene.cc.
class KSeqNode : public OperatorNode {
 public:
  /// `start` and `end` may be null when the closure begins/ends the
  /// pattern; `closure` is the Kleene class's leaf.
  KSeqNode(const Pattern* pattern, OperatorNode* start, LeafNode* closure,
           OperatorNode* end, MemoryTracker* tracker);

  void Assemble(Timestamp eat) override;

 private:
  void AssembleWithEnd(Timestamp eat);
  void AssembleAtPatternEnd(Timestamp eat);
  void EmitGroups(const RecordRef* sr, const RecordRef& er, Timestamp lo,
                  Timestamp hi, Timestamp eat);
  /// Builds the base view (er slots, filled from sr) into base_slots_.
  EvalInput BaseView(const RecordRef* sr, const RecordRef& er);
  bool MidQualifies(const EventPtr& m, const EvalInput& base);
  void EmitOne(const RecordRef* sr, const RecordRef& er, EventGroup group);

  OperatorNode* start_;  // nullable
  LeafNode* closure_;
  OperatorNode* end_;  // nullable
  KleeneKind kind_;
  int count_;
  // Predicate split: per-closure-event filters vs group-level
  // (aggregate) predicates vs base (start/end only) predicates.
  bool preds_split_ = false;
  std::vector<AttachedPred> per_mid_preds_;
  std::vector<AttachedPred> group_preds_;
  std::vector<AttachedPred> base_preds_;
  void SplitPreds();
  /// Scratch for the (start, end) base view during group assembly; kept
  /// separate from scratch_ so MidQualifies can probe while the base is
  /// live.
  std::vector<EventPtr> base_slots_;
  EventGroup qualifying_;  // reused across EmitGroups calls
};

}  // namespace zstream

#endif  // ZSTREAM_EXEC_OPERATORS_H_

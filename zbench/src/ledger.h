// The benchmark's own span ledger: one span around each public call the
// benchmark makes into a layer, named "<layer>.<call>". Spans nest per
// thread, so a span's self time is its duration minus its children's.
// Spans stay in memory and are written out once, as a chrome://tracing
// document, when the run ends. The program's own tracer (obs/trace) is
// deliberately not used: the ledger must attribute time the same way
// whatever the program under test does internally.
#ifndef ZBENCH_LEDGER_H_
#define ZBENCH_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "report.h"

namespace zbench {

class Ledger {
 public:
  /// Root span of each traced closed-loop pass. Its children's summed
  /// durations over its own duration is the ledger's coverage: the share
  /// of the pass's wall time that layer spans account for.
  static constexpr const char* kPassSpan = "workload.pass";

  /// \brief RAII span; with a null ledger it records nothing.
  class Span {
   public:
    Span(Ledger* ledger, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    friend class Ledger;
    Ledger* ledger_;
    const char* name_;
    Span* parent_ = nullptr;
    uint64_t start_ns_ = 0;
    uint64_t child_ns_ = 0;
  };

  /// Per-name and per-layer totals, span-duration quantiles and the
  /// pass coverage, as one JSON object.
  void WriteSummary(JsonWriter* out) const;

  /// Writes every span as a chrome://tracing "X" event.
  zstream::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t self_ns;
    uint32_t tid;
  };

  void Close(const Span& span, uint64_t end_ns);

  mutable std::mutex mu_;
  std::vector<Record> records_;
  uint64_t pass_ns_ = 0;
  uint64_t pass_covered_ns_ = 0;
};

}  // namespace zbench

#endif  // ZBENCH_LEDGER_H_

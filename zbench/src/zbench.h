// zbench: the repository benchmark. It drives ZStream from outside,
// through its public API only, over three seeded workloads (see
// zbench/README.md for why each exists and what it should predict).
//
//   workloads.cc  input generation, DDL and the independent reference
//   targets.cc    the served path under test: in-process StreamRuntime
//                 or net::Server + two net::Clients over loopback
//   ledger.cc     the benchmark's own spans around each public call
//   main.cc       phases (open loop, closed loop, traced extras) and the
//                 raw JSON report that zbench/run.py turns into metrics
#ifndef ZBENCH_ZBENCH_H_
#define ZBENCH_ZBENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/zstream.h"
#include "common/result.h"
#include "exec/engine.h"

namespace zbench {

using zstream::EventPtr;
using zstream::Match;
using zstream::Result;
using zstream::Status;
using zstream::Timestamp;

/// \brief Order-independent digest of a match multiset: the count plus
/// the wrapping sum of a 64-bit hash of each match's canonical identity.
/// The hash covers exactly the fields runtime::CanonicalMatchKey renders
/// (span, every bound slot's class index and timestamp, Kleene group
/// timestamps) without building the key string, so digesting ~16
/// matches per event does not dominate the measured path.
struct MatchDigest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(const Match& match);
  void Merge(const MatchDigest& other) {
    count += other.count;
    sum += other.sum;
  }
  bool operator==(const MatchDigest&) const = default;
};

/// \brief One workload: its generated input plus everything needed to
/// serve it (stream DDL, query, compile options, shard count, transport).
struct Workload {
  std::string name;
  std::string stream;
  std::string stream_ddl;
  std::string query;  // catalog name of the served query
  std::string text;   // PATTERN ... body
  zstream::CompileOptions compile;
  int shards = 1;
  size_t batch = 256;  // events per ingest call
  /// Served over loopback TCP instead of in-process. Only the wire
  /// workload has an open-loop phase.
  bool wire = false;
  std::vector<EventPtr> events;
  /// events[i]->timestamp(), non-decreasing: maps a match's span.end
  /// back to the ingest batch that carried its last event.
  std::vector<Timestamp> timestamps;
  std::vector<std::vector<EventPtr>> batches;

  std::string CreateQueryDdl() const {
    return "CREATE QUERY " + query + " ON " + stream + " AS " + text;
  }
};

/// Generates the named workload's input from `seed` (same seed, same
/// events).
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The workload's match set computed by an independent single-threaded
/// path (see workloads.cc for which one per workload).
Result<MatchDigest> ReferenceDigest(const Workload& workload);

/// \brief Send stamps of one pass's ingest batches. Detection latency of
/// a match is its arrival at the receiver minus the stamp of the batch
/// holding its last event: in the open loop the time that batch was
/// *due* (so a late sender's lag counts), in the closed loop the time
/// its ingest call began.
struct Schedule {
  Schedule(const std::vector<Timestamp>* timestamps, size_t batch,
           size_t num_batches, uint64_t sample_mask)
      : timestamps(timestamps),
        batch(batch),
        sample_mask(sample_mask),
        sent_ns(new std::atomic<uint64_t>[num_batches]) {}

  const std::vector<Timestamp>* timestamps;
  size_t batch;
  /// A match is sampled when its last event's timestamp hashes to 0
  /// under this mask, so a sampled event contributes every match it
  /// completes and the receiver pays for one hash per match.
  uint64_t sample_mask;
  /// Written by the producer before each ingest call, read by receivers.
  std::unique_ptr<std::atomic<uint64_t>[]> sent_ns;
  /// Receivers record latencies only while set; cleared before the
  /// final flush so stream-end stragglers are not sampled.
  std::atomic<bool> recording{false};

  void Stamp(size_t batch_index, uint64_t ns) {
    sent_ns[batch_index].store(ns, std::memory_order_relaxed);
  }
  uint64_t SentNs(size_t batch_index) const {
    return sent_ns[batch_index].load(std::memory_order_relaxed);
  }
  /// Index of the batch carrying the first event stamped `end`.
  size_t BatchOfEvent(Timestamp end) const;
};

/// One detection latency, tagged with the batch that carried the
/// match's last event.
struct LatencySample {
  uint32_t batch = 0;
  int64_t ns = 0;
};

/// \brief Single-writer match accumulator (one per receiving thread).
struct Receiver {
  MatchDigest digest;
  std::vector<LatencySample> latency;

  void Receive(const Match& match, const Schedule* schedule);
};

class Ledger;

/// \brief The system under test, opened fresh for every pass. Every
/// method times its public calls into the ledger when one is given.
class Target {
 public:
  virtual ~Target() = default;

  /// Offers one batch; returns the events dropped, rejected, or lost in
  /// a failed call.
  virtual uint64_t Ingest(const std::vector<EventPtr>& batch) = 0;

  /// Barrier: returns once every match of everything ingested so far
  /// has reached the benchmark's receiver.
  virtual Status Flush() = 0;

  /// The registry document {"runtime": ..., "process": ...}: the
  /// server's Client::Metrics(JSON), or the same shape in-process.
  virtual Result<std::string> Metrics() = 0;

  /// Matches received so far (complete after Flush).
  virtual MatchDigest Digest() const = 0;

  /// Detection latencies recorded so far (drained).
  virtual std::vector<LatencySample> TakeLatencies() = 0;
};

/// Opens the workload's target: everything up to "ready to ingest"
/// (stream and query DDL; for the wire, server start, two connections
/// and the subscription). `schedule` may be null (no latency recorded).
Result<std::unique_ptr<Target>> OpenTarget(const Workload& workload,
                                           Schedule* schedule,
                                           Ledger* ledger);

}  // namespace zbench

#endif  // ZBENCH_ZBENCH_H_

// Logical time in ZStream.
//
// Following the paper, every primitive event carries one timestamp; every
// composite event carries a [start, end] timestamp pair and must satisfy
// end - start <= time window (Section 3).
#ifndef ZSTREAM_COMMON_TIMESTAMP_H_
#define ZSTREAM_COMMON_TIMESTAMP_H_

#include <cstdint>
#include <limits>

namespace zstream {

/// Logical timestamp. ZStream is unit-agnostic; the query language maps
/// `secs`/`mins`/`hours` onto milliseconds and bare numbers onto raw units.
using Timestamp = int64_t;

/// Duration between two timestamps (same unit as Timestamp).
using Duration = int64_t;

inline constexpr Timestamp kMinTimestamp =
    std::numeric_limits<Timestamp>::min();
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();

/// Valid range of a primitive event's timestamp (and bound on a WITHIN
/// window): +/-2^62. The margin to the int64 limits keeps engine
/// arithmetic such as `ts - window`, `ts + 1` and `ts - slack` free of
/// signed overflow. Untrusted input (the wire protocol) is checked
/// against it.
inline constexpr Timestamp kMaxEventTimestamp = Timestamp{1} << 62;
inline constexpr Timestamp kMinEventTimestamp = -kMaxEventTimestamp;

inline constexpr bool IsValidEventTimestamp(Timestamp ts) {
  return ts >= kMinEventTimestamp && ts <= kMaxEventTimestamp;
}

/// A half-open interval of occurrence for a (composite) event.
struct TimeSpan {
  Timestamp start = 0;
  Timestamp end = 0;

  Duration duration() const { return end - start; }
  bool operator==(const TimeSpan&) const = default;
};

}  // namespace zstream

#endif  // ZSTREAM_COMMON_TIMESTAMP_H_

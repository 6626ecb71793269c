// Internal access to Query's engine. The public surface keeps Query
// opaque (no raw engine pointer escapes api/); code that legitimately
// needs the executor — white-box tests, ablation benchmarks — goes
// through this header instead, so every such use is greppable.
#ifndef ZSTREAM_API_INTERNAL_H_
#define ZSTREAM_API_INTERNAL_H_

#include "api/zstream.h"

namespace zstream::internal {

struct QueryAccess {
  /// The uniform engine interface (exec/engine_core.h); builds the
  /// engine if the query has none yet.
  static EngineCore* Core(Query& query) { return &query.core(); }

  /// Whether the query has built its engine (it does on first use).
  static bool HasEngine(const Query& query) {
    return query.engine_ != nullptr;
  }
};

}  // namespace zstream::internal

#endif  // ZSTREAM_API_INTERNAL_H_

// The catalog: named event streams and named queries.
//
// A Catalog is the registry behind the public API's session model
// (ZStream owns one; StreamRuntime binds its input streams from one):
// each *stream* is a (name, schema) pair, each *query* is a named query
// attached to one stream, carrying its CompiledQuery. The catalog holds
// no engines — whoever runs a query (the session's Query, the runtime's
// shards) builds them from that CompiledQuery — so it is cheap to copy.
//
// Populated programmatically (CreateStream/AddQuery) or through the DDL
// layer (`CREATE STREAM ...`, `CREATE QUERY ... ON ... AS ...`,
// executed by ZStream::Execute). Errors carry the stable ZS-Sxxxx codes
// from query/error_codes.h.
#ifndef ZSTREAM_API_CATALOG_H_
#define ZSTREAM_API_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"

namespace zstream {

class CompiledQuery;  // api/zstream.h

/// \brief Metadata for one named query in the catalog.
struct QueryInfo {
  std::string name;
  std::string stream;   // owning stream's name
  std::string text;     // query text (PATTERN ... WITHIN ...)
  /// Set when registered through ZStream::Execute.
  std::shared_ptr<const CompiledQuery> compiled;
};

/// \brief Named streams + named queries. Insertion order is preserved
/// (StartRuntime binds streams in catalog order, SHOW lists follow it).
class Catalog {
 public:
  Status CreateStream(const std::string& name, SchemaPtr schema);
  Status DropStream(const std::string& name);
  Result<SchemaPtr> stream(const std::string& name) const;
  bool HasStream(const std::string& name) const;
  std::vector<std::string> StreamNames() const;
  int num_streams() const { return static_cast<int>(streams_.size()); }

  Status AddQuery(QueryInfo info);
  Status DropQuery(const std::string& name);
  Result<QueryInfo> query(const std::string& name) const;
  bool HasQuery(const std::string& name) const;
  const std::vector<QueryInfo>& queries() const { return queries_; }

  /// One line per stream: "stock (sym STRING, price INT, ...)".
  std::string DescribeStreams() const;
  /// One line per query: "q1 ON stock: PATTERN ...".
  std::string DescribeQueries() const;

 private:
  struct StreamEntry {
    std::string name;
    SchemaPtr schema;
  };
  std::vector<StreamEntry> streams_;
  std::vector<QueryInfo> queries_;
};

}  // namespace zstream

#endif  // ZSTREAM_API_CATALOG_H_

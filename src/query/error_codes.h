// Stable, machine-readable diagnostic codes for the query/DDL frontend.
//
// Codes are part of the public API contract: tools (and tests) match on
// them, so existing codes never change meaning. Naming scheme:
//   ZS-Lxxxx  lexer          ZS-Pxxxx  pattern-query parser
//   ZS-Dxxxx  DDL parser     ZS-Sxxxx  semantic analyzer / catalog
//   ZS-Nxxxx  network protocol (src/net/)
//   ZS-Txxxx  expression typechecker (src/verify/typecheck.*)
//   ZS-Vxxxx  plan verifier (src/verify/plan_verifier.*)
//   ZS-Wxxxx  query linter warnings (src/verify/lint.*)
// Attach with Status::WithErrorCode; source coordinates ride along via
// Status::WithLocation (1-based line/column).
#ifndef ZSTREAM_QUERY_ERROR_CODES_H_
#define ZSTREAM_QUERY_ERROR_CODES_H_

namespace zstream::errc {

// Lexer.
inline constexpr char kLexUnexpectedChar[] = "ZS-L0001";
inline constexpr char kLexUnterminatedString[] = "ZS-L0002";

// Pattern-query parser.
inline constexpr char kParseExpectedToken[] = "ZS-P0001";   // generic
inline constexpr char kParseExpectedPattern[] = "ZS-P0002";  // class or '('
inline constexpr char kParseExpectedWithin[] = "ZS-P0003";
inline constexpr char kParseTrailingInput[] = "ZS-P0004";
inline constexpr char kParseBadDuration[] = "ZS-P0005";
inline constexpr char kParseBadClosure[] = "ZS-P0006";
inline constexpr char kParseExpectedExpr[] = "ZS-P0007";
inline constexpr char kParseExpectedPatternKw[] = "ZS-P0008";

// DDL parser.
inline constexpr char kDdlUnknownStatement[] = "ZS-D0001";
inline constexpr char kDdlExpectedIdent[] = "ZS-D0002";
inline constexpr char kDdlExpectedToken[] = "ZS-D0003";
inline constexpr char kDdlUnknownType[] = "ZS-D0004";
inline constexpr char kDdlDuplicateField[] = "ZS-D0005";
inline constexpr char kDdlEmptySchema[] = "ZS-D0006";

// Catalog / execution of DDL.
inline constexpr char kCatalogDuplicateStream[] = "ZS-S0001";
inline constexpr char kCatalogUnknownStream[] = "ZS-S0002";
inline constexpr char kCatalogDuplicateQuery[] = "ZS-S0003";
inline constexpr char kCatalogUnknownQuery[] = "ZS-S0004";
inline constexpr char kCatalogStreamInUse[] = "ZS-S0005";
// A compiled query registered on a runtime stream of another schema.
inline constexpr char kCatalogSchemaMismatch[] = "ZS-S0006";

// Network protocol (src/net/). These travel inside kError frames, so a
// client can match on them the same way a local caller matches on the
// query-frontend codes.
inline constexpr char kNetBadVersion[] = "ZS-N0001";
inline constexpr char kNetUnknownType[] = "ZS-N0002";
inline constexpr char kNetOversizedFrame[] = "ZS-N0003";
inline constexpr char kNetTruncatedPayload[] = "ZS-N0004";
inline constexpr char kNetEmptyPayload[] = "ZS-N0005";
inline constexpr char kNetSchemaMismatch[] = "ZS-N0006";
inline constexpr char kNetBatchTooLarge[] = "ZS-N0007";
inline constexpr char kNetUnexpectedMessage[] = "ZS-N0008";
inline constexpr char kNetBadTimestamp[] = "ZS-N0009";  // outside +/-2^62

// Expression typechecker (src/verify/typecheck.*). Raised before any
// event flows: these are the static versions of errors that previously
// surfaced (or silently nulled out) at eval time.
inline constexpr char kTypeUnknownAttribute[] = "ZS-T0001";
inline constexpr char kTypeUnknownAlias[] = "ZS-T0002";
inline constexpr char kTypeIncomparable[] = "ZS-T0003";      // e.g. int < string
inline constexpr char kTypeNonNumericArith[] = "ZS-T0004";   // e.g. 'x' + 1
inline constexpr char kTypeNonBoolLogic[] = "ZS-T0005";      // AND/OR/NOT operand
inline constexpr char kTypeAggNonKleene[] = "ZS-T0006";      // sum(B.v), B not B+
inline constexpr char kTypeAggNonNumeric[] = "ZS-T0007";     // sum over string
inline constexpr char kTypeNonBoolPredicate[] = "ZS-T0008";  // WHERE 1 + 2
inline constexpr char kTypeBadClassIndex[] = "ZS-T0009";     // hand-built exprs
inline constexpr char kTypeAggMissingField[] = "ZS-T0010";   // count() needs attr

// Plan verifier (src/verify/plan_verifier.*). One stable code per named
// invariant; verify::Invariants() enumerates the full registry.
inline constexpr char kVerifyEmptyPlan[] = "ZS-V0001";
inline constexpr char kVerifyCoverage[] = "ZS-V0002";
inline constexpr char kVerifyNodeShape[] = "ZS-V0003";
inline constexpr char kVerifyStructure[] = "ZS-V0004";
inline constexpr char kVerifyNseqLeaf[] = "ZS-V0005";
inline constexpr char kVerifyNseqAdjacency[] = "ZS-V0006";
inline constexpr char kVerifyNseqPredScope[] = "ZS-V0007";
inline constexpr char kVerifyKseqShape[] = "ZS-V0008";
inline constexpr char kVerifyKseqAdjacency[] = "ZS-V0009";
inline constexpr char kVerifyKseqPredScope[] = "ZS-V0010";
inline constexpr char kVerifyKleeneLegal[] = "ZS-V0011";
inline constexpr char kVerifyNegationHandled[] = "ZS-V0012";
inline constexpr char kVerifyNegFilterTarget[] = "ZS-V0013";
inline constexpr char kVerifyWindowPositive[] = "ZS-V0014";
inline constexpr char kVerifyPartitionKey[] = "ZS-V0015";
inline constexpr char kVerifyPredicateScope[] = "ZS-V0016";
inline constexpr char kVerifyReturnItems[] = "ZS-V0017";
inline constexpr char kVerifyNegBranch[] = "ZS-V0018";

// Query linter (src/verify/lint.*). Warnings, never errors: the query
// still runs, but almost certainly doesn't mean what the author hoped.
inline constexpr char kLintUnsatisfiable[] = "ZS-W0001";
inline constexpr char kLintUnreferencedAlias[] = "ZS-W0002";
inline constexpr char kLintCartesian[] = "ZS-W0003";
inline constexpr char kLintTautology[] = "ZS-W0004";
inline constexpr char kLintDuplicateConjunct[] = "ZS-W0005";

}  // namespace zstream::errc

#endif  // ZSTREAM_QUERY_ERROR_CODES_H_

// RSL parser: text -> Spec tree.
//
// Grammar (after the Globus RSL v1.0 grammar, restricted to the constructs
// the resource management architecture defines):
//
//   request   := spec
//   spec      := ('+' | '&' | '|') group+         combinator over groups
//              | group+                           implicit conjunction
//   group     := '(' spec-or-rel ')'
//   spec-or-rel := spec | relation
//   relation  := attribute op value+
//   op        := '=' | '!=' | '<' | '<=' | '>' | '>='
//   value     := literal | $(NAME) | '(' value+ ')'
//
// Attribute names are canonicalized (lowercase, underscores stripped).
#pragma once

#include <string_view>

#include "rsl/ast.hpp"
#include "simkit/status.hpp"

namespace grid::rsl {

/// Deepest nesting of '(' that parse() accepts, groups and value lists
/// counted together.  The parser recurses once per level and gatekeepers
/// parse every job request as it arrives from the network, so deeper input
/// is rejected rather than allowed to overflow the stack.
inline constexpr int kMaxNestingDepth = 64;

/// Parses a complete RSL request.  Errors (kInvalidArgument) carry a byte
/// offset and a description, e.g. "offset 17: expected ')'".
util::Result<Spec> parse(std::string_view source);

/// Parses and requires the result to be a multi-request ('+' at top level),
/// the form DUROC accepts (paper Fig. 1).
util::Result<Spec> parse_multi_request(std::string_view source);

}  // namespace grid::rsl

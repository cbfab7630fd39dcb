// RSL parser: ground-RSL text -> JobRequest.
//
// Co-allocators and GRAM consume ground RSL (paper Fig. 1): a '+'
// multi-request of subjob conjunctions whose relations name the attributes
// in rsl::attr.  The grammar is fixed, so the parser reads it in one pass
// without recursing and writes straight into JobRequest fields:
//
//   multi-request := '+' ('(' conjunction ')')+
//   conjunction   := '&'? ('(' relation ')')+
//   relation      := attribute '=' value+
//   value         := literal | '(' literal literal ')'   environment entries
//
// Attribute names are case-insensitive with underscores ignored
// ("resource_manager_contact" == "resourceManagerContact").  A literal is
// unquoted (any run of bare characters) or quoted with ' or ", a doubled
// quote standing for itself.  Whitespace and "(*" ... "*)" comments may
// separate any two tokens.
#pragma once

#include <string_view>
#include <vector>

#include "rsl/attributes.hpp"
#include "simkit/status.hpp"

namespace grid::rsl {

/// Parses one subjob conjunction, as a gatekeeper receives it.  Every error
/// is kInvalidArgument; syntax errors carry a byte offset and a
/// description, e.g. "offset 17: expected ')'".
util::Result<JobRequest> parse_job_request(std::string_view text);

/// Parses a '+' multi-request, the form co-allocators accept.
util::Result<std::vector<JobRequest>> parse_multi_request(
    std::string_view text);

/// True for the characters an unquoted literal may hold: anything but
/// whitespace, ( ) & + | = < > ! " ' $.  to_rsl() quotes any other text.
bool is_bare_char(char c);

}  // namespace grid::rsl

// RSL lexer.
//
// Follows the Globus RSL v1.0 lexical rules that the paper's Figure 1
// exercises: parenthesized structure, the +/&/| combinators, relational
// operators, unquoted literals, single- or double-quoted strings (a doubled
// quote escapes itself), $(NAME) variable references, and comments
// introduced by "(*" and terminated by "*)".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "rsl/token.hpp"
#include "simkit/status.hpp"

namespace grid::rsl {

class Lexer {
 public:
  /// Views `source`, which must outlive the lexer (a parse() call keeps
  /// its text alive for the call).
  explicit Lexer(std::string_view source);

  /// Returns the next token, advancing the cursor.
  Token next();

  /// Peeks without consuming.
  const Token& peek();

 private:
  Token lex();
  Token lex_quoted(char quote);
  Token lex_variable();
  Token lex_unquoted();
  bool skip_space_and_comments(Token* error_out);
  char cur() const { return src_[pos_]; }
  bool eof() const { return pos_ >= src_.size(); }

  std::string_view src_;
  std::size_t pos_ = 0;
  bool has_peek_ = false;
  Token peek_;
};

/// Convenience: tokenizes the whole input; stops after the first error
/// token (which is included in the result).
std::vector<Token> tokenize(std::string_view source);

}  // namespace grid::rsl

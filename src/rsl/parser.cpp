#include "rsl/parser.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>

namespace grid::rsl {
namespace {

enum class TokenKind {
  kLParen,
  kRParen,
  kAmp,
  kPlus,
  kEq,
  kLiteral,
  kEnd,
  kError,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  /// A literal's text as written, inside its quotes if it has any (a
  /// doubled quote still doubled), or an error token's diagnostic.
  std::string_view text;
  char quote = '\0';  // a quoted literal's quote character
  std::size_t offset = 0;
};

/// Splits the source into tokens without copying it.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  Token next() {
    if (auto err = skip_space_and_comments(); err.has_value()) return *err;
    const std::size_t at = pos_;
    if (pos_ == src_.size()) return {TokenKind::kEnd, {}, '\0', at};
    const char c = src_[pos_++];
    switch (c) {
      case '(':
        return {TokenKind::kLParen, {}, '\0', at};
      case ')':
        return {TokenKind::kRParen, {}, '\0', at};
      case '&':
        return {TokenKind::kAmp, {}, '\0', at};
      case '+':
        return {TokenKind::kPlus, {}, '\0', at};
      case '=':
        return {TokenKind::kEq, {}, '\0', at};
      case '"':
      case '\'':
        return quoted(c, at);
      default:
        if (!is_bare_char(c)) {
          // '|', '<', '>', '!' and '$' start disjunctions, other relational
          // operators and variables, none of which ground RSL uses.
          return {TokenKind::kError, "unexpected character", '\0', at};
        }
        while (pos_ < src_.size() && is_bare_char(src_[pos_])) ++pos_;
        return {TokenKind::kLiteral, src_.substr(at, pos_ - at), '\0', at};
    }
  }

 private:
  std::optional<Token> skip_space_and_comments() {
    for (;;) {
      while (pos_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[pos_])) != 0) {
        ++pos_;
      }
      if (src_.substr(pos_, 2) != "(*") return std::nullopt;
      const std::size_t end = src_.find("*)", pos_ + 2);
      if (end == std::string_view::npos) {
        return Token{TokenKind::kError, "unterminated comment", '\0', pos_};
      }
      pos_ = end + 2;
    }
  }

  Token quoted(char quote, std::size_t at) {
    for (;;) {
      const std::size_t close = src_.find(quote, pos_);
      if (close == std::string_view::npos) {
        return {TokenKind::kError, "unterminated quoted literal", '\0', at};
      }
      pos_ = close + 1;
      if (pos_ < src_.size() && src_[pos_] == quote) {
        ++pos_;  // a doubled quote stands for itself
        continue;
      }
      return {TokenKind::kLiteral, src_.substr(at + 1, close - at - 1), quote,
              at};
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
};

/// Whether `text` equals `name` ignoring ASCII case.
bool equals_ignoring_case(std::string_view text, std::string_view name) {
  return text.size() == name.size() &&
         std::equal(text.begin(), text.end(), name.begin(), [](char a, char b) {
           return std::tolower(static_cast<unsigned char>(a)) == b;
         });
}

class Parser {
 public:
  explicit Parser(std::string_view source) : lexer_(source) { advance(); }

  util::Status job_request(JobRequest& out) {
    if (auto st = conjunction(out); !st.is_ok()) return st;
    return end();
  }

  util::Status multi_request(std::vector<JobRequest>& out) {
    if (tok_.kind != TokenKind::kPlus) {
      return error("co-allocation request must be a '+' multi-request");
    }
    advance();
    do {
      if (auto st = expect(TokenKind::kLParen, "'(' to open a subjob");
          !st.is_ok()) {
        return st;
      }
      if (auto st = conjunction(out.emplace_back()); !st.is_ok()) return st;
      if (auto st = expect(TokenKind::kRParen, "')' to close the subjob");
          !st.is_ok()) {
        return st;
      }
    } while (tok_.kind == TokenKind::kLParen);
    return end();
  }

 private:
  void advance() { tok_ = lexer_.next(); }

  util::Status error(std::string_view what) const {
    std::string message = "offset " + std::to_string(tok_.offset) + ": ";
    message += what;
    if (tok_.kind == TokenKind::kError) {
      message += " (";
      message += tok_.text;
      message += ')';
    }
    return {util::ErrorCode::kInvalidArgument, std::move(message)};
  }

  util::Status expect(TokenKind kind, std::string_view what) {
    if (tok_.kind != kind) return error("expected " + std::string(what));
    advance();
    return util::Status::ok();
  }

  util::Status end() const {
    if (tok_.kind != TokenKind::kEnd) {
      return error("trailing input after the request");
    }
    return util::Status::ok();
  }

  // conjunction := '&'? ('(' relation ')')+, naming a contact and an
  // executable.
  util::Status conjunction(JobRequest& out) {
    if (tok_.kind == TokenKind::kAmp) advance();
    if (tok_.kind != TokenKind::kLParen) {
      return error("expected '(' to open a relation");
    }
    do {
      advance();
      if (auto st = relation(out); !st.is_ok()) return st;
      if (auto st = expect(TokenKind::kRParen, "')' to close the relation");
          !st.is_ok()) {
        return st;
      }
    } while (tok_.kind == TokenKind::kLParen);
    if (out.resource_manager_contact.empty()) {
      return {util::ErrorCode::kInvalidArgument,
              "subjob is missing resourceManagerContact"};
    }
    if (out.executable.empty()) {
      return {util::ErrorCode::kInvalidArgument,
              "subjob is missing executable"};
    }
    return util::Status::ok();
  }

  // relation := attribute '=' value+.  A repeated attribute overrides a
  // single value and extends a list.
  util::Status relation(JobRequest& out) {
    if (tok_.kind != TokenKind::kLiteral) {
      return error("expected an attribute name");
    }
    // The canonical name: lowercase, underscores dropped.  Anything longer
    // than the longest known name is unknown.
    char buf[attr::kResourceManagerContact.size()];
    std::size_t n = 0;
    for (char c : tok_.text) {
      if (c == '_') continue;
      if (n == sizeof buf) return error("unknown attribute");
      buf[n++] = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const std::string_view a(buf, n);
    advance();
    if (tok_.kind != TokenKind::kEq) {
      return error("expected '=' after attribute '" + std::string(a) + "'");
    }
    advance();
    if (a == attr::kResourceManagerContact) {
      return literal(out.resource_manager_contact);
    }
    if (a == attr::kExecutable) return literal(out.executable);
    if (a == attr::kCount) return integer(out.count, 1, 1'000'000);
    if (a == attr::kArguments) {
      do {
        if (auto st = literal(out.arguments.emplace_back()); !st.is_ok()) {
          return st;
        }
      } while (tok_.kind == TokenKind::kLiteral);
      return util::Status::ok();
    }
    if (a == attr::kEnvironment) {
      do {
        if (tok_.kind != TokenKind::kLParen) {
          return error("environment entries must be (NAME value) pairs");
        }
        advance();
        auto& [name, value] = out.environment.emplace_back();
        if (auto st = literal(name); !st.is_ok()) return st;
        if (auto st = literal(value); !st.is_ok()) return st;
        if (auto st = expect(TokenKind::kRParen,
                             "')' after an environment entry's value");
            !st.is_ok()) {
          return st;
        }
      } while (tok_.kind == TokenKind::kLParen);
      return util::Status::ok();
    }
    if (a == attr::kDirectory) return literal(out.directory);
    if (a == attr::kStdout) return literal(out.stdout_path);
    if (a == attr::kStderr) return literal(out.stderr_path);
    if (a == attr::kMaxWallTime) {
      // Minutes whose nanoseconds fit sim::Time.
      std::int64_t minutes = 0;
      if (auto st = integer(minutes, std::int64_t{1},
                            std::numeric_limits<sim::Time>::max() /
                                sim::kMinute);
          !st.is_ok()) {
        return st;
      }
      out.max_wall_time = minutes * sim::kMinute;
      return util::Status::ok();
    }
    if (a == attr::kJobType) {
      return keyword(out.job_type,
                     {JobType::kMultiple, JobType::kMpi, JobType::kSingle});
    }
    if (a == attr::kSubjobStartType) {
      return keyword(out.start_type,
                     {SubjobStartType::kRequired, SubjobStartType::kInteractive,
                      SubjobStartType::kOptional});
    }
    if (a == attr::kLabel) return literal(out.label);
    if (a == attr::kReservationId) {
      return integer(out.reservation_id, std::uint64_t{1},
                     std::numeric_limits<std::uint64_t>::max());
    }
    return error("unknown attribute '" + std::string(a) + "'");
  }

  // Decodes the current literal into `out` and consumes it.
  util::Status literal(std::string& out) {
    if (tok_.kind != TokenKind::kLiteral) return error("expected a literal");
    out.clear();
    if (tok_.quote == '\0') {
      out.assign(tok_.text);
    } else {
      out.reserve(tok_.text.size());
      for (std::size_t i = 0; i < tok_.text.size(); ++i) {
        out += tok_.text[i];
        if (tok_.text[i] == tok_.quote) ++i;  // skip the doubling quote
      }
    }
    advance();
    return util::Status::ok();
  }

  // Reads the current literal as a base-10 integer in [min, max].
  template <typename Int>
  util::Status integer(Int& out, Int min, Int max) {
    if (tok_.kind != TokenKind::kLiteral) return error("expected an integer");
    const char* first = tok_.text.data();
    const char* last = first + tok_.text.size();
    Int n = 0;
    const auto [ptr, ec] = std::from_chars(first, last, n);
    if (ec != std::errc{} || ptr != last || n < min || n > max) {
      return error("expected an integer from " + std::to_string(min) +
                   " to " + std::to_string(max));
    }
    out = n;
    advance();
    return util::Status::ok();
  }

  // Reads the current literal as one of `values`, named by to_string()
  // ignoring case.
  template <typename Enum>
  util::Status keyword(Enum& out, std::initializer_list<Enum> values) {
    if (tok_.kind == TokenKind::kLiteral) {
      for (Enum v : values) {
        if (equals_ignoring_case(tok_.text, to_string(v))) {
          out = v;
          advance();
          return util::Status::ok();
        }
      }
    }
    return error("unknown value");
  }

  Lexer lexer_;
  Token tok_;
};

}  // namespace

bool is_bare_char(char c) {
  switch (c) {
    case '(':
    case ')':
    case '&':
    case '+':
    case '|':
    case '=':
    case '<':
    case '>':
    case '!':
    case '"':
    case '\'':
    case '$':
      return false;
    default:
      return std::isspace(static_cast<unsigned char>(c)) == 0;
  }
}

util::Result<JobRequest> parse_job_request(std::string_view text) {
  JobRequest out;
  if (auto st = Parser(text).job_request(out); !st.is_ok()) return st;
  return out;
}

util::Result<std::vector<JobRequest>> parse_multi_request(
    std::string_view text) {
  std::vector<JobRequest> out;
  if (auto st = Parser(text).multi_request(out); !st.is_ok()) return st;
  return out;
}

}  // namespace grid::rsl

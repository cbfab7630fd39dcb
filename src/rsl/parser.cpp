#include "rsl/parser.hpp"

#include <string>

#include "rsl/lexer.hpp"

namespace grid::rsl {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view source) : lexer_(source) {}

  util::Result<Spec> parse_request() {
    Spec spec;
    if (auto st = parse_spec(&spec); !st.is_ok()) return st;
    const Token& t = lexer_.peek();
    if (t.kind != TokenKind::kEnd) {
      return error(t, "trailing input after specification");
    }
    return spec;
  }

 private:
  static util::Status error(const Token& t, const std::string& what) {
    return {util::ErrorCode::kInvalidArgument,
            "offset " + std::to_string(t.offset) + ": " + what +
                (t.kind == TokenKind::kError ? " (" + t.text + ")" : "")};
  }

  // Enters the level opened by `open`.  An error abandons the whole
  // parse, so only successful exits call leave().
  util::Status enter(const Token& open) {
    if (++depth_ > kMaxNestingDepth) {
      return error(open, "nesting deeper than " +
                             std::to_string(kMaxNestingDepth) + " levels");
    }
    return util::Status::ok();
  }
  void leave() { --depth_; }

  static bool is_combinator(TokenKind k) {
    return k == TokenKind::kPlus || k == TokenKind::kAmp ||
           k == TokenKind::kPipe;
  }

  static bool is_op(TokenKind k) {
    switch (k) {
      case TokenKind::kEq:
      case TokenKind::kNe:
      case TokenKind::kLt:
      case TokenKind::kLe:
      case TokenKind::kGt:
      case TokenKind::kGe:
        return true;
      default:
        return false;
    }
  }

  static Op to_op(TokenKind k) {
    switch (k) {
      case TokenKind::kNe:
        return Op::kNe;
      case TokenKind::kLt:
        return Op::kLt;
      case TokenKind::kLe:
        return Op::kLe;
      case TokenKind::kGt:
        return Op::kGt;
      case TokenKind::kGe:
        return Op::kGe;
      default:
        return Op::kEq;
    }
  }

  // spec := combinator group+ | group+ (implicit conjunction)
  util::Status parse_spec(Spec* out) {
    const Token& t = lexer_.peek();
    Spec::Kind kind = Spec::Kind::kConj;
    if (is_combinator(t.kind)) {
      kind = t.kind == TokenKind::kPlus
                 ? Spec::Kind::kMulti
                 : (t.kind == TokenKind::kAmp ? Spec::Kind::kConj
                                              : Spec::Kind::kDisj);
      lexer_.next();
    } else if (t.kind != TokenKind::kLParen) {
      return error(t, "expected '+', '&', '|', or '('");
    }
    std::vector<Spec> children;
    for (;;) {
      const Token& p = lexer_.peek();
      if (p.kind != TokenKind::kLParen) break;
      Spec child;
      if (auto st = parse_group(&child); !st.is_ok()) return st;
      children.push_back(std::move(child));
    }
    if (children.empty()) {
      return error(lexer_.peek(), "expected at least one '(...)' group");
    }
    switch (kind) {
      case Spec::Kind::kMulti:
        *out = Spec::multi(std::move(children));
        break;
      case Spec::Kind::kConj:
        *out = Spec::conj(std::move(children));
        break;
      case Spec::Kind::kDisj:
        *out = Spec::disj(std::move(children));
        break;
      case Spec::Kind::kRelation:
        break;  // unreachable
    }
    return util::Status::ok();
  }

  // group := '(' (spec | relation) ')'
  util::Status parse_group(Spec* out) {
    Token open = lexer_.next();  // '('
    if (auto st = enter(open); !st.is_ok()) return st;
    const Token& t = lexer_.peek();
    if (is_combinator(t.kind) || t.kind == TokenKind::kLParen) {
      if (auto st = parse_spec(out); !st.is_ok()) return st;
    } else if (t.kind == TokenKind::kLiteral) {
      Relation r;
      if (auto st = parse_relation(&r); !st.is_ok()) return st;
      *out = Spec::relation(std::move(r));
    } else {
      return error(t, "expected a nested specification or a relation");
    }
    Token close = lexer_.next();
    if (close.kind != TokenKind::kRParen) {
      return error(close, "expected ')' to close group opened at offset " +
                              std::to_string(open.offset));
    }
    leave();
    return util::Status::ok();
  }

  // relation := attribute op value+
  util::Status parse_relation(Relation* out) {
    Token attr = lexer_.next();
    if (attr.kind != TokenKind::kLiteral) {
      return error(attr, "expected attribute name");
    }
    out->attribute = canonical_attribute(attr.text);
    Token op = lexer_.next();
    if (!is_op(op.kind)) {
      return error(op, "expected relational operator after attribute '" +
                           attr.text + "'");
    }
    out->op = to_op(op.kind);
    for (;;) {
      const Token& t = lexer_.peek();
      if (t.kind == TokenKind::kRParen) break;
      Value v;
      if (auto st = parse_value(&v); !st.is_ok()) return st;
      out->values.push_back(std::move(v));
    }
    if (out->values.empty()) {
      return error(lexer_.peek(),
                   "relation '" + attr.text + "' has no value");
    }
    return util::Status::ok();
  }

  // value := literal | variable | '(' value+ ')'
  util::Status parse_value(Value* out) {
    Token t = lexer_.next();
    switch (t.kind) {
      case TokenKind::kLiteral:
        *out = Value::literal(std::move(t.text));
        return util::Status::ok();
      case TokenKind::kVariable:
        *out = Value::variable(std::move(t.text));
        return util::Status::ok();
      case TokenKind::kLParen: {
        if (auto st = enter(t); !st.is_ok()) return st;
        std::vector<Value> items;
        for (;;) {
          const Token& p = lexer_.peek();
          if (p.kind == TokenKind::kRParen) {
            lexer_.next();
            break;
          }
          if (p.kind == TokenKind::kEnd || p.kind == TokenKind::kError) {
            return error(p, "unterminated value list");
          }
          Value item;
          if (auto st = parse_value(&item); !st.is_ok()) return st;
          items.push_back(std::move(item));
        }
        *out = Value::list(std::move(items));
        leave();
        return util::Status::ok();
      }
      default:
        return error(t, "expected a value");
    }
  }

  Lexer lexer_;
  int depth_ = 0;
};

}  // namespace

util::Result<Spec> parse(std::string_view source) {
  Parser parser(source);
  return parser.parse_request();
}

util::Result<Spec> parse_multi_request(std::string_view source) {
  auto result = parse(source);
  if (!result.is_ok()) return result;
  if (!result.value().is_multi()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "co-allocation request must be a '+' multi-request");
  }
  return result;
}

}  // namespace grid::rsl

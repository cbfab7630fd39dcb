#include "rsl/ast.hpp"

#include <cctype>
#include <charconv>

namespace grid::rsl {
namespace {

bool needs_quoting(std::string_view text) {
  if (text.empty()) return true;
  for (char c : text) {
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
        return true;
      default:
        if (std::isspace(static_cast<unsigned char>(c)) != 0) return true;
    }
  }
  return false;
}

void print_value(std::string& out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kLiteral:
      print_literal(out, v.text());
      return;
    case Value::Kind::kVariable:
      out += "$(";
      out += v.text();
      out += ')';
      return;
    case Value::Kind::kList: {
      out += '(';
      bool first = true;
      for (const Value& item : v.items()) {
        if (!first) out += ' ';
        first = false;
        print_value(out, item);
      }
      out += ')';
      return;
    }
  }
}

}  // namespace

std::string to_string(Op op) {
  switch (op) {
    case Op::kEq:
      return "=";
    case Op::kNe:
      return "!=";
    case Op::kLt:
      return "<";
    case Op::kLe:
      return "<=";
    case Op::kGt:
      return ">";
    case Op::kGe:
      return ">=";
  }
  return "?";
}

void print_literal(std::string& out, std::string_view text) {
  if (!needs_quoting(text)) {
    out += text;
    return;
  }
  out += '"';
  for (char c : text) {
    if (c == '"') out += '"';  // doubled quote escapes
    out += c;
  }
  out += '"';
}

void print_relation(std::string& out, const Relation& r) {
  print_relation(out, r.attribute, r.op, [&] {
    bool first = true;
    for (const Value& v : r.values) {
      if (!first) out += ' ';
      first = false;
      print_value(out, v);
    }
  });
}

std::string canonical_attribute(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == '_') continue;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Value Value::literal(std::string text) {
  Value v;
  v.kind_ = Kind::kLiteral;
  v.text_ = std::move(text);
  return v;
}

Value Value::list(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kList;
  v.items_ = std::move(items);
  return v;
}

Value Value::variable(std::string name) {
  Value v;
  v.kind_ = Kind::kVariable;
  v.text_ = std::move(name);
  return v;
}

std::optional<std::int64_t> Value::as_int() const {
  if (kind_ != Kind::kLiteral || text_.empty()) return std::nullopt;
  std::int64_t out = 0;
  const char* first = text_.data();
  const char* last = first + text_.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return out;
}

bool Value::operator==(const Value& other) const {
  return kind_ == other.kind_ && text_ == other.text_ &&
         items_ == other.items_;
}

Relation Relation::eq(std::string_view attribute, std::string value) {
  Relation r;
  r.attribute = canonical_attribute(attribute);
  r.op = Op::kEq;
  r.values.push_back(Value::literal(std::move(value)));
  return r;
}

Relation Relation::eq(std::string_view attribute, std::int64_t value) {
  return eq(attribute, std::to_string(value));
}

const Value* Relation::single_value() const {
  return values.size() == 1 ? &values.front() : nullptr;
}

bool Relation::operator==(const Relation& other) const {
  return attribute == other.attribute && op == other.op &&
         values == other.values;
}

Spec Spec::multi(std::vector<Spec> children) {
  Spec s;
  s.kind_ = Kind::kMulti;
  s.children_ = std::move(children);
  return s;
}

Spec Spec::conj(std::vector<Spec> children) {
  Spec s;
  s.kind_ = Kind::kConj;
  s.children_ = std::move(children);
  return s;
}

Spec Spec::disj(std::vector<Spec> children) {
  Spec s;
  s.kind_ = Kind::kDisj;
  s.children_ = std::move(children);
  return s;
}

Spec Spec::relation(Relation r) {
  Spec s;
  s.kind_ = Kind::kRelation;
  s.relation_ = std::move(r);
  return s;
}

const Relation* Spec::find_relation(std::string_view attribute) const {
  if (kind_ != Kind::kConj) return nullptr;
  const std::string canon = canonical_attribute(attribute);
  for (const Spec& child : children_) {
    if (child.is_relation() && child.relation().attribute == canon) {
      return &child.relation();
    }
  }
  return nullptr;
}

void Spec::print(std::string& out) const {
  switch (kind_) {
    case Kind::kRelation:
      print_relation(out, relation_);
      return;
    case Kind::kMulti:
    case Kind::kConj:
    case Kind::kDisj: {
      out += kind_ == Kind::kMulti ? '+' : (kind_ == Kind::kConj ? '&' : '|');
      for (const Spec& child : children_) {
        if (child.is_relation()) {
          child.print(out);
        } else {
          out += '(';
          child.print(out);
          out += ')';
        }
      }
      return;
    }
  }
}

std::string Spec::to_string() const {
  std::string out;
  print(out);
  return out;
}

bool Spec::operator==(const Spec& other) const {
  return kind_ == other.kind_ && children_ == other.children_ &&
         (kind_ != Kind::kRelation || relation_ == other.relation_);
}

}  // namespace grid::rsl

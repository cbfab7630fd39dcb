// RSL abstract syntax tree.
//
// An RSL specification is a tree: a multi-request ('+') over subjob
// specifications, conjunctions ('&') of relations, disjunctions ('|') of
// alternatives, and leaf relations `attribute op value...` (paper Fig. 1).
// Attribute names are case-insensitive with underscores ignored, as in
// Globus RSL ("resourceManagerContact" == "resource_manager_contact").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace grid::rsl {

/// Relational operator in a relation.
enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

std::string to_string(Op op);

/// Canonical form of an attribute name: lowercase, underscores removed.
std::string canonical_attribute(std::string_view name);

/// Appends `text` as an RSL literal: bare when the lexer reads it back
/// whole, otherwise double-quoted with each embedded quote doubled.
void print_literal(std::string& out, std::string_view text);

/// Appends one relation, `(attribute<op>...)`, whose space-separated values
/// `print_values` appends.  Spec::to_string and JobRequest::to_rsl print
/// every relation through this, which keeps their texts byte-identical.
template <typename PrintValues>
void print_relation(std::string& out, std::string_view attribute, Op op,
                    PrintValues&& print_values) {
  out += '(';
  out += attribute;
  out += to_string(op);
  print_values();
  out += ')';
}

/// A value in a relation: a literal string, a parenthesized list of values,
/// or an unresolved $(NAME) variable reference.
class Value {
 public:
  enum class Kind { kLiteral, kList, kVariable };

  Value() : kind_(Kind::kLiteral) {}

  static Value literal(std::string text);
  static Value list(std::vector<Value> items);
  static Value variable(std::string name);

  Kind kind() const { return kind_; }
  bool is_literal() const { return kind_ == Kind::kLiteral; }
  bool is_list() const { return kind_ == Kind::kList; }

  /// Literal text (kLiteral) or variable name (kVariable).
  const std::string& text() const { return text_; }
  const std::vector<Value>& items() const { return items_; }
  std::vector<Value>& items() { return items_; }

  /// Parses the literal as a base-10 integer; nullopt for non-literals or
  /// non-numeric text.
  std::optional<std::int64_t> as_int() const;

  bool operator==(const Value& other) const;

 private:
  Kind kind_;
  std::string text_;
  std::vector<Value> items_;
};

/// A relation: `attribute op value ...` (values form a sequence).
struct Relation {
  std::string attribute;  // canonical form
  Op op = Op::kEq;
  std::vector<Value> values;

  /// Convenience for the common single-literal case.
  static Relation eq(std::string_view attribute, std::string value);
  static Relation eq(std::string_view attribute, std::int64_t value);

  /// The single literal value, if the relation has exactly one.
  const Value* single_value() const;

  bool operator==(const Relation& other) const;
};

/// Appends `r` in canonical form.
void print_relation(std::string& out, const Relation& r);

/// A node in the specification tree.
class Spec {
 public:
  enum class Kind { kMulti, kConj, kDisj, kRelation };

  Spec() : kind_(Kind::kConj) {}

  static Spec multi(std::vector<Spec> children);
  static Spec conj(std::vector<Spec> children);
  static Spec disj(std::vector<Spec> children);
  static Spec relation(Relation r);

  Kind kind() const { return kind_; }
  bool is_multi() const { return kind_ == Kind::kMulti; }
  bool is_conj() const { return kind_ == Kind::kConj; }
  bool is_disj() const { return kind_ == Kind::kDisj; }
  bool is_relation() const { return kind_ == Kind::kRelation; }

  const std::vector<Spec>& children() const { return children_; }
  std::vector<Spec>& children() { return children_; }
  const Relation& relation() const { return relation_; }
  Relation& relation() { return relation_; }

  /// For a conjunction: finds the direct-child relation with the given
  /// attribute (canonicalized); nullptr if absent or not a conjunction.
  const Relation* find_relation(std::string_view attribute) const;

  /// Canonical single-line rendering; parseable back to an equal tree.
  std::string to_string() const;

  bool operator==(const Spec& other) const;

 private:
  void print(std::string& out) const;

  Kind kind_;
  std::vector<Spec> children_;
  Relation relation_;
};

}  // namespace grid::rsl

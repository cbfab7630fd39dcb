#include "rsl/attributes.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>

#include "rsl/parser.hpp"

namespace grid::rsl {
namespace {

/// Appends `text` as an RSL literal: bare when the parser reads it back
/// whole, otherwise double-quoted with each embedded quote doubled.
void print_literal(std::string& out, std::string_view text) {
  if (!text.empty() && std::all_of(text.begin(), text.end(), is_bare_char)) {
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

/// Appends `(attribute=`, the values `print_values` appends, and `)`.
template <typename PrintValues>
void print_relation(std::string& out, std::string_view attribute,
                    PrintValues&& print_values) {
  out += '(';
  out += attribute;
  out += '=';
  print_values();
  out += ')';
}

void print_eq(std::string& out, std::string_view attribute,
              std::string_view value) {
  print_relation(out, attribute, [&] { print_literal(out, value); });
}

void print_eq(std::string& out, std::string_view attribute,
              std::integral auto value) {
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  print_eq(out, attribute,
           std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

}  // namespace

std::string to_string(SubjobStartType t) {
  switch (t) {
    case SubjobStartType::kRequired:
      return "required";
    case SubjobStartType::kInteractive:
      return "interactive";
    case SubjobStartType::kOptional:
      return "optional";
  }
  return "?";
}

std::string to_string(JobType t) {
  switch (t) {
    case JobType::kMultiple:
      return "multiple";
    case JobType::kMpi:
      return "mpi";
    case JobType::kSingle:
      return "single";
  }
  return "?";
}

std::string JobRequest::to_rsl(std::span<const EnvVar> set_env) const {
  // Room for a typical subjob's text, so most prints allocate once.
  constexpr std::size_t kTypicalBytes = 256;
  std::string out;
  out.reserve(kTypicalBytes);
  out += '&';
  print_eq(out, attr::kResourceManagerContact, resource_manager_contact);
  print_eq(out, attr::kCount, count);
  print_eq(out, attr::kExecutable, executable);
  if (!arguments.empty()) {
    print_relation(out, attr::kArguments, [&] {
      for (std::size_t i = 0; i < arguments.size(); ++i) {
        if (i != 0) out += ' ';
        print_literal(out, arguments[i]);
      }
    });
  }
  const auto is_set = [&set_env](std::string_view name) {
    return std::any_of(set_env.begin(), set_env.end(),
                       [name](const EnvVar& e) { return e.first == name; });
  };
  const bool any_kept =
      std::any_of(environment.begin(), environment.end(),
                  [&is_set](const auto& kv) { return !is_set(kv.first); });
  if (any_kept || !set_env.empty()) {
    print_relation(out, attr::kEnvironment, [&] {
      bool first = true;
      const auto entry = [&](std::string_view name, std::string_view value) {
        if (!first) out += ' ';
        first = false;
        out += '(';
        print_literal(out, name);
        out += ' ';
        print_literal(out, value);
        out += ')';
      };
      for (const auto& [name, value] : environment) {
        if (!is_set(name)) entry(name, value);
      }
      for (const EnvVar& e : set_env) entry(e.first, e.second);
    });
  }
  if (!directory.empty()) print_eq(out, attr::kDirectory, directory);
  if (!stdout_path.empty()) print_eq(out, attr::kStdout, stdout_path);
  if (!stderr_path.empty()) print_eq(out, attr::kStderr, stderr_path);
  if (max_wall_time.has_value()) {
    print_eq(out, attr::kMaxWallTime, *max_wall_time / sim::kMinute);
  }
  if (job_type != JobType::kMultiple) {
    print_eq(out, attr::kJobType, to_string(job_type));
  }
  print_eq(out, attr::kSubjobStartType, to_string(start_type));
  if (!label.empty()) print_eq(out, attr::kLabel, label);
  if (reservation_id != 0) {
    print_eq(out, attr::kReservationId, reservation_id);
  }
  return out;
}

}  // namespace grid::rsl

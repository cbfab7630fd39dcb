#include "rsl/attributes.hpp"

#include <algorithm>
#include <charconv>

namespace grid::rsl {
namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

util::Status require_eq(const Relation& r) {
  if (r.op != Op::kEq) {
    return {util::ErrorCode::kInvalidArgument,
            "attribute '" + r.attribute + "' requires '='"};
  }
  return util::Status::ok();
}

util::Result<std::string> single_string(const Relation& r) {
  if (auto st = require_eq(r); !st.is_ok()) return st;
  const Value* v = r.single_value();
  if (v == nullptr || !v->is_literal()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "attribute '" + r.attribute +
                            "' requires a single literal value");
  }
  return v->text();
}

void print_eq(std::string& out, std::string_view attribute,
              std::string_view value) {
  print_relation(out, attribute, Op::kEq, [&] { print_literal(out, value); });
}

void print_eq(std::string& out, std::string_view attribute,
              std::int64_t value) {
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  print_eq(out, attribute,
           std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

util::Result<std::int64_t> single_int(const Relation& r) {
  auto s = single_string(r);
  if (!s.is_ok()) return s.status();
  const Value* v = r.single_value();
  auto n = v->as_int();
  if (!n.has_value()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "attribute '" + r.attribute + "' requires an integer");
  }
  return *n;
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

util::Result<SubjobStartType> parse_start_type(std::string_view text) {
  const std::string t = lower(text);
  if (t == "required") return SubjobStartType::kRequired;
  if (t == "interactive") return SubjobStartType::kInteractive;
  if (t == "optional") return SubjobStartType::kOptional;
  return util::Status(util::ErrorCode::kInvalidArgument,
                      "unknown subjobStartType '" + std::string(text) + "'");
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

util::Result<JobType> parse_job_type(std::string_view text) {
  const std::string t = lower(text);
  if (t == "multiple") return JobType::kMultiple;
  if (t == "mpi") return JobType::kMpi;
  if (t == "single") return JobType::kSingle;
  return util::Status(util::ErrorCode::kInvalidArgument,
                      "unknown jobType '" + std::string(text) + "'");
}

util::Result<JobRequest> JobRequest::from_spec(const Spec& conj) {
  if (!conj.is_conj()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "subjob specification must be a '&' conjunction");
  }
  JobRequest out;
  for (const Spec& child : conj.children()) {
    if (!child.is_relation()) {
      return util::Status(
          util::ErrorCode::kInvalidArgument,
          "nested specifications inside a subjob are not supported");
    }
    const Relation& r = child.relation();
    const std::string& a = r.attribute;
    if (a == attr::kResourceManagerContact) {
      auto s = single_string(r);
      if (!s.is_ok()) return s.status();
      out.resource_manager_contact = s.take();
    } else if (a == attr::kExecutable) {
      auto s = single_string(r);
      if (!s.is_ok()) return s.status();
      out.executable = s.take();
    } else if (a == attr::kCount) {
      auto n = single_int(r);
      if (!n.is_ok()) return n.status();
      if (n.value() < 1 || n.value() > 1'000'000) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "count out of range: " +
                                std::to_string(n.value()));
      }
      out.count = static_cast<std::int32_t>(n.value());
    } else if (a == attr::kArguments) {
      if (auto st = require_eq(r); !st.is_ok()) return st;
      for (const Value& v : r.values) {
        if (!v.is_literal()) {
          return util::Status(util::ErrorCode::kInvalidArgument,
                              "arguments must be literal values");
        }
        out.arguments.push_back(v.text());
      }
    } else if (a == attr::kEnvironment) {
      if (auto st = require_eq(r); !st.is_ok()) return st;
      for (const Value& v : r.values) {
        if (!v.is_list() || v.items().size() != 2 ||
            !v.items()[0].is_literal() || !v.items()[1].is_literal()) {
          return util::Status(
              util::ErrorCode::kInvalidArgument,
              "environment entries must be (NAME value) pairs");
        }
        out.environment.emplace_back(v.items()[0].text(),
                                     v.items()[1].text());
      }
    } else if (a == attr::kDirectory) {
      auto s = single_string(r);
      if (!s.is_ok()) return s.status();
      out.directory = s.take();
    } else if (a == attr::kStdout) {
      auto s = single_string(r);
      if (!s.is_ok()) return s.status();
      out.stdout_path = s.take();
    } else if (a == attr::kStderr) {
      auto s = single_string(r);
      if (!s.is_ok()) return s.status();
      out.stderr_path = s.take();
    } else if (a == attr::kMaxWallTime) {
      auto n = single_int(r);
      if (!n.is_ok()) return n.status();
      if (n.value() < 1) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "maxWallTime must be positive minutes");
      }
      out.max_wall_time = n.value() * sim::kMinute;
    } else if (a == attr::kJobType) {
      auto s = single_string(r);
      if (!s.is_ok()) return s.status();
      auto t = parse_job_type(s.value());
      if (!t.is_ok()) return t.status();
      out.job_type = t.value();
    } else if (a == attr::kSubjobStartType) {
      auto s = single_string(r);
      if (!s.is_ok()) return s.status();
      auto t = parse_start_type(s.value());
      if (!t.is_ok()) return t.status();
      out.start_type = t.value();
    } else if (a == attr::kLabel) {
      auto s = single_string(r);
      if (!s.is_ok()) return s.status();
      out.label = s.take();
    } else if (a == attr::kReservationId) {
      auto n = single_int(r);
      if (!n.is_ok()) return n.status();
      if (n.value() < 1) {
        return util::Status(util::ErrorCode::kInvalidArgument,
                            "reservationId must be positive");
      }
      out.reservation_id = static_cast<std::uint64_t>(n.value());
    } else {
      out.extras.push_back(r);
    }
  }
  if (out.resource_manager_contact.empty()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "subjob is missing resourceManagerContact");
  }
  if (out.executable.empty()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "subjob is missing executable");
  }
  return out;
}

Spec JobRequest::to_spec() const {
  std::vector<Spec> rels;
  rels.push_back(Spec::relation(Relation::eq(attr::kResourceManagerContact,
                                             resource_manager_contact)));
  rels.push_back(Spec::relation(
      Relation::eq(attr::kCount, static_cast<std::int64_t>(count))));
  rels.push_back(Spec::relation(Relation::eq(attr::kExecutable, executable)));
  if (!arguments.empty()) {
    Relation r;
    r.attribute = std::string(attr::kArguments);
    for (const std::string& a : arguments) {
      r.values.push_back(Value::literal(a));
    }
    rels.push_back(Spec::relation(std::move(r)));
  }
  if (!environment.empty()) {
    Relation r;
    r.attribute = std::string(attr::kEnvironment);
    for (const auto& [name, value] : environment) {
      r.values.push_back(
          Value::list({Value::literal(name), Value::literal(value)}));
    }
    rels.push_back(Spec::relation(std::move(r)));
  }
  if (!directory.empty()) {
    rels.push_back(Spec::relation(Relation::eq(attr::kDirectory, directory)));
  }
  if (!stdout_path.empty()) {
    rels.push_back(Spec::relation(Relation::eq(attr::kStdout, stdout_path)));
  }
  if (!stderr_path.empty()) {
    rels.push_back(Spec::relation(Relation::eq(attr::kStderr, stderr_path)));
  }
  if (max_wall_time.has_value()) {
    rels.push_back(Spec::relation(Relation::eq(
        attr::kMaxWallTime,
        static_cast<std::int64_t>(*max_wall_time / sim::kMinute))));
  }
  if (job_type != JobType::kMultiple) {
    rels.push_back(
        Spec::relation(Relation::eq(attr::kJobType, to_string(job_type))));
  }
  rels.push_back(Spec::relation(
      Relation::eq(attr::kSubjobStartType, to_string(start_type))));
  if (!label.empty()) {
    rels.push_back(Spec::relation(Relation::eq(attr::kLabel, label)));
  }
  if (reservation_id != 0) {
    rels.push_back(Spec::relation(Relation::eq(
        attr::kReservationId, static_cast<std::int64_t>(reservation_id))));
  }
  for (const Relation& r : extras) {
    rels.push_back(Spec::relation(r));
  }
  return Spec::conj(std::move(rels));
}

std::string JobRequest::to_rsl(std::span<const EnvVar> set_env) const {
  // Room for a typical subjob's text, so most prints allocate once.
  constexpr std::size_t kTypicalBytes = 256;
  std::string out;
  out.reserve(kTypicalBytes);
  out += '&';
  print_eq(out, attr::kResourceManagerContact, resource_manager_contact);
  print_eq(out, attr::kCount, static_cast<std::int64_t>(count));
  print_eq(out, attr::kExecutable, executable);
  if (!arguments.empty()) {
    print_relation(out, attr::kArguments, Op::kEq, [&] {
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
    print_relation(out, attr::kEnvironment, Op::kEq, [&] {
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
    print_eq(out, attr::kMaxWallTime,
             static_cast<std::int64_t>(*max_wall_time / sim::kMinute));
  }
  if (job_type != JobType::kMultiple) {
    print_eq(out, attr::kJobType, to_string(job_type));
  }
  print_eq(out, attr::kSubjobStartType, to_string(start_type));
  if (!label.empty()) print_eq(out, attr::kLabel, label);
  if (reservation_id != 0) {
    print_eq(out, attr::kReservationId,
             static_cast<std::int64_t>(reservation_id));
  }
  for (const Relation& r : extras) print_relation(out, r);
  return out;
}

util::Result<std::vector<JobRequest>> parse_job_requests(const Spec& multi) {
  if (!multi.is_multi()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "expected a '+' multi-request");
  }
  std::vector<JobRequest> out;
  out.reserve(multi.children().size());
  for (const Spec& child : multi.children()) {
    auto r = JobRequest::from_spec(child);
    if (!r.is_ok()) return r.status();
    out.push_back(r.take());
  }
  return out;
}

}  // namespace grid::rsl

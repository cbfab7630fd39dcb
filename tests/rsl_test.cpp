// Unit tests for the RSL language: the parser, the printer and the typed
// attributes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "rsl/attributes.hpp"
#include "rsl/parser.hpp"
#include "simkit/rng.hpp"
#include "testbed/grid.hpp"

namespace grid::rsl {
namespace {

constexpr std::string_view kEnvNames[] = {"A", "B", "GRID_DUROC_CONTACT",
                                          "x y"};

/// A request with every field drawn from `rng`, including text that needs
/// quoting and reservation ids up to INT64_MAX.  `set_values` receives the
/// values of an environment to set at print time, entry i under
/// kEnvNames[(i + 2) % 4], so it may override entries the request holds.
JobRequest random_request(sim::Rng& rng, std::vector<std::string>& set_values) {
  const auto text = [&rng](std::int64_t min_size) {
    static const char alphabet[] = "abXY09._-/ ()&=\"'$";
    std::string s;
    for (auto n = rng.uniform_int(min_size, 6); n > 0; --n) {
      s += alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)];
    }
    return s;
  };
  JobRequest j;
  j.resource_manager_contact = text(1);
  j.executable = text(1);
  j.count = static_cast<std::int32_t>(rng.uniform_int(1, 1'000'000));
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    j.arguments.push_back(text(0));
  }
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    const std::string_view name = kEnvNames[rng.uniform_int(0, 3)];
    j.environment.emplace_back(name, text(0));
  }
  if (rng.chance(0.5)) j.directory = text(0);
  if (rng.chance(0.5)) j.stdout_path = text(0);
  if (rng.chance(0.5)) j.stderr_path = text(0);
  if (rng.chance(0.5)) {
    j.max_wall_time = rng.uniform_int(1, 10'000) * sim::kMinute;
  }
  j.job_type = static_cast<JobType>(rng.uniform_int(0, 2));
  j.start_type = static_cast<SubjobStartType>(rng.uniform_int(0, 2));
  if (rng.chance(0.5)) j.label = text(0);
  if (rng.chance(0.5)) {
    j.reservation_id =
        rng.chance(0.5)
            ? static_cast<std::uint64_t>(rng.uniform_int(1, 99))
            : std::uint64_t{std::numeric_limits<std::int64_t>::max()};
  }
  set_values.clear();
  for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
    set_values.push_back(text(0));
  }
  return j;
}

std::vector<EnvVar> env_to_set(const std::vector<std::string>& set_values) {
  std::vector<EnvVar> set_env;
  for (std::size_t i = 0; i < set_values.size(); ++i) {
    set_env.emplace_back(kEnvNames[(i + 2) % 4], set_values[i]);
  }
  return set_env;
}

/// The request to_rsl(set_env) prints: `j`'s environment less the names
/// set, followed by the set entries.
JobRequest with_env_set(JobRequest j,
                        const std::vector<std::string>& set_values) {
  const std::vector<EnvVar> set_env = env_to_set(set_values);
  std::erase_if(j.environment, [&set_env](const auto& kv) {
    return std::any_of(set_env.begin(), set_env.end(),
                       [&kv](const EnvVar& e) { return e.first == kv.first; });
  });
  for (const EnvVar& e : set_env) {
    j.environment.emplace_back(std::string(e.first), std::string(e.second));
  }
  return j;
}

JobRequest parsed(std::string_view text) {
  auto r = parse_job_request(text);
  EXPECT_TRUE(r.is_ok()) << text << " -> " << r.status().to_string();
  return r.is_ok() ? r.take() : JobRequest{};
}

// ---- parser -----------------------------------------------------------------

TEST(Parser, PaperFigure1Example) {
  const char* rsl =
      "+(&(resourceManagerContact=RM1)"
      "(count=1)(executable=master)"
      "(subjobStartType=required))"
      "(&(resourceManagerContact=RM2)"
      "(count=4)(executable=worker)"
      "(subjobStartType=interactive))";
  auto result = parse_multi_request(rsl);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const std::vector<JobRequest>& jobs = result.value();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].resource_manager_contact, "RM1");
  EXPECT_EQ(jobs[0].count, 1);
  EXPECT_EQ(jobs[0].executable, "master");
  EXPECT_EQ(jobs[0].start_type, SubjobStartType::kRequired);
  EXPECT_EQ(jobs[1].resource_manager_contact, "RM2");
  EXPECT_EQ(jobs[1].count, 4);
  EXPECT_EQ(jobs[1].start_type, SubjobStartType::kInteractive);
}

TEST(Parser, ImplicitConjunction) {
  const JobRequest j =
      parsed("(resourceManagerContact=rm)(executable=a.out)(count=2)");
  EXPECT_EQ(j.count, 2);
  auto multi = parse_multi_request(
      "+((resourceManagerContact=a)(executable=x))"
      "(&(resourceManagerContact=b)(executable=y))");
  ASSERT_TRUE(multi.is_ok()) << multi.status().to_string();
  EXPECT_EQ(multi.value().size(), 2u);
}

TEST(Parser, LiteralForms) {
  const JobRequest j = parsed(
      "&(resourceManagerContact=rm)(executable=a.out-v2/bin_x)"
      R"rsl((arguments="hello world" 'sq' "with ""inner"" quotes" )rsl"
      R"rsl('it''s' "(a=b)&(c)" "" *x*))rsl");
  EXPECT_EQ(j.executable, "a.out-v2/bin_x");
  EXPECT_EQ(j.arguments,
            (std::vector<std::string>{"hello world", "sq",
                                      R"(with "inner" quotes)", "it's",
                                      "(a=b)&(c)", "", "*x*"}));
}

TEST(Parser, CommentsAndWhitespace) {
  const JobRequest j = parsed(
      " & (* a comment, (nested-ish) *) ( executable = x )\n"
      "\t(resourceManagerContact=rm(*trailing*))(*last*) ");
  EXPECT_EQ(j.executable, "x");
  EXPECT_EQ(j.resource_manager_contact, "rm");
}

TEST(Parser, AttributeNamesAreCanonicalized) {
  const JobRequest j = parsed(
      "&(Resource_Manager_Contact=rm)(EXECUTABLE=x)(\"count\"=3)"
      "(subjob_start_type=Interactive)(job_Type=MPI)");
  EXPECT_EQ(j.resource_manager_contact, "rm");
  EXPECT_EQ(j.count, 3);
  EXPECT_EQ(j.start_type, SubjobStartType::kInteractive);
  EXPECT_EQ(j.job_type, JobType::kMpi);
}

TEST(Parser, RejectsMalformedInput) {
  const char* bad[] = {
      "",
      "&",
      "+",
      "&(count=)",                                  // missing value
      "&(resourceManagerContact=rm)(count 4)",      // missing operator
      "&(resourceManagerContact=rm)(executable=x",  // unbalanced paren
      "&(resourceManagerContact=rm)(executable=x))",  // trailing input
      "&(resourceManagerContact=rm)(executable=x) y",
      "&(=4)",                                      // missing attribute
      "xyz",                                        // bare literal
      "&(resourceManagerContact=rm)(executable=\"unterminated)",
      "&(resourceManagerContact=rm)(executable=x)(* unterminated",
      "&(resourceManagerContact=rm)(executable=$(HOME))",  // variable
      "&(resourceManagerContact=rm)(executable=!x)",
  };
  for (const char* text : bad) {
    EXPECT_EQ(parse_job_request(text).status().code(),
              util::ErrorCode::kInvalidArgument)
        << text;
  }
  // Nothing recurses on input, so any depth of '(' is one more error.
  const std::string deep(100000, '(');
  EXPECT_EQ(parse_job_request(deep).status().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(parse_multi_request("+" + deep).status().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(parse_job_request("&(environment=" + deep).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(Parser, RejectsWhatGroundRslDoesNotUse) {
  const char* bad[] = {
      // Disjunctions and nested specifications.
      "|(&(resourceManagerContact=a)(executable=x))"
      "(&(resourceManagerContact=b)(executable=x))",
      "&(resourceManagerContact=a)(executable=x)"
      "(|(&(count=2))(&(count=3)))",
      "(&(resourceManagerContact=a)(executable=x))",
      // Operators other than '='.
      "&(resourceManagerContact=a)(executable=x)(count>=4)",
      "&(resourceManagerContact=a)(executable=x)(count!=4)",
      // Attributes the architecture does not define.
      "&(resourceManagerContact=a)(executable=x)(customAttr=xyz)",
      "&(resourceManagerContact=a)(executable=x)(resourceManagerContacts=b)",
  };
  for (const char* text : bad) {
    EXPECT_EQ(parse_job_request(text).status().code(),
              util::ErrorCode::kInvalidArgument)
        << text;
  }
}

TEST(Parser, ErrorsIncludeOffset) {
  auto result = parse_job_request("&(count=4)(");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("offset 11"), std::string::npos)
      << result.status().message();
}

TEST(Parser, MultiRequestRequiresPlus) {
  EXPECT_TRUE(
      parse_multi_request("+(&(resourceManagerContact=a)(executable=x))")
          .is_ok());
  EXPECT_FALSE(
      parse_multi_request("&(resourceManagerContact=a)(executable=x)").is_ok());
  EXPECT_FALSE(
      parse_multi_request("+(resourceManagerContact=a)(executable=x)").is_ok());
  EXPECT_FALSE(parse_job_request(
                   "+(&(resourceManagerContact=a)(executable=x))")
                   .is_ok());
}

// ---- typed attributes -------------------------------------------------------

TEST(Attributes, ExtractsAllKnownFields) {
  const JobRequest j = parsed(
      "&(resourceManagerContact=rm1)(count=8)(executable=sim)"
      "(arguments=-v --fast)(environment=(A 1)(B 2))(directory=/work)"
      "(stdout=out.log)(stderr=err.log)(maxWallTime=30)(jobType=mpi)"
      "(subjobStartType=interactive)(label=workers)(reservationId=12)");
  EXPECT_EQ(j.resource_manager_contact, "rm1");
  EXPECT_EQ(j.count, 8);
  EXPECT_EQ(j.executable, "sim");
  EXPECT_EQ(j.arguments, (std::vector<std::string>{"-v", "--fast"}));
  ASSERT_EQ(j.environment.size(), 2u);
  EXPECT_EQ(j.environment[0].first, "A");
  EXPECT_EQ(j.environment[1].second, "2");
  EXPECT_EQ(j.directory, "/work");
  EXPECT_EQ(j.stdout_path, "out.log");
  EXPECT_EQ(j.stderr_path, "err.log");
  EXPECT_EQ(j.max_wall_time, 30 * sim::kMinute);
  EXPECT_EQ(j.job_type, JobType::kMpi);
  EXPECT_EQ(j.start_type, SubjobStartType::kInteractive);
  EXPECT_EQ(j.label, "workers");
  EXPECT_EQ(j.reservation_id, 12u);
}

TEST(Attributes, DefaultsApplied) {
  const JobRequest j = parsed("&(resourceManagerContact=rm)(executable=x)");
  EXPECT_EQ(j.count, 1);
  EXPECT_EQ(j.start_type, SubjobStartType::kRequired);
  EXPECT_EQ(j.job_type, JobType::kMultiple);
  EXPECT_FALSE(j.max_wall_time.has_value());
  EXPECT_EQ(j.reservation_id, 0u);
}

TEST(Attributes, RepeatedAttributes) {
  // A single value is overridden; a list is extended.
  const JobRequest j = parsed(
      "&(resourceManagerContact=rm)(executable=x)(count=2)(count=3)"
      "(arguments=a)(arguments=b c)(environment=(A 1))(environment=(A 2))"
      "(executable=y)");
  EXPECT_EQ(j.executable, "y");
  EXPECT_EQ(j.count, 3);
  EXPECT_EQ(j.arguments, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(j.environment.size(), 2u);
  EXPECT_EQ(j.environment[1].second, "2");
}

TEST(Attributes, RejectsMissingRequiredFields) {
  EXPECT_FALSE(parse_job_request("&(executable=x)").is_ok());
  EXPECT_FALSE(parse_job_request("&(resourceManagerContact=rm)").is_ok());
  EXPECT_FALSE(
      parse_job_request("&(resourceManagerContact=\"\")(executable=x)")
          .is_ok());
}

TEST(Attributes, RejectsBadValues) {
  const char* bad[] = {
      "(count=0)",
      "(count=-3)",
      "(count=1000001)",
      "(count=abc)",
      "(count=+4)",
      "(count=\"4\"\"\")",
      "(count=4 5)",
      "(subjobStartType=maybe)",
      "(subjobStartType=required optional)",
      "(jobType=weird)",
      "(maxWallTime=0)",
      "(environment=(A))",
      "(environment=(A 1 2))",
      "(environment=A 1)",
      "(environment=((A 1)))",
      "(environment=(A 1) x)",
      "(arguments=a (b))",
      "(executable=x y)",
      "(label=(x))",
      "(reservationId=0)",
  };
  for (const char* relation : bad) {
    const std::string text =
        std::string("&(resourceManagerContact=rm)(executable=x)") + relation;
    EXPECT_EQ(parse_job_request(text).status().code(),
              util::ErrorCode::kInvalidArgument)
        << text;
  }
}

TEST(Attributes, EnumNamesIgnoreCase) {
  for (auto t : {SubjobStartType::kRequired, SubjobStartType::kInteractive,
                 SubjobStartType::kOptional}) {
    JobRequest j;
    j.resource_manager_contact = "rm";
    j.executable = "x";
    j.start_type = t;
    EXPECT_EQ(parsed(j.to_rsl()).start_type, t);
  }
  EXPECT_EQ(parsed("&(resourceManagerContact=rm)(executable=x)"
                   "(subjobStartType=REQUIRED)(jobType=Single)")
                .job_type,
            JobType::kSingle);
}

// maxWallTime is minutes; every accepted value's nanoseconds fit sim::Time.
TEST(Attributes, MaxWallTimeMustFitSimTime) {
  const std::string head = "&(resourceManagerContact=rm)(executable=x)";
  const std::int64_t largest =
      std::numeric_limits<sim::Time>::max() / sim::kMinute;
  ASSERT_EQ(largest, 153'722'867);
  const JobRequest j = parsed(head + "(maxWallTime=153722867)");
  EXPECT_EQ(j.max_wall_time, largest * sim::kMinute);
  EXPECT_EQ(parsed(j.to_rsl()), j);
  for (const char* minutes :
       {"153722868", "9223372036854775807", "9223372036854775808"}) {
    EXPECT_EQ(parse_job_request(head + "(maxWallTime=" + minutes + ")")
                  .status()
                  .code(),
              util::ErrorCode::kInvalidArgument)
        << minutes;
  }
}

// Reservation ids are unsigned 64-bit, as NetworkCoReserver reads them off
// the wire, and print and parse as such.
TEST(Attributes, ReservationIdsRoundTripUnsigned) {
  constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::uint64_t, const char*> ids[] = {
      {1, "1"},
      {kInt64Max, "9223372036854775807"},
      {kInt64Max + 1, "9223372036854775808"},
      {std::numeric_limits<std::uint64_t>::max(), "18446744073709551615"},
  };
  for (const auto& [id, digits] : ids) {
    JobRequest j;
    j.resource_manager_contact = "rm";
    j.executable = "x";
    j.reservation_id = id;
    const std::string text = j.to_rsl();
    EXPECT_NE(text.find("(reservationid=" + std::string(digits) + ")"),
              std::string::npos)
        << text;
    EXPECT_EQ(parsed(text), j);
  }
  const std::string head = "&(resourceManagerContact=rm)(executable=x)";
  for (const char* id : {"0", "-1", "+1", "18446744073709551616", "1x"}) {
    EXPECT_EQ(parse_job_request(head + "(reservationId=" + id + ")")
                  .status()
                  .code(),
              util::ErrorCode::kInvalidArgument)
        << id;
  }
}

// ---- printer ----------------------------------------------------------------

TEST(Printer, RoundTripsCanonicalForm) {
  const char* inputs[] = {
      "&(resourceManagerContact=a)(executable=b)",
      "&(resourceManagerContact=a)(executable=\"my app\")(arguments=x y z)",
      "&(resourceManagerContact=a)(executable=b)(environment=(A 1)(B 2))",
      "(executable=\"with \"\"quotes\"\" inside\")(resourceManagerContact=a)",
      "&(resourceManagerContact=a)(executable=b)(maxWallTime=5)"
      "(jobType=single)(subjobStartType=optional)(label=w)(reservationId=9)",
  };
  for (const char* in : inputs) {
    const JobRequest first = parsed(in);
    const std::string printed = first.to_rsl();
    EXPECT_EQ(parsed(printed), first) << printed;
    EXPECT_EQ(parsed(printed).to_rsl(), printed);
  }
}

// to_rsl() writes the bytes the parse-tree printer it replaced wrote
// (recorded in rsl_to_rsl_golden.inc), and the parser reads each back.
TEST(Printer, ToRslMatchesTreePrint) {
  constexpr std::string_view kGolden[] = {
#include "rsl_to_rsl_golden.inc"
  };
  sim::Rng rng(2718);
  std::vector<std::string> set_values;
  for (std::size_t i = 0; i < std::size(kGolden) / 2; ++i) {
    const JobRequest j = random_request(rng, set_values);
    const JobRequest edited = with_env_set(j, set_values);
    EXPECT_EQ(j.to_rsl(env_to_set(set_values)), kGolden[2 * i]);
    EXPECT_EQ(j.to_rsl(), kGolden[2 * i + 1]);
    EXPECT_EQ(parsed(kGolden[2 * i]), edited);
    EXPECT_EQ(parsed(kGolden[2 * i + 1]), j);
  }
}

class PrintParseProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Typed subjobs survive to_rsl -> parse_multi_request unchanged.
TEST_P(PrintParseProperty, RoundTrips) {
  sim::Rng rng(GetParam() * 7919);
  std::vector<std::string> set_values;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<JobRequest> jobs;
    std::string text = "+";
    for (auto n = rng.uniform_int(1, 8); n > 0; --n) {
      jobs.push_back(random_request(rng, set_values));
      text += "(" + jobs.back().to_rsl() + ")";
    }
    auto reparsed = parse_multi_request(text);
    ASSERT_TRUE(reparsed.is_ok())
        << text << " -> " << reparsed.status().to_string();
    EXPECT_EQ(reparsed.value(), jobs) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrintParseProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- malformed input --------------------------------------------------------

// Gatekeepers parse text that arrives over the network.  Mutations of valid
// texts must each come back OK or kInvalidArgument, and whatever is
// accepted must print and parse back to an equal request.
class MalformedInputProperty
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void check(const std::string& text) {
    ++checked_;
    auto one = parse_job_request(text);
    if (one.is_ok()) {
      EXPECT_EQ(parsed(one.value().to_rsl()), one.value()) << text;
    } else {
      EXPECT_EQ(one.status().code(), util::ErrorCode::kInvalidArgument)
          << text;
    }
    auto multi = parse_multi_request(text);
    if (multi.is_ok()) {
      std::string printed = "+";
      for (const JobRequest& j : multi.value()) {
        printed += "(" + j.to_rsl() + ")";
      }
      auto back = parse_multi_request(printed);
      ASSERT_TRUE(back.is_ok()) << printed;
      EXPECT_EQ(back.value(), multi.value()) << text;
    } else {
      EXPECT_EQ(multi.status().code(), util::ErrorCode::kInvalidArgument)
          << text;
    }
  }

  std::size_t checked_ = 0;
};

TEST_P(MalformedInputProperty, EveryMutationIsOkOrInvalidArgument) {
  static constexpr std::string_view kSpecial = "()&+|=<!\"'$*";
  sim::Rng rng(GetParam() * 6151);
  std::vector<std::string> set_values;
  std::vector<std::string> valid;
  for (int i = 0; i < 3; ++i) {
    const JobRequest j = random_request(rng, set_values);
    valid.push_back(j.to_rsl(env_to_set(set_values)));
    valid.push_back("+(" + j.to_rsl() + ")");
  }
  valid.push_back(testbed::rsl_multi(
      {testbed::rsl_subjob("h1", 4, "exe", "interactive", "workers"),
       testbed::rsl_subjob("h2", 1, "exe")}));
  const auto offset = [&rng](const std::string& text) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
  };
  for (const std::string& text : valid) {
    check(text);
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
      check(text.substr(0, cut));
    }
    for (const char c : kSpecial) {
      std::string inserted = text;
      inserted.insert(offset(text), 1, c);
      check(inserted);
      const std::size_t at = text.find(c, offset(text));
      if (at != std::string::npos) {
        std::string deleted = text;
        deleted.erase(at, 1);
        check(deleted);
      }
    }
    // Repeat one relation, the first one after a random offset.
    const std::size_t open = text.find("(", offset(text));
    const std::size_t close =
        open == std::string::npos ? open : text.find(')', open);
    if (close != std::string::npos) {
      std::string repeated = text;
      repeated.insert(close + 1, text.substr(open, close + 1 - open));
      check(repeated);
    }
    std::string deep = text;
    deep.insert(offset(text), std::string(100000, '('));
    check(deep);
  }
  EXPECT_GT(checked_, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MalformedInputProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace grid::rsl

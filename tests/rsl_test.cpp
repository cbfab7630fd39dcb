// Unit tests for the RSL language: lexer, parser, printer and typed
// attributes.
#include <gtest/gtest.h>

#include <algorithm>

#include "rsl/attributes.hpp"
#include "rsl/lexer.hpp"
#include "rsl/parser.hpp"
#include "simkit/rng.hpp"

namespace grid::rsl {
namespace {

// ---- lexer -----------------------------------------------------------------

TEST(Lexer, StructuralTokens) {
  auto toks = tokenize("+&|()=!=<<=>>=");
  ASSERT_EQ(toks.size(), 12u);
  EXPECT_EQ(toks[0].kind, TokenKind::kPlus);
  EXPECT_EQ(toks[1].kind, TokenKind::kAmp);
  EXPECT_EQ(toks[2].kind, TokenKind::kPipe);
  EXPECT_EQ(toks[3].kind, TokenKind::kLParen);
  EXPECT_EQ(toks[4].kind, TokenKind::kRParen);
  EXPECT_EQ(toks[5].kind, TokenKind::kEq);
  EXPECT_EQ(toks[6].kind, TokenKind::kNe);
  EXPECT_EQ(toks[7].kind, TokenKind::kLt);
  EXPECT_EQ(toks[8].kind, TokenKind::kLe);
  EXPECT_EQ(toks[9].kind, TokenKind::kGt);
  EXPECT_EQ(toks[10].kind, TokenKind::kGe);
  EXPECT_EQ(toks[11].kind, TokenKind::kEnd);
}

TEST(Lexer, UnquotedLiteral) {
  auto toks = tokenize("executable a.out-v2/bin_x");
  EXPECT_EQ(toks[0].text, "executable");
  EXPECT_EQ(toks[1].text, "a.out-v2/bin_x");
}

TEST(Lexer, QuotedLiteralsWithEscapes) {
  auto toks = tokenize(R"("hello world" 'sq' "with ""inner"" quotes")");
  EXPECT_EQ(toks[0].text, "hello world");
  EXPECT_TRUE(toks[0].quoted);
  EXPECT_EQ(toks[1].text, "sq");
  EXPECT_EQ(toks[2].text, R"(with "inner" quotes)");
}

TEST(Lexer, QuotedPreservesSpecialCharacters) {
  auto toks = tokenize("\"(a=b)&(c)\"");
  EXPECT_EQ(toks[0].kind, TokenKind::kLiteral);
  EXPECT_EQ(toks[0].text, "(a=b)&(c)");
}

TEST(Lexer, VariableReference) {
  auto toks = tokenize("$(HOME)");
  EXPECT_EQ(toks[0].kind, TokenKind::kVariable);
  EXPECT_EQ(toks[0].text, "HOME");
}

TEST(Lexer, Comments) {
  auto toks = tokenize("a (* this is (nested-ish) ignored *) b");
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, ErrorsAreReported) {
  EXPECT_EQ(tokenize("\"unterminated")[0].kind, TokenKind::kError);
  EXPECT_EQ(tokenize("$(noclose")[0].kind, TokenKind::kError);
  EXPECT_EQ(tokenize("$x")[0].kind, TokenKind::kError);
  EXPECT_EQ(tokenize("!x")[0].kind, TokenKind::kError);
  EXPECT_EQ(tokenize("(* unterminated")[0].kind, TokenKind::kError);
  EXPECT_EQ(tokenize("$()")[0].kind, TokenKind::kError);
}

TEST(Lexer, OffsetsPointIntoSource) {
  auto toks = tokenize("  abc  def");
  EXPECT_EQ(toks[0].offset, 2u);
  EXPECT_EQ(toks[1].offset, 7u);
}

// ---- parser ----------------------------------------------------------------

TEST(Parser, PaperFigure1Example) {
  const char* rsl =
      "+(&(resourceManagerContact=RM1)"
      "(count=1)(executable=master)"
      "(subjobStartType=required))"
      "(&(resourceManagerContact=RM2)"
      "(count=4)(executable=worker)"
      "(subjobStartType=interactive))";
  auto result = parse(rsl);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const Spec& spec = result.value();
  ASSERT_TRUE(spec.is_multi());
  ASSERT_EQ(spec.children().size(), 2u);
  const Spec& master = spec.children()[0];
  ASSERT_TRUE(master.is_conj());
  const Relation* contact = master.find_relation("resourceManagerContact");
  ASSERT_NE(contact, nullptr);
  EXPECT_EQ(contact->single_value()->text(), "RM1");
  const Relation* count = master.find_relation("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->single_value()->as_int(), 1);
}

TEST(Parser, ImplicitConjunction) {
  auto result = parse("(executable=a.out)(count=2)");
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().is_conj());
  EXPECT_EQ(result.value().children().size(), 2u);
}

TEST(Parser, Disjunction) {
  auto result = parse("|(&(count=1))(&(count=2))");
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().is_disj());
}

TEST(Parser, NestedCombinators) {
  auto result = parse("+(&(a=1)(|(&(b=2))(&(b=3))))");
  ASSERT_TRUE(result.is_ok());
  const Spec& conj = result.value().children()[0];
  ASSERT_EQ(conj.children().size(), 2u);
  EXPECT_TRUE(conj.children()[1].is_disj());
}

TEST(Parser, RelationOperators) {
  auto result = parse("(&(count>=4)(memory<1024)(arch!=ia64))");
  ASSERT_TRUE(result.is_ok());
  const Spec& conj = result.value().children()[0];
  EXPECT_EQ(conj.children()[0].relation().op, Op::kGe);
  EXPECT_EQ(conj.children()[1].relation().op, Op::kLt);
  EXPECT_EQ(conj.children()[2].relation().op, Op::kNe);
}

TEST(Parser, ValueSequencesAndLists) {
  auto result = parse("(&(arguments=a b c)(environment=(X 1)(Y 2)))");
  ASSERT_TRUE(result.is_ok());
  const Spec& conj = result.value().children()[0];
  EXPECT_EQ(conj.children()[0].relation().values.size(), 3u);
  const Relation& env = conj.children()[1].relation();
  ASSERT_EQ(env.values.size(), 2u);
  EXPECT_TRUE(env.values[0].is_list());
  EXPECT_EQ(env.values[0].items()[0].text(), "X");
}

TEST(Parser, AttributeNamesAreCanonicalized) {
  auto result = parse("(&(Resource_Manager_Contact=rm))");
  ASSERT_TRUE(result.is_ok());
  EXPECT_NE(result.value().children()[0].find_relation(
                "resourcemanagercontact"),
            nullptr);
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_FALSE(parse("").is_ok());
  EXPECT_FALSE(parse("+").is_ok());
  EXPECT_FALSE(parse("(&(count=))").is_ok());       // missing value
  EXPECT_FALSE(parse("(&(count 4))").is_ok());      // missing operator
  EXPECT_FALSE(parse("(&(count=4)").is_ok());       // unbalanced paren
  EXPECT_FALSE(parse("(&(count=4)))").is_ok());     // trailing input
  EXPECT_FALSE(parse("(&(=4))").is_ok());           // missing attribute
  EXPECT_FALSE(parse("xyz").is_ok());               // bare literal
  // Nesting past the bound is rejected instead of overflowing the stack,
  // for groups and for value lists alike.
  const auto deep_groups = parse(std::string(100000, '('));
  EXPECT_EQ(deep_groups.status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(deep_groups.status().message().find("offset 64"),
            std::string::npos);
  EXPECT_EQ(parse("&(a=" + std::string(100000, '(')).status().code(),
            util::ErrorCode::kInvalidArgument);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '(') + "a=1" +
           std::string(static_cast<std::size_t>(depth), ')');
  };
  EXPECT_TRUE(parse(nested(kMaxNestingDepth)).is_ok());
  EXPECT_FALSE(parse(nested(kMaxNestingDepth + 1)).is_ok());
}

TEST(Parser, ErrorsIncludeOffset) {
  auto result = parse("(&(count=4)");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("offset"), std::string::npos);
}

TEST(Parser, MultiRequestHelperEnforcesPlus) {
  EXPECT_TRUE(parse_multi_request("+(&(a=1))").is_ok());
  EXPECT_FALSE(parse_multi_request("&(a=1)").is_ok());
}

// ---- printer round trips ------------------------------------------------------

TEST(Printer, RoundTripsCanonicalForm) {
  const char* inputs[] = {
      "+(&(a=1))(&(b=2))",
      "(&(executable=\"my app\")(arguments=x y z))",
      "|(&(count=1))(&(count=2))",
      "(&(environment=(A 1)(B 2)))",
      "(&(path=\"with \"\"quotes\"\" inside\"))",
  };
  for (const char* in : inputs) {
    auto first = parse(in);
    ASSERT_TRUE(first.is_ok()) << in;
    const std::string printed = first.value().to_string();
    auto second = parse(printed);
    ASSERT_TRUE(second.is_ok()) << printed;
    EXPECT_EQ(first.value(), second.value()) << printed;
  }
}

// Property: a randomly generated spec survives print -> parse unchanged.
class PrintParseProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Value random_value(sim::Rng& rng, int depth) {
    const auto pick = rng.uniform_int(0, depth > 1 ? 2 : 1);
    if (pick == 0) {
      std::string s;
      const auto len = rng.uniform_int(1, 10);
      for (std::int64_t i = 0; i < len; ++i) {
        // Mix of safe and quote-requiring characters.
        static const char alphabet[] =
            "abcXYZ019._-/ ()&=\"'$";
        s += alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)];
      }
      return Value::literal(s);
    }
    if (pick == 1) {
      return Value::variable("V" + std::to_string(rng.uniform_int(0, 9)));
    }
    std::vector<Value> items;
    const auto n = rng.uniform_int(1, 3);
    for (std::int64_t i = 0; i < n; ++i) {
      items.push_back(random_value(rng, depth - 1));
    }
    return Value::list(std::move(items));
  }

  Spec random_spec(sim::Rng& rng, int depth) {
    if (depth <= 0 || rng.chance(0.4)) {
      Relation r;
      r.attribute = "attr" + std::to_string(rng.uniform_int(0, 20));
      r.op = static_cast<Op>(rng.uniform_int(0, 5));
      const auto n = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < n; ++i) {
        r.values.push_back(random_value(rng, 2));
      }
      return Spec::relation(std::move(r));
    }
    std::vector<Spec> children;
    const auto n = rng.uniform_int(1, 4);
    for (std::int64_t i = 0; i < n; ++i) {
      children.push_back(random_spec(rng, depth - 1));
    }
    switch (rng.uniform_int(0, 2)) {
      case 0:
        return Spec::multi(std::move(children));
      case 1:
        return Spec::conj(std::move(children));
      default:
        return Spec::disj(std::move(children));
    }
  }
};

TEST_P(PrintParseProperty, RoundTrips) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    // Top level must be a combinator or conj of relations for parseability.
    std::vector<Spec> children;
    const auto n = rng.uniform_int(1, 4);
    for (std::int64_t i = 0; i < n; ++i) {
      children.push_back(random_spec(rng, 2));
    }
    const Spec spec = Spec::multi(std::move(children));
    const std::string text = spec.to_string();
    auto reparsed = parse(text);
    ASSERT_TRUE(reparsed.is_ok())
        << text << " -> " << reparsed.status().to_string();
    EXPECT_EQ(spec, reparsed.value()) << text;
  }
  // Typed subjobs survive print -> parse_multi_request ->
  // parse_job_requests unchanged.
  sim::Rng job_rng(GetParam() * 7919);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<JobRequest> jobs(
        static_cast<std::size_t>(job_rng.uniform_int(1, 8)));
    std::vector<Spec> subjobs;
    for (JobRequest& j : jobs) {
      j.resource_manager_contact =
          "h" + std::to_string(job_rng.uniform_int(0, 9));
      j.executable = job_rng.chance(0.5) ? "x" : "y";
      j.count = static_cast<std::int32_t>(job_rng.uniform_int(1, 16));
      j.start_type = static_cast<SubjobStartType>(job_rng.uniform_int(0, 2));
      j.label = job_rng.chance(0.5)
                    ? "L" + std::to_string(job_rng.uniform_int(0, 4))
                    : "";
      subjobs.push_back(j.to_spec());
    }
    const std::string text = Spec::multi(std::move(subjobs)).to_string();
    auto multi = parse_multi_request(text);
    ASSERT_TRUE(multi.is_ok()) << text;
    auto reparsed = parse_job_requests(multi.value());
    ASSERT_TRUE(reparsed.is_ok()) << text;
    EXPECT_EQ(reparsed.value(), jobs) << text;
  }
}

// Property: JobRequest::to_rsl writes exactly the bytes of the tree print
// it replaced: to_spec().to_string() of a copy whose environment dropped
// the set names and then appended the set entries.  The requests fill
// every field, with text that needs quoting, environment entries that the
// set overrides, reservation ids past INT64_MAX and extras of every value
// kind.
TEST_P(PrintParseProperty, ToRslMatchesTreePrint) {
  sim::Rng rng(GetParam() * 104729);
  const auto text = [&rng] {
    static const char alphabet[] = "abXY09._-/ ()&=\"'$";
    std::string s;
    const auto len = rng.uniform_int(0, 6);
    for (std::int64_t i = 0; i < len; ++i) {
      s += alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)];
    }
    return s;
  };
  const std::string names[] = {"A", "B", "GRID_DUROC_CONTACT", "x y"};
  for (int trial = 0; trial < 50; ++trial) {
    JobRequest j;
    j.resource_manager_contact = text();
    j.executable = text();
    j.count = static_cast<std::int32_t>(rng.uniform_int(1, 1'000'000));
    for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
      j.arguments.push_back(text());
    }
    for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
      j.environment.emplace_back(names[rng.uniform_int(0, 3)], text());
    }
    if (rng.chance(0.5)) j.directory = text();
    if (rng.chance(0.5)) j.stdout_path = text();
    if (rng.chance(0.5)) j.stderr_path = text();
    if (rng.chance(0.5)) {
      j.max_wall_time = rng.uniform_int(1, 10'000) * sim::kMinute;
    }
    j.job_type = static_cast<JobType>(rng.uniform_int(0, 2));
    j.start_type = static_cast<SubjobStartType>(rng.uniform_int(0, 2));
    if (rng.chance(0.5)) j.label = text();
    if (rng.chance(0.5)) {
      j.reservation_id = rng.chance(0.5)
                             ? static_cast<std::uint64_t>(rng.uniform_int(1, 99))
                             : ~std::uint64_t{0} - 5;
    }
    for (auto n = rng.uniform_int(0, 2); n > 0; --n) {
      Relation r;
      r.attribute = "extra" + std::to_string(n);
      r.op = static_cast<Op>(rng.uniform_int(0, 5));
      r.values.push_back(random_value(rng, 2));
      j.extras.push_back(std::move(r));
    }
    std::vector<std::string> set_values;
    for (auto n = rng.uniform_int(0, 3); n > 0; --n) {
      set_values.push_back(text());
    }
    std::vector<EnvVar> set_env;
    for (std::size_t i = 0; i < set_values.size(); ++i) {
      set_env.emplace_back(names[(i + 2) % 4], set_values[i]);
    }

    JobRequest edited = j;
    std::erase_if(edited.environment, [&set_env](const auto& kv) {
      return std::any_of(set_env.begin(), set_env.end(),
                         [&kv](const EnvVar& e) { return e.first == kv.first; });
    });
    for (const EnvVar& e : set_env) {
      edited.environment.emplace_back(std::string(e.first),
                                      std::string(e.second));
    }
    EXPECT_EQ(j.to_rsl(set_env), edited.to_spec().to_string());
    EXPECT_EQ(j.to_rsl(), j.to_spec().to_string());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrintParseProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- typed attributes ---------------------------------------------------------------

TEST(Attributes, ExtractsAllKnownFields) {
  auto spec = parse(
      "&(resourceManagerContact=rm1)(count=8)(executable=sim)"
      "(arguments=-v --fast)(environment=(A 1)(B 2))(directory=/work)"
      "(stdout=out.log)(stderr=err.log)(maxWallTime=30)(jobType=mpi)"
      "(subjobStartType=interactive)(label=workers)(customAttr=xyz)");
  ASSERT_TRUE(spec.is_ok());
  auto job = JobRequest::from_spec(spec.value());
  ASSERT_TRUE(job.is_ok()) << job.status().to_string();
  const JobRequest& j = job.value();
  EXPECT_EQ(j.resource_manager_contact, "rm1");
  EXPECT_EQ(j.count, 8);
  EXPECT_EQ(j.executable, "sim");
  EXPECT_EQ(j.arguments, (std::vector<std::string>{"-v", "--fast"}));
  ASSERT_EQ(j.environment.size(), 2u);
  EXPECT_EQ(j.environment[0].first, "A");
  EXPECT_EQ(j.directory, "/work");
  EXPECT_EQ(j.stdout_path, "out.log");
  EXPECT_EQ(j.stderr_path, "err.log");
  EXPECT_EQ(j.max_wall_time, 30 * sim::kMinute);
  EXPECT_EQ(j.job_type, JobType::kMpi);
  EXPECT_EQ(j.start_type, SubjobStartType::kInteractive);
  EXPECT_EQ(j.label, "workers");
  ASSERT_EQ(j.extras.size(), 1u);
  EXPECT_EQ(j.extras[0].attribute, "customattr");
}

TEST(Attributes, DefaultsApplied) {
  auto spec = parse("&(resourceManagerContact=rm)(executable=x)");
  auto job = JobRequest::from_spec(spec.value());
  ASSERT_TRUE(job.is_ok());
  EXPECT_EQ(job.value().count, 1);
  EXPECT_EQ(job.value().start_type, SubjobStartType::kRequired);
  EXPECT_EQ(job.value().job_type, JobType::kMultiple);
}

TEST(Attributes, RejectsMissingRequiredFields) {
  auto no_contact = parse("&(executable=x)");
  EXPECT_FALSE(JobRequest::from_spec(no_contact.value()).is_ok());
  auto no_exe = parse("&(resourceManagerContact=rm)");
  EXPECT_FALSE(JobRequest::from_spec(no_exe.value()).is_ok());
}

TEST(Attributes, RejectsBadValues) {
  const char* bad[] = {
      "&(resourceManagerContact=rm)(executable=x)(count=0)",
      "&(resourceManagerContact=rm)(executable=x)(count=-3)",
      "&(resourceManagerContact=rm)(executable=x)(count=abc)",
      "&(resourceManagerContact=rm)(executable=x)(count>=4)",
      "&(resourceManagerContact=rm)(executable=x)(subjobStartType=maybe)",
      "&(resourceManagerContact=rm)(executable=x)(jobType=weird)",
      "&(resourceManagerContact=rm)(executable=x)(maxWallTime=0)",
      "&(resourceManagerContact=rm)(executable=x)(environment=(A))",
  };
  for (const char* text : bad) {
    auto spec = parse(text);
    ASSERT_TRUE(spec.is_ok()) << text;
    EXPECT_FALSE(JobRequest::from_spec(spec.value()).is_ok()) << text;
  }
}

TEST(Attributes, ToSpecRoundTrips) {
  auto spec = parse(
      "&(resourceManagerContact=rm1)(count=8)(executable=sim)"
      "(arguments=-v)(environment=(A 1))(maxWallTime=30)(jobType=single)"
      "(subjobStartType=optional)(label=w)(extra=1)");
  auto job = JobRequest::from_spec(spec.value());
  ASSERT_TRUE(job.is_ok());
  auto job2 = JobRequest::from_spec(job.value().to_spec());
  ASSERT_TRUE(job2.is_ok());
  EXPECT_EQ(job.value(), job2.value());
}

TEST(Attributes, ParseJobRequestsWalksMultiRequest) {
  auto spec = parse(
      "+(&(resourceManagerContact=a)(executable=x))"
      "(&(resourceManagerContact=b)(executable=y)(count=4))");
  auto jobs = parse_job_requests(spec.value());
  ASSERT_TRUE(jobs.is_ok());
  ASSERT_EQ(jobs.value().size(), 2u);
  EXPECT_EQ(jobs.value()[1].count, 4);
}

TEST(Attributes, StartTypeNamesRoundTrip) {
  for (auto t : {SubjobStartType::kRequired, SubjobStartType::kInteractive,
                 SubjobStartType::kOptional}) {
    auto parsed = parse_start_type(to_string(t));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), t);
  }
  EXPECT_TRUE(parse_start_type("REQUIRED").is_ok());  // case-insensitive
}

}  // namespace
}  // namespace grid::rsl

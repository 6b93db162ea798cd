// Unit tests for the SPARQL subset: lexer/parser, prefix handling,
// algebra helpers, and query validation.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sparql/algebra.h"
#include "sparql/parser.h"

namespace prost::sparql {
using prost::Rng;
namespace {

// ----------------------------------------------------------------- Parse

TEST(ParserTest, MinimalQuery) {
  auto query = ParseQuery("SELECT * WHERE { ?s <http://p> ?o . }");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_TRUE(query->projection.empty());
  EXPECT_FALSE(query->distinct);
  EXPECT_EQ(query->limit, 0u);
  ASSERT_EQ(query->bgp.patterns.size(), 1u);
  EXPECT_EQ(query->bgp.patterns[0].predicate.value, "http://p");
}

TEST(ParserTest, ExplicitProjection) {
  auto query = ParseQuery(
      "SELECT ?b ?a WHERE { ?a <http://p> ?b . }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->projection, (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(query->EffectiveProjection(),
            (std::vector<std::string>{"b", "a"}));
}

TEST(ParserTest, SelectStarProjectionIsSortedVariables) {
  auto query = ParseQuery(
      "SELECT * WHERE { ?z <http://p> ?a . ?a <http://q> ?m . }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->EffectiveProjection(),
            (std::vector<std::string>{"a", "m", "z"}));
}

TEST(ParserTest, PrefixExpansion) {
  auto query = ParseQuery(
      "PREFIX ex: <http://example.org/>\n"
      "SELECT * WHERE { ?s ex:knows ex:alice . }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->bgp.patterns[0].predicate.value,
            "http://example.org/knows");
  EXPECT_EQ(query->bgp.patterns[0].object.value,
            "http://example.org/alice");
}

TEST(ParserTest, UndeclaredPrefixFails) {
  auto query = ParseQuery("SELECT * WHERE { ?s nope:p ?o . }");
  EXPECT_EQ(query.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, DistinctAndLimit) {
  auto query = ParseQuery(
      "SELECT DISTINCT ?s WHERE { ?s <http://p> ?o . } LIMIT 10");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query->distinct);
  EXPECT_EQ(query->limit, 10u);
}

TEST(ParserTest, RdfTypeKeywordA) {
  auto query = ParseQuery("SELECT * WHERE { ?s a <http://Class> . }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->bgp.patterns[0].predicate.value,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
}

TEST(ParserTest, PredicateObjectLists) {
  auto query = ParseQuery(
      "SELECT * WHERE { ?s <http://p> ?a ; <http://q> ?b , ?c . }");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->bgp.patterns.size(), 3u);
  // All three share the subject.
  EXPECT_EQ(query->bgp.patterns[0].subject.value, "s");
  EXPECT_EQ(query->bgp.patterns[1].subject.value, "s");
  EXPECT_EQ(query->bgp.patterns[2].subject.value, "s");
  EXPECT_EQ(query->bgp.patterns[2].predicate.value, "http://q");
  EXPECT_EQ(query->bgp.patterns[2].object.value, "c");
}

TEST(ParserTest, LiteralsInObjects) {
  auto query = ParseQuery(
      "SELECT * WHERE { ?s <http://p> \"plain\" . "
      "?s <http://q> \"tagged\"@en . ?s <http://r> 42 . }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->bgp.patterns[0].object.value, "plain");
  EXPECT_EQ(query->bgp.patterns[1].object.language, "en");
  EXPECT_EQ(query->bgp.patterns[2].object.datatype,
            "http://www.w3.org/2001/XMLSchema#integer");
}

TEST(ParserTest, CommentsAndWhitespace) {
  auto query = ParseQuery(
      "# leading comment\n"
      "SELECT *  # trailing comment\n"
      "WHERE {\n"
      "  ?s <http://p> ?o .  # pattern comment\n"
      "}\n");
  ASSERT_TRUE(query.ok()) << query.status();
}

TEST(ParserTest, DollarVariables) {
  auto query = ParseQuery("SELECT * WHERE { $s <http://p> $o . }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->bgp.patterns[0].subject.value, "s");
}

TEST(ParserTest, SyntaxErrors) {
  for (const char* bad : {
           "",                                        // empty
           "WHERE { ?s <p> ?o . }",                   // no SELECT
           "SELECT WHERE { ?s <http://p> ?o . }",     // no projection
           "SELECT * { ?s <http://p> ?o . }",         // missing WHERE
           "SELECT * WHERE { ?s <http://p> ?o . ",    // unclosed brace
           "SELECT * WHERE { ?s <http://p> . }",      // missing object
           "SELECT * WHERE { ?s <http://p> ?o . } LIMIT",      // no number
           "SELECT * WHERE { ?s <http://p> ?o . } LIMIT 0",    // zero
           "SELECT * WHERE { ?s <http://p> ?o . } trailing",   // garbage
           "SELECT * WHERE { \"lit\" <http://p> ?o . }",       // lit subj
       }) {
    EXPECT_FALSE(ParseQuery(bad).ok()) << bad;
  }
}

TEST(ParserTest, ErrorsCiteLineNumbers) {
  auto query = ParseQuery("SELECT *\nWHERE {\n  ?s <http://p> .\n}");
  ASSERT_FALSE(query.ok());
  EXPECT_NE(query.status().message().find("line 3"), std::string::npos)
      << query.status();
}

// ----------------------------------------------------------- Validation

TEST(ValidationTest, ProjectedVariableMustBeBound) {
  auto query = ParseQuery("SELECT ?x WHERE { ?s <http://p> ?o . }");
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValidationTest, VariablePredicateUnimplemented) {
  auto query = ParseQuery("SELECT * WHERE { ?s ?p ?o . }");
  EXPECT_EQ(query.status().code(), StatusCode::kUnimplemented);
}

TEST(ValidationTest, DisconnectedBgpRejected) {
  auto query = ParseQuery(
      "SELECT * WHERE { ?a <http://p> ?b . ?x <http://q> ?y . }");
  EXPECT_EQ(query.status().code(), StatusCode::kUnimplemented);
}

TEST(ValidationTest, CountAliasMustNotBeABgpVariable) {
  // SPARQL 1.1 §18.2.1: (expr AS ?v) may not rebind an in-scope ?v.
  for (const char* text :
       {"SELECT (COUNT(?s) AS ?o) WHERE { ?s <http://p> ?o . }",
        "SELECT (COUNT(*) AS ?s) WHERE { ?s <http://p> ?o . }"}) {
    SCOPED_TRACE(text);
    auto query = ParseQuery(text);
    EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
  }
  auto fresh =
      ParseQuery("SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://p> ?o . }");
  EXPECT_TRUE(fresh.ok()) << fresh.status();
}

TEST(ValidationTest, ConnectedThroughChainAccepted) {
  auto query = ParseQuery(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . "
      "?c <http://r> ?a . }");
  EXPECT_TRUE(query.ok()) << query.status();
}

// -------------------------------------------------------------- Algebra

TEST(AlgebraTest, PatternVariablesAndConstants) {
  TriplePattern pattern{rdf::Term::Variable("s"), rdf::Term::Iri("p"),
                        rdf::Term::Literal("v")};
  EXPECT_EQ(pattern.Variables(), (std::vector<std::string>{"s"}));
  EXPECT_FALSE(pattern.HasConstantSubject());
  EXPECT_TRUE(pattern.HasConstantObject());
}

TEST(AlgebraTest, BgpVariablesSortedUnique) {
  auto query = ParseQuery(
      "SELECT * WHERE { ?z <http://p> ?a . ?a <http://p> ?z . }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->bgp.Variables(), (std::set<std::string>{"a", "z"}));
}

TEST(AlgebraTest, SingleAndEmptyBgpConnectivity) {
  BasicGraphPattern empty;
  EXPECT_TRUE(empty.IsConnected());
  BasicGraphPattern single;
  single.patterns.push_back({rdf::Term::Variable("a"), rdf::Term::Iri("p"),
                             rdf::Term::Variable("b")});
  EXPECT_TRUE(single.IsConnected());
}

TEST(AlgebraTest, QueryToStringRoundTripsThroughParser) {
  auto query = ParseQuery(
      "PREFIX ex: <http://e/>\n"
      "SELECT DISTINCT ?a WHERE { ?a ex:p ex:c . ?a ex:q ?b . } LIMIT 5");
  ASSERT_TRUE(query.ok());
  auto reparsed = ParseQuery(query->ToString());
  ASSERT_TRUE(reparsed.ok()) << query->ToString();
  EXPECT_EQ(reparsed->projection, query->projection);
  EXPECT_EQ(reparsed->distinct, query->distinct);
  EXPECT_EQ(reparsed->limit, query->limit);
  EXPECT_EQ(reparsed->bgp.patterns, query->bgp.patterns);
}

TEST(ValidationTest, EmptyBgp) {
  Query query;
  EXPECT_EQ(ValidateQuery(query).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ Fuzz-ish

TEST(ParserRobustnessTest, RandomBytesNeverCrash) {
  // The parser must reject garbage with a Status, never crash or hang.
  Rng rng(97);
  for (int round = 0; round < 2000; ++round) {
    std::string input;
    size_t length = rng.NextBounded(120);
    for (size_t i = 0; i < length; ++i) {
      input.push_back(static_cast<char>(rng.NextInRange(1, 255)));
    }
    (void)ParseQuery(input);  // Any Status is fine; no crash is the test.
  }
}

TEST(ParserRobustnessTest, MutatedValidQueriesNeverCrash) {
  const std::string valid =
      "PREFIX ex: <http://e/>\n"
      "SELECT DISTINCT ?a ?b WHERE { ?a ex:p ?b . ?b ex:q \"v\"@en . "
      "FILTER(?a != ex:c) } ORDER BY DESC(?b) LIMIT 5 OFFSET 1";
  ASSERT_TRUE(ParseQuery(valid).ok());
  Rng rng(131);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = valid;
    // Apply 1-3 random byte mutations (replace, delete, or insert).
    for (uint64_t m = 0, n = 1 + rng.NextBounded(3); m < n; ++m) {
      size_t pos = rng.NextBounded(mutated.size());
      switch (rng.NextBounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextInRange(1, 255));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>(rng.NextInRange(32, 126)));
      }
    }
    (void)ParseQuery(mutated);
  }
}

}  // namespace
}  // namespace prost::sparql

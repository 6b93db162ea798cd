// Unit tests for the RDF substrate: terms, N-Triples parsing and
// serialization, dictionary encoding, and encoded graphs.

#include <gtest/gtest.h>

#include <ostream>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace prost::rdf {

// Prints a Term in N-Triples form. Without it gtest dumps the raw object
// bytes, which include padding and heap addresses, so the names of the
// parameterized tests below would change from one build to the next.
void PrintTo(const Term& term, std::ostream* os) { *os << term.ToNTriples(); }

namespace {

// ----------------------------------------------------------------- Term

TEST(TermTest, FactoryKinds) {
  EXPECT_TRUE(Term::Iri("http://x").is_iri());
  EXPECT_TRUE(Term::Literal("v").is_literal());
  EXPECT_TRUE(Term::Blank("b1").is_blank());
  EXPECT_TRUE(Term::Variable("v").is_variable());
  EXPECT_TRUE(Term::Iri("x").is_concrete());
  EXPECT_FALSE(Term::Variable("x").is_concrete());
}

TEST(TermTest, Serialization) {
  EXPECT_EQ(Term::Iri("http://x/a").ToNTriples(), "<http://x/a>");
  EXPECT_EQ(Term::Literal("plain").ToNTriples(), "\"plain\"");
  EXPECT_EQ(Term::LangLiteral("chat", "fr").ToNTriples(), "\"chat\"@fr");
  EXPECT_EQ(Term::TypedLiteral("5", "http://t#int").ToNTriples(),
            "\"5\"^^<http://t#int>");
  EXPECT_EQ(Term::Blank("n0").ToNTriples(), "_:n0");
  EXPECT_EQ(Term::Variable("v7").ToNTriples(), "?v7");
}

TEST(TermTest, LiteralEscaping) {
  Term term = Term::Literal("a\"b\\c\nd\te\r");
  std::string serialized = term.ToNTriples();
  EXPECT_EQ(serialized, "\"a\\\"b\\\\c\\nd\\te\\r\"");
  Result<Term> parsed = ParseTerm(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, term);
}

class TermRoundTripTest : public ::testing::TestWithParam<Term> {};

TEST_P(TermRoundTripTest, SerializeParseRoundTrip) {
  const Term& term = GetParam();
  Result<Term> parsed = ParseTerm(term.ToNTriples());
  ASSERT_TRUE(parsed.ok()) << term.ToNTriples() << ": " << parsed.status();
  EXPECT_EQ(*parsed, term);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TermRoundTripTest,
    ::testing::Values(
        Term::Iri("http://example.org/x"),
        Term::Iri("urn:uuid:1-2-3"), Term::Literal(""),
        Term::Literal("simple"), Term::Literal("with spaces and . dots"),
        Term::Literal("quote\" backslash\\ newline\n"),
        Term::LangLiteral("hello", "en"),
        Term::LangLiteral("hallo", "de-AT"),
        Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
        Term::TypedLiteral("", "http://t#empty"), Term::Blank("b"),
        Term::Blank("gen123"), Term::Variable("x"),
        Term::Variable("v0")));

TEST(TermParseTest, Failures) {
  for (const char* bad :
       {"", "<unclosed", "plainword", "\"unclosed", "\"v\"^^missing",
        "\"v\"@", "?", "_:", "\"v\"^^<unclosed", "\"a\\q\""}) {
    EXPECT_FALSE(ParseTerm(bad).ok()) << bad;
  }
}

TEST(TermTest, OrderingIsTotal) {
  EXPECT_LT(Term::Iri("a"), Term::Iri("b"));
  EXPECT_LT(Term::Iri("z"), Term::Literal("a"));  // kind before value
  EXPECT_LT(Term::Literal("x"), Term::TypedLiteral("x", "t"));
}

// ------------------------------------------------------------ N-Triples

TEST(NTriplesTest, ParseSimpleLine) {
  auto triple = ParseNTriplesLine("<http://s> <http://p> <http://o> .");
  ASSERT_TRUE(triple.ok());
  EXPECT_EQ(triple->subject.value, "http://s");
  EXPECT_EQ(triple->predicate.value, "http://p");
  EXPECT_EQ(triple->object.value, "http://o");
}

TEST(NTriplesTest, ParseLiteralWithSpacesAndDot) {
  auto triple = ParseNTriplesLine(
      "<http://s> <http://p> \"a literal. with , punctuation\" .");
  ASSERT_TRUE(triple.ok());
  EXPECT_EQ(triple->object.value, "a literal. with , punctuation");
}

TEST(NTriplesTest, ParseBlankSubject) {
  auto triple = ParseNTriplesLine("_:b0 <http://p> \"v\"@en .");
  ASSERT_TRUE(triple.ok());
  EXPECT_TRUE(triple->subject.is_blank());
  EXPECT_EQ(triple->object.language, "en");
}

TEST(NTriplesTest, LineFailures) {
  for (const char* bad : {
           "<s> <p> .",                       // missing object
           "<s> <p> <o>",                     // missing dot
           "\"lit\" <p> <o> .",               // literal subject
           "<s> \"p\" <o> .",                 // literal predicate
           "<s> _:b <o> .",                   // blank predicate
           "<s> <p> ?v .",                    // variable object
           "<s> <p> <o> extra .",             // trailing garbage
       }) {
    EXPECT_FALSE(ParseNTriplesLine(bad).ok()) << bad;
  }
}

TEST(NTriplesTest, DocumentSkipsCommentsAndBlanks) {
  std::string doc =
      "# a comment\n"
      "<http://s1> <http://p> <http://o1> .\n"
      "\n"
      "   # indented comment\n"
      "<http://s2> <http://p> \"v\" .\n";
  auto triples = ParseNTriplesToVector(doc);
  ASSERT_TRUE(triples.ok());
  EXPECT_EQ(triples->size(), 2u);
}

TEST(NTriplesTest, DocumentErrorCitesLine) {
  std::string doc =
      "<http://s1> <http://p> <http://o1> .\n"
      "broken line\n";
  auto triples = ParseNTriplesToVector(doc);
  ASSERT_FALSE(triples.ok());
  EXPECT_NE(triples.status().message().find("line 2"), std::string::npos)
      << triples.status();
}

TEST(NTriplesTest, WriteParseRoundTrip) {
  std::vector<Triple> triples = {
      {Term::Iri("http://s"), Term::Iri("http://p"),
       Term::Literal("v \"quoted\"")},
      {Term::Blank("b"), Term::Iri("http://p2"),
       Term::TypedLiteral("7", "http://int")},
      {Term::Iri("http://s"), Term::Iri("http://p3"),
       Term::LangLiteral("bonjour", "fr")},
  };
  auto parsed = ParseNTriplesToVector(WriteNTriples(triples));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, triples);
}

// ------------------------------------------------------------ Dictionary

TEST(DictionaryTest, InternAssignsDenseIdsFromOne) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("<a>"), 1u);
  EXPECT_EQ(dict.Intern("<b>"), 2u);
  EXPECT_EQ(dict.Intern("<a>"), 1u);  // Idempotent.
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, LookupMissReturnsNullId) {
  Dictionary dict;
  dict.Intern("<a>");
  EXPECT_EQ(dict.Lookup("<b>"), kNullTermId);
  EXPECT_EQ(dict.Lookup("<a>"), 1u);
}

TEST(DictionaryTest, LookupIdBounds) {
  Dictionary dict;
  dict.Intern("<a>");
  EXPECT_EQ(dict.LookupId(1).value(), "<a>");
  EXPECT_FALSE(dict.LookupId(0).ok());
  EXPECT_FALSE(dict.LookupId(2).ok());
}

TEST(DictionaryTest, DecodeTermParsesStructure) {
  Dictionary dict;
  TermId id = dict.InternTerm(Term::LangLiteral("hi", "en"));
  auto term = dict.DecodeTerm(id);
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->language, "en");
  EXPECT_EQ(term->value, "hi");
}

TEST(DictionaryTest, ViewsSurviveGrowth) {
  // string_view keys into the deque must stay valid as it grows.
  Dictionary dict;
  std::vector<std::string> terms;
  for (int i = 0; i < 5000; ++i) terms.push_back("<t" + std::to_string(i) + ">");
  for (const auto& t : terms) dict.Intern(t);
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(dict.Lookup(terms[i]), i + 1) << terms[i];
  }
}

TEST(DictionaryTest, TermLengths) {
  Dictionary dict;
  dict.Intern("<abc>");
  dict.Intern("<de>");
  std::vector<uint32_t> lengths = dict.TermLengths();
  ASSERT_EQ(lengths.size(), 3u);
  EXPECT_EQ(lengths[0], 0u);
  EXPECT_EQ(lengths[1], 5u);
  EXPECT_EQ(lengths[2], 4u);
}

// ---------------------------------------------------------------- Graph

TEST(GraphTest, AddEncodesThroughDictionary) {
  EncodedGraph graph;
  graph.Add({Term::Iri("s"), Term::Iri("p"), Term::Iri("o")});
  graph.Add({Term::Iri("s"), Term::Iri("p"), Term::Iri("o2")});
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_EQ(graph.triples()[0].subject, graph.triples()[1].subject);
  EXPECT_EQ(graph.triples()[0].predicate, graph.triples()[1].predicate);
  EXPECT_NE(graph.triples()[0].object, graph.triples()[1].object);
}

TEST(GraphTest, PredicateStats) {
  EncodedGraph graph;
  auto add = [&](const char* s, const char* p, const char* o) {
    graph.Add({Term::Iri(s), Term::Iri(p), Term::Iri(o)});
  };
  add("s1", "p1", "o1");
  add("s1", "p1", "o2");  // multi-valued on s1
  add("s2", "p1", "o1");
  add("s1", "p2", "o1");
  auto stats = graph.ComputePredicateStats();
  ASSERT_EQ(stats.size(), 2u);
  TermId p1 = graph.dictionary().Lookup("<p1>");
  TermId p2 = graph.dictionary().Lookup("<p2>");
  EXPECT_EQ(stats.at(p1).triple_count, 3u);
  EXPECT_EQ(stats.at(p1).distinct_subjects, 2u);
  EXPECT_EQ(stats.at(p1).distinct_objects, 2u);
  EXPECT_TRUE(stats.at(p1).is_multi_valued());
  EXPECT_EQ(stats.at(p2).triple_count, 1u);
  EXPECT_FALSE(stats.at(p2).is_multi_valued());
}

TEST(GraphTest, SortAndDedupe) {
  EncodedGraph graph;
  auto add = [&](const char* s, const char* p, const char* o) {
    graph.Add({Term::Iri(s), Term::Iri(p), Term::Iri(o)});
  };
  add("s", "p", "o");
  add("s", "p", "o");
  add("s2", "p", "o");
  add("s", "p", "o");
  graph.SortAndDedupe();
  EXPECT_EQ(graph.size(), 2u);
}

TEST(GraphTest, DistinctPredicatesSorted) {
  EncodedGraph graph;
  graph.Add({Term::Iri("s"), Term::Iri("p2"), Term::Iri("o")});
  graph.Add({Term::Iri("s"), Term::Iri("p1"), Term::Iri("o")});
  graph.Add({Term::Iri("s"), Term::Iri("p2"), Term::Iri("o2")});
  auto predicates = graph.DistinctPredicates();
  ASSERT_EQ(predicates.size(), 2u);
  EXPECT_LT(predicates[0], predicates[1]);
}

TEST(GraphTest, DecodeTriple) {
  EncodedGraph graph;
  Triple original{Term::Iri("s"), Term::Iri("p"), Term::Literal("lit")};
  graph.Add(original);
  auto decoded = graph.DecodeTriple(0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
  EXPECT_FALSE(graph.DecodeTriple(1).ok());
}

TEST(GraphTest, EncodeNTriplesEndToEnd) {
  auto graph = EncodeNTriples(
      "<http://s> <http://p> \"v\" .\n<http://s2> <http://p> <http://s> .\n");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->size(), 2u);
  // Shared term "<http://s>" has one id in both positions.
  EXPECT_EQ(graph->triples()[0].subject, graph->triples()[1].object);
}

}  // namespace
}  // namespace prost::rdf

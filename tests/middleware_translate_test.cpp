// Equivalence proof for the fused zero-copy translator (translate.cpp): over
// a tag-soup corpus, randomized documents, and adversarial configs, its
// output bytes and counters must match the legacy
// parse_markup + html_to_wml/html_to_chtml + adapt_document + serialize()
// (+ wbxml_encode) pipeline exactly. These are the golden tests that let the
// gateways run the fused path without changing a single over-the-air byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "middleware/adaptation.h"
#include "middleware/markup.h"
#include "middleware/page_memo.h"
#include "middleware/translate.h"
#include "middleware/wbxml.h"
#include "sim/random.h"
#include "sim/util.h"

namespace mcs::middleware {
namespace {

// Same corpus as middleware_property_test.cpp: every parser quirk the legacy
// pipeline tolerates must translate identically through the fused path.
const char* kCorpus[] = {
    "<html><body><p>plain</p></body></html>",
    "<p>unclosed paragraph",
    "<b><i>misnested</b></i>",
    "<div><div><div>deep</div></div></div>",
    "<table><tbody><tr><td>a</td><td>b</td></tr></tbody></table>",
    "<ul><li>one<li>two<li>three</ul>",
    "<a href='q?a=1&b=2'>link</a>",
    "<img src=x.png alt='pic'><br><hr>",
    "<form action=\"/go\"><input name=\"q\" value=\"v\"><select name=\"s\">"
    "<option value=\"1\">one</option></select></form>",
    "<!DOCTYPE html><!-- c --><head><meta charset=utf8><title>T</title>"
    "</head><body>after</body>",
    "<script>while (a<b) { x('</div>'); }</script><p>visible</p>",
    "<h1>One</h1><h2>Two</h2><h3>Three</h3><h6>Six</h6>",
    "text only, no tags at all",
    "",
    "<p>entity &amp; raw &lt; chars</p>",
    "<blockquote><center><u>styled</u></center></blockquote>",
    // Fused-path extras: title + images + table sections + ordered lists +
    // uppercase soup + raw-text swallowing + attribute edge cases.
    "<HTML><HEAD><TITLE>  Upper  </TITLE></HEAD><BODY><H1>Hi</H1>"
    "<IMG SRC=a.gif ALT=\"logo\"><P>Body</P></BODY></HTML>",
    "<table><thead><tr><th>h1</th><th>h2</th></tr></thead>"
    "<tr><td> x </td><td></td><td>y</td></tr>"
    "<tfoot><tr><td>f</td></tr></tfoot></table>",
    "<ol><li>first</li><li>second</li><li>third</li></ol>",
    "<style>p { color: red } </style><p>styled doc</p>",
    "<form action='/search'><input name=q type=text value='mobile commerce'>"
    "</form><a href=\"/next\">more</a>",
    "<card title=\"CardTitle\"><p>wml-ish input</p></card>",
    "<p a=1 b = \"two\" c='3' d>attr soup</p><p data-x>tail",
    "<img alt=''><img><img alt='kept'>",
    "<div>loose <b>inline</b> content<br>across lines</div>",
    "<h4>deep <a href='/l'>nested <i>link</i></a> heading</h4>",
};

struct LegacyOut {
  std::string text;
  std::string wbxml;
  AdaptationResult adapted;
};

LegacyOut legacy(const std::string& src, MarkupKind target,
                 const AdaptationConfig& cfg, bool want_wbxml) {
  LegacyOut out;
  const MarkupDocument html = parse_markup(src, MarkupKind::kHtml);
  const MarkupDocument xlated =
      target == MarkupKind::kWml ? html_to_wml(html) : html_to_chtml(html);
  out.adapted = adapt_document(xlated, cfg);
  out.text = out.adapted.document.serialize();
  if (want_wbxml) out.wbxml = wbxml_encode(out.adapted.document);
  return out;
}

void expect_equivalent(const std::string& src, MarkupKind target,
                       const AdaptationConfig& cfg, bool want_wbxml,
                       const char* label) {
  const LegacyOut ref = legacy(src, target, cfg, want_wbxml);
  std::string text;
  std::string wbxml;
  const TranslateCounters got = translate_html(
      src, target, cfg, text, want_wbxml ? &wbxml : nullptr);
  EXPECT_EQ(text, ref.text) << label << " src: " << src;
  if (want_wbxml) {
    EXPECT_EQ(wbxml, ref.wbxml) << label << " src: " << src;
  }
  EXPECT_EQ(got.text_truncations, ref.adapted.text_truncations)
      << label << " src: " << src;
  EXPECT_EQ(got.images_dropped, ref.adapted.images_dropped)
      << label << " src: " << src;
  EXPECT_EQ(got.nodes_dropped, ref.adapted.nodes_dropped)
      << label << " src: " << src;
}

// Configs that push every adaptation branch: defaults, aggressive text
// truncation (short enough to truncate bullets and "[submit]"), a byte cap
// tight enough to force node drops + the "[more...]" marker, and image
// retention for cHTML.
std::vector<std::pair<const char*, AdaptationConfig>> configs() {
  std::vector<std::pair<const char*, AdaptationConfig>> out;
  out.emplace_back("defaults", AdaptationConfig{});
  AdaptationConfig tiny_text;
  tiny_text.max_text_run = 3;
  out.emplace_back("tiny-text", tiny_text);
  AdaptationConfig tiny_doc;
  tiny_doc.max_serialized_bytes = 40;
  out.emplace_back("tiny-doc", tiny_doc);
  AdaptationConfig mid_doc;
  mid_doc.max_serialized_bytes = 120;
  mid_doc.max_text_run = 8;
  out.emplace_back("mid-doc", mid_doc);
  AdaptationConfig keep;
  keep.keep_images = true;
  out.emplace_back("keep-images", keep);
  return out;
}

class TranslateCorpus : public ::testing::TestWithParam<int> {};

TEST_P(TranslateCorpus, WmlBytesAndCountersMatchLegacyPipeline) {
  const std::string src = kCorpus[GetParam()];
  for (const auto& [label, cfg] : configs()) {
    expect_equivalent(src, MarkupKind::kWml, cfg, /*want_wbxml=*/true, label);
  }
}

TEST_P(TranslateCorpus, ChtmlBytesAndCountersMatchLegacyPipeline) {
  const std::string src = kCorpus[GetParam()];
  for (const auto& [label, cfg] : configs()) {
    expect_equivalent(src, MarkupKind::kChtml, cfg, /*want_wbxml=*/false,
                      label);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, TranslateCorpus,
                         ::testing::Range(0, static_cast<int>(
                                                 std::size(kCorpus))));

// --- Randomized documents --------------------------------------------------
// Random trees (same generator shape as middleware_property_test.cpp) are
// serialized to HTML text and pushed through both pipelines. This reaches
// interleavings the corpus can't: nested unknown tags, attribute spam,
// card-title fallbacks, deep misnesting.

MarkupNode random_node(sim::Rng& rng, int depth) {
  static const char* kTags[] = {"p",  "b",     "i",      "u",     "a",
                                "card", "select", "option", "weirdtag",
                                "img",  "table", "tr",     "td",    "ul",
                                "li",   "form",  "h2",     "div"};
  if (depth <= 0 || rng.bernoulli(0.4)) {
    std::string text;
    const int len = static_cast<int>(rng.uniform_int(1, 30));
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>('a' + rng.uniform_int(0, 25));
    }
    return MarkupNode::text_node(text);
  }
  MarkupNode n = MarkupNode::element(
      kTags[rng.uniform_int(0, std::size(kTags) - 1)]);
  if (rng.bernoulli(0.5)) {
    n.set_attr("href", sim::strf("/x%lld", static_cast<long long>(
                                               rng.uniform_int(0, 999))));
  }
  if (rng.bernoulli(0.3)) n.set_attr("alt", "alt text");
  if (rng.bernoulli(0.3)) n.set_attr("customattr", "v v v");
  const int kids = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < kids; ++i) {
    n.children.push_back(random_node(rng, depth - 1));
  }
  return n;
}

class TranslateRandomDocs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TranslateRandomDocs, FusedMatchesLegacyOnRandomTrees) {
  sim::Rng rng{GetParam()};
  const auto cfgs = configs();
  for (int round = 0; round < 25; ++round) {
    MarkupDocument doc;
    doc.kind = MarkupKind::kHtml;
    const int tops = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < tops; ++i) {
      doc.root.children.push_back(random_node(rng, 4));
    }
    const std::string src = doc.serialize();
    const auto& [label, cfg] = cfgs[round % cfgs.size()];
    expect_equivalent(src, MarkupKind::kWml, cfg, /*want_wbxml=*/true, label);
    expect_equivalent(src, MarkupKind::kChtml, cfg, /*want_wbxml=*/false,
                      label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslateRandomDocs,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

// --- Buffer reuse ----------------------------------------------------------

TEST(TranslateBuffers, OutputBuffersAreClearedAndReusedAcrossCalls) {
  const AdaptationConfig cfg;
  std::string text;
  std::string wbxml;
  translate_html(kCorpus[0], MarkupKind::kWml, cfg, text, &wbxml);
  const std::string first_text = text;
  const std::string first_wbxml = wbxml;
  // A second, different translation into the same (now warm) buffers...
  translate_html(kCorpus[4], MarkupKind::kWml, cfg, text, &wbxml);
  EXPECT_NE(text, first_text);
  // ...and back: same input bytes => same output bytes, no stale prefix.
  translate_html(kCorpus[0], MarkupKind::kWml, cfg, text, &wbxml);
  EXPECT_EQ(text, first_text);
  EXPECT_EQ(wbxml, first_wbxml);
}

TEST(TranslateBuffers, WbxmlHeaderIsCanonicalEmptyStringTable) {
  // Generated decks only use WML 1.1 code-page tokens, so the WBXML header
  // is exactly version 1.3 / WML 1.1 / UTF-8 / empty string table.
  const AdaptationConfig cfg;
  std::string text;
  std::string wbxml;
  translate_html("<p>x</p>", MarkupKind::kWml, cfg, text, &wbxml);
  ASSERT_GE(wbxml.size(), 4u);
  EXPECT_EQ(wbxml.substr(0, 4), std::string("\x03\x04\x6A\x00", 4));
}

// --- Adaptation through arena_cat ------------------------------------------
// Truncation ("..." suffix) and ordered-list numbering ("N. " prefix) build
// their text from a part list that ends in an empty slice; the sanitizer CI
// job runs this path (an empty slice must never reach memcpy).

TEST(TranslateAdaptation, TruncatesTextAndNumbersListItems) {
  AdaptationConfig cfg;
  cfg.max_text_run = 4;
  std::string text;
  const TranslateCounters got = translate_html(
      "<ol><li>alpha</li><li>be</li></ol><p>longer text</p>",
      MarkupKind::kWml, cfg, text);
  EXPECT_EQ(text,
            "<wml><card id=\"main\"><p>1. alph...</p><p>2. be</p>"
            "<p>long...</p></card></wml>");
  EXPECT_EQ(got.text_truncations, 2u);
}

// --- scan_markup: the station's one pass -----------------------------------
// Differential against the tree parser: element count, title() and the
// root's inner_text() must all match parse_markup on every input.

void expect_scan_matches_tree(const std::string& src) {
  const MarkupDocument doc = parse_markup(src, MarkupKind::kWml);
  std::string title;
  std::string text;
  const std::size_t elements = scan_markup(src, title, text);
  EXPECT_EQ(elements, doc.root.element_count()) << "src: " << src;
  EXPECT_EQ(title, doc.title()) << "src: " << src;
  EXPECT_EQ(text, doc.root.inner_text()) << "src: " << src;
}

TEST_P(TranslateCorpus, ScanMatchesTreeParser) {
  expect_scan_matches_tree(kCorpus[GetParam()]);
}

TEST(ScanMarkup, MatchesTreeParserOnParserQuirks) {
  const char* cases[] = {
      "<WML><CARD ID=x TITLE=\"Up\"><P>Upper</P></CARD></WML>",
      "</p>stray<p>open</b>mismatched</i></p></p>",
      "<b><i>cross</b>nested</i>tail",
      "<script>if (a < b) { x('<title>no</title>'); }</script><p>shown</p>",
      "<STYLE>p { x: y }</STYLE><p>styled</p>",
      "<script/>after self-closed raw tag",
      "<script>never closed <p>",
      "<!-- <title>hidden</title> --><p>c</p><!-- unterminated",
      "<title/><card title=\"fallback ignored\"><p>x</p></card>",
      "<title>  \n padded\t </title>",
      "<card title=\"First\"><p>one</p></card><title>Late</title>",
      "<card title=\"C1\"><p>one</p></card><card title=\"C2\"><p>two</p>"
      "</card><card><p>three</p></card>",
      "<card><p>untitled</p></card><card title=\"Second\"></card>",
      "<wml><card id=\"main\" title=\"Deck\"><p>a<br/>b</p>"
      "<p><a href=\"/x\">link</a></p></card></wml>",
      "<img src=a alt=\"x\"><br><input name=q><p>void elements</p>",
      "<p a='x>y' b=\"<\">quoted gt</p>",
      "   \n\t  ",
      "<",
      "<p",
      "<>",
      "< p>space</p>",
      "<?xml version=\"1.0\"?><!DOCTYPE wml><wml><card><p>x</p></card></wml>",
      "text <TITLE>Mixed</title> more",
  };
  for (const char* src : cases) expect_scan_matches_tree(src);
}

// Random tag soup: a token stream (not a well-formed tree) of start/end
// tags in mixed case, stray and mismatched end tags, comments, raw-text
// elements, self-closing and void tags, titles, cards and text.
std::string random_soup(sim::Rng& rng) {
  static const char* kNames[] = {"p",     "b",     "card",   "title",
                                 "TITLE", "Card",  "script", "style",
                                 "br",    "img",   "a",      "wml",
                                 "div",   "I",     "td",     "x-y"};
  static const char* kTexts[] = {"a",     " ",      "word ", "\n",
                                 "two w", "<",      ">",     "a=b",
                                 "  pad ", "x</p>y", "&amp;", "\t\t"};
  std::string out;
  const int n = static_cast<int>(rng.uniform_int(0, 24));
  for (int i = 0; i < n; ++i) {
    const char* name = kNames[rng.uniform_int(0, std::size(kNames) - 1)];
    switch (rng.uniform_int(0, 7)) {
      case 0:
      case 1:
        out += sim::strf("<%s>", name);
        break;
      case 2:
        out += sim::strf("<%s title=\"t%d\" id=x>", name,
                         static_cast<int>(rng.uniform_int(0, 9)));
        break;
      case 3:
        out += sim::strf("</%s>", name);
        break;
      case 4:
        out += sim::strf("<%s/>", name);
        break;
      case 5:
        out += rng.bernoulli(0.5) ? "<!-- c -->" : "<!x>";
        break;
      default:
        out += kTexts[rng.uniform_int(0, std::size(kTexts) - 1)];
        break;
    }
  }
  return out;
}

class ScanRandomSoup : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScanRandomSoup, MatchesTreeParser) {
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 200; ++round) {
    expect_scan_matches_tree(random_soup(rng));
  }
}

TEST_P(ScanRandomSoup, MatchesTreeParserOnRandomTrees) {
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 25; ++round) {
    MarkupDocument doc;
    const int tops = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < tops; ++i) {
      doc.root.children.push_back(random_node(rng, 4));
    }
    expect_scan_matches_tree(doc.serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanRandomSoup,
                         ::testing::Values(401, 402, 403, 404));

TEST(ScanMarkup, BuffersAreClearedAndReused) {
  std::string title;
  std::string text;
  EXPECT_EQ(scan_markup("<title>Long title here</title><p>body text</p>",
                        title, text),
            2u);
  EXPECT_EQ(title, "Long title here");
  EXPECT_EQ(text, "Long title herebody text");
  EXPECT_EQ(scan_markup("<p>x</p>", title, text), 1u);
  EXPECT_EQ(title, "");
  EXPECT_EQ(text, "x");
}

// --- PageMemo: the gateways' and the station's page memo -------------------

struct MemoPage {
  std::string text;
  std::string wbxml;
  std::size_t bytes() const { return text.capacity() + wbxml.capacity(); }
};

// A memo whose fill translates to WML + WBXML and counts its calls.
struct CountingMemo {
  CountingMemo(std::size_t entries, std::size_t bytes) : memo{entries, bytes} {}
  const MemoPage& get(std::string_view html, std::uint8_t tag = 0) {
    return memo.get(html, tag, [this](std::string_view in, MemoPage& p) {
      ++fills;
      translate_html(in, MarkupKind::kWml, AdaptationConfig{}, p.text,
                     &p.wbxml);
    });
  }
  PageMemo<MemoPage> memo;
  int fills = 0;
};

void expect_translation(const MemoPage& got, const std::string& src) {
  std::string text;
  std::string wbxml;
  translate_html(src, MarkupKind::kWml, AdaptationConfig{}, text, &wbxml);
  EXPECT_EQ(got.text, text) << "src: " << src;
  EXPECT_EQ(got.wbxml, wbxml) << "src: " << src;
}

TEST(PageMemo, FirstAndRepeatedLookupsMatchTranslationOverCorpus) {
  // Four entries over the whole corpus, three passes: every lookup after the
  // first pass either hits or recomputes an evicted page, and both must
  // equal a fresh translation.
  CountingMemo m{4, kGatewayMemoBytes};
  for (int pass = 0; pass < 3; ++pass) {
    for (const char* src : kCorpus) expect_translation(m.get(src), src);
  }
  EXPECT_LE(m.memo.size(), 4u);
  // Back-to-back repeats of one page translate it once.
  const int before = m.fills;
  for (int i = 0; i < 5; ++i) expect_translation(m.get(kCorpus[3]), kCorpus[3]);
  EXPECT_LE(m.fills - before, 1);
}

TEST(PageMemo, RandomDocumentsMatchTranslationOnHitAndMiss) {
  sim::Rng rng{311};
  std::vector<std::string> docs;
  for (int i = 0; i < 12; ++i) {
    MarkupDocument doc;
    doc.kind = MarkupKind::kHtml;
    doc.root.children.push_back(random_node(rng, 4));
    docs.push_back(doc.serialize());
  }
  CountingMemo m{kGatewayMemoEntries, kGatewayMemoBytes};
  for (int round = 0; round < 60; ++round) {
    const std::string& src = docs[rng.uniform_int(0, docs.size() - 1)];
    expect_translation(m.get(src), src);
  }
  EXPECT_LE(m.fills, static_cast<int>(docs.size()));
}

TEST(PageMemo, EqualLengthInputsDifferingInOneByteAreDistinct) {
  const std::string a = "<p>item A</p>";
  const std::string b = "<p>item B</p>";
  ASSERT_EQ(a.size(), b.size());
  CountingMemo m{kGatewayMemoEntries, kGatewayMemoBytes};
  for (int i = 0; i < 3; ++i) {
    expect_translation(m.get(a), a);
    expect_translation(m.get(b), b);
  }
  EXPECT_EQ(m.fills, 2);
  EXPECT_NE(m.get(a).text, m.get(b).text);
}

TEST(PageMemo, HashCollisionsNeverReturnAnotherInputsOutput) {
  // Every input hashes alike, so only the byte comparison tells them apart.
  struct CollidingHash {
    std::size_t operator()(std::string_view) const { return 42; }
  };
  PageMemo<MemoPage, CollidingHash> memo{4, kGatewayMemoBytes};
  auto fill = [](std::string_view in, MemoPage& p) {
    translate_html(in, MarkupKind::kWml, AdaptationConfig{}, p.text,
                   &p.wbxml);
  };
  const std::string a = "<p>item A</p>";
  const std::string b = "<p>item B</p>";
  for (int pass = 0; pass < 3; ++pass) {
    expect_translation(memo.get(a, 0, fill), a);
    expect_translation(memo.get(b, 0, fill), b);
    for (const char* src : kCorpus) {
      expect_translation(memo.get(src, 0, fill), src);
    }
  }
}

TEST(PageMemo, TagIsPartOfTheKey) {
  PageMemo<MemoPage> memo{kStationMemoEntries, kStationMemoBytes};
  auto fill_with = [](const char* out) {
    return [out](std::string_view, MemoPage& p) { p.text = out; };
  };
  EXPECT_EQ(memo.get("same bytes", 0, fill_with("plain")).text, "plain");
  EXPECT_EQ(memo.get("same bytes", 1, fill_with("binary")).text, "binary");
  EXPECT_EQ(memo.get("same bytes", 0, fill_with("refilled")).text, "plain");
  EXPECT_EQ(memo.size(), 2u);
}

TEST(PageMemo, OldestPageIsRecomputedAfterCapacityIsExceeded) {
  CountingMemo m{kGatewayMemoEntries, kGatewayMemoBytes};
  std::vector<std::string> pages;
  for (std::size_t i = 0; i <= kGatewayMemoEntries; ++i) {
    pages.push_back(sim::strf("<html><body><p>page %zu</p></body></html>", i));
  }
  for (const auto& p : pages) expect_translation(m.get(p), p);
  EXPECT_EQ(m.memo.size(), kGatewayMemoEntries);
  EXPECT_EQ(m.fills, static_cast<int>(pages.size()));
  // Page 0 was the least recently used: it was evicted and is recomputed.
  expect_translation(m.get(pages[0]), pages[0]);
  EXPECT_EQ(m.fills, static_cast<int>(pages.size()) + 1);
  // The newest page survived the eviction.
  expect_translation(m.get(pages.back()), pages.back());
  EXPECT_EQ(m.fills, static_cast<int>(pages.size()) + 1);
}

TEST(PageMemo, HitsRefreshRecencySoTheColdestEntryIsEvicted) {
  CountingMemo m{2, kGatewayMemoBytes};
  m.get(kCorpus[0]);
  m.get(kCorpus[1]);
  m.get(kCorpus[0]);  // corpus[1] is now the least recently used
  m.get(kCorpus[2]);  // evicts corpus[1]
  const int before = m.fills;
  m.get(kCorpus[0]);
  EXPECT_EQ(m.fills, before);
  m.get(kCorpus[1]);
  EXPECT_EQ(m.fills, before + 1);
}

TEST(PageMemo, HeapBytesStayWithinTheByteBound) {
  constexpr std::size_t kBound = 4096;
  CountingMemo m{kGatewayMemoEntries, kBound};
  sim::Rng rng{977};
  for (int i = 0; i < 200; ++i) {
    std::string src = sim::strf("<p>doc %d</p>", i);
    src.append(static_cast<std::size_t>(rng.uniform_int(0, 600)), 'x');
    expect_translation(m.get(src), src);
    EXPECT_LE(m.memo.bytes(), kBound) << "after " << i;
  }
  EXPECT_LT(m.memo.size(), kGatewayMemoEntries);
  // An entry larger than the whole bound is still served, alone.
  const std::string huge = "<p>" + std::string(3 * kBound, 'y') + "</p>";
  expect_translation(m.get(huge), huge);
  EXPECT_EQ(m.memo.size(), 1u);
  expect_translation(m.get(kCorpus[0]), kCorpus[0]);
  EXPECT_LE(m.memo.bytes(), kBound);
}

TEST(PageMemo, StartsEmptyAndGrowsOnMisses) {
  CountingMemo m{kGatewayMemoEntries, kGatewayMemoBytes};
  EXPECT_EQ(m.memo.size(), 0u);
  EXPECT_EQ(m.memo.bytes(), 0u);
  m.get(kCorpus[0]);
  m.get(kCorpus[0]);
  EXPECT_EQ(m.memo.size(), 1u);
  EXPECT_GT(m.memo.bytes(), 0u);
}

// --- wbxml_to_text: the station's streaming decoder ------------------------
// Differential against wbxml_decode()->serialize(): the same accept/reject
// decision and, on accept, the same bytes.

std::string hex(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    out += sim::strf("%02x", static_cast<unsigned char>(c));
  }
  return out;
}

void expect_text_decode_matches_tree(const std::string& bytes) {
  const std::optional<MarkupDocument> tree = wbxml_decode(bytes);
  std::string text;
  const bool ok = wbxml_to_text(bytes, text);
  ASSERT_EQ(ok, tree.has_value())
      << "accept/reject differs on " << hex(bytes);
  if (ok) {
    EXPECT_EQ(text, tree->serialize()) << "bytes: " << hex(bytes);
  }
}

// Every prefix and every single-byte corruption (all 256 values at every
// position) of a valid deck.
void expect_text_decode_matches_tree_around(const std::string& bytes) {
  expect_text_decode_matches_tree(bytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    expect_text_decode_matches_tree(bytes.substr(0, cut));
  }
  std::string corrupt = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int v = 0; v < 256; ++v) {
      corrupt[i] = static_cast<char>(v);
      expect_text_decode_matches_tree(corrupt);
    }
    corrupt[i] = bytes[i];
  }
}

TEST_P(TranslateCorpus, WbxmlToTextMatchesTreeDecoder) {
  const AdaptationConfig cfg;
  std::string text;
  std::string wbxml;
  translate_html(kCorpus[GetParam()], MarkupKind::kWml, cfg, text, &wbxml);
  expect_text_decode_matches_tree_around(wbxml);
  // The decoded deck is the page the station renders.
  std::string decoded;
  ASSERT_TRUE(wbxml_to_text(wbxml, decoded));
  EXPECT_EQ(decoded, text);
}

TEST(WbxmlToText, LiteralTagsAndStringTableMatchTreeDecoder) {
  // Tags and attributes outside the WML 1.1 code page go through LITERAL
  // tokens backed by the string table; "hr" and "col" are literal void
  // elements, "weird" a literal container.
  MarkupDocument doc;
  doc.kind = MarkupKind::kWml;
  MarkupNode card = MarkupNode::element("card");
  card.set_attr("title", "T");
  card.set_attr("customattr", "v v");
  MarkupNode weird = MarkupNode::element("weird");
  weird.set_attr("data-x", "");
  weird.children.push_back(MarkupNode::text_node("inside"));
  weird.children.push_back(MarkupNode::element("hr"));
  card.children.push_back(std::move(weird));
  card.children.push_back(MarkupNode::element("col"));
  card.children.push_back(MarkupNode::element("br"));
  MarkupNode empty_p = MarkupNode::element("p");
  card.children.push_back(std::move(empty_p));
  MarkupNode wml = MarkupNode::element("wml");
  wml.children.push_back(std::move(card));
  doc.root.children.push_back(std::move(wml));
  doc.root.children.push_back(MarkupNode::text_node("top-level text"));
  const std::string bytes = wbxml_encode(doc);
  ASSERT_NE(static_cast<unsigned char>(bytes[3]), 0u)
      << "the deck must carry a string table";
  std::string text;
  ASSERT_TRUE(wbxml_to_text(bytes, text));
  EXPECT_EQ(text, doc.serialize());
  expect_text_decode_matches_tree_around(bytes);
}

TEST(WbxmlToText, HandBuiltEdgeCasesMatchTreeDecoder) {
  const std::string hdr("\x03\x04\x6A", 3);
  const std::string cases[] = {
      // Empty body; string table only; text with no closing NUL.
      hdr + std::string("\x00", 1),
      hdr + std::string("\x02" "a\x00", 3),
      hdr + std::string("\x00\x03" "abc", 5),
      // LITERAL tag at an offset past the table: the tree decoder keeps an
      // element with an empty tag, which serializes to nothing, children
      // and attributes included.
      hdr + std::string("\x02" "x\x00" "\xC4\x09\x04\x00\x03" "v\x00\x01"
                        "\x03" "kid\x00\x01\x03" "after\x00", 23),
      // LITERAL name with no terminating NUL in the table.
      hdr + std::string("\x02" "ab" "\x04\x00", 5),
      // Content flag with no children: "<p></p>" and "<br/>".
      hdr + std::string("\x00\x60\x01\x66\x01", 5),
      // Attribute without a value, duplicate attributes.
      hdr + std::string("\x00\xA0\x55\x55\x03" "v\x00\x01", 8),
      // Multi-byte string-table length, then truncated mb integers.
      hdr + std::string("\x81\x00", 2),
      std::string("\x03\x84", 2) + std::string("\x80\x80", 2),
      hdr + std::string("\x00\x04\x80", 3),
      hdr + std::string("\x00\x84\x80", 3),
      // Unknown global tokens and attribute tokens.
      hdr + std::string("\x00\x01", 2),
      hdr + std::string("\x00\x43", 2),
      hdr + std::string("\x00\xA0\x03\x01", 4),
      hdr + std::string("\x00\xA0\x85\x01", 4),
  };
  for (const std::string& bytes : cases) expect_text_decode_matches_tree(bytes);
}

TEST_P(TranslateRandomDocs, WbxmlToTextMatchesTreeDecoderOnRandomDecks) {
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    MarkupDocument doc;
    doc.kind = MarkupKind::kWml;
    const int tops = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < tops; ++i) {
      doc.root.children.push_back(random_node(rng, 4));
    }
    const std::string bytes = wbxml_encode(doc);
    expect_text_decode_matches_tree(bytes);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      expect_text_decode_matches_tree(bytes.substr(0, cut));
    }
    std::string junk = bytes;
    for (int flips = 0; flips < 50; ++flips) {
      junk[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(junk.size()) - 1))] =
          static_cast<char>(rng.uniform_int(0, 255));
      expect_text_decode_matches_tree(junk);
    }
  }
}

// The WML 1.1 code pages, written out here independently of wbxml.cpp's
// tables: every name maps to its token, every token back to its name, and no
// other byte has a name.
struct CodePageEntry {
  const char* name;
  std::uint8_t token;
};

constexpr CodePageEntry kWmlTags[] = {
    {"a", 0x1C},        {"td", 0x1D},       {"tr", 0x1E},
    {"table", 0x1F},    {"p", 0x20},        {"postfield", 0x21},
    {"anchor", 0x22},   {"access", 0x23},   {"b", 0x24},
    {"big", 0x25},      {"br", 0x26},       {"card", 0x27},
    {"do", 0x28},       {"em", 0x29},       {"fieldset", 0x2A},
    {"go", 0x2B},       {"head", 0x2C},     {"i", 0x2D},
    {"img", 0x2E},      {"input", 0x2F},    {"meta", 0x30},
    {"noop", 0x31},     {"prev", 0x32},     {"onevent", 0x33},
    {"optgroup", 0x34}, {"option", 0x35},   {"refresh", 0x36},
    {"select", 0x37},   {"small", 0x38},    {"strong", 0x39},
    {"template", 0x3B}, {"timer", 0x3C},    {"u", 0x3D},
    {"setvar", 0x3E},   {"wml", 0x3F},
};

constexpr CodePageEntry kWmlAttrs[] = {
    {"accept-charset", 0x05}, {"alt", 0x0C},      {"domain", 0x0F},
    {"emptyok", 0x10},        {"format", 0x12},   {"height", 0x13},
    {"label", 0x18},          {"maxlength", 0x1A}, {"method", 0x1B},
    {"mode", 0x1C},           {"multiple", 0x1D}, {"name", 0x1E},
    {"optional", 0x21},       {"path", 0x22},     {"src", 0x32},
    {"title", 0x36},          {"type", 0x37},     {"value", 0x39},
    {"width", 0x3E},          {"href", 0x4A},     {"align", 0x52},
    {"columns", 0x53},        {"class", 0x54},    {"id", 0x55},
};

TEST(WmlCodePage, EveryTagMapsToItsTokenAndBack) {
  std::size_t named = 0;
  for (int v = 0; v < 256; ++v) {
    named += wml_tag_name(static_cast<std::uint8_t>(v)).empty() ? 0 : 1;
  }
  EXPECT_EQ(named, std::size(kWmlTags));
  for (const CodePageEntry& e : kWmlTags) {
    EXPECT_EQ(wml_tag_token(e.name), e.token) << e.name;
    EXPECT_EQ(wml_tag_name(e.token), e.name) << e.name;
  }
}

TEST(WmlCodePage, EveryAttributeMapsToItsTokenAndBack) {
  std::size_t named = 0;
  for (int v = 0; v < 256; ++v) {
    named += wml_attr_name(static_cast<std::uint8_t>(v)).empty() ? 0 : 1;
  }
  EXPECT_EQ(named, std::size(kWmlAttrs));
  for (const CodePageEntry& e : kWmlAttrs) {
    EXPECT_EQ(wml_attr_token(e.name), e.token) << e.name;
    EXPECT_EQ(wml_attr_name(e.token), e.name) << e.name;
  }
}

TEST(WmlCodePage, LookupIsExactAndCaseSensitive) {
  const char* not_tags[] = {"",      "tabl", "tables", "A",    "TABLE",
                            "Table", "ta",   "t",      "wmlx", " a",
                            "a ",    "x",    "href",   "\xff"};
  for (const char* name : not_tags) EXPECT_EQ(wml_tag_token(name), 0) << name;
  EXPECT_EQ(wml_tag_token(std::string_view{"a\0", 2}), 0);
  const char* not_attrs[] = {"",     "hre", "hrefs", "HREF", "Href",
                             "id ",  "i",   "accept", "accept-charsets",
                             "card", "nam", "names"};
  for (const char* name : not_attrs) {
    EXPECT_EQ(wml_attr_token(name), 0) << name;
  }
}

}  // namespace
}  // namespace mcs::middleware

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcs::middleware {

// The three markup languages of the paper's middleware layer (Table 3):
// HTML served by origin web servers, WML produced by the WAP gateway,
// cHTML (Compact HTML) served through i-mode.
enum class MarkupKind { kHtml, kWml, kChtml };

const char* markup_kind_name(MarkupKind k);

// Elements that serialize as "<tag/>" when they have no children (and never
// push onto the parser's open-element stack).
inline bool is_void_tag(std::string_view tag) {
  return tag == "br" || tag == "img" || tag == "hr" || tag == "input" ||
         tag == "meta" || tag == "link" || tag == "base" || tag == "area" ||
         tag == "col";
}

// One node of a parsed document: an element (tag + attrs + children) or a
// text node (tag empty, text set).
struct MarkupNode {
  std::string tag;   // lowercase; empty for text nodes
  std::string text;  // text nodes only
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<MarkupNode> children;

  bool is_text() const { return tag.empty(); }
  const std::string* attr(const std::string& name) const;
  void set_attr(const std::string& name, const std::string& value);

  // First element with this tag in document order (self included).
  const MarkupNode* find(const std::string& tag_name) const;
  // Concatenated text of all descendant text nodes. The _into form appends
  // to a caller-owned buffer so recursion over a subtree costs at most one
  // allocation for the whole result.
  std::string inner_text() const;
  void inner_text_into(std::string& out) const;
  // Total number of element nodes (self included if an element).
  std::size_t element_count() const;

  static MarkupNode element(std::string tag_name) {
    MarkupNode n;
    n.tag = std::move(tag_name);
    return n;
  }
  static MarkupNode text_node(std::string content) {
    MarkupNode n;
    n.text = std::move(content);
    return n;
  }
};

struct MarkupDocument {
  MarkupKind kind = MarkupKind::kHtml;
  MarkupNode root;  // synthetic container; children are top-level elements

  std::string serialize() const;
  const MarkupNode* find(const std::string& tag) const {
    return root.find(tag);
  }
  std::string title() const;
};

// Lenient tag-soup parser: handles attributes (quoted and bare), self-closing
// and void elements, comments, doctypes, and raw-text elements
// (script/style). Mismatched end tags close the nearest matching ancestor.
MarkupDocument parse_markup(const std::string& source, MarkupKind kind);

// --- Gateway translations (§5.1) -------------------------------------------
// WAP gateway: "responses are sent from the Web server ... in HTML and are
// then translated in WML and sent to the mobile stations."
MarkupDocument html_to_wml(const MarkupDocument& html);
// i-mode serves Compact HTML: HTML with scripts/styles/tables/frames
// removed and structure simplified.
MarkupDocument html_to_chtml(const MarkupDocument& html);

}  // namespace mcs::middleware

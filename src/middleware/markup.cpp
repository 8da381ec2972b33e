#include "middleware/markup.h"


#include "sim/arena.h"
#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::middleware {

namespace {

bool is_raw_text_tag(const std::string& tag) {
  return tag == "script" || tag == "style";
}

}  // namespace

const char* markup_kind_name(MarkupKind k) {
  switch (k) {
    case MarkupKind::kHtml: return "html";
    case MarkupKind::kWml: return "wml";
    case MarkupKind::kChtml: return "chtml";
  }
  return "?";
}

const std::string* MarkupNode::attr(const std::string& name) const {
  for (const auto& [k, v] : attrs) {
    if (k == name) return &v;
  }
  return nullptr;
}

void MarkupNode::set_attr(const std::string& name, const std::string& value) {
  MCS_ASSERT(!name.empty(),
             "attributes are keyed by name; an unnamed attribute could "
             "never be read back or serialized");
  for (auto& [k, v] : attrs) {
    if (k == name) {
      v = value;
      return;
    }
  }
  attrs.emplace_back(name, value);
}

const MarkupNode* MarkupNode::find(const std::string& tag_name) const {
  if (tag == tag_name) return this;
  for (const auto& c : children) {
    if (const MarkupNode* hit = c.find(tag_name); hit != nullptr) return hit;
  }
  return nullptr;
}

std::string MarkupNode::inner_text() const {
  return sim::build(text.size() + 16,
                    [&](std::string& out) { inner_text_into(out); });
}

void MarkupNode::inner_text_into(std::string& out) const {
  // `text` is empty on elements; the synthetic root (empty tag, children)
  // must recurse like an element, so no is_text() shortcut here.
  out += text;
  for (const auto& c : children) c.inner_text_into(out);
}

std::size_t MarkupNode::element_count() const {
  std::size_t n = is_text() ? 0 : 1;
  for (const auto& c : children) n += c.element_count();
  return n;
}

namespace {

void serialize_node(const MarkupNode& n, std::string& out) {
  if (n.is_text()) {
    out += n.text;
    return;
  }
  out += '<' + n.tag;
  for (const auto& [k, v] : n.attrs) {
    out += ' ' + k + "=\"" + v + "\"";
  }
  if (n.children.empty() && is_void_tag(n.tag)) {
    out += "/>";
    return;
  }
  out += '>';
  for (const auto& c : n.children) serialize_node(c, out);
  out += "</" + n.tag + ">";
}

}  // namespace

std::string MarkupDocument::serialize() const {
  return sim::build(256, [&](std::string& out) {
    for (const auto& c : root.children) serialize_node(c, out);
  });
}

std::string MarkupDocument::title() const {
  const MarkupNode* t = root.find("title");
  if (t != nullptr) return sim::cat(sim::trim_view(t->inner_text()));
  // WML keeps the title on the card element.
  const MarkupNode* card = root.find("card");
  if (card != nullptr) {
    if (const std::string* v = card->attr("title"); v != nullptr) return *v;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& src) : src_{src} {}

  MarkupNode parse() {
    MarkupNode root;
    stack_.push_back(&root);
    while (pos_ < src_.size()) {
      if (src_[pos_] == '<') {
        parse_tag();
      } else {
        parse_text();
      }
    }
    return root;
  }

 private:
  MarkupNode* top() { return stack_.back(); }

  void parse_text() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() && src_[pos_] != '<') ++pos_;
    std::string t = src_.substr(start, pos_ - start);
    // Collapse pure-whitespace runs between tags; keep meaningful text.
    if (sim::trim_view(t).empty()) return;
    top()->children.push_back(MarkupNode::text_node(std::move(t)));
  }

  void parse_tag() {
    // pos_ at '<'
    if (src_.compare(pos_, 4, "<!--") == 0) {
      const std::size_t end = src_.find("-->", pos_);
      pos_ = end == std::string::npos ? src_.size() : end + 3;
      return;
    }
    if (pos_ + 1 < src_.size() && (src_[pos_ + 1] == '!' || src_[pos_ + 1] == '?')) {
      const std::size_t end = src_.find('>', pos_);
      pos_ = end == std::string::npos ? src_.size() : end + 1;
      return;
    }
    if (pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
      // End tag.
      const std::size_t end = src_.find('>', pos_);
      std::string name = sim::to_lower(
          sim::trim(src_.substr(pos_ + 2, end - pos_ - 2)));
      pos_ = end == std::string::npos ? src_.size() : end + 1;
      close_tag(name);
      return;
    }
    // Start tag.
    const std::size_t end = find_tag_end(pos_);
    if (end == std::string::npos) {
      pos_ = src_.size();
      return;
    }
    std::string inside = src_.substr(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    bool self_closing = false;
    if (!inside.empty() && inside.back() == '/') {
      self_closing = true;
      inside.pop_back();
    }
    MarkupNode node;
    std::size_t i = 0;
    while (i < inside.size() && !sim::is_ascii_space(inside[i])) ++i;
    node.tag = sim::to_lower(inside.substr(0, i));
    if (node.tag.empty()) return;
    parse_attrs(inside.substr(i), node);

    if (is_raw_text_tag(node.tag) && !self_closing) {
      // Swallow raw content up to the matching close tag.
      const std::string close = "</" + node.tag;
      std::size_t raw_end = src_.find(close, pos_);
      if (raw_end == std::string::npos) raw_end = src_.size();
      std::string raw = src_.substr(pos_, raw_end - pos_);
      if (!raw.empty()) {
        node.children.push_back(MarkupNode::text_node(std::move(raw)));
      }
      const std::size_t gt = src_.find('>', raw_end);
      pos_ = gt == std::string::npos ? src_.size() : gt + 1;
      top()->children.push_back(std::move(node));
      return;
    }

    top()->children.push_back(std::move(node));
    if (!self_closing && !is_void_tag(top()->children.back().tag)) {
      stack_.push_back(&top()->children.back());
    }
  }

  // '>' that terminates the tag, respecting quoted attribute values.
  std::size_t find_tag_end(std::size_t start) const {
    char quote = 0;
    for (std::size_t i = start + 1; i < src_.size(); ++i) {
      const char c = src_[i];
      if (quote != 0) {
        if (c == quote) quote = 0;
      } else if (c == '"' || c == '\'') {
        quote = c;
      } else if (c == '>') {
        return i;
      }
    }
    return std::string::npos;
  }

  void parse_attrs(const std::string& s, MarkupNode& node) {
    std::size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
      if (i >= s.size()) break;
      const std::size_t name_start = i;
      while (i < s.size() && s[i] != '=' && s[i] != ' ' && s[i] != '\t' &&
             s[i] != '\n') {
        ++i;
      }
      std::string name = sim::to_lower(s.substr(name_start, i - name_start));
      std::string value;
      while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
      if (i < s.size() && s[i] == '=') {
        ++i;
        while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
        if (i < s.size() && (s[i] == '"' || s[i] == '\'')) {
          const char q = s[i++];
          const std::size_t vstart = i;
          while (i < s.size() && s[i] != q) ++i;
          value = s.substr(vstart, i - vstart);
          if (i < s.size()) ++i;
        } else {
          const std::size_t vstart = i;
          while (i < s.size() && !sim::is_ascii_space(s[i])) ++i;
          value = s.substr(vstart, i - vstart);
        }
      }
      if (!name.empty()) node.attrs.emplace_back(std::move(name), std::move(value));
    }
  }

  void close_tag(const std::string& name) {
    // Find the nearest open ancestor with this tag; unwind to it. If none,
    // ignore the stray end tag (tag-soup tolerance).
    for (std::size_t i = stack_.size(); i-- > 1;) {
      if (stack_[i]->tag == name) {
        stack_.resize(i);
        return;
      }
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::vector<MarkupNode*> stack_;
};

}  // namespace

MarkupDocument parse_markup(const std::string& source, MarkupKind kind) {
  MarkupDocument doc;
  doc.kind = kind;
  doc.root = Parser{source}.parse();
  return doc;
}

// ---------------------------------------------------------------------------
// Translations
// ---------------------------------------------------------------------------

namespace {

// Shared recursive body translation. `wml` selects WML output conventions
// (true) or cHTML (false).
void translate_children(const MarkupNode& from, MarkupNode& to, bool wml);

void translate_node(const MarkupNode& n, MarkupNode& out, bool wml) {
  if (n.is_text()) {
    out.children.push_back(MarkupNode::text_node(n.text));
    return;
  }
  const std::string& t = n.tag;
  if (t == "script" || t == "style" || t == "head" || t == "title" ||
      t == "meta" || t == "link" || t == "iframe" || t == "frameset" ||
      t == "object" || t == "applet") {
    return;  // not representable on the handset
  }
  if (t == "p" || t == "div" || t == "section" || t == "article" ||
      t == "blockquote" || t == "center") {
    MarkupNode p = MarkupNode::element("p");
    translate_children(n, p, wml);
    if (!p.children.empty()) out.children.push_back(std::move(p));
    return;
  }
  if (t.size() == 2 && t[0] == 'h' && t[1] >= '1' && t[1] <= '6') {
    // Headings become emphasized paragraphs.
    MarkupNode p = MarkupNode::element("p");
    MarkupNode b = MarkupNode::element("b");
    translate_children(n, b, wml);
    p.children.push_back(std::move(b));
    out.children.push_back(std::move(p));
    return;
  }
  if (t == "a") {
    MarkupNode a = MarkupNode::element("a");
    if (const std::string* href = n.attr("href"); href != nullptr) {
      a.set_attr("href", *href);
    }
    translate_children(n, a, wml);
    out.children.push_back(std::move(a));
    return;
  }
  if (t == "b" || t == "strong") {
    MarkupNode b = MarkupNode::element("b");
    translate_children(n, b, wml);
    out.children.push_back(std::move(b));
    return;
  }
  if (t == "i" || t == "em") {
    MarkupNode i = MarkupNode::element("i");
    translate_children(n, i, wml);
    out.children.push_back(std::move(i));
    return;
  }
  if (t == "u") {
    MarkupNode u = MarkupNode::element("u");
    translate_children(n, u, wml);
    out.children.push_back(std::move(u));
    return;
  }
  if (t == "br") {
    out.children.push_back(MarkupNode::element("br"));
    return;
  }
  if (t == "img") {
    if (wml) {
      // WML decks drop images; keep the alt text so nothing is lost.
      if (const std::string* alt = n.attr("alt");
          alt != nullptr && !alt->empty()) {
        out.children.push_back(MarkupNode::text_node("[" + *alt + "]"));
      }
    } else {
      // cHTML supports inline images.
      MarkupNode img = MarkupNode::element("img");
      if (const std::string* src = n.attr("src")) img.set_attr("src", *src);
      if (const std::string* alt = n.attr("alt")) img.set_attr("alt", *alt);
      out.children.push_back(std::move(img));
    }
    return;
  }
  if (t == "table") {
    // Linearize: one paragraph per row, cells joined with separators.
    for (const auto& section : n.children) {
      const auto handle_row = [&](const MarkupNode& row) {
        if (row.tag != "tr") return;
        MarkupNode p = MarkupNode::element("p");
        std::string line;
        for (const auto& cell : row.children) {
          if (cell.tag != "td" && cell.tag != "th") continue;
          const std::string text = sim::trim(cell.inner_text());
          if (text.empty()) continue;
          if (!line.empty()) line += " | ";
          line += text;
        }
        if (!line.empty()) {
          p.children.push_back(MarkupNode::text_node(std::move(line)));
          out.children.push_back(std::move(p));
        }
      };
      if (section.tag == "tr") {
        handle_row(section);
      } else {  // thead/tbody/tfoot
        for (const auto& row : section.children) handle_row(row);
      }
    }
    return;
  }
  if (t == "ul" || t == "ol") {
    int index = 1;
    for (const auto& li : n.children) {
      if (li.tag != "li") continue;
      MarkupNode p = MarkupNode::element("p");
      const std::string bullet =
          t == "ol" ? sim::strf("%d. ", index++) : std::string{"- "};
      p.children.push_back(MarkupNode::text_node(bullet));
      translate_children(li, p, wml);
      out.children.push_back(std::move(p));
    }
    return;
  }
  if (t == "input") {
    MarkupNode input = MarkupNode::element("input");
    if (const std::string* name = n.attr("name")) input.set_attr("name", *name);
    if (const std::string* type = n.attr("type")) input.set_attr("type", *type);
    if (const std::string* value = n.attr("value")) {
      input.set_attr("value", *value);
    }
    out.children.push_back(std::move(input));
    return;
  }
  if (t == "select" || t == "option") {
    MarkupNode copy = MarkupNode::element(t);
    if (const std::string* name = n.attr("name")) copy.set_attr("name", *name);
    if (const std::string* value = n.attr("value")) {
      copy.set_attr("value", *value);
    }
    translate_children(n, copy, wml);
    out.children.push_back(std::move(copy));
    return;
  }
  if (t == "form") {
    // Forms flatten into their controls; submission becomes an anchor.
    MarkupNode p = MarkupNode::element("p");
    translate_children(n, p, wml);
    if (const std::string* action = n.attr("action"); action != nullptr) {
      MarkupNode a = MarkupNode::element("a");
      a.set_attr("href", *action);
      a.children.push_back(MarkupNode::text_node("[submit]"));
      p.children.push_back(std::move(a));
    }
    out.children.push_back(std::move(p));
    return;
  }
  // Unknown/structural tag (html, body, span, ...): unwrap.
  translate_children(n, out, wml);
}

void translate_children(const MarkupNode& from, MarkupNode& to, bool wml) {
  for (const auto& c : from.children) translate_node(c, to, wml);
}

// WML requires cards to contain only certain top-level elements; wrap any
// loose inline content in paragraphs.
void wrap_loose_inline(MarkupNode& card) {
  std::vector<MarkupNode> fixed;
  for (auto& c : card.children) {
    const bool block = c.tag == "p" || c.tag == "do" || c.tag == "template";
    if (block) {
      fixed.push_back(std::move(c));
    } else {
      if (fixed.empty() || fixed.back().tag != "p" ||
          fixed.back().attr("synthetic") == nullptr) {
        MarkupNode p = MarkupNode::element("p");
        p.set_attr("synthetic", "1");
        fixed.push_back(std::move(p));
      }
      fixed.back().children.push_back(std::move(c));
    }
  }
  // Strip the marker attribute.
  for (auto& c : fixed) {
    if (c.tag == "p" && c.attr("synthetic") != nullptr) {
      std::erase_if(c.attrs, [](const auto& kv) { return kv.first == "synthetic"; });
    }
  }
  card.children = std::move(fixed);
}

}  // namespace

MarkupDocument html_to_wml(const MarkupDocument& html) {
  MarkupDocument out;
  out.kind = MarkupKind::kWml;
  MarkupNode wml = MarkupNode::element("wml");
  MarkupNode card = MarkupNode::element("card");
  card.set_attr("id", "main");
  const std::string title = html.title();
  if (!title.empty()) card.set_attr("title", title);
  translate_children(html.root, card, /*wml=*/true);
  wrap_loose_inline(card);
  wml.children.push_back(std::move(card));
  out.root.children.push_back(std::move(wml));
  return out;
}

MarkupDocument html_to_chtml(const MarkupDocument& html) {
  MarkupDocument out;
  out.kind = MarkupKind::kChtml;
  MarkupNode root = MarkupNode::element("html");
  MarkupNode body = MarkupNode::element("body");
  translate_children(html.root, body, /*wml=*/false);
  root.children.push_back(std::move(body));
  out.root.children.push_back(std::move(root));
  return out;
}

}  // namespace mcs::middleware

// Fused zero-copy translation pipeline (DESIGN.md §12). The legacy pipeline
// materializes four owned trees/strings per response: parse_markup copies
// every tag/attr/text into MarkupNode strings, html_to_wml copies the tree,
// adapt_document copies it again, serialize()/wbxml_encode build the output.
// This file does the same work in one pass over arena-backed nodes whose
// tags, attributes, and text are slices into the HTML source; the only heap
// traffic left is the caller's reused output buffer and the recycled arena
// chunks, both amortized to zero across requests. scan_markup() reuses the
// same arena parser for the station's single read of a delivered page.
//
// Byte-exactness is the contract: every rule below is a line-for-line port
// of the corresponding legacy rule (markup.cpp / adaptation.cpp), and the
// translate equivalence tests assert identical output bytes and counters
// over the corpus and randomized documents. When touching either side,
// change both.

#include "middleware/translate.h"

#include <cstring>
#include <type_traits>

#include "middleware/wbxml.h"
#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::middleware {
namespace {

using sim::Arena;
using sim::BufWriter;
using sim::Slice;
using sim::is_ascii_space;
using sim::trim_view;

// Lowercased view: zero-copy when already lowercase (the common case for
// machine-generated HTML), arena copy otherwise.
Slice lower_slice(Arena& arena, Slice s) {
  bool has_upper = false;
  for (const char c : s) {
    if (c >= 'A' && c <= 'Z') {
      has_upper = true;
      break;
    }
  }
  if (!has_upper) return s;
  char* dst = arena.alloc_chars(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    dst[i] = sim::ascii_lower(s[i]);
  }
  return Slice{dst, s.size()};
}

// Arena-owned concatenation of up to three parts. Empty parts are skipped,
// not copied: an empty Slice{} has a null data() that memcpy must not see.
Slice arena_cat(Arena& arena, Slice a, Slice b, Slice c) {
  const std::size_t total = a.size() + b.size() + c.size();
  if (total == 0) return {};
  char* dst = arena.alloc_chars(total);
  char* p = dst;
  for (const Slice part : {a, b, c}) {
    if (part.empty()) continue;
    std::memcpy(p, part.data(), part.size());
    p += part.size();
  }
  return Slice{dst, total};
}

bool is_raw_text_tag(Slice tag) { return tag == "script" || tag == "style"; }

// ---------------------------------------------------------------------------
// Arena view tree: nodes and attributes are bump-allocated, children and
// attributes are intrusive singly-linked lists, every string is a Slice.

struct VAttr {
  Slice name;
  Slice value;
  VAttr* next = nullptr;
};

struct VNode {
  Slice tag;   // empty for text nodes (and the synthetic root)
  Slice text;  // text nodes only
  VAttr* attrs = nullptr;
  VAttr* attrs_tail = nullptr;
  VNode* first = nullptr;  // children
  VNode* last = nullptr;
  VNode* next = nullptr;  // sibling
  bool synthetic = false;  // wrap_loose marker (never serialized)

  bool is_text() const { return tag.empty(); }
};

static_assert(std::is_trivially_copyable_v<VNode> &&
                  std::is_trivially_copyable_v<VAttr>,
              "view nodes are raw-arena allocated; they must not need a "
              "constructor or destructor");

VNode* new_node(Arena& arena) {
  auto* n = static_cast<VNode*>(arena.allocate(sizeof(VNode), alignof(VNode)));
  *n = VNode{};
  return n;
}

VNode* new_text(Arena& arena, Slice t) {
  VNode* n = new_node(arena);
  n->text = t;
  return n;
}

VNode* new_element(Arena& arena, Slice tag) {
  VNode* n = new_node(arena);
  n->tag = tag;
  return n;
}

void add_child(VNode* parent, VNode* child) {
  if (parent->last != nullptr) {
    parent->last->next = child;
  } else {
    parent->first = child;
  }
  parent->last = child;
}

void add_attr(Arena& arena, VNode* n, Slice name, Slice value) {
  auto* a = static_cast<VAttr*>(arena.allocate(sizeof(VAttr), alignof(VAttr)));
  *a = VAttr{name, value, nullptr};
  if (n->attrs_tail != nullptr) {
    n->attrs_tail->next = a;
  } else {
    n->attrs = a;
  }
  n->attrs_tail = a;
}

const VAttr* find_attr(const VNode* n, Slice name) {
  for (const VAttr* a = n->attrs; a != nullptr; a = a->next) {
    if (a->name == name) return a;
  }
  return nullptr;
}

// First element with this tag in document order (self included), mirroring
// MarkupNode::find.
const VNode* find_first(const VNode* n, Slice tag) {
  if (n->tag == tag) return n;
  for (const VNode* c = n->first; c != nullptr; c = c->next) {
    if (const VNode* hit = find_first(c, tag); hit != nullptr) return hit;
  }
  return nullptr;
}

// Arena-backed growable pointer stack for the parser's open-element chain.
class NodeStack {
 public:
  explicit NodeStack(Arena& arena) : arena_{arena} {}

  void push(VNode* n) {
    if (size_ == cap_) grow();
    data_[size_++] = n;
  }
  void resize(std::size_t n) {
    MCS_ASSERT(n <= size_, "NodeStack::resize only shrinks");
    size_ = n;
  }
  VNode* back() const { return data_[size_ - 1]; }
  VNode* at(std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }

 private:
  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 16 : cap_ * 2;
    auto** fresh = static_cast<VNode**>(
        arena_.allocate(new_cap * sizeof(VNode*), alignof(VNode*)));
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(VNode*));
    data_ = fresh;
    cap_ = new_cap;
  }

  Arena& arena_;
  VNode** data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

// ---------------------------------------------------------------------------
// Parser: a slice-for-slice port of markup.cpp's Parser. Every branch and
// edge case (quote-aware tag ends, raw-text swallowing, stray end tags)
// matches the legacy behavior; only the storage differs.

class ViewParser {
 public:
  ViewParser(Slice src, Arena& arena)
      : src_{src}, arena_{arena}, stack_{arena} {}

  VNode* parse() {
    VNode* root = new_node(arena_);
    stack_.push(root);
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
  VNode* top() { return stack_.back(); }

  // src_[from, from+len) clamped to the source, like std::string::substr.
  Slice sub(std::size_t from, std::size_t len) const {
    if (from >= src_.size()) return {};
    const std::size_t n = std::min(len, src_.size() - from);
    return Slice{src_.data() + from, n};
  }

  void parse_text() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() && src_[pos_] != '<') ++pos_;
    const Slice t = sub(start, pos_ - start);
    // Collapse pure-whitespace runs between tags; keep meaningful text.
    if (trim_view(t).empty()) return;
    add_child(top(), new_text(arena_, t));
  }

  void parse_tag() {
    // pos_ at '<'
    if (pos_ + 3 < src_.size() && src_[pos_ + 1] == '!' &&
        src_[pos_ + 2] == '-' && src_[pos_ + 3] == '-') {
      const std::size_t end = src_.find("-->", pos_);
      pos_ = end == Slice::npos ? src_.size() : end + 3;
      return;
    }
    if (pos_ + 1 < src_.size() &&
        (src_[pos_ + 1] == '!' || src_[pos_ + 1] == '?')) {
      const std::size_t end = src_.find('>', pos_);
      pos_ = end == Slice::npos ? src_.size() : end + 1;
      return;
    }
    if (pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
      // End tag.
      const std::size_t end = src_.find('>', pos_);
      const Slice name =
          lower_slice(arena_, trim_view(sub(pos_ + 2, end - pos_ - 2)));
      pos_ = end == Slice::npos ? src_.size() : end + 1;
      close_tag(name);
      return;
    }
    // Start tag.
    const std::size_t end = find_tag_end(pos_);
    if (end == Slice::npos) {
      pos_ = src_.size();
      return;
    }
    Slice inside = sub(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    bool self_closing = false;
    if (!inside.empty() && inside.back() == '/') {
      self_closing = true;
      inside.remove_suffix(1);
    }
    std::size_t i = 0;
    while (i < inside.size() && !is_ascii_space(inside[i])) ++i;
    VNode* node = new_element(
        arena_, lower_slice(arena_, Slice{inside.data(), i}));
    if (node->tag.empty()) return;
    parse_attrs(Slice{inside.data() + i, inside.size() - i}, node);

    if (is_raw_text_tag(node->tag) && !self_closing) {
      // Swallow raw content up to the matching close tag. The legacy parser
      // searches for "</" + the lowercased tag, so only these two literals
      // can occur.
      const char* close = node->tag == "script" ? "</script" : "</style";
      std::size_t raw_end = src_.find(close, pos_);
      if (raw_end == Slice::npos) raw_end = src_.size();
      const Slice raw = sub(pos_, raw_end - pos_);
      if (!raw.empty()) add_child(node, new_text(arena_, raw));
      const std::size_t gt = src_.find('>', raw_end);
      pos_ = gt == Slice::npos ? src_.size() : gt + 1;
      add_child(top(), node);
      return;
    }

    add_child(top(), node);
    if (!self_closing && !is_void_tag(node->tag)) stack_.push(node);
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
    return Slice::npos;
  }

  void parse_attrs(Slice s, VNode* node) {
    std::size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && is_ascii_space(s[i])) ++i;
      if (i >= s.size()) break;
      const std::size_t name_start = i;
      while (i < s.size() && s[i] != '=' && s[i] != ' ' && s[i] != '\t' &&
             s[i] != '\n') {
        ++i;
      }
      const Slice name = lower_slice(
          arena_, Slice{s.data() + name_start, i - name_start});
      Slice value;
      while (i < s.size() && is_ascii_space(s[i])) ++i;
      if (i < s.size() && s[i] == '=') {
        ++i;
        while (i < s.size() && is_ascii_space(s[i])) ++i;
        if (i < s.size() && (s[i] == '"' || s[i] == '\'')) {
          const char q = s[i++];
          const std::size_t vstart = i;
          while (i < s.size() && s[i] != q) ++i;
          value = Slice{s.data() + vstart, i - vstart};
          if (i < s.size()) ++i;
        } else {
          const std::size_t vstart = i;
          while (i < s.size() && !is_ascii_space(s[i])) ++i;
          value = Slice{s.data() + vstart, i - vstart};
        }
      }
      if (!name.empty()) add_attr(arena_, node, name, value);
    }
  }

  void close_tag(Slice name) {
    // Find the nearest open ancestor with this tag; unwind to it. If none,
    // ignore the stray end tag (tag-soup tolerance).
    for (std::size_t i = stack_.size(); i-- > 1;) {
      if (stack_.at(i)->tag == name) {
        stack_.resize(i);
        return;
      }
    }
  }

  Slice src_;
  Arena& arena_;
  std::size_t pos_ = 0;
  NodeStack stack_;
};

// Concatenated text of all descendant text nodes, mirroring
// MarkupNode::inner_text(): a size pass, then one arena fill.
std::size_t text_size(const VNode& n) {
  std::size_t total = n.text.size();
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    total += text_size(*c);
  }
  return total;
}

void text_fill(const VNode& n, char*& dst) {
  if (!n.text.empty()) {
    std::memcpy(dst, n.text.data(), n.text.size());
    dst += n.text.size();
  }
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    text_fill(*c, dst);
  }
}

Slice inner_text(Arena& arena, const VNode& n) {
  const std::size_t total = text_size(n);
  if (total == 0) return {};
  char* buf = arena.alloc_chars(total);
  char* p = buf;
  text_fill(n, p);
  MCS_INVARIANT(p == buf + total,
                "inner_text fill diverged from its size pass");
  return Slice{buf, total};
}

// Document title, mirroring MarkupDocument::title(): the first <title>'s
// trimmed inner text, else a <card>'s title attribute, else empty.
Slice doc_title(Arena& arena, const VNode* parsed) {
  if (const VNode* t = find_first(parsed, "title"); t != nullptr) {
    return trim_view(inner_text(arena, *t));
  }
  if (const VNode* card = find_first(parsed, "card"); card != nullptr) {
    if (const VAttr* v = find_attr(card, "title"); v != nullptr) {
      return v->value;
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Fused translation + adaptation. A port of markup.cpp's translate_node and
// adaptation.cpp's adapt_node collapsed into one walk: every text node the
// translation emits passes through the truncation rule (matching adapt's
// pass over the translated tree), while text adapt itself synthesizes (the
// cHTML "[alt]" replacement, the "[more...]" marker) bypasses it, exactly
// as in the legacy ordering.

class Xlate {
 public:
  Xlate(Arena& arena, const AdaptationConfig& cfg, bool wml)
      : arena_{arena}, cfg_{cfg}, wml_{wml} {}

  TranslateCounters counters;

  void children(const VNode& from, VNode* to) {
    MCS_ASSERT(to != nullptr, "adapted children need a parent to land in");
    for (const VNode* c = from.first; c != nullptr; c = c->next) {
      node(*c, to);
    }
  }

  // Adapted text node: the truncation rule from adapt_node.
  void adapted_text(VNode* out, Slice t) {
    if (t.size() > cfg_.max_text_run) {
      t = arena_cat(arena_, Slice{t.data(), cfg_.max_text_run}, "...", {});
      ++counters.text_truncations;
    }
    MCS_INVARIANT(t.size() <= cfg_.max_text_run + 3,
                  "truncation must bound every emitted text run");
    add_child(out, new_text(arena_, t));
  }

  void node(const VNode& n, VNode* out) {
    MCS_ASSERT(out != nullptr, "an adapted node needs a parent to land in");
    if (n.is_text()) {
      adapted_text(out, n.text);
      return;
    }
    const Slice t = n.tag;
    if (t == "script" || t == "style" || t == "head" || t == "title" ||
        t == "meta" || t == "link" || t == "iframe" || t == "frameset" ||
        t == "object" || t == "applet") {
      return;  // not representable on the handset
    }
    if (t == "p" || t == "div" || t == "section" || t == "article" ||
        t == "blockquote" || t == "center") {
      VNode* p = new_element(arena_, "p");
      children(n, p);
      if (p->first != nullptr) add_child(out, p);
      return;
    }
    if (t.size() == 2 && t[0] == 'h' && t[1] >= '1' && t[1] <= '6') {
      // Headings become emphasized paragraphs.
      VNode* p = new_element(arena_, "p");
      VNode* b = new_element(arena_, "b");
      children(n, b);
      add_child(p, b);
      add_child(out, p);
      return;
    }
    if (t == "a") {
      VNode* a = new_element(arena_, "a");
      copy_attr(n, a, "href");
      children(n, a);
      add_child(out, a);
      return;
    }
    if (t == "b" || t == "strong") {
      emit_wrapped(n, out, "b");
      return;
    }
    if (t == "i" || t == "em") {
      emit_wrapped(n, out, "i");
      return;
    }
    if (t == "u") {
      emit_wrapped(n, out, "u");
      return;
    }
    if (t == "br") {
      add_child(out, new_element(arena_, "br"));
      return;
    }
    if (t == "img") {
      const VAttr* alt = find_attr(&n, "alt");
      if (wml_) {
        // WML decks drop images in translation; the alt text node then goes
        // through adapt's truncation like any other text.
        if (alt != nullptr && !alt->value.empty()) {
          adapted_text(out, arena_cat(arena_, "[", alt->value, "]"));
        }
      } else if (!cfg_.keep_images) {
        // cHTML keeps the <img> through translation; adapt drops it and
        // emits the alt marker after the truncation pass (never truncated).
        ++counters.images_dropped;
        if (alt != nullptr && !alt->value.empty()) {
          add_child(out,
                    new_text(arena_, arena_cat(arena_, "[", alt->value, "]")));
        }
      } else {
        VNode* img = new_element(arena_, "img");
        copy_attr(n, img, "src");
        copy_attr(n, img, "alt");
        add_child(out, img);
      }
      return;
    }
    if (t == "table") {
      // Linearize: one paragraph per row, cells joined with separators.
      for (const VNode* section = n.first; section != nullptr;
           section = section->next) {
        if (section->tag == "tr") {
          table_row(*section, out);
        } else {  // thead/tbody/tfoot
          for (const VNode* row = section->first; row != nullptr;
               row = row->next) {
            table_row(*row, out);
          }
        }
      }
      return;
    }
    if (t == "ul" || t == "ol") {
      std::uint64_t index = 1;
      for (const VNode* li = n.first; li != nullptr; li = li->next) {
        if (li->tag != "li") continue;
        VNode* p = new_element(arena_, "p");
        if (t == "ol") {
          const sim::NumStr num = sim::u64s(index++);
          adapted_text(p, arena_cat(arena_, num, ". ", {}));
        } else {
          adapted_text(p, "- ");
        }
        children(*li, p);
        add_child(out, p);
      }
      return;
    }
    if (t == "input") {
      VNode* input = new_element(arena_, "input");
      copy_attr(n, input, "name");
      copy_attr(n, input, "type");
      copy_attr(n, input, "value");
      add_child(out, input);
      return;
    }
    if (t == "select" || t == "option") {
      VNode* copy = new_element(arena_, t);
      copy_attr(n, copy, "name");
      copy_attr(n, copy, "value");
      children(n, copy);
      add_child(out, copy);
      return;
    }
    if (t == "form") {
      // Forms flatten into their controls; submission becomes an anchor.
      VNode* p = new_element(arena_, "p");
      children(n, p);
      if (const VAttr* action = find_attr(&n, "action"); action != nullptr) {
        VNode* a = new_element(arena_, "a");
        add_attr(arena_, a, "href", action->value);
        adapted_text(a, "[submit]");
        add_child(p, a);
      }
      add_child(out, p);
      return;
    }
    // Unknown/structural tag (html, body, span, ...): unwrap.
    children(n, out);
  }

 private:
  void emit_wrapped(const VNode& n, VNode* out, Slice tag) {
    VNode* el = new_element(arena_, tag);
    children(n, el);
    add_child(out, el);
  }

  void copy_attr(const VNode& from, VNode* to, Slice name) {
    if (const VAttr* a = find_attr(&from, name); a != nullptr) {
      add_attr(arena_, to, name, a->value);
    }
  }

  void table_row(const VNode& row, VNode* out) {
    if (row.tag != "tr") return;
    // Two passes over the cells: measure the joined line, then fill it.
    std::size_t line_len = 0;
    for (const VNode* cell = row.first; cell != nullptr; cell = cell->next) {
      if (cell->tag != "td" && cell->tag != "th") continue;
      const Slice text = trim_view(inner_text(arena_, *cell));
      if (text.empty()) continue;
      line_len += (line_len != 0 ? 3 : 0) + text.size();  // " | " separators
    }
    if (line_len == 0) return;
    char* buf = arena_.alloc_chars(line_len);
    char* p = buf;
    for (const VNode* cell = row.first; cell != nullptr; cell = cell->next) {
      if (cell->tag != "td" && cell->tag != "th") continue;
      const Slice text = trim_view(inner_text(arena_, *cell));
      if (text.empty()) continue;
      if (p != buf) {
        std::memcpy(p, " | ", 3);
        p += 3;
      }
      std::memcpy(p, text.data(), text.size());
      p += text.size();
    }
    MCS_INVARIANT(p == buf + line_len,
                  "table row fill diverged from its size pass");
    VNode* para = new_element(arena_, "p");
    adapted_text(para, Slice{buf, line_len});
    add_child(out, para);
  }

  Arena& arena_;
  const AdaptationConfig& cfg_;
  bool wml_ = false;
};

// WML cards may only contain certain top-level elements; wrap loose inline
// content in synthetic paragraphs (port of markup.cpp wrap_loose_inline —
// the marker is a node flag here instead of a stripped attribute).
void wrap_loose_runs(Arena& arena, VNode* card) {
  VNode* c = card->first;
  card->first = nullptr;
  card->last = nullptr;
  while (c != nullptr) {
    VNode* next = c->next;
    c->next = nullptr;
    const bool block = c->tag == "p" || c->tag == "do" || c->tag == "template";
    if (block) {
      add_child(card, c);
    } else {
      VNode* tail = card->last;
      if (tail == nullptr || !(tail->tag == "p" && tail->synthetic)) {
        VNode* p = new_element(arena, "p");
        p->synthetic = true;
        add_child(card, p);
        tail = p;
      }
      add_child(tail, c);
    }
    c = next;
  }
}

// ---------------------------------------------------------------------------
// Serialized-size accounting and the size-cap trim, ported from
// adaptation.cpp. Sizes mirror serialize_node exactly: ' k="v"' per
// attribute, "/>" for childless void elements, "<tag>...</tag>" otherwise.

std::size_t attrs_bytes(const VNode& n) {
  std::size_t total = 0;
  for (const VAttr* a = n.attrs; a != nullptr; a = a->next) {
    total += 4 + a->name.size() + a->value.size();
  }
  return total;
}

std::size_t ser_size(const VNode& n) {
  if (n.is_text()) return n.text.size();
  const std::size_t open = 1 + n.tag.size() + attrs_bytes(n);
  if (n.first == nullptr && is_void_tag(n.tag)) return open + 2;
  std::size_t total = open + 1;
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    total += ser_size(*c);
  }
  return total + 3 + n.tag.size();
}

// Remove the deepest trailing leaf, returning it (nullptr when the tree is
// already bare) — the counterpart of adaptation.cpp's drop_last_leaf.
VNode* drop_last_leaf(VNode* n) {
  if (n->first == nullptr) return nullptr;
  if (VNode* sub = drop_last_leaf(n->last); sub != nullptr) return sub;
  VNode* popped = n->last;
  if (n->first == popped) {
    n->first = nullptr;
    n->last = nullptr;
  } else {
    VNode* prev = n->first;
    while (prev->next != popped) prev = prev->next;
    prev->next = nullptr;
    n->last = prev;
  }
  return popped;
}

void cap_trim(Arena& arena, VNode* root, const AdaptationConfig& cfg,
              TranslateCounters& counters) {
  std::size_t total = 0;
  for (const VNode* c = root->first; c != nullptr; c = c->next) {
    total += ser_size(*c);
  }
  while (total > cfg.max_serialized_bytes) {
    VNode* popped = drop_last_leaf(root);
    if (popped == nullptr) break;
    // The popped node is childless by construction, so its removal shrinks
    // the document by exactly its own serialization. (No generated void
    // element ever has children, so no parent flips to the "/>" form.)
    MCS_INVARIANT(popped->first == nullptr,
                  "drop_last_leaf popped a node with children");
    total -= ser_size(*popped);
    ++counters.nodes_dropped;
  }
  if (counters.nodes_dropped > 0) {
    // Let the user see the page was cut.
    VNode* target = root;
    while (target->last != nullptr && !target->last->is_text() &&
           target->last->tag != "p") {
      target = target->last;
    }
    VNode* p = new_element(arena, "p");
    add_child(p, new_text(arena, "[more...]"));
    add_child(target, p);
  }
}

// ---------------------------------------------------------------------------
// Emitters: text serialization (serialize_node port) and WBXML compilation
// (wbxml.cpp Encoder port). The translation emits only WML 1.1 code-page
// tags and attributes, so the WBXML string table stays empty and the binary
// streams straight into the caller's buffer.

void serialize_view(const VNode& n, BufWriter& w) {
  if (n.is_text()) {
    w.put(n.text);
    return;
  }
  w.ch('<').put(n.tag);
  for (const VAttr* a = n.attrs; a != nullptr; a = a->next) {
    w.ch(' ').put(a->name).put("=\"").put(a->value).ch('"');
  }
  if (n.first == nullptr && is_void_tag(n.tag)) {
    w.put("/>");
    return;
  }
  w.ch('>');
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    serialize_view(*c, w);
  }
  w.put("</").put(n.tag).ch('>');
}

constexpr char kWbxmlStrI = 0x03;
constexpr char kWbxmlEnd = 0x01;

void wbxml_view(const VNode& n, BufWriter& w) {
  if (n.is_text()) {
    w.ch(kWbxmlStrI).put(n.text).ch('\0');
    return;
  }
  std::uint8_t token = wml_tag_token(n.tag);
  MCS_ASSERT(token != 0,
             "translated decks use only WML 1.1 code-page tags; a literal "
             "tag here means the translation emitted something new without "
             "updating the fused encoder");
  const bool has_content = n.first != nullptr;
  const bool has_attrs = n.attrs != nullptr;
  if (has_content) token |= 0x40;
  if (has_attrs) token |= 0x80;
  w.ch(static_cast<char>(token));
  if (has_attrs) {
    for (const VAttr* a = n.attrs; a != nullptr; a = a->next) {
      const std::uint8_t at = wml_attr_token(a->name);
      MCS_ASSERT(at != 0, "translated decks use only WML 1.1 code-page "
                          "attributes");
      w.ch(static_cast<char>(at));
      if (!a->value.empty()) w.ch(kWbxmlStrI).put(a->value).ch('\0');
    }
    w.ch(kWbxmlEnd);
  }
  if (has_content) {
    for (const VNode* c = n.first; c != nullptr; c = c->next) {
      wbxml_view(*c, w);
    }
    w.ch(kWbxmlEnd);
  }
}

// Text and element count of a parsed page in one walk: text nodes go to
// `text` in document order (MarkupNode::inner_text of the root), elements
// are counted as MarkupNode::element_count does (text nodes and the
// synthetic root do not count).
std::size_t scan_walk(const VNode& n, BufWriter& text) {
  std::size_t elements = n.is_text() ? 0 : 1;
  text.put(n.text);
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    elements += scan_walk(*c, text);
  }
  return elements;
}

// Per-thread recycled arenas: a request's nodes and slices cost pointer
// bumps into warmed chunks, released wholesale when the lease ends.
sim::ArenaPool& thread_arenas() {
  static thread_local sim::ArenaPool t_pool;
  return t_pool;
}

}  // namespace

TranslateCounters translate_html(sim::Slice html, MarkupKind target,
                                 const AdaptationConfig& cfg,
                                 std::string& text_out,
                                 std::string* wbxml_out) {
  MCS_ASSERT(target == MarkupKind::kWml || target == MarkupKind::kChtml,
             "translate_html targets a handset language, not HTML");
  MCS_ASSERT(wbxml_out == nullptr || target == MarkupKind::kWml,
             "WBXML compilation is defined for WML decks only");
  const auto lease = thread_arenas().acquire();
  Arena& arena = *lease;

  ViewParser parser{html, arena};
  VNode* parsed = parser.parse();

  const bool wml = target == MarkupKind::kWml;
  Xlate x{arena, cfg, wml};
  VNode* root = new_node(arena);
  if (wml) {
    VNode* deck = new_element(arena, "wml");
    VNode* card = new_element(arena, "card");
    add_attr(arena, card, "id", "main");
    if (const Slice title = doc_title(arena, parsed); !title.empty()) {
      add_attr(arena, card, "title", title);
    }
    x.children(*parsed, card);
    wrap_loose_runs(arena, card);
    add_child(deck, card);
    add_child(root, deck);
  } else {
    VNode* doc = new_element(arena, "html");
    VNode* body = new_element(arena, "body");
    x.children(*parsed, body);
    add_child(doc, body);
    add_child(root, doc);
  }
  cap_trim(arena, root, cfg, x.counters);

  text_out.clear();
  BufWriter tw{text_out};
  tw.need(256);
  for (const VNode* c = root->first; c != nullptr; c = c->next) {
    serialize_view(*c, tw);
  }
  if (wbxml_out != nullptr) {
    wbxml_out->clear();
    BufWriter bw{*wbxml_out};
    bw.need(text_out.size() / 2 + 16);
    // WBXML 1.3 header: version, WML 1.1 public id, UTF-8, empty string
    // table (the translation never needs the LITERAL mechanism).
    bw.ch(0x03).ch(0x04).ch(0x6A).ch(0x00);
    for (const VNode* c = root->first; c != nullptr; c = c->next) {
      wbxml_view(*c, bw);
    }
  }
  return x.counters;
}

std::size_t scan_markup(sim::Slice source, std::string& title_out,
                        std::string& text_out) {
  const auto lease = thread_arenas().acquire();
  Arena& arena = *lease;
  ViewParser parser{source, arena};
  const VNode* root = parser.parse();

  title_out.clear();
  BufWriter{title_out}.put(doc_title(arena, root));
  text_out.clear();
  BufWriter text{text_out};
  text.need(source.size());  // the text is a subsequence of the source
  const std::size_t elements = scan_walk(*root, text);
  MCS_INVARIANT(text_out.size() <= source.size(),
                "page text must be drawn from the source bytes");
  return elements;
}

}  // namespace mcs::middleware

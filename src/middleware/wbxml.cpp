#include "middleware/wbxml.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "sim/arena.h"
#include "sim/contract.h"

namespace mcs::middleware {

namespace {

// WBXML global tokens.
constexpr std::uint8_t kEnd = 0x01;
constexpr std::uint8_t kStrI = 0x03;     // inline NUL-terminated string
constexpr std::uint8_t kLiteral = 0x04;  // tag from string table
constexpr std::uint8_t kLiteralC = 0x44; // literal with content
constexpr std::uint8_t kContentFlag = 0x40;

constexpr std::uint8_t kVersion13 = 0x03;
constexpr std::uint8_t kPublicIdWml11 = 0x04;
constexpr std::uint8_t kCharsetUtf8 = 0x6A;

// One code-page entry: a name and its token byte.
struct Token {
  std::string_view name;
  std::uint8_t token = 0;
};

// WML 1.1 tag tokens (code page 0), per the WAP binary XML content format.
// Each table is sorted by name; TokenTable checks that at compile time.
constexpr Token kTagTokens[] = {
    {"a", 0x1C},        {"access", 0x23},   {"anchor", 0x22},
    {"b", 0x24},        {"big", 0x25},      {"br", 0x26},
    {"card", 0x27},     {"do", 0x28},       {"em", 0x29},
    {"fieldset", 0x2A}, {"go", 0x2B},       {"head", 0x2C},
    {"i", 0x2D},        {"img", 0x2E},      {"input", 0x2F},
    {"meta", 0x30},     {"noop", 0x31},     {"onevent", 0x33},
    {"optgroup", 0x34}, {"option", 0x35},   {"p", 0x20},
    {"postfield", 0x21}, {"prev", 0x32},    {"refresh", 0x36},
    {"select", 0x37},   {"setvar", 0x3E},   {"small", 0x38},
    {"strong", 0x39},   {"table", 0x1F},    {"td", 0x1D},
    {"template", 0x3B}, {"timer", 0x3C},    {"tr", 0x1E},
    {"u", 0x3D},        {"wml", 0x3F},
};

// WML 1.1 attribute-start tokens (value encoded separately as STR_I).
constexpr Token kAttrTokens[] = {
    {"accept-charset", 0x05}, {"align", 0x52},  {"alt", 0x0C},
    {"class", 0x54},          {"columns", 0x53}, {"domain", 0x0F},
    {"emptyok", 0x10},        {"format", 0x12}, {"height", 0x13},
    {"href", 0x4A},           {"id", 0x55},     {"label", 0x18},
    {"maxlength", 0x1A},      {"method", 0x1B}, {"mode", 0x1C},
    {"multiple", 0x1D},       {"name", 0x1E},   {"optional", 0x21},
    {"path", 0x22},           {"src", 0x32},    {"title", 0x36},
    {"type", 0x37},           {"value", 0x39},  {"width", 0x3E},
};

// Both directions of one code page, built at compile time from its table.
// Name -> token goes to the entries sharing the name's first byte (at most
// five) and compares lengths before bytes: no tree walk, no memcmp call.
class TokenTable {
 public:
  constexpr explicit TokenTable(std::span<const Token> entries)
      : entries_{entries} {
    std::size_t i = 0;
    for (std::size_t c = 0; c < 256; ++c) {
      first_[c] = static_cast<std::uint8_t>(i);
      while (i < entries.size() && first_byte(entries[i].name) == c) ++i;
    }
    first_[256] = static_cast<std::uint8_t>(i);
    for (const Token& e : entries) names_[e.token] = e.name;
  }

  // Every entry landed in its first-byte bucket only if the table is sorted
  // by name; every token is nonzero (0 means "not in the code page") and
  // names exactly one entry.
  constexpr bool well_formed() const {
    std::size_t named = 0;
    for (std::size_t t = 0; t < names_.size(); ++t) {
      named += names_[t].empty() ? 0 : 1;
    }
    for (const Token& e : entries_) {
      if (e.name.empty() || e.token == 0) return false;
    }
    return first_[256] == entries_.size() && named == entries_.size() &&
           std::is_sorted(entries_.begin(), entries_.end(),
                          [](const Token& a, const Token& b) {
                            return a.name < b.name;
                          });
  }

  // Exact, case-sensitive; 0 when `name` is outside the code page.
  std::uint8_t token(std::string_view name) const {
    if (name.empty()) return 0;
    const std::size_t c = first_byte(name);
    for (std::size_t i = first_[c]; i < first_[c + 1]; ++i) {
      if (same(entries_[i].name, name)) return entries_[i].token;
    }
    return 0;
  }

  // The name of `token`, empty for a byte outside the code page.
  std::string_view name(std::uint8_t token) const { return names_[token]; }

 private:
  static constexpr std::size_t first_byte(std::string_view s) {
    return static_cast<unsigned char>(s[0]);
  }
  static bool same(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  std::span<const Token> entries_;
  std::array<std::uint8_t, 257> first_{};
  // Token -> name, indexed by token byte: the decoders' constant-time
  // reverse lookup. An empty view marks a byte outside the code page.
  std::array<std::string_view, 256> names_{};
};

constexpr TokenTable kTags{kTagTokens};
constexpr TokenTable kAttrs{kAttrTokens};
static_assert(kTags.well_formed() && kAttrs.well_formed(),
              "WML code-page tables must be sorted by name, with unique "
              "nonzero tokens");

void write_mb_u32(std::string& out, std::uint32_t v) {
  // Multi-byte unsigned integer, 7 bits per byte, high bit = continuation.
  char buf[5];
  int n = 0;
  do {
    buf[n++] = static_cast<char>(v & 0x7F);
    v >>= 7;
  } while (v != 0);
  for (int i = n - 1; i >= 0; --i) {
    char c = buf[i];
    if (i != 0) c = static_cast<char>(c | 0x80);
    out.push_back(c);
  }
}

class Encoder {
 public:
  std::string encode(const MarkupDocument& doc) {
    std::string body;
    for (const auto& c : doc.root.children) encode_node(c, body);

    std::string out;
    out.push_back(static_cast<char>(kVersion13));
    out.push_back(static_cast<char>(kPublicIdWml11));
    out.push_back(static_cast<char>(kCharsetUtf8));
    write_mb_u32(out, static_cast<std::uint32_t>(string_table_.size()));
    out += string_table_;
    out += body;
    // Header is version + public id + charset + at least a one-byte string
    // table length; a shorter result is not decodable WBXML.
    MCS_INVARIANT(out.size() >= 4 + string_table_.size(),
                  "encoded document lost its header or string table");
    return out;
  }

 private:
  std::uint32_t intern(const std::string& s) {
    auto it = offsets_.find(s);
    if (it != offsets_.end()) return it->second;
    const auto off = static_cast<std::uint32_t>(string_table_.size());
    string_table_ += s;
    string_table_.push_back('\0');
    offsets_[s] = off;
    return off;
  }

  void write_str_i(std::string& out, const std::string& s) {
    out.push_back(static_cast<char>(kStrI));
    out += s;
    out.push_back('\0');
  }

  void encode_node(const MarkupNode& n, std::string& out) {
    if (n.is_text()) {
      write_str_i(out, n.text);
      return;
    }
    const bool has_content = !n.children.empty();
    const bool has_attrs = !n.attrs.empty();
    std::uint8_t token = kTags.token(n.tag);
    const bool literal = token == 0;
    if (literal) token = kLiteral;
    if (has_content) token |= kContentFlag;
    if (has_attrs) token |= 0x80;
    out.push_back(static_cast<char>(token));
    if (literal) write_mb_u32(out, intern(n.tag));

    if (has_attrs) {
      for (const auto& [k, v] : n.attrs) {
        if (const std::uint8_t at = kAttrs.token(k); at != 0) {
          out.push_back(static_cast<char>(at));
        } else {
          out.push_back(static_cast<char>(kLiteral));
          write_mb_u32(out, intern(k));
        }
        if (!v.empty()) write_str_i(out, v);
      }
      out.push_back(static_cast<char>(kEnd));
    }
    if (has_content) {
      for (const auto& c : n.children) encode_node(c, out);
      out.push_back(static_cast<char>(kEnd));
    }
  }

  std::string string_table_;
  std::map<std::string, std::uint32_t> offsets_;
};

class Decoder {
 public:
  explicit Decoder(const std::string& bytes) : b_{bytes} {}

  std::optional<MarkupDocument> decode() {
    if (!take_header()) return std::nullopt;
    MarkupDocument doc;
    doc.kind = MarkupKind::kWml;
    while (pos_ < b_.size()) {
      auto node = decode_node();
      if (!node.has_value()) return std::nullopt;
      doc.root.children.push_back(std::move(*node));
    }
    return doc;
  }

 private:
  bool take_header() {
    if (b_.size() < 4) return false;
    if (static_cast<std::uint8_t>(b_[0]) != kVersion13) return false;
    pos_ = 1;
    (void)read_mb_u32();  // public id
    (void)read_mb_u32();  // charset
    const std::uint32_t st_len = read_mb_u32();
    if (pos_ + st_len > b_.size()) return false;
    string_table_ = b_.substr(pos_, st_len);
    pos_ += st_len;
    return !failed_;
  }

  std::uint32_t read_mb_u32() {
    std::uint32_t v = 0;
    while (pos_ < b_.size()) {
      const auto c = static_cast<std::uint8_t>(b_[pos_++]);
      v = (v << 7) | (c & 0x7F);
      if ((c & 0x80) == 0) return v;
    }
    failed_ = true;
    return 0;
  }

  std::string read_cstr() {
    std::string out;
    while (pos_ < b_.size() && b_[pos_] != '\0') out.push_back(b_[pos_++]);
    if (pos_ < b_.size()) ++pos_;  // consume NUL
    return out;
  }

  std::string table_string(std::uint32_t offset) const {
    if (offset >= string_table_.size()) return "";
    const std::size_t end = string_table_.find('\0', offset);
    return string_table_.substr(offset, end - offset);
  }

  std::optional<MarkupNode> decode_node() {
    if (pos_ >= b_.size()) return std::nullopt;
    const auto token = static_cast<std::uint8_t>(b_[pos_++]);
    if (token == kStrI) {
      return MarkupNode::text_node(read_cstr());
    }
    const bool has_attrs = (token & 0x80) != 0;
    const bool has_content = (token & kContentFlag) != 0;
    const std::uint8_t base = token & 0x3F;
    MarkupNode node;
    if (base == kLiteral) {
      node.tag = table_string(read_mb_u32());
    } else {
      node.tag = kTags.name(base);
      if (node.tag.empty()) return std::nullopt;
    }
    if (has_attrs) {
      while (pos_ < b_.size() &&
             static_cast<std::uint8_t>(b_[pos_]) != kEnd) {
        const auto at = static_cast<std::uint8_t>(b_[pos_++]);
        std::string name = at == kLiteral ? table_string(read_mb_u32())
                                          : std::string{kAttrs.name(at)};
        if (name.empty()) return std::nullopt;
        std::string value;
        if (pos_ < b_.size() &&
            static_cast<std::uint8_t>(b_[pos_]) == kStrI) {
          ++pos_;
          value = read_cstr();
        }
        node.attrs.emplace_back(std::move(name), std::move(value));
      }
      if (pos_ >= b_.size()) return std::nullopt;
      ++pos_;  // END of attribute list
    }
    if (has_content) {
      while (pos_ < b_.size() &&
             static_cast<std::uint8_t>(b_[pos_]) != kEnd) {
        auto child = decode_node();
        if (!child.has_value()) return std::nullopt;
        node.children.push_back(std::move(*child));
      }
      if (pos_ >= b_.size()) return std::nullopt;
      ++pos_;  // END of content
    }
    return node;
  }

  const std::string& b_;
  std::size_t pos_ = 0;
  std::string string_table_;
  bool failed_ = false;
};

// Streaming twin of Decoder: the same grammar and the same accept/reject
// decision on every input, but each node is serialized into the caller's
// buffer as it is decoded (serialize_node's rules in markup.cpp) instead of
// being built into a tree. Names and strings are slices of the input.
// Output written before a rejection is garbage; the caller drops it.
class TextDecoder {
 public:
  TextDecoder(sim::Slice bytes, sim::BufWriter& w) : b_{bytes}, w_{w} {}

  bool decode() {
    if (!take_header()) return false;
    while (pos_ < b_.size()) {
      if (!node(/*emit=*/true)) return false;
    }
    return true;
  }

 private:
  std::uint8_t byte(std::size_t i) const {
    return static_cast<std::uint8_t>(b_[i]);
  }

  bool take_header() {
    if (b_.size() < 4) return false;
    if (byte(0) != kVersion13) return false;
    pos_ = 1;
    (void)read_mb_u32();  // public id
    (void)read_mb_u32();  // charset
    const std::uint32_t st_len = read_mb_u32();
    if (pos_ + st_len > b_.size()) return false;
    string_table_ = b_.substr(pos_, st_len);
    pos_ += st_len;
    return !failed_;
  }

  std::uint32_t read_mb_u32() {
    std::uint32_t v = 0;
    while (pos_ < b_.size()) {
      const std::uint8_t c = byte(pos_++);
      v = (v << 7) | (c & 0x7F);
      if ((c & 0x80) == 0) return v;
    }
    failed_ = true;
    return 0;
  }

  sim::Slice read_cstr() {
    const std::size_t start = pos_;
    while (pos_ < b_.size() && b_[pos_] != '\0') ++pos_;
    const sim::Slice s = b_.substr(start, pos_ - start);
    if (pos_ < b_.size()) ++pos_;  // consume NUL
    return s;
  }

  sim::Slice table_string(std::uint32_t offset) const {
    if (offset >= string_table_.size()) return {};
    const std::size_t end = string_table_.find('\0', offset);
    return string_table_.substr(offset, end - offset);
  }

  // One node at pos_ (< size). `emit` is false under an element whose tag
  // resolved empty: the tree serializes such an element as a text node with
  // no text, so its whole subtree is validated but writes nothing.
  bool node(bool emit) {
    const std::uint8_t token = byte(pos_++);
    if (token == kStrI) {
      const sim::Slice text = read_cstr();
      if (emit) w_.put(text);
      return true;
    }
    const bool has_attrs = (token & 0x80) != 0;
    const bool has_content = (token & kContentFlag) != 0;
    const std::uint8_t base = token & 0x3F;
    sim::Slice tag;
    if (base == kLiteral) {
      tag = table_string(read_mb_u32());
    } else {
      tag = kTags.name(base);
      if (tag.empty()) return false;
    }
    emit = emit && !tag.empty();
    if (emit) w_.ch('<').put(tag);
    if (has_attrs) {
      while (pos_ < b_.size() && byte(pos_) != kEnd) {
        const std::uint8_t at = byte(pos_++);
        const sim::Slice name =
            at == kLiteral ? table_string(read_mb_u32()) : kAttrs.name(at);
        if (name.empty()) return false;
        sim::Slice value;
        if (pos_ < b_.size() && byte(pos_) == kStrI) {
          ++pos_;
          value = read_cstr();
        }
        if (emit) w_.ch(' ').put(name).put("=\"").put(value).ch('"');
      }
      if (pos_ >= b_.size()) return false;
      ++pos_;  // END of attribute list
    }
    bool has_children = false;
    if (has_content) {
      while (pos_ < b_.size() && byte(pos_) != kEnd) {
        if (emit && !has_children) w_.ch('>');
        has_children = true;
        if (!node(emit)) return false;
      }
      if (pos_ >= b_.size()) return false;
      ++pos_;  // END of content
    }
    if (!emit) return true;
    if (!has_children) {
      if (is_void_tag(tag)) {
        w_.put("/>");
        return true;
      }
      w_.ch('>');
    }
    w_.put("</").put(tag).ch('>');
    return true;
  }

  sim::Slice b_;
  sim::BufWriter& w_;
  std::size_t pos_ = 0;
  sim::Slice string_table_;
  bool failed_ = false;
};

}  // namespace

std::uint8_t wml_tag_token(std::string_view tag) { return kTags.token(tag); }

std::uint8_t wml_attr_token(std::string_view name) {
  return kAttrs.token(name);
}

std::string_view wml_tag_name(std::uint8_t token) { return kTags.name(token); }

std::string_view wml_attr_name(std::uint8_t token) {
  return kAttrs.name(token);
}

std::string wbxml_encode(const MarkupDocument& wml) {
  return Encoder{}.encode(wml);
}

std::optional<MarkupDocument> wbxml_decode(const std::string& bytes) {
  return Decoder{bytes}.decode();
}

bool wbxml_to_text(sim::Slice bytes, std::string& text_out) {
  text_out.clear();
  sim::BufWriter w{text_out};
  w.need(2 * bytes.size());  // tokens expand to names and markup
  return TextDecoder{bytes, w}.decode();
}

}  // namespace mcs::middleware

#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "sim/arena.h"

namespace mcs::host {

// The header fields of one HTTP message, held as one flat block in their
// wire form: "Name: value\r\n" per field, ordered by the bytes of the name
// (std::string's order), with no two fields of exactly the same name. So a
// message serializes its fields with one append, and serialize() and
// wire_size() read the block as it is. Lookups match names
// case-insensitively and return the first match in block order; set() and
// add() match names exactly, as HTTP keeps the sender's spelling.
//
// Invariant: a name holds no ':' or '\n' and a value no '\n', so the first
// ':' of a field ends its name and the first '\n' ends the field. Views
// returned by get() and wire() are valid until the block next changes, and
// set() and add() must not be passed views of the block itself.
class HttpHeaders {
 public:
  // Value of the first field named `name` (any case); empty if absent.
  sim::Slice get(sim::Slice name) const;
  bool has(sim::Slice name) const;
  // Replace the value of the field named exactly `name`, or insert one.
  void set(sim::Slice name, sim::Slice value);
  // As set(), but a field already named exactly `name` keeps its value and
  // gains ", " + `value`: repeated field lines fold into one (RFC 9110
  // section 5.3).
  void add(sim::Slice name, sim::Slice value);

  // The fields' wire bytes, "Name: value\r\n" each, without the blank line.
  sim::Slice wire() const { return block_; }
  void clear() { block_.clear(); }
  void reserve(std::size_t bytes) { block_.reserve(bytes); }

 private:
  struct Field {
    sim::Slice name;
    sim::Slice value;
    std::size_t begin = 0;  // block offset of the field's first byte
  };
  // Reads the field at `pos` and advances `pos` past it; false at the end.
  bool next(std::size_t& pos, Field& f) const;
  // set() (fold = false) or add() (fold = true).
  void put(sim::Slice name, sim::Slice value, bool fold);
  void insert(std::size_t at, sim::Slice name, sim::Slice value);
  // Room for `more` bytes, growing to at least kMinBlock on first use.
  void make_room(std::size_t more);

  static constexpr std::size_t kMinBlock = 128;
  std::string block_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::string version = "HTTP/1.1";
  HttpHeaders headers;
  std::string body;

  std::string header(sim::Slice name) const;
  void set_header(sim::Slice name, sim::Slice value);
  // Full wire form, with Content-Length synthesized from the body.
  std::string serialize() const;
  // Same bytes appended to a caller-owned (reused) buffer: the zero-copy
  // spelling for per-request send paths (DESIGN.md §12).
  void serialize_to(sim::BufWriter& w) const;
  // serialize().size() without building the bytes (stats/accounting).
  std::size_t wire_size() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HttpHeaders headers;
  std::string body;

  std::string header(sim::Slice name) const;
  void set_header(sim::Slice name, sim::Slice value);
  std::string serialize() const;
  void serialize_to(sim::BufWriter& w) const;
  std::size_t wire_size() const;

  static HttpResponse make(int status, sim::Slice content_type,
                           std::string body);
  static HttpResponse not_found(const std::string& what = "");
  static HttpResponse bad_request(const std::string& why = "");
  static HttpResponse server_error(const std::string& why = "");
};

const char* reason_for_status(int status);

// Incremental HTTP message parser: feed stream bytes as they arrive from a
// TCP socket; fires a callback per complete message. Handles pipelined
// messages and Content-Length framing (chunked encoding is not modelled).
//
// Each message is framed once: the parser finds its head and reads its
// Content-Length when the head is complete, then only counts bytes while
// the body arrives. A segment that holds whole messages is parsed in place;
// only an incomplete tail is copied, into a carry buffer sized for the
// framed message. Messages are built in a scratch message that the parser
// refills, so a callee that swaps the message out (rather than moving it)
// hands its own buffers back for the next message.
class HttpParser {
 public:
  enum class Mode { kRequest, kResponse };

  explicit HttpParser(Mode mode) : mode_{mode} {}

  std::function<void(HttpRequest&&)> on_request;
  std::function<void(HttpResponse&&)> on_response;
  // Fired on unrecoverable parse errors (the feed is then ignored): a
  // malformed start line, or a Content-Length that is not plain decimal
  // digits, overflows, or repeats.
  std::function<void(const std::string&)> on_error;

  void feed(sim::Slice bytes);
  bool failed() const { return failed_; }

 private:
  // Parses whole messages from the front of `data`; returns the bytes
  // consumed. Stops at an incomplete message or a parse error.
  std::size_t consume(sim::Slice data);
  // Frames the message at the front of `data` into head_len_/body_len_;
  // false while the head is incomplete or after an error.
  bool frame(sim::Slice data);
  // Builds the framed message from its head (through the blank line) and
  // body, and fires its callback; false on error.
  bool emit(sim::Slice head, sim::Slice body);
  void fail(const std::string& why);

  Mode mode_;
  std::string carry_;         // bytes of an incomplete message
  std::size_t head_len_ = 0;  // framed head of that message; 0 = not framed
  std::size_t body_len_ = 0;
  bool failed_ = false;
  HttpRequest request_;
  HttpResponse response_;
};

// Cookie storage (§7: "client-side programs such as cookies"). Real WAP
// phones could not store cookies, so the WAP gateway keeps a jar per phone;
// desktop and i-mode clients can own one directly. Jars are partitioned by
// an opaque origin key (typically "host:port") so sites never see each
// other's cookies.
class CookieJar {
 public:
  // Record every Set-Cookie header of `resp` under `origin`.
  void update_from(const std::string& origin, const HttpResponse& resp);
  void set(const std::string& origin, const std::string& name,
           const std::string& value);
  // "name1=v1; name2=v2" for the Cookie request header; empty if none.
  std::string cookie_header(const std::string& origin) const;
  std::size_t size() const;
  void clear() { jars_.clear(); }

 private:
  std::map<std::string, std::map<std::string, std::string>> jars_;
};

// Parse a "host:port/path" or "http://host:port/path" URL into parts.
// `host` may be a dotted address or a symbolic name for a resolver.
struct ParsedUrl {
  std::string host;
  std::uint16_t port = 80;
  std::string path = "/";
};
std::optional<ParsedUrl> parse_url(sim::Slice url);

}  // namespace mcs::host

#include "host/http.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>

#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::host {

namespace {

using sim::Slice;

// HttpHeaders' invariant: a name holds no ':' or '\n', a value no '\n'.
bool valid_field(Slice name, Slice value) {
  for (const char c : name) {
    if (c == ':' || c == '\n') return false;
  }
  return value.find('\n') == Slice::npos;
}

void serialize_headers(sim::BufWriter& w, const HttpHeaders& headers,
                       std::size_t body_size) {
  w.put(headers.wire());
  if (body_size > 0 && !headers.has("Content-Length")) {
    w.put("Content-Length: ").u64(body_size).put("\r\n");
  }
  w.put("\r\n");
}

// Exact byte count serialize_headers will emit.
std::size_t headers_size(const HttpHeaders& headers, std::size_t body_size) {
  std::size_t n = headers.wire().size() + 2;  // fields + final CRLF
  if (body_size > 0 && !headers.has("Content-Length")) {
    n += 16 + sim::u64s(body_size).len + 2;  // "Content-Length: %zu\r\n"
  }
  return n;
}

// Walks the head at the front of `data` in one pass. Rows end at '\n' and
// are trimmed of ASCII whitespace; the first row is the start line, stored
// in `start_line`, and every later row holding a ':' is a field, passed to
// fn(name, value) with both sides trimmed. The head ends at the first
// "\r\n\r\n": its last '\n' is the first one preceded by "\r\n\r".
// Returns the head's length through that blank line, or 0 while the head
// is incomplete (fn may have seen some fields by then). The framer and the
// message builder both read heads through this one walk, so they agree on
// every field.
template <class Fn>
std::size_t scan_head(Slice data, Slice& start_line, Fn&& fn) {
  const char* d = data.data();
  for (std::size_t pos = 0, row = 0;; ++row) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == Slice::npos) return 0;
    if (nl >= 3 && d[nl - 1] == '\r' && d[nl - 2] == '\n' &&
        d[nl - 3] == '\r') {
      return nl + 1;
    }
    const Slice line = sim::trim_view(Slice{d + pos, nl - pos});
    if (row == 0) {
      start_line = line;
    } else if (const std::size_t colon = line.find(':');
               colon != Slice::npos) {
      fn(sim::trim_view(Slice{line.data(), colon}),
         sim::trim_view(
             Slice{line.data() + colon + 1, line.size() - colon - 1}));
    }
    pos = nl + 1;
  }
}

// A Content-Length value: one or more decimal digits, at most `limit`.
bool parse_length(Slice s, std::size_t limit, std::size_t& out) {
  if (s.empty()) return false;
  std::size_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const std::size_t d = static_cast<std::size_t>(c - '0');
    if (v > (limit - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// HttpHeaders
// ---------------------------------------------------------------------------

bool HttpHeaders::next(std::size_t& pos, Field& f) const {
  if (pos >= block_.size()) return false;
  const std::size_t colon = block_.find(':', pos);
  const std::size_t nl = block_.find('\n', colon);
  f.begin = pos;
  f.name = Slice{block_.data() + pos, colon - pos};
  f.value = Slice{block_.data() + colon + 2, nl - 1 - (colon + 2)};
  pos = nl + 1;
  return true;
}

Slice HttpHeaders::get(Slice name) const {
  Field f;
  for (std::size_t pos = 0; next(pos, f);) {
    if (sim::iequals(f.name, name)) return f.value;
  }
  return {};
}

bool HttpHeaders::has(Slice name) const {
  Field f;
  for (std::size_t pos = 0; next(pos, f);) {
    if (sim::iequals(f.name, name)) return true;
  }
  return false;
}

void HttpHeaders::make_room(std::size_t more) {
  const std::size_t need = block_.size() + more;
  if (need > block_.capacity()) {
    block_.reserve(std::max({need, 2 * block_.capacity(), kMinBlock}));
  }
}

void HttpHeaders::insert(std::size_t at, Slice name, Slice value) {
  const std::size_t n = name.size() + value.size() + 4;
  make_room(n);
  block_.insert(at, n, ' ');
  char* p = block_.data() + at;
  std::memcpy(p, name.data(), name.size());
  p += name.size();
  *p++ = ':';
  *p++ = ' ';
  std::memcpy(p, value.data(), value.size());
  p += value.size();
  *p++ = '\r';
  *p = '\n';
}

void HttpHeaders::set(Slice name, Slice value) { put(name, value, false); }

void HttpHeaders::add(Slice name, Slice value) { put(name, value, true); }

void HttpHeaders::put(Slice name, Slice value, bool fold) {
  MCS_ASSERT(valid_field(name, value),
             "a header name holds no ':' or newline and a value no newline; "
             "either would split the field on the wire");
  // Names usually arrive in order (a parsed head was written from a block
  // like this one), so first compare with the last field alone.
  std::size_t pos = 0;
  if (!block_.empty()) {
    const std::size_t nl = block_.rfind('\n', block_.size() - 2);
    pos = nl == std::string::npos ? 0 : nl + 1;
    const std::size_t colon = block_.find(':', pos);
    if (Slice{block_.data() + pos, colon - pos} < name) {
      insert(block_.size(), name, value);
      return;
    }
    pos = 0;
  }
  Field f;
  while (next(pos, f)) {
    const int cmp = f.name.compare(name);
    if (cmp > 0) {
      insert(f.begin, name, value);
      return;
    }
    if (cmp == 0) {
      const std::size_t at = static_cast<std::size_t>(f.value.data() -
                                                      block_.data());
      if (!fold) {
        make_room(value.size());
        block_.replace(at, f.value.size(), value.data(), value.size());
        return;
      }
      const std::size_t end = at + f.value.size();
      make_room(value.size() + 2);
      block_.insert(end, value.size() + 2, ',');
      block_[end + 1] = ' ';
      std::memcpy(block_.data() + end + 2, value.data(), value.size());
      return;
    }
  }
  insert(block_.size(), name, value);
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

std::string HttpRequest::header(Slice name) const {
  return std::string{headers.get(name)};
}
void HttpRequest::set_header(Slice name, Slice value) {
  headers.set(name, value);
}

void HttpRequest::serialize_to(sim::BufWriter& w) const {
  w.need(method.size() + path.size() + version.size() + 4 +
         headers.wire().size() + 32 + body.size());
  w.put(method).ch(' ').put(path).ch(' ').put(version).put("\r\n");
  serialize_headers(w, headers, body.size());
  w.put(body);
}

std::string HttpRequest::serialize() const {
  return sim::build(0, [this](std::string& out) {
    sim::BufWriter w{out};
    serialize_to(w);
  });
}

std::size_t HttpRequest::wire_size() const {
  return method.size() + path.size() + version.size() + 4 +
         headers_size(headers, body.size()) + body.size();
}

std::string HttpResponse::header(Slice name) const {
  return std::string{headers.get(name)};
}
void HttpResponse::set_header(Slice name, Slice value) {
  headers.set(name, value);
}

void HttpResponse::serialize_to(sim::BufWriter& w) const {
  w.need(version.size() + reason.size() + 12 + headers.wire().size() + 32 +
         body.size());
  // Same bytes as strf("%s %d %s\r\n", version, status, reason).
  w.put(version).ch(' ').i64(status).ch(' ').put(reason).put("\r\n");
  serialize_headers(w, headers, body.size());
  w.put(body);
}

std::string HttpResponse::serialize() const {
  return sim::build(0, [this](std::string& out) {
    sim::BufWriter w{out};
    serialize_to(w);
  });
}

std::size_t HttpResponse::wire_size() const {
  return version.size() + sim::i64s(status).len + reason.size() + 4 +
         headers_size(headers, body.size()) + body.size();
}

const char* reason_for_status(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 302: return "Found";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 409: return "Conflict";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

HttpResponse HttpResponse::make(int status, Slice content_type,
                                std::string body) {
  HttpResponse r;
  r.status = status;
  r.reason = reason_for_status(status);
  if (!content_type.empty()) r.set_header("Content-Type", content_type);
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::not_found(const std::string& what) {
  return make(404, "text/plain", "not found: " + what);
}
HttpResponse HttpResponse::bad_request(const std::string& why) {
  return make(400, "text/plain", "bad request: " + why);
}
HttpResponse HttpResponse::server_error(const std::string& why) {
  return make(500, "text/plain", "server error: " + why);
}

// ---------------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------------

namespace {
// The carry buffer reserves room for a framed message's full length up to
// this many bytes; past it the buffer grows as the body arrives, so a
// declared length never reserves memory by itself.
constexpr std::size_t kMaxCarryReserve = std::size_t{1} << 20;
// Head room in a built message's field block for a field or two the
// receiver adds (a server's X-Peer) without regrowing the block.
constexpr std::size_t kFieldSlack = 48;
}  // namespace

void HttpParser::fail(const std::string& why) {
  failed_ = true;
  if (on_error) on_error(why);
}

void HttpParser::feed(Slice bytes) {
  MCS_ASSERT((mode_ == Mode::kRequest ? on_request != nullptr
                                      : on_response != nullptr) ||
                 on_error != nullptr,
             "a sink (message or error callback) must be wired before bytes "
             "arrive, or every parse outcome vanishes silently");
  if (failed_ || bytes.empty()) return;
  if (carry_.empty()) {
    // Nothing carried: parse whole messages straight from the segment and
    // copy only an incomplete tail.
    const std::size_t used = consume(bytes);
    if (failed_ || used == bytes.size()) return;
    if (head_len_ != 0) {
      carry_.reserve(std::min(head_len_ + body_len_, kMaxCarryReserve));
    }
    carry_.assign(bytes.data() + used, bytes.size() - used);
    return;
  }
  carry_.append(bytes.data(), bytes.size());
  // A framed message whose body is still arriving: nothing to re-scan.
  if (head_len_ != 0 && carry_.size() < head_len_ + body_len_) return;
  const std::size_t used = consume(carry_);
  if (failed_) return;
  if (used == carry_.size()) {
    carry_.clear();
  } else if (used != 0) {
    carry_.erase(0, used);
  }
}

std::size_t HttpParser::consume(Slice data) {
  std::size_t pos = 0;
  while (!failed_ && pos < data.size()) {
    const Slice rest{data.data() + pos, data.size() - pos};
    if (head_len_ == 0 && !frame(rest)) break;
    if (rest.size() - head_len_ < body_len_) break;  // body incomplete
    const std::size_t head_len = head_len_;
    const std::size_t body_len = body_len_;
    head_len_ = 0;
    body_len_ = 0;
    if (!emit(Slice{rest.data(), head_len},
              Slice{rest.data() + head_len, body_len})) {
      break;
    }
    pos += head_len + body_len;
  }
  return pos;
}

bool HttpParser::frame(Slice data) {
  Slice start_line;
  Slice length;
  std::size_t lengths = 0;
  const std::size_t head_len =
      scan_head(data, start_line, [&](Slice name, Slice value) {
        if (sim::iequals(name, "Content-Length") && lengths++ == 0) {
          length = value;
        }
      });
  if (head_len == 0) return false;
  std::size_t body_len = 0;
  if (lengths > 1) {
    fail("repeated Content-Length");
    return false;
  }
  if (lengths == 1 && !parse_length(length, SIZE_MAX - head_len, body_len)) {
    fail(sim::cat("bad Content-Length: ", length));
    return false;
  }
  head_len_ = head_len;
  body_len_ = body_len;
  return true;
}

bool HttpParser::emit(Slice head, Slice body) {
  HttpHeaders& headers =
      mode_ == Mode::kRequest ? request_.headers : response_.headers;
  headers.clear();
  headers.reserve(head.size() + kFieldSlack);
  Slice start_line;
  scan_head(head, start_line,
            [&headers](Slice name, Slice value) { headers.add(name, value); });

  // Start-line fields, split on ' ' (empty segments count, mirroring
  // sim::split).
  Slice seg[3];
  std::size_t nseg = 0;
  std::size_t field = 0;
  for (std::size_t i = 0; i <= start_line.size(); ++i) {
    if (i == start_line.size() || start_line[i] == ' ') {
      if (nseg < 3) {
        seg[nseg] = Slice{start_line.data() + field, i - field};
      }
      ++nseg;
      field = i + 1;
    }
  }

  if (mode_ == Mode::kRequest) {
    if (nseg < 3) {
      fail(sim::cat("malformed request line: ", start_line));
      return false;
    }
    request_.method.assign(seg[0]);
    request_.path.assign(seg[1]);
    request_.version.assign(seg[2]);
    request_.body.assign(body);
    if (on_request) on_request(std::move(request_));
  } else {
    if (nseg < 2) {
      fail(sim::cat("malformed status line: ", start_line));
      return false;
    }
    response_.version.assign(seg[0]);
    response_.status = sim::atoi_view(seg[1], INT_MAX);
    if (nseg > 2) {
      response_.reason.assign(seg[2]);
    } else {
      response_.reason.clear();
    }
    response_.body.assign(body);
    if (on_response) on_response(std::move(response_));
  }
  return true;
}

void CookieJar::update_from(const std::string& origin,
                            const HttpResponse& resp) {
  MCS_ASSERT(!origin.empty(),
             "cookies are scoped per-origin; an unscoped jar would leak "
             "them across hosts");
  // Repeated Set-Cookie lines arrive folded into one comma-joined value
  // (HttpHeaders::add); accept both "a=b" and "a=b, c=d" forms.
  const std::string header = resp.header("Set-Cookie");
  if (header.empty()) return;
  for (const auto& part : sim::split(header, ',')) {
    // Ignore attributes after ';' (Path, Expires, ...): session semantics.
    const std::string pair = sim::trim(sim::split(part, ';')[0]);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    jars_[origin][pair.substr(0, eq)] = pair.substr(eq + 1);
  }
}

void CookieJar::set(const std::string& origin, const std::string& name,
                    const std::string& value) {
  jars_[origin][name] = value;
}

std::string CookieJar::cookie_header(const std::string& origin) const {
  auto it = jars_.find(origin);
  if (it == jars_.end()) return "";
  std::string out;
  for (const auto& [name, value] : it->second) {
    if (!out.empty()) out += "; ";
    out += name + "=" + value;
  }
  return out;
}

std::size_t CookieJar::size() const {
  std::size_t n = 0;
  for (const auto& [origin, cookies] : jars_) n += cookies.size();
  return n;
}

std::optional<ParsedUrl> parse_url(sim::Slice url) {
  sim::Slice rest = url;
  if (rest.starts_with("http://")) rest.remove_prefix(7);
  if (rest.empty()) return std::nullopt;
  const std::size_t slash = rest.find('/');
  const sim::Slice hostport = rest.substr(0, slash);
  const std::size_t colon = hostport.find(':');
  int port = 80;
  if (colon != sim::Slice::npos) {
    port = sim::atoi_view(hostport.substr(colon + 1), 65536);
    if (port <= 0 || port > 65535) return std::nullopt;
  }
  const sim::Slice host = hostport.substr(0, colon);
  if (host.empty()) return std::nullopt;
  ParsedUrl out;
  out.host.assign(host);
  out.port = static_cast<std::uint16_t>(port);
  if (slash != sim::Slice::npos) out.path.assign(rest.substr(slash));
  return out;
}

}  // namespace mcs::host

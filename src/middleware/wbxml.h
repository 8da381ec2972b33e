#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "middleware/markup.h"
#include "sim/arena.h"

namespace mcs::middleware {

// WBXML: the WAP Forum's binary XML encoding. The WAP gateway compiles WML
// decks to WBXML so the over-the-air representation is compact; this is the
// source of WAP's bandwidth savings measured in the Table 3 bench.
//
// Implements the WBXML 1.3 framing (version, public id, charset, string
// table, tag/attr token space with content and attribute flags, STR_I inline
// strings, LITERAL tokens backed by the string table) with the WML 1.1 tag
// and attribute code pages. Encoder and decoder are exact inverses; byte
// values for tokens outside the WML 1.1 set use the LITERAL mechanism.

// Encode a WML document to WBXML bytes.
std::string wbxml_encode(const MarkupDocument& wml);

// WML 1.1 code-page lookups (0 when the name is outside the code page and
// needs the LITERAL/string-table mechanism). Exposed so the fused
// translate_html() pipeline emits the same token stream as the encoder.
std::uint8_t wml_tag_token(std::string_view tag);
std::uint8_t wml_attr_token(std::string_view name);
// The reverse lookups the decoders use: the name of a WML 1.1 token byte,
// empty for a byte outside the code page.
std::string_view wml_tag_name(std::uint8_t token);
std::string_view wml_attr_name(std::uint8_t token);

// Decode WBXML bytes back to a WML document; nullopt on malformed input.
std::optional<MarkupDocument> wbxml_decode(const std::string& bytes);

// Decode WBXML bytes straight to WML text, with no tree: on success
// `text_out` holds exactly wbxml_decode(bytes)->serialize() and the result
// is true; the result is false on exactly the inputs wbxml_decode rejects
// (`text_out` is then unspecified). The buffer is cleared then appended to,
// so a caller that keeps it across decks decodes without heap allocation
// once it is warm. This is the station's decoder; wbxml_decode is the test
// oracle it is checked against.
bool wbxml_to_text(sim::Slice bytes, std::string& text_out);

}  // namespace mcs::middleware

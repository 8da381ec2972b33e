#pragma once

#include <string>

#include "middleware/adaptation.h"
#include "middleware/markup.h"
#include "sim/arena.h"

namespace mcs::middleware {

// What the fused pass did to the content, mirroring AdaptationResult's
// counters (the legacy tree pipeline reports the same numbers).
struct TranslateCounters {
  std::size_t text_truncations = 0;
  std::size_t images_dropped = 0;
  std::size_t nodes_dropped = 0;
};

// One-pass zero-copy gateway translation (DESIGN.md §12). Parses `html`
// into a per-request recycled arena — tag names, attributes, and text are
// slices into the source, not string copies — then applies the §5.1
// translation rules fused with content adaptation (text truncation, image
// handling, the serialized-size cap) and serializes the adapted document
// into `text_out`. The output is byte-identical to the legacy
// parse_markup + html_to_wml/html_to_chtml + adapt_document + serialize()
// pipeline; the translate equivalence tests assert this over the corpus
// and randomized documents.
//
// `target` selects WML (WAP gateway) or cHTML (i-mode gateway). When
// `wbxml_out` is non-null the same adapted deck is also compiled to WBXML
// (WML target only), byte-identical to wbxml_encode(). Both output buffers
// are cleared then appended to; callers keep them across requests so
// steady-state translation performs no heap allocation once buffers and
// arena chunks are warm.
TranslateCounters translate_html(sim::Slice html, MarkupKind target,
                                 const AdaptationConfig& cfg,
                                 std::string& text_out,
                                 std::string* wbxml_out = nullptr);

// The station's one pass over a delivered page (WML or cHTML text, or HTML
// on the desktop client): parses `source` into the same recycled arena
// view tree and reports what the legacy parse_markup tree was built for.
// Returns the element count (MarkupNode::element_count() of the root),
// writes the title (MarkupDocument::title() rules) to `title_out` and the
// concatenated text (root inner_text()) to `text_out`. Both buffers are
// cleared then appended to; callers keep them across pages, so a warm scan
// performs no heap allocation. The scan equivalence tests assert all three
// against parse_markup over the corpus and randomized tag soup.
std::size_t scan_markup(sim::Slice source, std::string& title_out,
                        std::string& text_out);

}  // namespace mcs::middleware

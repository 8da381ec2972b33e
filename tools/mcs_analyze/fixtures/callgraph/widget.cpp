// call-graph round-trip fixture, impl half.
#include "widget.h"

int Widget::render(int depth) { return helper(depth); }

int Widget::helper(int x) { return x + free_ping(x); }

int Button::render(int depth) {
  Widget* base = this;
  return base->render(depth - 1);  // virtual dispatch through a base pointer
}

int free_ping(int n) { return n <= 0 ? 0 : free_pong(n - 1); }

int free_pong(int n) { return free_ping(n); }

bool Journal::insert(int v) { return v > 0; }

int Journal::size() { return 0; }

bool Shelf::insert(int v) { return v < 0; }

// `j` is declared twice: auto in one block, Journal* after it, so the
// j->insert call resolves to Journal::insert alone.
int replay(int n) {
  if (n > 0) {
    auto j = open_journal();
    return j->size();
  }
  Journal* j = open_journal();
  return j->insert(n) ? 1 : 0;
}

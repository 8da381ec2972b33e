// call-graph round-trip fixture, header half: class split across
// header/impl, a virtual method with an override, free functions forming a
// recursion cycle, and two classes sharing a method name.
#pragma once

class Widget {
 public:
  virtual ~Widget() = default;
  virtual int render(int depth);
  int helper(int x);
};

class Button : public Widget {
 public:
  int render(int depth) override;
};

int free_ping(int n);
int free_pong(int n);

class Journal {
 public:
  bool insert(int v);
  int size();
};

class Shelf {
 public:
  bool insert(int v);
};

Journal* open_journal();
int replay(int n);

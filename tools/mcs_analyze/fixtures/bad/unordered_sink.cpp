// Fixture: iterating an unordered container while writing JSON (directly
// and through a helper one call deep) — hash order becomes output order —
// or while scheduling events, where hash order becomes event order. The
// `unordered-sink` check must flag all three loops.
#include <string>
#include <unordered_map>

namespace fixture {

struct JsonWriter {
  void key(const std::string&) {}
  void value(int) {}
};

struct Scheduler {
  void after(int, void (*)()) {}
};

class Registry {
 public:
  void dump(JsonWriter& w) {
    for (const auto& kv : table_) {  // finding: unordered-sink (direct)
      w.key(kv.first);
      w.value(kv.second);
    }
  }

  void reschedule_all(Scheduler& sched) {
    for (const auto& kv : table_) {  // finding: unordered-sink (scheduling)
      sched.after(kv.second, nullptr);
    }
  }

  void dump_indirect(JsonWriter& w) {
    for (const auto& kv : table_) {  // finding: unordered-sink (via helper)
      write_one(w, kv.first, kv.second);
    }
  }

 private:
  void write_one(JsonWriter& w, const std::string& k, int v) {
    w.key(k);
    w.value(v);
  }

  std::unordered_map<std::string, int> table_;
};

}  // namespace fixture

// Fixture: a component-layer public mutating method WITH contract coverage,
// plus a suppressed finding. Zero findings expected.
#include <string>
#include <unordered_set>
#include <vector>

#define MCS_ASSERT(cond, msg) ((void)(cond))

namespace fixture {

struct Scheduler {
  void after(int, int) {}
};

class RouteTable {
 public:
  void add_route(const std::string& prefix, int interface_index) {
    MCS_ASSERT(interface_index >= 0, "interface index must be valid");
    prefixes_.push_back(prefix);
    interfaces_.push_back(interface_index);
  }

  // Suppressions work.
  void reschedule_all(Scheduler& sched) {
    for (int id : pending_) {  // mcs-analyze: allow(unordered-sink)
      sched.after(id, 0);
    }
  }

 private:
  std::vector<std::string> prefixes_;
  std::vector<int> interfaces_;
  std::unordered_set<int> pending_;
};

}  // namespace fixture

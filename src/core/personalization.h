#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::core {

// Personalization engine (paper requirement 2: "It should allow products to
// be personalized or customized upon request"). Server-side: rescores and
// filters catalog rows per user profile before content generation.
struct UserProfile {
  std::string user_id;
  std::string device_name;             // drives adaptation downstream
  std::vector<std::string> interests;  // preferred categories, ordered
  double spending_limit = 1e18;        // filter out unaffordable items
  std::map<std::string, std::string> preferences;  // free-form key/value
};

class PersonalizationEngine {
 public:
  void upsert_profile(UserProfile profile);
  const UserProfile* profile(const std::string& user_id) const;
  bool forget(const std::string& user_id);

  // Rank catalog items for a user, by index. `order` holds the indices of
  // the candidate items in catalog order; `category_of(i)` and
  // `price_of(i)` read item i's category (a string view) and price. Items
  // priced over the user's spending limit are dropped, and the rest are
  // stably sorted by how early their category appears in the user's
  // interests (unlisted categories last), then by price. Unknown users
  // keep `order` unchanged.
  template <typename CategoryOf, typename PriceOf>
  void rank_catalog(const std::string& user_id, std::vector<std::size_t>& order,
                    const CategoryOf& category_of,
                    const PriceOf& price_of) const {
    const UserProfile* p = profile(user_id);
    if (p == nullptr) return;
    std::erase_if(order, [&](std::size_t i) {
      return price_of(i) > p->spending_limit;
    });
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const auto ra = interest_rank(*p, category_of(a));
                       const auto rb = interest_rank(*p, category_of(b));
                       if (ra != rb) return ra < rb;
                       return price_of(a) < price_of(b);
                     });
  }

  // Track interactions so interests adapt: bump `category` to the front.
  void record_interest(const std::string& user_id,
                       const std::string& category);

 private:
  // Position of `category` in the profile's interests; the interest count
  // when it is not listed.
  static std::size_t interest_rank(const UserProfile& p,
                                   std::string_view category);

  std::map<std::string, UserProfile> profiles_;
};

}  // namespace mcs::core

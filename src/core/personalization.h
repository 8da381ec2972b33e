#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "host/db/value.h"

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

  // Rank catalog rows for a user: affordable items first, ordered by how
  // early the item's category appears in the user's interests, then by
  // price. Rows must have columns (id, name, category, price, ...) with
  // `category_col` and `price_col` giving the positions. Unknown users get
  // the rows unchanged.
  std::vector<host::db::Row> personalize_catalog(
      const std::string& user_id, std::vector<host::db::Row> rows,
      std::size_t category_col, std::size_t price_col) const;

  // Track interactions so interests adapt: bump `category` to the front.
  void record_interest(const std::string& user_id,
                       const std::string& category);

 private:
  std::map<std::string, UserProfile> profiles_;
};

}  // namespace mcs::core

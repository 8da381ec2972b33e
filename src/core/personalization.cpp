#include "core/personalization.h"

#include <algorithm>
#include <string_view>

namespace mcs::core {

void PersonalizationEngine::upsert_profile(UserProfile profile) {
  profiles_[profile.user_id] = std::move(profile);
}

const UserProfile* PersonalizationEngine::profile(
    const std::string& user_id) const {
  auto it = profiles_.find(user_id);
  return it == profiles_.end() ? nullptr : &it->second;
}

bool PersonalizationEngine::forget(const std::string& user_id) {
  return profiles_.erase(user_id) > 0;
}

std::vector<host::db::Row> PersonalizationEngine::personalize_catalog(
    const std::string& user_id, std::vector<host::db::Row> rows,
    std::size_t category_col, std::size_t price_col) const {
  const UserProfile* p = profile(user_id);
  if (p == nullptr) return rows;

  auto interest_rank = [p](std::string_view category) -> std::size_t {
    for (std::size_t i = 0; i < p->interests.size(); ++i) {
      if (p->interests[i] == category) return i;
    }
    return p->interests.size();
  };
  auto price_of = [price_col](const host::db::Row& r) {
    if (price_col < r.size() && std::holds_alternative<double>(r[price_col])) {
      return std::get<double>(r[price_col]);
    }
    return 0.0;
  };
  // A view into the row: the sort compares categories without copying them.
  auto category_of = [category_col](const host::db::Row& r) {
    if (category_col < r.size()) {
      if (const auto* c = std::get_if<std::string>(&r[category_col])) {
        return std::string_view{*c};
      }
    }
    return std::string_view{};
  };

  // Filter by affordability, then stable-sort by (interest rank, price).
  std::erase_if(rows, [&](const host::db::Row& r) {
    return price_of(r) > p->spending_limit;
  });
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const host::db::Row& a, const host::db::Row& b) {
                     const auto ra = interest_rank(category_of(a));
                     const auto rb = interest_rank(category_of(b));
                     if (ra != rb) return ra < rb;
                     return price_of(a) < price_of(b);
                   });
  return rows;
}

void PersonalizationEngine::record_interest(const std::string& user_id,
                                            const std::string& category) {
  auto it = profiles_.find(user_id);
  if (it == profiles_.end()) return;
  auto& interests = it->second.interests;
  std::erase(interests, category);
  interests.insert(interests.begin(), category);
}

}  // namespace mcs::core

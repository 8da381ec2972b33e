#include "core/personalization.h"

#include <algorithm>

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

std::size_t PersonalizationEngine::interest_rank(const UserProfile& p,
                                                 std::string_view category) {
  for (std::size_t i = 0; i < p.interests.size(); ++i) {
    if (p.interests[i] == category) return i;
  }
  return p.interests.size();
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

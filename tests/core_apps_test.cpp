// Every Table 1 application runs an end-to-end transaction over the full MC
// system (parameterised) and over the EC baseline.

#include "core/apps.h"

#include <gtest/gtest.h>

#include "sim/util.h"

namespace mcs::core {
namespace {

AppEnvironment env_for_mc(McSystem& sys, sim::Simulator& sim) {
  AppEnvironment env;
  env.sim = &sim;
  env.web = &sys.web_server();
  env.programs = &sys.app_server();
  env.db = &sys.database();
  env.personalization = &sys.personalization();
  env.payments = &sys.payments();
  env.seed = 11;
  return env;
}

AppEnvironment env_for_ec(EcSystem& sys, sim::Simulator& sim) {
  AppEnvironment env;
  env.sim = &sim;
  env.web = &sys.web_server();
  env.programs = &sys.app_server();
  env.db = &sys.database();
  env.personalization = &sys.personalization();
  env.payments = &sys.payments();
  env.seed = 11;
  return env;
}

TEST(AppCatalogTest, HasAllEightTable1Rows) {
  const auto apps = make_all_applications();
  ASSERT_EQ(apps.size(), 8u);
  EXPECT_EQ(apps[0]->category(), "Commerce");
  EXPECT_EQ(apps[1]->category(), "Education");
  EXPECT_EQ(apps[2]->category(), "Enterprise resource planning");
  EXPECT_EQ(apps[3]->category(), "Entertainment");
  EXPECT_EQ(apps[4]->category(), "Health care");
  EXPECT_EQ(apps[5]->category(), "Inventory tracking and dispatching");
  EXPECT_EQ(apps[6]->category(), "Traffic");
  EXPECT_EQ(apps[7]->category(), "Travel and ticketing");
  for (const auto& app : apps) {
    EXPECT_FALSE(app->name().empty());
    EXPECT_FALSE(app->major_application().empty());
    EXPECT_FALSE(app->clients().empty());
  }
}

// One MC transaction per application, over WAP.
class McAppParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(McAppParamTest, TransactionSucceedsOverWapSystem) {
  sim::Simulator sim;
  McSystem sys{sim};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  install_all(apps, env_for_mc(sys, sim));
  Application& app = *apps[GetParam()];

  std::optional<Application::TxnResult> got;
  app.run_transaction(*sys.mobile(0).driver, sys.web_url(""), 1,
                      [&](Application::TxnResult r) { got = r; });
  sim.run_until(sim::Time::minutes(2.0));
  ASSERT_TRUE(got.has_value()) << app.name();
  EXPECT_TRUE(got->ok) << app.name() << ": " << got->detail;
  EXPECT_GT(got->latency, sim::Time::zero());
  EXPECT_GT(got->over_air_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, McAppParamTest,
                         ::testing::Range<std::size_t>(0, 8),
                         [](const auto& tinfo) {
                           std::string n =
                               make_all_applications()[tinfo.param]->name();
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Same transactions over the EC baseline (desktop + wired).
class EcAppParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EcAppParamTest, TransactionSucceedsOverEcSystem) {
  sim::Simulator sim;
  EcSystem sys{sim};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  install_all(apps, env_for_ec(sys, sim));
  Application& app = *apps[GetParam()];

  std::optional<Application::TxnResult> got;
  app.run_transaction(*sys.client(0).driver, sys.web_url(""), 1,
                      [&](Application::TxnResult r) { got = r; });
  sim.run_until(sim::Time::minutes(2.0));
  ASSERT_TRUE(got.has_value()) << app.name();
  EXPECT_TRUE(got->ok) << app.name() << ": " << got->detail;
}

INSTANTIATE_TEST_SUITE_P(AllApps, EcAppParamTest,
                         ::testing::Range<std::size_t>(0, 8),
                         [](const auto& tinfo) {
                           std::string n =
                               make_all_applications()[tinfo.param]->name();
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(AppSequencesTest, CommerceTransactionsUpdateStockAndBalance) {
  sim::Simulator sim;
  McSystem sys{sim};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  install_all(apps, env_for_mc(sys, sim));
  Application& shop = *apps[0];

  int ok = 0;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    shop.run_transaction(*sys.mobile(0).driver, sys.web_url(""), seq,
                         [&](Application::TxnResult r) {
                           if (r.ok) ++ok;
                         });
    sim.run_until(sim.now() + sim::Time::minutes(1.0));
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(sys.database().table("orders")->size(), 3u);
  // Some account paid for each purchase.
  double total = 0.0;
  for (int i = 0; i < 8; ++i) {
    total += sys.bank().balance(sim::strf("acct%d", i));
  }
  EXPECT_LT(total, 8e6);
}

TEST(AppSequencesTest, InventoryReportsAreReadableByDispatch) {
  sim::Simulator sim;
  McSystem sys{sim};
  McSystemConfig cfg;
  auto apps = make_all_applications();
  install_all(apps, env_for_mc(sys, sim));
  Application& track = *apps[5];

  // Two vehicles report, then we locate one of them.
  int ok = 0;
  track.run_transaction(*sys.mobile(0).driver, sys.web_url(""), 7,
                        [&](Application::TxnResult r) {
                          if (r.ok) ++ok;
                        });
  sim.run_until(sim::Time::minutes(1.0));
  track.run_transaction(*sys.mobile(0).driver, sys.web_url(""), 14,
                        [&](Application::TxnResult r) {
                          if (r.ok) ++ok;
                        });
  sim.run_until(sim::Time::minutes(2.0));
  EXPECT_EQ(ok, 2);
  EXPECT_GE(sys.database().table("positions")->size(), 2u);
}

// The entertainment app's five media pages at `seed`, as installed on the
// web server: /media/track1 .. /media/track5.
std::vector<std::string> media_pages(std::uint64_t seed) {
  sim::Simulator sim;
  McSystem sys{sim};
  AppEnvironment env = env_for_mc(sys, sim);
  env.seed = seed;
  auto apps = make_all_applications();
  apps[3]->install(env);  // Entertainment
  std::vector<std::string> pages;
  for (int i = 1; i <= 5; ++i) {
    const std::string* body =
        sys.web_server().content_body(sim::strf("/media/track%d", i));
    pages.push_back(body != nullptr ? *body : std::string{});
  }
  return pages;
}

TEST(MediaPagesTest, EachPageWrapsItsLettersInTheHtmlPageWrapper) {
  const auto pages = media_pages(11);
  ASSERT_EQ(pages.size(), 5u);
  for (int i = 1; i <= 5; ++i) {
    const std::string& page = pages[static_cast<std::size_t>(i - 1)];
    // html_page("Track i", "<p>MEDIA-BEGIN " + blob + " MEDIA-END</p>").
    const std::string prefix = sim::strf(
        "<html><head><title>Track %d</title></head><body><h1>Track %d</h1>"
        "<p>MEDIA-BEGIN ",
        i, i);
    const std::string suffix = " MEDIA-END</p></body></html>";
    const std::size_t letters = 8'000 + 4'000 * static_cast<std::size_t>(i);
    ASSERT_EQ(page.size(), prefix.size() + letters + suffix.size())
        << "track " << i;
    EXPECT_EQ(page.substr(0, prefix.size()), prefix) << "track " << i;
    EXPECT_EQ(page.substr(page.size() - suffix.size()), suffix)
        << "track " << i;
    bool seen[26] = {};
    for (std::size_t b = prefix.size(); b < prefix.size() + letters; ++b) {
      const char c = page[b];
      ASSERT_TRUE(c >= 'A' && c <= 'Z')
          << "track " << i << " byte " << b << " is " << int{c};
      seen[c - 'A'] = true;
    }
    for (int l = 0; l < 26; ++l) {
      EXPECT_TRUE(seen[l]) << "track " << i << " lacks "
                           << static_cast<char>('A' + l);
    }
  }
}

TEST(MediaPagesTest, PagesAreDeterministicPerSeed) {
  const auto a = media_pages(11);
  EXPECT_EQ(media_pages(11), a);
  const auto b = media_pages(12);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Same wrapper and length, different letters.
    EXPECT_EQ(b[i].size(), a[i].size());
    EXPECT_NE(b[i], a[i]) << "track " << i + 1;
  }
}

// Pins the letter generator at seed 11: any change to it shows up here.
TEST(MediaPagesTest, TrackOneDigestIsPinned) {
  EXPECT_EQ(sim::fnv1a(media_pages(11)[0]), 0x9df6ba672c0d5c6dull);
}

}  // namespace
}  // namespace mcs::core

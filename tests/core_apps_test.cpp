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

// --- Catalog page ------------------------------------------------------------
// The /shop/catalog page is pinned byte for byte: ids, names and prices as
// the page shows them, the personalized order and the spending-limit filter.

// The raw HTML of /shop/catalog for `user`, served by an EC system (no
// middleware between the page and the client) after `prepare` has run on
// the installed system.
template <typename Prepare>
std::string catalog_page(const std::string& user, Prepare prepare) {
  sim::Simulator sim;
  EcSystem sys{sim};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  install_all(apps, env_for_ec(sys, sim));
  prepare(sys);
  std::optional<FetchResult> got;
  sys.client(0).driver->fetch(sys.web_url("/shop/catalog?user=" + user),
                              [&](FetchResult r) { got = std::move(r); });
  sim.run_until(sim::Time::minutes(1.0));
  if (!got.has_value() || !got->ok) return "fetch failed";
  return got->raw;
}

TEST(CatalogPageTest, SeededCatalogIsPinned) {
  EXPECT_EQ(catalog_page("acct1", [](EcSystem&) {}),
            "<html><head><title>Catalog</title></head><body><h1>Catalog</h1>"
            "<ul>"
            "<li><a href=\"/shop/buy?item=1\">Product 1 ($12.99)</a></li>"
            "<li><a href=\"/shop/buy?item=2\">Product 2 ($15.99)</a></li>"
            "<li><a href=\"/shop/buy?item=3\">Product 3 ($18.99)</a></li>"
            "<li><a href=\"/shop/buy?item=4\">Product 4 ($21.99)</a></li>"
            "<li><a href=\"/shop/buy?item=5\">Product 5 ($24.99)</a></li>"
            "<li><a href=\"/shop/buy?item=6\">Product 6 ($27.99)</a></li>"
            "<li><a href=\"/shop/buy?item=7\">Product 7 ($30.99)</a></li>"
            "<li><a href=\"/shop/buy?item=8\">Product 8 ($33.99)</a></li>"
            "<li><a href=\"/shop/buy?item=9\">Product 9 ($36.99)</a></li>"
            "<li><a href=\"/shop/buy?item=10\">Product 10 ($39.99)</a></li>"
            "</ul></body></html>");
}

// A profiled shopper: interests rank the categories, the spending limit
// drops dearer items, and names with '|', '%', a space and UTF-8 bytes
// travel the escaped wire form and come back verbatim.
TEST(CatalogPageTest, ProfiledCatalogWithEscapedNamesIsPinned) {
  const std::string page = catalog_page("shopper", [](EcSystem& sys) {
    auto& db = sys.database();
    db.insert("products", {std::int64_t{25}, std::string{"Pipe|Dream 100%"},
                           std::string{"gifts"}, 0.1 + 0.2, std::int64_t{3}});
    db.insert("products",
              {std::int64_t{26}, std::string{"Caf\xC3\xA9 cr\xC3\xA8me %7C"},
               std::string{"gifts"}, 39.9999999, std::int64_t{3}});
    db.insert("products", {std::int64_t{27}, std::string{"Gold|Watch"},
                           std::string{"gifts"}, 1.0e7, std::int64_t{1}});
    db.insert("products", {std::int64_t{28}, std::string{"\xE2\x82\xAC-Coin"},
                           std::string{"gifts"}, 21.99, std::int64_t{9}});
    UserProfile p;
    p.user_id = "shopper";
    p.interests = {"gifts", "books"};
    p.spending_limit = 40.0;
    sys.personalization().upsert_profile(p);
  });
  // 0.1 + 0.2 shows as "0.3"; 39.9999999 shows as "40" and, read back from
  // that text, is not over the limit; 1e7 is.
  EXPECT_EQ(page,
            "<html><head><title>Catalog</title></head><body><h1>Catalog</h1>"
            "<ul>"
            "<li><a href=\"/shop/buy?item=25\">Pipe|Dream 100% ($0.3)</a></li>"
            "<li><a href=\"/shop/buy?item=28\">\xE2\x82\xAC-Coin ($21.99)"
            "</a></li>"
            "<li><a href=\"/shop/buy?item=26\">Caf\xC3\xA9 cr\xC3\xA8me %7C "
            "($40)</a></li>"
            "<li><a href=\"/shop/buy?item=1\">Product 1 ($12.99)</a></li>"
            "<li><a href=\"/shop/buy?item=5\">Product 5 ($24.99)</a></li>"
            "<li><a href=\"/shop/buy?item=9\">Product 9 ($36.99)</a></li>"
            "<li><a href=\"/shop/buy?item=2\">Product 2 ($15.99)</a></li>"
            "<li><a href=\"/shop/buy?item=3\">Product 3 ($18.99)</a></li>"
            "<li><a href=\"/shop/buy?item=4\">Product 4 ($21.99)</a></li>"
            "<li><a href=\"/shop/buy?item=6\">Product 6 ($27.99)</a></li>"
            "</ul></body></html>");
}

}  // namespace
}  // namespace mcs::core

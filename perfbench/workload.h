#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// Seeded inputs of the end-to-end EarthQube benchmark: the synthetic
/// archive and its 64-bit codes, the per-session request streams of each
/// workload, the brute-force oracle that checks responses, and the
/// percentile rule used when reporting timings.  Everything here is a
/// pure function of the workload seed, so two runs with one seed send
/// byte-identical request streams.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "common/binary_code.h"
#include "common/random.h"
#include "common/time_util.h"
#include "geo/geo.h"

namespace perfbench {

using agoraeo::BinaryCode;
using agoraeo::Rng;

inline constexpr size_t kCodeBits = 64;

/// The generated archive in ingest order: metadata plus one code per
/// patch.  Index i is the patch's global ingest sequence number.
struct Corpus {
  agoraeo::bigearthnet::Archive archive;
  std::vector<BinaryCode> codes;
};

/// Synthesises `num_patches` patches and clustered codes (one random
/// centre per generator scene, each bit flipped with probability 0.08,
/// which approximates a trained hashing model's code distribution).
Corpus MakeCorpus(size_t num_patches, uint64_t seed);

/// Request kinds of the read mix.  kPage is a cursor follow-up of a
/// multi-page kPanel/kQbe/kHybrid answer.
enum class ReqType { kPanel = 0, kQbe = 1, kHybrid = 2, kPage = 3 };
inline constexpr int kNumReqTypes = 4;
const char* ReqTypeName(ReqType type);

/// The metadata half of a request, as the oracle evaluates it.
struct PanelSpec {
  std::vector<int> some_labels;  ///< label ids; "some" operator
  std::optional<std::pair<int64_t, int64_t>> date_ordinals;  ///< inclusive
  std::vector<agoraeo::Season> seasons;
  std::optional<agoraeo::geo::BoundingBox> rect;
  size_t limit = 0;  ///< 0 = unlimited
};

/// The similarity half of a request.
struct SimSpec {
  std::optional<size_t> subject;  ///< by-name subject (corpus index)
  BinaryCode code;                ///< the query code (subject's or raw)
  std::optional<size_t> k;        ///< k-NN mode
  uint32_t radius = 0;            ///< radius mode when k is unset
  size_t limit = 0;               ///< radius-mode cap, 0 = unlimited
};

/// One generated request: its wire body plus what the oracle needs.
struct Request {
  ReqType type = ReqType::kPanel;
  std::string body;
  std::optional<PanelSpec> panel;
  std::optional<SimSpec> sim;
  bool hits_projection = false;
  /// How many continuation pages the session follows when the answer
  /// carries a cursor (at most 4, so answers are read up to 5 pages
  /// deep).
  size_t follow_pages = 0;
};

/// The read mixes.  kExplore is EarthQube's demo traffic (panels,
/// Query-by-Example by archive name with Zipf-skewed subjects, hybrids);
/// kScan sends distinct raw codes that no cache can serve.
enum class Mix { kExplore, kScan };

/// An endless, deterministic request stream for one session.
class RequestStream {
 public:
  /// `subject_limit` bounds by-name subjects and raw-code sources to the
  /// first patches of the corpus (those present before any ingest).
  RequestStream(const Corpus* corpus, size_t subject_limit, Mix mix,
                uint64_t seed, uint64_t session);
  Request Next();

 private:
  PanelSpec RandomPanel();
  PanelSpec RandomWindowPanel();
  SimSpec ByName(size_t k);
  size_t ZipfSubject();

  const Corpus* corpus_;
  size_t subject_limit_;
  Mix mix_;
  Rng rng_;
  /// Zipf(s=1) ranks map to patches through a seeded permutation so the
  /// hot subjects are spread over the archive; shared per seed.
  std::vector<uint32_t> rank_to_patch_;
  std::vector<double> zipf_cdf_;
  std::vector<int> common_labels_;
};

/// The JSON body of a request with a continuation cursor added.
std::string WithCursor(const std::string& body, const std::string& cursor);

/// One ranked row of an expected or received answer.
struct Row {
  std::string name;
  int distance = -1;  ///< -1 for panel-only rows
  bool operator==(const Row& o) const {
    return name == o.name && distance == o.distance;
  }
};

/// The brute-force answer over the patches `visible(i)` admits: the
/// whole ranking (panel-only answers in ingest order, similarity answers
/// by (distance, ingest order)), before paging.
std::vector<Row> ExpectedRanking(const Corpus& corpus, const Request& request,
                                 const std::function<bool(size_t)>& visible);

/// The rows a page of `page_size` starting at `page` shows.
std::vector<Row> PageOf(const std::vector<Row>& ranking, size_t page,
                        size_t page_size);

/// Parses the "results" rows of an /api/v2/query response body.
bool ParseRows(const std::string& body, std::vector<Row>* rows,
               std::string* cursor);

/// Timing summary by the reporting rule: the median, and the highest
/// of the percentiles 99.9, 99, 90 that has at least ten samples beyond
/// it (0 when even p90 has fewer).
struct Tail {
  double percentile = 0;
  double value = 0;
};
double Quantile(std::vector<double> values, double q);
Tail HighestSupportedTail(const std::vector<double>& values);
/// Whether percentile `p` (e.g. 99) has at least ten samples beyond it.
bool TailSupported(size_t num_samples, double p);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

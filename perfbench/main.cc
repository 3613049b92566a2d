/// End-to-end benchmark of the EarthQube stack over real HTTP.
///
///   earthqube_bench --workload <explore|qbe_scan|cluster_ingest>
///                   --seed <n> --seconds <s> --trace <0|1>
///
/// One process builds the system under test with default EarthQubeConfig
/// and CbirConfig (only ports and snapshot paths are set), drives it with
/// closed-loop sessions over loopback HTTP, checks a seeded sample of the
/// answers against a brute-force oracle, and prints the metrics.  The last
/// stdout line is one JSON object: {"correct", "attempted", "failed",
/// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
/// metrics (--trace 1).  The line before it ("detail") carries every
/// metric the run measured, with units, including the per-type medians
/// that only some workloads have.
///
/// The traced run adds no span inside the program: it times calls into
/// each module's public functions from here, on a freshly built replica
/// that replays the traced window's request log, and reads the counters
/// and stage histograms the servers export before and after the window.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bigearthnet/feature_extractor.h"
#include "cluster/cluster_node.h"
#include "cluster/coordinator.h"
#include "cluster/slot_table.h"
#include "common/logging.h"
#include "docstore/collection.h"
#include "earthqube/cbir_service.h"
#include "earthqube/earthqube.h"
#include "earthqube/schema.h"
#include "json/json.h"
#include "milan/milan_model.h"
#include "netsvc/client.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/server.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

namespace eq = agoraeo::earthqube;
namespace net = agoraeo::netsvc;
namespace cl = agoraeo::cluster;
namespace json = agoraeo::json;
namespace docstore = agoraeo::docstore;
using Clock = std::chrono::steady_clock;
using agoraeo::StatusOr;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "earthqube_bench: %s\n", what.c_str());
  std::exit(2);
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// --- workloads -------------------------------------------------------------

/// The shape of one workload; why each exists is recorded in
/// BENCHMARK.json and perfbench/README.md.
struct WorkloadSpec {
  std::string name;
  size_t archive = 0;       ///< patches present when serving starts
  size_t extra = 0;         ///< patches the writer ingests during the run
  bool cluster = false;
  Mix mix = Mix::kExplore;
  size_t checks_per_session = 0;  ///< oracle sample cap
  size_t builds = 0;  ///< set-ups per run; setup_s is their median
};

WorkloadSpec SpecFor(const std::string& name) {
  if (name == "explore") return {name, 100000, 0, false, Mix::kExplore, 60, 7};
  // BigEarthNet's 590,326 patches make every distinct-code query
  // memory-latency bound: run-to-run spread of qps was 0.31 (IQR/median
  // over ten seeds) on a shared 4-core host, 0.25 at 300k and 0.05 at
  // 100k, so the gated workload runs at 100k.
  if (name == "qbe_scan") return {name, 100000, 0, false, Mix::kScan, 20, 7};
  if (name == "cluster_ingest") {
    // 64-patch batches every 300 ms, at most 70 of them: under 5% growth
    // (a 20 s window sends 67).
    return {name, 100000, 70 * 64, true, Mix::kExplore, 40, 5};
  }
  Die("unknown workload '" + name + "' (explore, qbe_scan, cluster_ingest)");
}

constexpr size_t kWriteBatch = 64;
constexpr auto kWriteInterval = std::chrono::milliseconds(300);
constexpr size_t kNumSlots = 256;
constexpr size_t kNumNodes = 3;

// --- the system under test -------------------------------------------------

std::unique_ptr<agoraeo::milan::MilanModel> UntrainedModel() {
  // Codes are precomputed, so the model never runs; its size only shows
  // in setup time and memory.
  agoraeo::milan::MilanConfig config;
  config.feature_dim = agoraeo::bigearthnet::kFeatureDim;
  config.hidden1 = 32;
  config.hidden2 = 32;
  config.hash_bits = kCodeBits;
  return std::make_unique<agoraeo::milan::MilanModel>(config);
}

/// One ingest request's worth of patches and their codes.
struct Batch {
  agoraeo::bigearthnet::Archive archive;
  std::vector<BinaryCode> codes;
};

/// Patches [begin, end) of the corpus cut into batches of `size`; made
/// before any timer starts, so copying inputs is never timed.
std::vector<Batch> Batches(const Corpus& corpus, size_t begin, size_t end,
                           size_t size) {
  std::vector<Batch> out;
  for (size_t b = begin; b < end; b += size) {
    const size_t e = std::min(end, b + size);
    Batch batch;
    batch.archive.config = corpus.archive.config;
    batch.archive.patches.assign(corpus.archive.patches.begin() + b,
                                 corpus.archive.patches.begin() + e);
    batch.codes.assign(corpus.codes.begin() + b, corpus.codes.begin() + e);
    out.push_back(std::move(batch));
  }
  return out;
}

/// A booted deployment: the monolith, or kNumNodes durable cluster nodes
/// behind a coordinator.  `port` is the front door; `scrape_ports` lists
/// every server whose counters the traced run reads (front door first).
struct Rig {
  // Monolith.
  std::unique_ptr<eq::EarthQube> mono;
  std::unique_ptr<net::EarthQubeService> service;
  // Cluster.
  std::vector<std::unique_ptr<eq::EarthQube>> node_systems;
  std::vector<std::unique_ptr<cl::ClusterNode>> nodes;
  std::unique_ptr<cl::Coordinator> coordinator;
  cl::SlotTable table;
  std::string state_dir;
  // Front door.
  std::unique_ptr<net::HttpServer> server;
  uint16_t port = 0;
  std::vector<uint16_t> scrape_ports;

  ~Rig() {
    if (server != nullptr) server->Stop();
    for (auto& node : nodes) node->Stop();
    server.reset();
    nodes.clear();
    coordinator.reset();
    node_systems.clear();
    service.reset();
    mono.reset();
    if (!state_dir.empty()) std::filesystem::remove_all(state_dir);
    // Hand the freed heap back, so consecutive builds do not stack up in
    // resident memory.
    malloc_trim(0);
  }
};

std::unique_ptr<Rig> BuildMono(const Batch& data,
                               const agoraeo::bigearthnet::FeatureExtractor& fx) {
  auto rig = std::make_unique<Rig>();
  rig->mono = std::make_unique<eq::EarthQube>();
  rig->mono->AttachCbir(std::make_unique<eq::CbirService>(
      UntrainedModel(), &fx, eq::CbirConfig{}));
  const auto status = rig->mono->IngestArchiveWithCodes(data.archive, data.codes);
  if (!status.ok()) Die("monolith ingest: " + status.ToString());
  rig->service = std::make_unique<net::EarthQubeService>(rig->mono.get());
  rig->server = std::make_unique<net::HttpServer>();
  rig->service->RegisterRoutes(rig->server.get());
  if (!rig->server->Start(0).ok()) Die("monolith server did not start");
  rig->port = rig->server->port();
  rig->scrape_ports = {rig->port};
  return rig;
}

std::unique_ptr<Rig> BuildCluster(const std::vector<Batch>& preload,
                                  const agoraeo::bigearthnet::FeatureExtractor& fx,
                                  const std::string& state_dir) {
  auto rig = std::make_unique<Rig>();
  rig->state_dir = state_dir;
  std::filesystem::remove_all(state_dir);
  std::vector<cl::NodeAddress> addresses;
  for (size_t i = 0; i < kNumNodes; ++i) {
    const std::string id = "n" + std::to_string(i + 1);
    eq::CbirConfig config;
    config.snapshot_dir = state_dir + "/" + id;
    std::filesystem::create_directories(config.snapshot_dir);
    rig->node_systems.push_back(std::make_unique<eq::EarthQube>());
    const auto recovered = rig->node_systems.back()->RecoverAndAttachCbir(
        std::make_unique<eq::CbirService>(UntrainedModel(), &fx, config));
    if (!recovered.ok()) Die("node recovery: " + recovered.ToString());
    cl::ClusterNode::Options options;
    options.id = id;
    rig->nodes.push_back(std::make_unique<cl::ClusterNode>(
        rig->node_systems.back().get(), options));
    if (!rig->nodes.back()->Start(0).ok()) Die("cluster node did not start");
    addresses.push_back(rig->nodes.back()->address());
  }
  rig->table = cl::SlotTable(addresses, kNumSlots);
  for (auto& node : rig->nodes) node->SetTable(rig->table);
  rig->coordinator = std::make_unique<cl::Coordinator>();
  rig->coordinator->AttachTable(rig->table);
  for (const Batch& batch : preload) {
    const auto status = rig->coordinator->IngestArchive(batch.archive, batch.codes);
    if (!status.ok()) Die("routed preload: " + status.ToString());
  }
  rig->server = std::make_unique<net::HttpServer>();
  rig->coordinator->RegisterRoutes(rig->server.get());
  if (!rig->server->Start(0).ok()) Die("coordinator server did not start");
  rig->port = rig->server->port();
  rig->scrape_ports = {rig->port};
  for (auto& node : rig->nodes) rig->scrape_ports.push_back(node->port());
  return rig;
}

net::HttpClient MakeClient() {
  net::HttpClientOptions options;
  options.max_retries = 0;  // a refused or dropped request is a failure
  options.read_timeout_ms = 30000;
  return net::HttpClient("127.0.0.1", options);
}

bool WaitHealthy(uint16_t port) {
  const auto client = MakeClient();
  for (int i = 0; i < 200; ++i) {
    auto r = client.Get(port, "/health");
    if (r.ok() && r->status_code == 200) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

struct Deployment {
  const WorkloadSpec* spec;
  const Corpus* corpus;
  const agoraeo::bigearthnet::FeatureExtractor* fx;
  std::string state_root;
  /// The preload: one batch for the monolith; 10k-patch routed-ingest
  /// requests for the cluster, each well inside the inter-node timeout.
  std::vector<Batch> preload;
  int builds = 0;

  /// Builds and boots one system; `seconds` receives construction-to-
  /// ready time (ready = GET /health answers 200).
  std::unique_ptr<Rig> Build(double* seconds) {
    const auto t0 = Clock::now();
    std::unique_ptr<Rig> rig =
        spec->cluster
            ? BuildCluster(preload, *fx,
                           state_root + "/setup" + std::to_string(builds++))
            : BuildMono(preload.front(), *fx);
    if (!WaitHealthy(rig->port)) Die("system never became healthy");
    *seconds = Seconds(Clock::now() - t0);
    return rig;
  }
};

// --- load generation -------------------------------------------------------

struct Sample {
  ReqType type;
  bool ok;
  double ms;
  size_t bytes;
  double start_s;  ///< offset from window start
};

/// One oracle check: the request, which page of it, the answer, and the
/// ingest progress bracketing it (cluster_ingest).
struct Check {
  Request request;
  size_t page = 0;
  std::string response;
  size_t acked_at_send = 0;
  size_t dispatched_at_recv = 0;
};

/// The traced window's per-request log, replayed in-process afterwards.
struct LogEntry {
  std::string body;
  ReqType type;
  const Request* base;  ///< owned by the session's request list
  double wall_us;
  double start_s;
};

struct WriterStats {
  std::vector<double> ingest_ms;  ///< ack time minus due time
  std::vector<double> late_ms;    ///< send time minus due time
  size_t patches = 0;
  size_t failed = 0;
};

struct WindowResult {
  std::vector<Sample> samples;
  std::vector<Check> checks;
  std::vector<std::vector<LogEntry>> logs;  ///< per session, in order
  std::vector<std::unique_ptr<std::deque<Request>>> requests;  ///< per session
  WriterStats writer;
  size_t repeats = 0;
  double seconds = 0;
};

std::string CursorOf(const std::string& body) {
  static const std::string key = "\"cursor\":\"";
  const size_t at = body.find(key);
  if (at == std::string::npos) return {};
  const size_t end = body.find('"', at + key.size());
  if (end == std::string::npos) return {};
  return body.substr(at + key.size(), end - at - key.size());
}

/// Runs the closed-loop read sessions (and, on cluster_ingest, the
/// open-loop writer) against `rig` for `seconds`.
WindowResult RunWindow(Rig* rig, const WorkloadSpec& spec, const Corpus& corpus,
                       uint64_t seed, double seconds, bool keep_log) {
  const size_t nproc = Nproc();
  const size_t sessions =
      spec.cluster ? std::max<size_t>(1, nproc - 1) : nproc;
  WindowResult result;
  std::atomic<size_t> acked{0}, dispatched{0};
  std::vector<std::vector<Sample>> samples(sessions);
  std::vector<std::vector<Check>> checks(sessions);
  std::vector<std::vector<LogEntry>> logs(sessions);
  std::vector<std::vector<std::string>> bodies(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    result.requests.push_back(std::make_unique<std::deque<Request>>());
  }
  const std::vector<Batch> writes =
      Batches(corpus, spec.archive, spec.archive + spec.extra, kWriteBatch);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  auto session = [&](size_t s) {
    const auto client = MakeClient();
    RequestStream stream(&corpus, spec.archive, spec.mix, seed, s);
    Rng pick(seed, /*stream=*/5000 + s);
    std::deque<Request>& requests = *result.requests[s];
    while (Clock::now() < deadline) {
      requests.push_back(stream.Next());
      const Request& base = requests.back();
      std::string body = base.body;
      for (size_t page = 0;; ++page) {
        const ReqType type = page == 0 ? base.type : ReqType::kPage;
        const size_t acked_at_send = acked.load();
        const auto t0 = Clock::now();
        auto response = client.Post(rig->port, "/api/v2/query", body);
        const auto t1 = Clock::now();
        const bool ok = response.ok() && response->status_code == 200;
        if (!ok) {
          std::fprintf(stderr, "request failed (%s): %s\n",
                       response.ok() ? std::to_string(response->status_code).c_str()
                                     : response.status().ToString().c_str(),
                       body.c_str());
        }
        samples[s].push_back({type, ok, Millis(t1 - t0),
                               ok ? response->body.size() : 0,
                               Seconds(t0 - start)});
        bodies[s].push_back(body);
        if (keep_log) {
          logs[s].push_back({body, type, &base, Micros(t1 - t0),
                             Seconds(t0 - start)});
        }
        if (ok && checks[s].size() < spec.checks_per_session &&
            pick.UniformInt(8u) == 0) {
          checks[s].push_back({base, page, response->body, acked_at_send,
                               dispatched.load()});
        }
        if (!ok || page >= base.follow_pages) break;
        const std::string cursor = CursorOf(response->body);
        if (cursor.empty() || Clock::now() >= deadline) break;
        body = WithCursor(base.body, cursor);
      }
    }
  };

  auto writer = [&] {
    for (size_t j = 0; j < writes.size(); ++j) {
      const auto due = start + j * kWriteInterval;
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      dispatched.store(j + 1);
      const auto status =
          rig->coordinator->IngestArchive(writes[j].archive, writes[j].codes);
      const auto done = Clock::now();
      if (!status.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
        ++result.writer.failed;
        break;
      }
      acked.store(j + 1);
      result.writer.late_ms.push_back(Millis(sent - due));
      result.writer.ingest_ms.push_back(Millis(done - due));
      result.writer.patches += writes[j].codes.size();
    }
  };

  {
    std::vector<std::thread> threads;
    for (size_t s = 0; s < sessions; ++s) threads.emplace_back(session, s);
    if (spec.cluster) threads.emplace_back(writer);
    for (auto& t : threads) t.join();
  }
  result.seconds = Seconds(Clock::now() - start);
  std::unordered_set<std::string> seen;
  for (size_t s = 0; s < sessions; ++s) {
    result.samples.insert(result.samples.end(), samples[s].begin(),
                          samples[s].end());
    for (auto& c : checks[s]) result.checks.push_back(std::move(c));
  }
  // Repeats in the order requests were sent, across sessions.
  std::vector<std::pair<double, const std::string*>> order;
  for (size_t s = 0; s < sessions; ++s) {
    for (size_t i = 0; i < bodies[s].size(); ++i) {
      order.emplace_back(samples[s][i].start_s, &bodies[s][i]);
    }
  }
  std::sort(order.begin(), order.end());
  for (const auto& [t, body] : order) {
    if (!seen.insert(*body).second) ++result.repeats;
  }
  result.logs = std::move(logs);
  return result;
}

// --- correctness oracle ----------------------------------------------------

/// Checks every sampled answer; returns the number of mismatches.  On
/// cluster_ingest the visible archive is the preload plus, per node, a
/// prefix of the write batches between those acknowledged before the
/// request was sent and those dispatched before its answer arrived.
size_t CountWrong(const WindowResult& window, const WorkloadSpec& spec,
                  const Corpus& corpus, const cl::SlotTable* table) {
  std::vector<size_t> owner(corpus.codes.size(), 0);
  if (table != nullptr) {
    for (size_t i = spec.archive; i < corpus.codes.size(); ++i) {
      const auto* node = table->OwnerOfName(corpus.archive.patches[i].name);
      for (size_t n = 0; n < table->num_nodes(); ++n) {
        if (node != nullptr && table->node(n).id == node->id) owner[i] = n;
      }
    }
  }
  size_t wrong = 0;
  for (const Check& check : window.checks) {
    std::vector<Row> got;
    std::string cursor;
    if (!ParseRows(check.response, &got, &cursor)) {
      ++wrong;
      continue;
    }
    const size_t a = check.acked_at_send;
    const size_t d = std::max(a, check.dispatched_at_recv);
    const size_t choices = d - a + 1;
    size_t combos = 1;
    if (spec.cluster) {
      for (size_t n = 0; n < kNumNodes; ++n) combos *= choices;
    }
    bool matched = false;
    for (size_t combo = 0; combo < combos && !matched; ++combo) {
      size_t visible_batches[kNumNodes];
      size_t c = combo;
      for (size_t n = 0; n < kNumNodes; ++n) {
        visible_batches[n] = a + c % choices;
        c /= choices;
      }
      const auto visible = [&](size_t i) {
        if (i < spec.archive) return true;
        if (!spec.cluster) return false;
        return (i - spec.archive) / kWriteBatch < visible_batches[owner[i]];
      };
      const auto expected = PageOf(ExpectedRanking(corpus, check.request, visible),
                                   check.page, eq::kPageSize);
      matched = expected == got;
    }
    if (!matched) {
      ++wrong;
      std::fprintf(stderr, "wrong answer (page %zu): %s\n", check.page,
                   check.request.body.c_str());
    }
  }
  return wrong;
}

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Flattened numeric view of one server's /api/v2/metrics (counters and
/// gauges by name, histograms as "<name>#count" and "<name>#sum_ns") and
/// /api/v2/cache/stats (as "cache_stats.<block>.<field>"; the coordinator
/// exports its result cache only there).
using Scrape = std::map<std::string, double>;

docstore::Document GetJson(uint16_t port, const std::string& target) {
  auto response = MakeClient().Get(port, target);
  if (!response.ok() || response->status_code != 200) Die(target + " scrape failed");
  auto doc = json::ParseObject(response->body);
  if (!doc.ok()) Die(target + " scrape is not JSON");
  return std::move(*doc);
}

Scrape ScrapeMetrics(uint16_t port) {
  Scrape out;
  const docstore::Document metrics = GetJson(port, "/api/v2/metrics");
  for (const auto& [name, value] : metrics.fields()) {
    if (value.is_number()) {
      out[name] = value.as_number();
    } else if (value.is_document()) {
      const auto* count = value.as_document().Get("count");
      const auto* sum = value.as_document().Get("sum_ns");
      if (count != nullptr) out[name + "#count"] = count->as_number();
      if (sum != nullptr) out[name + "#sum_ns"] = sum->as_number();
    }
  }
  const docstore::Document caches = GetJson(port, "/api/v2/cache/stats");
  for (const auto& [block, value] : caches.fields()) {
    if (!value.is_document()) continue;
    for (const auto& [field, v] : value.as_document().fields()) {
      if (v.is_number()) out["cache_stats." + block + "." + field] = v.as_number();
    }
  }
  return out;
}

/// Per-server deltas of one window.
struct ScrapeDelta {
  std::vector<Scrape> before, after;

  double Get(size_t server, const std::string& name) const {
    const auto a = after[server].find(name);
    const auto b = before[server].find(name);
    return (a == after[server].end() ? 0 : a->second) -
           (b == before[server].end() ? 0 : b->second);
  }
  /// Sum over `servers` of every series whose name starts with `prefix`.
  double Sum(const std::vector<size_t>& servers,
             const std::string& prefix) const {
    double total = 0;
    for (size_t s : servers) {
      for (const auto& [name, v] : after[s]) {
        if (name.rfind(prefix, 0) == 0) total += Get(s, name);
      }
    }
    return total;
  }
  /// Mean of a histogram family over the window, in microseconds.
  double MeanUs(const std::vector<size_t>& servers,
                const std::string& name) const {
    double count = 0, sum = 0;
    for (size_t s : servers) {
      count += Get(s, name + "#count");
      sum += Get(s, name + "#sum_ns");
    }
    return count > 0 ? sum / count / 1000.0 : 0;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string StageName(const char* stage) {
  return std::string("agoraeo_engine_stage_ns{stage=\"") + stage + "\"}";
}

/// Per-layer numbers timed in-process on a replica replaying the log.
struct Replay {
  std::vector<double> decode_us, execute_us, encode_us, edge_us;
  std::vector<double> execute_by_type[kNumReqTypes];
  std::vector<double> find_us, estimate_us, stream_us, search_us, query_us;
  double examined = 0, returned = 0;
  double candidates = 0, buckets = 0, results = 0, index_queries = 0;
  double covered_us = 0, wall_us = 0;
  size_t replayed = 0;
};

template <typename F>
double TimeUs(F&& f) {
  const auto t0 = Clock::now();
  f();
  return Micros(Clock::now() - t0);
}

/// Decodes a logged body.  With `by_code` the request is what the node a
/// fan-out reaches sees: by-name subjects resolved to their code (the
/// coordinator's subject resolve).
StatusOr<eq::QueryRequest> DecodeForNode(const std::string& body,
                                         const Request& base, bool by_code) {
  auto doc = json::ParseObject(body);
  if (!doc.ok()) return doc.status();
  auto request = net::EarthQubeService::QueryRequestFromJson(*doc);
  if (!by_code || !request.ok() || !request->similarity.has_value() ||
      !request->similarity->archive_name.has_value()) {
    return request;
  }
  request->similarity->archive_name.reset();
  request->similarity->code = base.sim->code;
  return request;
}

/// Times the index layer for one similarity request: the HTTP path's
/// OpenStream + Next(page_size), the eager call, and SearchStats.
void ProbeIndex(const eq::CbirService& cbir, const Corpus& corpus,
                const Request& base, Replay* out) {
  const SimSpec& s = *base.sim;
  const std::string exclude =
      s.subject.has_value() ? corpus.archive.patches[*s.subject].name : "";
  const std::optional<uint32_t> radius =
      s.k.has_value() ? std::nullopt : std::optional<uint32_t>(s.radius);
  const size_t cap = s.k.has_value() ? *s.k : s.limit;
  std::vector<eq::CbirResult> page;
  out->stream_us.push_back(TimeUs([&] {
    auto stream = cbir.OpenStream(s.code, radius, cap, nullptr, exclude);
    stream->Next(eq::kPageSize, &page);
  }));
  out->search_us.push_back(TimeUs([&] {
    (void)(s.k.has_value()
               ? cbir.KnnByCode(s.code, *s.k, exclude)
               : cbir.RadiusByCode(s.code, s.radius, s.limit, exclude));
  }));
  agoraeo::index::SearchStats stats;
  if (s.k.has_value()) {
    cbir.hamming_index().KnnSearch(s.code, *s.k + (exclude.empty() ? 0 : 1),
                                   &stats);
  } else {
    cbir.hamming_index().RadiusSearch(s.code, s.radius, &stats);
  }
  out->candidates += static_cast<double>(stats.candidates);
  out->buckets += static_cast<double>(stats.buckets_probed);
  out->results += static_cast<double>(stats.results);
  out->index_queries += 1;
}

void ProbeDocstore(const eq::EarthQube& system, const eq::QueryRequest& request,
                   Replay* out) {
  if (!request.panel.has_value()) return;
  const auto* metadata = system.database().GetCollection(eq::kMetadataCollection);
  const auto filter = request.panel->ToFilter();
  agoraeo::docstore::QueryStats stats;
  size_t found = 0;
  out->find_us.push_back(TimeUs([&] {
    found = metadata->Find(filter, request.panel->limit, &stats).size();
  }));
  out->estimate_us.push_back(
      TimeUs([&] { (void)metadata->EstimateMatches(filter); }));
  out->examined += static_cast<double>(stats.docs_examined);
  out->returned += static_cast<double>(found);
}

/// Replays the traced window on a replica with one thread per session,
/// each replaying its own session's log in order, so the replica's caches
/// warm as the served system's did and the served system never sees a
/// replayed call.  On cluster_ingest `coordinator` is the replica's
/// coordinator (timed per request) and `exec` a monolith holding node
/// n1's share, so node-level calls never warm a cache a fan-out hits.
Replay ReplayLog(const WindowResult& window, eq::EarthQube* exec,
                 cl::Coordinator* coordinator, double rtt_us, double cap_s) {
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(cap_s));
  std::vector<Replay> parts(window.logs.size());
  auto replay = [&](size_t session) {
    Replay& out = parts[session];
    for (const LogEntry& entry : window.logs[session]) {
      if (Clock::now() >= stop) break;
      double covered = rtt_us;
      if (coordinator != nullptr) {
        const double us = TimeUs([&] {
          auto r = coordinator->Query(entry.body);
          if (!r.ok()) Die("replayed cluster query failed: " + r.status().ToString());
        });
        out.query_us.push_back(us);
        covered += us;
      }
      eq::QueryRequest request;
      const double decode = TimeUs([&] {
        auto r = DecodeForNode(entry.body, *entry.base, coordinator != nullptr);
        if (!r.ok()) Die("replayed request does not decode: " + r.status().ToString());
        request = std::move(*r);
      });
      StatusOr<eq::QueryResponse> response = agoraeo::Status::Internal("unset");
      const double execute = TimeUs([&] { response = exec->Execute(request); });
      if (!response.ok()) Die("replayed request failed: " + response.status().ToString());
      const double encode = TimeUs([&] {
        (void)net::EarthQubeService::QueryResponseToJson(*response);
      });
      out.decode_us.push_back(decode);
      out.execute_us.push_back(execute);
      out.execute_by_type[static_cast<int>(entry.type)].push_back(execute);
      out.encode_us.push_back(encode);
      // The in-process work the HTTP request stands for: the monolith's
      // decode + execute + encode, or the coordinator's Query.
      const double in_process = coordinator != nullptr
                                    ? out.query_us.back()
                                    : decode + execute + encode;
      out.edge_us.push_back(entry.wall_us - in_process);
      if (coordinator == nullptr) covered += in_process;
      out.covered_us += covered;
      out.wall_us += entry.wall_us;
      ++out.replayed;
    }
  };
  std::vector<std::thread> threads;
  for (size_t s = 0; s < parts.size(); ++s) threads.emplace_back(replay, s);
  for (auto& t : threads) t.join();
  Replay out;
  const auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (const Replay& p : parts) {
    append(&out.decode_us, p.decode_us);
    append(&out.execute_us, p.execute_us);
    append(&out.encode_us, p.encode_us);
    append(&out.edge_us, p.edge_us);
    append(&out.query_us, p.query_us);
    for (int t = 0; t < kNumReqTypes; ++t) {
      append(&out.execute_by_type[t], p.execute_by_type[t]);
    }
    out.covered_us += p.covered_us;
    out.wall_us += p.wall_us;
    out.replayed += p.replayed;
  }
  return out;
}

/// Times the layers below the caches (docstore, index) on the replica,
/// for logged requests taken evenly across the window, until `budget_s`
/// runs out.  These calls touch no query cache.
void ProbeLayers(const WindowResult& window, const eq::EarthQube& exec,
                 const Corpus& corpus, bool by_code, double budget_s,
                 Replay* out) {
  std::vector<const LogEntry*> entries;
  for (const auto& log : window.logs) {
    for (const LogEntry& e : log) entries.push_back(&e);
  }
  std::sort(entries.begin(), entries.end(),
            [](const LogEntry* a, const LogEntry* b) { return a->start_s < b->start_s; });
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(budget_s));
  // Visit the log at a stride that spreads the probed requests over the
  // whole window (offsets 0, 1, 2... of stride 97 until the budget ends).
  const size_t stride = 97;
  for (size_t offset = 0; offset < stride && Clock::now() < stop; ++offset) {
    for (size_t i = offset; i < entries.size() && Clock::now() < stop; i += stride) {
      const LogEntry& entry = *entries[i];
      if (entry.type == ReqType::kPage) continue;
      auto request = DecodeForNode(entry.body, *entry.base, by_code);
      if (!request.ok()) Die("probed request does not decode");
      ProbeDocstore(exec, *request, out);
      if (entry.base->sim.has_value() && !entry.base->panel.has_value()) {
        ProbeIndex(*exec.cbir(), corpus, *entry.base, out);
      }
    }
  }
}

double MedianRttUs(uint16_t port) {
  const auto client = MakeClient();
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    auto r = client.Get(port, "/health");
    if (!r.ok() || r->status_code != 200) Die("health probe failed");
    us.push_back(Micros(Clock::now() - t0));
  }
  return Median(us);
}

// --- the run ---------------------------------------------------------------

struct Fingerprint {
  std::string cpu, compiler, build_type, kernel;
  size_t cores = 0;
};

Fingerprint HostFingerprint() {
  Fingerprint f;
  f.cores = Nproc();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      f.cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  f.compiler = __VERSION__;
  f.build_type = PERFBENCH_BUILD_TYPE;
  return f;
}

void RefuseUnoptimizedBuild() {
#if !defined(NDEBUG)
  Die("refusing to time a build with assertions on (not Release)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Die("refusing to time a sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  Die("refusing to time a sanitizer build");
#endif
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing to time a ") + PERFBENCH_BUILD_TYPE + " build");
  }
}

std::string ActiveKernel(uint16_t port) {
  const auto client = MakeClient();
  auto r = client.Get(port, "/api/v2/index/stats");
  if (!r.ok() || r->status_code != 200) return "unknown";
  auto doc = json::ParseObject(r->body);
  if (!doc.ok()) return "unknown";
  const auto* kernel = doc->Get("kernel");
  if (kernel == nullptr || !kernel->is_document()) return "unknown";
  const auto* active = kernel->as_document().Get("active");
  return active != nullptr && active->is_string() ? active->as_string()
                                                  : "unknown";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else {
      Die("unknown argument " + key);
    }
  }
  if (!have_workload || argc % 2 == 0) {
    Die("usage: earthqube_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return o;
}

int Run(const Options& options) {
  RefuseUnoptimizedBuild();
  agoraeo::SetLogLevel(agoraeo::LogLevel::kWarning);
  const WorkloadSpec spec = SpecFor(options.workload);
  Fingerprint host = HostFingerprint();

  const auto gen0 = Clock::now();
  const Corpus corpus = MakeCorpus(spec.archive + spec.extra, options.seed);
  const agoraeo::bigearthnet::FeatureExtractor extractor;
  std::fprintf(stderr, "inputs: %zu patches in %.2f s\n", corpus.codes.size(),
               Seconds(Clock::now() - gen0));
  Deployment deploy{&spec, &corpus, &extractor,
                    ".bench_build/perfbench_state/" + std::to_string(getpid()),
                    Batches(corpus, 0, spec.archive,
                            spec.cluster ? 10000 : spec.archive)};

  // Set up spec.builds times and report the median.  The first build's
  // memory is the system's footprint when ready; serving starts on the
  // last build.
  const double rss_base = RssMb();
  std::vector<double> setups;
  double setup = 0;
  auto rig = deploy.Build(&setup);
  setups.push_back(setup);
  const double rss_mb = RssMb() - rss_base;
  host.kernel = ActiveKernel(rig->scrape_ports.back());
  for (size_t i = 1; i < spec.builds; ++i) {
    // The process's first window of load runs measurably slower than
    // later ones, so a short window on a discarded build takes that hit.
    if (i + 1 == spec.builds) {
      RunWindow(rig.get(), spec, corpus, options.seed,
                std::min(2.0, options.seconds), false);
    }
    rig.reset();
    rig = deploy.Build(&setup);
    setups.push_back(setup);
  }

  std::vector<Metric> detail;
  std::vector<Metric> reported;
  size_t attempted = 0, failed = 0, wrong = 0;

  if (!options.trace) {
    const WindowResult window =
        RunWindow(rig.get(), spec, corpus, options.seed, options.seconds, false);
    const cl::SlotTable table = rig->table;
    rig.reset();
    wrong = CountWrong(window, spec, corpus, spec.cluster ? &table : nullptr);

    std::vector<double> all;
    std::vector<double> by_type[kNumReqTypes];
    size_t interactive = 0;
    for (const Sample& s : window.samples) {
      ++attempted;
      if (!s.ok) {
        ++failed;
        continue;
      }
      all.push_back(s.ms);
      by_type[static_cast<int>(s.type)].push_back(s.ms);
      if (s.ms <= 100.0) ++interactive;
    }
    attempted += window.writer.ingest_ms.size() + window.writer.failed;
    failed += window.writer.failed;
    const Tail tail = HighestSupportedTail(all);
    const double qps = static_cast<double>(all.size()) / window.seconds;
    reported = {
        {"setup_s", Median(setups), "s"},
        {"qps", qps, "1/s"},
        {"p90_ms", Quantile(all, 0.90), "ms"},
        {"qbe_p50_ms", Median(by_type[static_cast<int>(ReqType::kQbe)]), "ms"},
        {"rss_mb", rss_mb, "MB"},
    };
    detail = reported;
    detail.push_back({"p50_ms", Median(all), "ms"});
    detail.push_back({"p99_ms", Quantile(all, 0.99), "ms"});
    detail.push_back({"p99_supported", TailSupported(all.size(), 99) ? 1.0 : 0.0,
                      "bool"});
    detail.push_back({"tail_percentile", tail.percentile, "%"});
    detail.push_back({"tail_ms", tail.value, "ms"});
    detail.push_back({"samples", static_cast<double>(all.size()), "count"});
    for (ReqType t : {ReqType::kPanel, ReqType::kHybrid, ReqType::kPage}) {
      const auto& v = by_type[static_cast<int>(t)];
      if (v.empty()) continue;
      detail.push_back({std::string(ReqTypeName(t)) + "_p50_ms", Median(v), "ms"});
    }
    for (int t = 0; t < kNumReqTypes; ++t) {
      detail.push_back({std::string(ReqTypeName(static_cast<ReqType>(t))) +
                            "_share",
                        Ratio(static_cast<double>(by_type[t].size()),
                              static_cast<double>(all.size())),
                        "ratio"});
    }
    if (spec.cluster) {
      detail.push_back({"ingest_p50_ms", Median(window.writer.ingest_ms), "ms"});
      detail.push_back({"ingested_patches",
                        static_cast<double>(window.writer.patches), "count"});
    }
    detail.push_back({"interactive_frac",
                      Ratio(static_cast<double>(interactive),
                            static_cast<double>(attempted)),
                      "ratio"});
    detail.push_back({"failed_frac",
                      Ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)),
                      "ratio"});
    detail.push_back({"wrong_results", static_cast<double>(wrong), "count"});
    detail.push_back({"checked_results",
                      static_cast<double>(window.checks.size()), "count"});
  } else {
    // Untraced reference window on this build, then the traced window on
    // a second build of the same inputs, then the replay on a third.
    const WindowResult plain =
        RunWindow(rig.get(), spec, corpus, options.seed, options.seconds, false);
    rig.reset();
    rig = deploy.Build(&setup);
    const double rtt_us = MedianRttUs(rig->port);
    ScrapeDelta delta;
    for (uint16_t port : rig->scrape_ports) delta.before.push_back(ScrapeMetrics(port));
    const WindowResult traced =
        RunWindow(rig.get(), spec, corpus, options.seed, options.seconds, true);
    for (uint16_t port : rig->scrape_ports) delta.after.push_back(ScrapeMetrics(port));
    const cl::SlotTable table = rig->table;
    rig.reset();
    wrong = CountWrong(traced, spec, corpus, spec.cluster ? &table : nullptr);
    for (const Sample& s : traced.samples) {
      ++attempted;
      if (!s.ok) ++failed;
    }
    attempted += traced.writer.ingest_ms.size() + traced.writer.failed;
    failed += traced.writer.failed;

    auto replica = deploy.Build(&setup);
    std::unique_ptr<Rig> node_share;
    if (spec.cluster) {
      agoraeo::bigearthnet::Archive share;
      std::vector<BinaryCode> share_codes;
      for (size_t i = 0; i < spec.archive; ++i) {
        const auto* owner = table.OwnerOfName(corpus.archive.patches[i].name);
        if (owner != nullptr && owner->id == "n1") {
          share.patches.push_back(corpus.archive.patches[i]);
          share_codes.push_back(corpus.codes[i]);
        }
      }
      node_share = BuildMono({std::move(share), std::move(share_codes)}, extractor);
    }
    eq::EarthQube* exec = spec.cluster ? node_share->mono.get() : replica->mono.get();
    Replay replay = ReplayLog(traced, exec, replica->coordinator.get(), rtt_us,
                              2 * options.seconds);
    ProbeLayers(traced, *exec, corpus, spec.cluster, 3.0, &replay);
    node_share.reset();
    replica.reset();

    const size_t servers = delta.after.size();
    std::vector<size_t> engines;  // servers that run EarthQube engines
    for (size_t s = spec.cluster ? 1 : 0; s < servers; ++s) engines.push_back(s);
    const std::vector<size_t> all_servers = [&] {
      std::vector<size_t> v;
      for (size_t s = 0; s < servers; ++s) v.push_back(s);
      return v;
    }();
    const double reads = static_cast<double>(traced.samples.size());
    size_t similarity_reads = 0;
    for (const auto& log : traced.logs) {
      for (const LogEntry& e : log) {
        if (e.base->sim.has_value()) ++similarity_reads;
      }
    }
    double bytes = 0, ok_reads = 0;
    for (const Sample& s : traced.samples) {
      if (s.ok) {
        bytes += static_cast<double>(s.bytes);
        ok_reads += 1;
      }
    }
    const auto engine = [&](const char* name) {
      return delta.Sum(engines, std::string("agoraeo_engine_") + name);
    };
    const auto cache = [&](const char* family, const char* which) {
      return delta.Sum(engines, std::string("agoraeo_cache_") + family +
                                    "{cache=\"" + which + "\"}");
    };
    const double stage_sum =
        delta.MeanUs(engines, StageName("admit")) +
        delta.MeanUs(engines, StageName("cache_probe")) +
        delta.MeanUs(engines, StageName("queue_wait")) +
        delta.MeanUs(engines, StageName("batch_wait")) +
        delta.MeanUs(engines, StageName("index_pass"));
    const double resume_hits =
        engine("cursor_resume_total{result=\"hit\"}");
    const double resume_all = engine("cursor_resume_total");
    const double plain_qps =
        static_cast<double>(plain.samples.size()) / plain.seconds;
    const double traced_qps = reads / traced.seconds;

    const auto med = [](const std::vector<double>& v) { return Median(v); };
    const auto exec_type = [&](ReqType t) {
      return med(replay.execute_by_type[static_cast<int>(t)]);
    };
    double coord_queries = 0, node_requests = 0;
    if (spec.cluster) {
      coord_queries = delta.Sum({0}, "agoraeo_http_requests_total{route=\"POST /api/v2/query\"}");
      for (size_t s = 1; s < servers; ++s) {
        node_requests += delta.Sum({s}, "agoraeo_http_requests_total{route=\"POST /api/v2/query\"}") +
                         delta.Sum({s}, "agoraeo_http_requests_total{route=\"GET /api/v2/cluster/code/");
      }
    }
    const double front_and_node_requests =
        delta.Sum(all_servers, "agoraeo_http_requests_total{route=\"POST ") +
        delta.Sum(all_servers, "agoraeo_http_requests_total{route=\"GET /api/v2/cluster/code/");

    reported = {
        {"netsvc.rtt_us", rtt_us, "us"},
        {"netsvc.edge_us", med(replay.edge_us), "us"},
        {"netsvc.resp_bytes", Ratio(bytes, ok_reads), "bytes"},
        {"netsvc.connects_per_req", Ratio(front_and_node_requests, reads), "count"},
        {"json.decode_us", med(replay.decode_us), "us"},
        {"json.encode_us", med(replay.encode_us), "us"},
        {"engine.execute_us", med(replay.execute_us), "us"},
        {"engine.execute_panel_us", exec_type(ReqType::kPanel), "us"},
        {"engine.execute_qbe_us", exec_type(ReqType::kQbe), "us"},
        {"engine.execute_hybrid_us", exec_type(ReqType::kHybrid), "us"},
        {"engine.execute_page_us", exec_type(ReqType::kPage), "us"},
        {"engine.queue_wait_us", delta.MeanUs(engines, StageName("queue_wait")), "us"},
        {"engine.batch_wait_us", delta.MeanUs(engines, StageName("batch_wait")), "us"},
        {"engine.index_pass_us", delta.MeanUs(engines, StageName("index_pass")), "us"},
        {"engine.materialize_us",
         std::max(0.0, delta.MeanUs(engines, "agoraeo_engine_request_ns") - stage_sum),
         "us"},
        {"engine.coalesced_frac", Ratio(engine("coalesced_total"), engine("submitted_total")), "ratio"},
        {"engine.batched_frac", Ratio(engine("batched_flights_total"), engine("flights_total")), "ratio"},
        {"engine.batch_size_mean", Ratio(engine("batched_flights_total"), engine("batches_total")), "count"},
        {"engine.rejected", engine("rejected_total"), "count"},
        {"cache.response_hit_ratio",
         Ratio(cache("hits_total", "response"),
               cache("hits_total", "response") + cache("misses_total", "response")),
         "ratio"},
        {"cache.allowlist_hit_ratio",
         Ratio(cache("hits_total", "allowlist"),
               cache("hits_total", "allowlist") + cache("misses_total", "allowlist")),
         "ratio"},
        {"cache.stale_drops",
         delta.Sum(all_servers, "agoraeo_cache_stale_drops_total") +
             delta.Get(0, "cache_stats.merged_rankings.stale_drops"),
         "count"},
        {"cache.evictions",
         delta.Sum(all_servers, "agoraeo_cache_evictions_total") +
             delta.Get(0, "cache_stats.merged_rankings.evictions"),
         "count"},
        {"ranked.resume_hit_ratio", Ratio(resume_hits, resume_all), "ratio"},
        {"ranked.epoch_drops", engine("cursor_resume_total{result=\"expired\"}"), "count"},
        {"docstore.find_us", med(replay.find_us), "us"},
        {"docstore.estimate_us", med(replay.estimate_us), "us"},
        {"docstore.examined_per_returned", Ratio(replay.examined, replay.returned), "ratio"},
        {"index.stream_page_us", med(replay.stream_us), "us"},
        {"index.search_us", med(replay.search_us), "us"},
        {"index.candidates_per_query", Ratio(replay.candidates, replay.index_queries), "count"},
        {"index.buckets_probed_per_query", Ratio(replay.buckets, replay.index_queries), "count"},
        {"index.useful_frac", Ratio(replay.results, replay.candidates), "ratio"},
        {"index.kernel_calls_per_query",
         // Dispatch counts are process-wide; every engine exports the
         // same numbers, so read one.
         Ratio(delta.Sum({engines.front()}, "agoraeo_index_kernel_dispatch_total"),
               static_cast<double>(similarity_reads)),
         "count"},
        {"cluster.query_us", med(replay.query_us), "us"},
        {"cluster.fanout_ms",
         spec.cluster ? delta.MeanUs({0}, "agoraeo_cluster_fanout_ns") / 1000.0 : 0,
         "ms"},
        {"cluster.node_requests_per_query", Ratio(node_requests, coord_queries), "count"},
        {"cluster.result_cache_hit_ratio",
         spec.cluster ? Ratio(delta.Get(0, "cache_stats.merged_rankings.hits"),
                              delta.Get(0, "cache_stats.merged_rankings.hits") +
                                  delta.Get(0, "cache_stats.merged_rankings.misses"))
                      : 0,
         "ratio"},
        {"cluster.node_failures",
         spec.cluster ? delta.Sum({0}, "agoraeo_cluster_fanout_node_failures_total") : 0,
         "count"},
        {"wal.bytes_per_patch",
         Ratio(delta.Sum(engines, "agoraeo_wal_bytes_appended_total"),
               static_cast<double>(traced.writer.patches)),
         "bytes"},
        {"wal.sync_us", delta.MeanUs(engines, "agoraeo_wal_sync_ns"), "us"},
        {"index.seals", delta.Sum(engines, "agoraeo_index_seals_total"), "count"},
        {"index.compactions", delta.Sum(engines, "agoraeo_index_compactions_total"), "count"},
        {"gen.writer_late_ms",
         traced.writer.late_ms.empty() ? 0 : Median(traced.writer.late_ms), "ms"},
        {"gen.repeat_frac", Ratio(static_cast<double>(traced.repeats), reads), "ratio"},
        {"trace.overhead_frac", 1.0 - Ratio(traced_qps, plain_qps), "ratio"},
        {"trace.unattributed_frac",
         replay.wall_us > 0 ? 1.0 - replay.covered_us / replay.wall_us : 0, "ratio"},
    };
    detail = reported;
    detail.push_back({"replayed_requests", static_cast<double>(replay.replayed), "count"});
    detail.push_back({"wrong_results", static_cast<double>(wrong), "count"});
    detail.push_back({"checked_results", static_cast<double>(traced.checks.size()), "count"});
  }

  std::filesystem::remove_all(deploy.state_root);
  std::printf("host: cores=%zu cpu=\"%s\" kernel=%s compiler=\"%s\" build=%s\n",
              host.cores, host.cpu.c_str(), host.kernel.c_str(),
              host.compiler.c_str(), host.build_type.c_str());
  std::printf("detail: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"metrics\": %s}\n",
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, MetricsJson(detail).c_str());
  const bool correct = wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(reported).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}

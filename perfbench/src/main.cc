// End-to-end benchmark of the serving path: line protocol -> ServeEngine
// -> shard queue -> index -> id map -> merge -> reply, plus the durable
// path (WAL, checkpoints, recovery). Every request is one protocol line
// through RunServerLoop from closed-loop client threads, and every reply
// is checked against answers computed apart from the program (checks.h).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir DIR] [--spans FILE] [--report FILE]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1). Workloads, sizes and the metric map are documented in
// README.md beside this file.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "checks.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "core/durable_index.h"
#include "core/factory.h"
#include "data/synthetic.h"
#include "serve/engine.h"
#include "serve/server_loop.h"
#include "storage/index_io.h"
#include "trace.h"
#include "wal/wal_format.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using irhint::Corpus;
using irhint::DurableIndex;
using irhint::DurableIndexOptions;
using irhint::IndexKind;
using irhint::Interval;
using irhint::QueryCounters;
using irhint::Rng;
using irhint::Status;
using irhint::StatusOr;
using irhint::TemporalIrIndex;
using irhint::Time;
using irhint::Timer;
using irhint::serve::EngineStats;
using irhint::serve::ServeEngine;
using irhint::serve::ServeOptions;

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  uint64_t objects = 0;     // indexed at set-up
  uint64_t held_out = 0;    // durable_ingest: inserted while queries run
  IndexKind kind = IndexKind::kIrHintPerf;
  uint32_t shards = 1;
  uint32_t clients = 2;     // closed-loop query clients
  double extent_pct = 0.1;  // query interval, % of the domain
  uint32_t elements = 2;    // query elements
  bool rarest = false;      // the anchor's least frequent elements
  bool zipf = false;        // Zipf(1) popularity over the pool, else uniform
  size_t pool = 1024;       // distinct requests
  size_t round = 16;        // valid requests per client round
  bool ranked = false;      // topk at k = 10 and 100
  bool durable = false;
  bool malformed = false;   // append the protocol-fault lines to each round
};

// Lines the protocol must reject; today both are answered "OK 0" because
// a parse failure reads as an element-less (or inverted) query.
const char* const kMalformedLines[] = {"query 0 1000000 abc", "query 100 0 1"};

constexpr int kSetupRepeats = 5;
constexpr uint64_t kDurableCheckpointBytes = 64u << 10;
constexpr int64_t kInsertsPerSecond = 250;
constexpr size_t kLadderRequests = 200;
constexpr size_t kStandaloneInserts = 1000;

bool MakeSpec(const std::string& name, Spec* spec) {
  if (name == "rare_lookup") {
    spec->objects = 120'000;
    spec->shards = 1;
    spec->extent_pct = 0.1;
    spec->elements = 2;
    spec->rarest = true;
    spec->zipf = true;
    spec->pool = 4096;
    spec->round = 50;
    spec->malformed = true;
    return true;
  }
  if (name == "wide_scan") {
    spec->objects = 120'000;
    spec->shards = 4;
    spec->extent_pct = 5.0;
    spec->elements = 3;
    spec->pool = 2048;
    spec->round = 4;
    return true;
  }
  if (name == "ranked_topk") {
    spec->objects = 120'000;
    spec->kind = IndexKind::kScoredIrHint;
    spec->shards = 2;
    spec->extent_pct = 1.0;
    spec->elements = 3;
    spec->pool = 1024;
    spec->round = 8;
    spec->ranked = true;
    return true;
  }
  if (name == "durable_ingest") {
    spec->objects = 120'000;
    spec->held_out = 60'000;
    spec->shards = 1;
    spec->extent_pct = 0.1;
    spec->elements = 2;
    spec->pool = 2048;
    spec->round = 8;
    spec->durable = true;
    return true;
  }
  return false;
}

Corpus MakeCorpus(uint64_t cardinality, uint64_t seed) {
  irhint::SyntheticParams params;
  params.cardinality = cardinality;
  params.domain = 80 * cardinality;
  params.sigma = 4 * cardinality;
  params.dictionary_size = std::max<uint64_t>(100, cardinality / 10);
  params.description_size = 8;
  params.seed = seed;
  return irhint::GenerateSynthetic(params);
}

/// One request of the pool, with its expected answer.
struct Request {
  Query query;
  uint32_t k = 0;  // 0 = Boolean query
  std::string line;
  std::vector<ObjectId> ids;   // Boolean: matches among the indexed objects
  std::vector<ObjectId> held;  // durable: matches among the held-out ones
  std::vector<ScoredHit> hits;
};

/// "<verb> <st> <end> <e>..." as the line protocol reads it.
std::string Line(std::string verb, const Interval& interval,
                 const std::vector<ElementId>& elements) {
  std::ostringstream line;
  line << verb << ' ' << interval.st << ' ' << interval.end;
  for (const ElementId e : elements) line << ' ' << e;
  return std::move(line).str();
}

std::string QueryLine(const Query& query, uint32_t k) {
  return Line(k == 0 ? "query" : "topk " + std::to_string(k), query.interval,
              query.elements);
}

std::string InsertLine(const Object& object) {
  return Line("insert", object.interval, object.elements);
}

/// Draw `k` distinct elements of `description`, each with probability
/// proportional to its corpus frequency (least frequent first when
/// `rarest`); empty when the description is too short.
std::vector<ElementId> PickElements(const std::vector<ElementId>& description,
                                    uint32_t k, bool rarest,
                                    const Oracle& oracle, Rng& rng) {
  if (description.size() < k) return {};
  std::vector<ElementId> pool = description;
  std::vector<ElementId> picked;
  if (rarest) {
    std::stable_sort(pool.begin(), pool.end(), [&](ElementId a, ElementId b) {
      return oracle.Frequency(a) < oracle.Frequency(b);
    });
    picked.assign(pool.begin(), pool.begin() + k);
  } else {
    while (picked.size() < k) {
      uint64_t total = 0;
      for (const ElementId e : pool) total += oracle.Frequency(e);
      uint64_t draw = rng.Uniform(std::max<uint64_t>(total, 1));
      size_t i = 0;
      while (i + 1 < pool.size() && draw >= oracle.Frequency(pool[i])) {
        draw -= oracle.Frequency(pool[i]);
        ++i;
      }
      picked.push_back(pool[i]);
      pool.erase(pool.begin() + static_cast<ptrdiff_t>(i));
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

/// Queries anchored at random indexed objects: the interval covers a
/// point of the anchor's lifespan, so each has at least one match.
std::vector<Request> MakePool(const Spec& spec, const Corpus& corpus,
                              const Oracle& oracle, uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  const Time domain_end = corpus.domain_end();
  const uint64_t length = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(domain_end + 1) *
                               spec.extent_pct / 100.0));
  const ObjectId indexed = static_cast<ObjectId>(spec.objects);
  const ObjectId total = static_cast<ObjectId>(corpus.size());
  std::vector<Request> pool;
  while (pool.size() < spec.pool) {
    const Object& anchor = corpus.object(
        static_cast<ObjectId>(rng.Uniform(indexed)));
    std::vector<ElementId> elements = PickElements(
        anchor.elements, spec.elements, spec.rarest, oracle, rng);
    if (elements.empty()) continue;
    const Time point =
        anchor.interval.st + rng.Uniform(anchor.interval.Length());
    const Time st = point - std::min<Time>(point, rng.Uniform(length));
    const Time end = std::min<Time>(domain_end, st + length - 1);
    Request request;
    request.query = Query(Interval(st, end), std::move(elements));
    if (spec.ranked) {
      request.k = pool.size() % 2 == 0 ? 10 : 100;
      request.hits = oracle.TopK(request.query, request.k, indexed);
    } else {
      request.ids = oracle.Boolean(request.query, indexed);
      if (spec.durable) {
        for (const ObjectId id : oracle.Boolean(request.query, total)) {
          if (id >= indexed) request.held.push_back(id);
        }
      }
    }
    request.line = QueryLine(request.query, request.k);
    pool.push_back(std::move(request));
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Protocol calls and the closed loop

std::string Call(ServeEngine* engine, const std::string& line) {
  std::istringstream in(line);
  std::ostringstream out;
  irhint::serve::RunServerLoop(engine, in, out);
  return std::move(out).str();
}

/// What one client saw. Latencies exclude the malformed lines.
struct ClientResult {
  std::vector<double> query_us;
  std::vector<int64_t> query_end_ns;
  std::vector<double> insert_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  // first wrong answer
  SpanLog spans;
};

/// Progress of the single writer, shared with the query clients so they
/// can bound which inserts a reply may show.
struct WriterState {
  std::atomic<uint64_t> sent{0};   // inserts handed to the protocol
  std::atomic<uint64_t> acked{0};  // inserts answered "OK id=..."
  uint64_t limit = 0;              // held-out objects the writer may use
};

struct Context {
  const Spec* spec = nullptr;
  ServeEngine* engine = nullptr;
  const Corpus* corpus = nullptr;
  const std::vector<Request>* pool = nullptr;
  WriterState* writer = nullptr;
};

bool CheckReply(const Context& ctx, const Request& request,
                const std::string& reply, uint64_t acked_before) {
  if (request.k != 0) return CheckHits(reply, request.hits);
  if (!ctx.spec->durable) return CheckIds(reply, request.ids);
  const ObjectId base = static_cast<ObjectId>(ctx.spec->objects);
  const uint64_t sent_after = ctx.writer->sent.load();
  return CheckIngestIds(reply, request.ids, request.held,
                        base + static_cast<ObjectId>(acked_before),
                        base + static_cast<ObjectId>(sent_after));
}

/// One query client: whole rounds of `round` pool requests (plus the
/// malformed lines, when the workload sends them) until the deadline.
void QueryClient(const Context& ctx, uint64_t seed, int64_t deadline_ns,
                 bool traced, bool counted, ClientResult* out) {
  const Spec& spec = *ctx.spec;
  const std::vector<Request>& pool = *ctx.pool;
  Rng rng(seed);
  const irhint::ZipfSampler zipf(pool.size(), 1.0);
  uint64_t request_id = seed << 32;
  while (NowNs() < deadline_ns) {
    for (size_t i = 0; i < spec.round; ++i) {
      const size_t index = spec.zipf ? zipf.Sample(rng) - 1
                                     : rng.Uniform(pool.size());
      const Request& request = pool[index];
      const uint64_t acked =
          spec.durable ? ctx.writer->acked.load() : 0;
      const uint64_t span =
          traced ? out->spans.Begin("load.query", 0, ++request_id) : 0;
      const int64_t start = NowNs();
      const std::string reply = Call(ctx.engine, request.line);
      const int64_t end = NowNs();
      if (traced) out->spans.End(span);
      if (!CheckReply(ctx, request, reply, acked) && out->error.empty()) {
        out->error = "wrong reply to '" + request.line + "': " +
                     reply.substr(0, 200);
      }
      if (counted) {
        out->query_end_ns.push_back(end);
        out->query_us.push_back(static_cast<double>(end - start) / 1e3);
        ++out->attempted;
      }
    }
    if (!spec.malformed) continue;
    for (const char* line : kMalformedLines) {
      const bool rejected = IsErrorReply(Call(ctx.engine, line));
      if (counted) {
        ++out->attempted;
        if (!rejected) ++out->failed;
      }
    }
  }
}

/// The durable workload's writer: an open loop of kInsertsPerSecond
/// inserts of the held-out objects, in id order and whole rounds, until the
/// deadline. Each insert is timed from when it was due, so a stall also
/// counts against the inserts queued behind it. A fixed rate keeps the
/// amount ingested, and so the index the queries see, the same in every
/// run while the engine keeps up.
void Writer(const Context& ctx, int64_t deadline_ns, bool traced,
            ClientResult* out) {
  constexpr size_t kRound = 32;
  constexpr int64_t kIntervalNs = 1'000'000'000 / kInsertsPerSecond;
  WriterState& state = *ctx.writer;
  const uint64_t base = ctx.spec->objects;
  int64_t due = NowNs();
  while (NowNs() < deadline_ns && state.sent.load() + kRound <= state.limit) {
    for (size_t i = 0; i < kRound; ++i, due += kIntervalNs) {
      const int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const uint64_t n = state.sent.load();
      const Object& object =
          ctx.corpus->object(static_cast<ObjectId>(base + n));
      const std::string line = InsertLine(object);
      state.sent.store(n + 1);
      const uint64_t span =
          traced ? out->spans.Begin("load.insert", 0, base + n) : 0;
      const std::string reply = Call(ctx.engine, line);
      const int64_t end = NowNs();
      if (traced) out->spans.End(span);
      if (reply != "OK id=" + std::to_string(object.id) + "\n" &&
          out->error.empty()) {
        out->error = "wrong reply to '" + line + "': " + reply;
      }
      state.acked.store(n + 1);
      out->insert_us.push_back(static_cast<double>(end - due) / 1e3);
      ++out->attempted;
    }
  }
}

/// In-memory workloads under trace: a paced writer whose objects carry an
/// element no query names, so the replies stay as computed while the
/// shard queues see updates beside queries.
void ProbeWriter(const Context& ctx, int64_t deadline_ns,
                 std::vector<Object>* inserted, ClientResult* out) {
  const ElementId fresh =
      static_cast<ElementId>(ctx.corpus->dictionary().size() + 1);
  Rng rng(ctx.corpus->size());
  const Time domain_end = ctx.corpus->domain_end();
  while (NowNs() < deadline_ns) {
    const Time st = rng.Uniform(domain_end);
    Object object(ctx.engine->next_object_id(),
                  Interval(st, std::min<Time>(domain_end, st + 100)), {fresh});
    const uint64_t span = out->spans.Begin("load.insert", 0, object.id);
    const int64_t start = NowNs();
    const std::string reply = Call(ctx.engine, InsertLine(object));
    const int64_t end = NowNs();
    out->spans.End(span);
    if (reply != "OK id=" + std::to_string(object.id) + "\n" &&
        out->error.empty()) {
      out->error = "wrong reply to probe insert: " + reply;
    }
    out->insert_us.push_back(static_cast<double>(end - start) / 1e3);
    inserted->push_back(std::move(object));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

struct Phase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;    // every client finished its last round
  double seconds = 0.0;
  std::vector<ClientResult> clients;
  EngineStats before;
  EngineStats after;
};

/// Run the clients for `seconds`. `writer`: the durable writer;
/// `probe`: the paced probe writer (traced in-memory runs).
Phase RunPhase(const Context& ctx, uint64_t seed, double seconds, bool traced,
               bool counted, bool writer, std::vector<Object>* probe) {
  Phase phase;
  const size_t threads = ctx.spec->clients + (writer || probe ? 1 : 0);
  phase.clients.resize(threads);
  for (size_t i = 0; i < threads; ++i) {
    phase.clients[i].spans = SpanLog(static_cast<uint32_t>(i + 1));
  }
  phase.before = ctx.engine->Stats();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (size_t i = 0; i < ctx.spec->clients; ++i) {
    pool.emplace_back(QueryClient, std::cref(ctx), seed * 1000 + i + 1,
                      deadline, traced, counted, &phase.clients[i]);
  }
  if (writer) {
    pool.emplace_back(Writer, std::cref(ctx), deadline, traced,
                      &phase.clients.back());
  } else if (probe != nullptr) {
    pool.emplace_back(ProbeWriter, std::cref(ctx), deadline, probe,
                      &phase.clients.back());
  }
  for (std::thread& t : pool) t.join();
  phase.start_ns = start;
  phase.end_ns = NowNs();
  phase.seconds = static_cast<double>(phase.end_ns - start) / 1e9;
  phase.after = ctx.engine->Stats();
  return phase;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool higher_is_better = false;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return irhint::bench::PercentileSorted(values, 50.0);
}

double Percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  return irhint::bench::PercentileSorted(values, pct);
}

/// Query throughput and latency over the tenth of a phase's 100 ms
/// windows in which the most queries completed. On a shared host other
/// guests' load slows whole stretches of a run, by up to half in runs
/// measured side by side; a slower program slows every window, a burst of
/// host noise only some of them.
struct WindowedLatency {
  double qps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  size_t kept = 0;
  size_t windows = 0;
};

WindowedLatency Windowed(
    const std::vector<std::pair<int64_t, double>>& samples, int64_t start_ns,
    int64_t end_ns) {
  constexpr int64_t kWindowNs = 100'000'000;
  WindowedLatency out;
  out.windows = static_cast<size_t>((end_ns - start_ns) / kWindowNs);
  if (out.windows == 0) return out;
  std::vector<std::vector<double>> windows(out.windows);
  for (const auto& [end, us] : samples) {
    const size_t w = static_cast<size_t>((end - start_ns) / kWindowNs);
    if (end >= start_ns && w < out.windows) windows[w].push_back(us);
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const std::vector<double>& a,
                      const std::vector<double>& b) {
                     return a.size() > b.size();
                   });
  out.kept = std::max<size_t>(1, out.windows / 10);
  std::vector<double> kept_us;
  for (size_t w = 0; w < out.kept; ++w) {
    kept_us.insert(kept_us.end(), windows[w].begin(), windows[w].end());
  }
  out.qps = static_cast<double>(kept_us.size()) /
            (static_cast<double>(out.kept * kWindowNs) / 1e9);
  out.p50_us = Percentile(kept_us, 50.0);
  out.p90_us = Percentile(kept_us, 90.0);
  return out;
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string spans_path;
  std::string report_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag == "--report") {
      args->report_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

/// Collects the outcome of one run and prints it.
class Run {
 public:
  void Fail(const std::string& what) {
    if (error_.empty()) error_ = what;
  }
  bool ok() const { return error_.empty(); }
  void Count(const ClientResult& client) {
    attempted_ += client.attempted;
    failed_ += client.failed;
    if (!client.error.empty()) Fail(client.error);
  }
  void Add(const std::string& name, const std::string& unit, double value,
           bool higher_is_better) {
    metrics_.push_back(Metric{name, unit, value, higher_is_better});
  }

  int Print(const Args& args) const {
    if (!error_.empty()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", error_.c_str());
    }
    if (!args.report_path.empty()) {
      irhint::bench::BenchReport report("perfbench/" + args.workload);
      for (const Metric& m : metrics_) {
        report.Add(args.trace ? "per_layer" : "end_to_end", m.name, m.unit,
                   m.higher_is_better,
                   irhint::bench::ComputeTrialStats({m.value}));
      }
      const Status written = report.WriteJsonFile(args.report_path);
      if (!written.ok()) {
        std::fprintf(stderr, "report: %s\n", written.ToString().c_str());
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                error_.empty() ? "true" : "false", attempted_, failed_);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return error_.empty() && attempted_ > 0 ? 0 : 1;
  }

 private:
  std::string error_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Traced-run helpers: the request ladder and the layer probes

/// Replays `count` pool requests serially at one rung, one span per call
/// under a "bench.request" root per request.
template <typename Fn>
void Rung(SpanLog* log, const char* name, size_t count, const Fn& call) {
  for (size_t r = 0; r < count; ++r) {
    const uint64_t root = log->Begin("bench.request", 0, r);
    const uint64_t span = log->Begin(name, root, r);
    call(r);
    log->End(span);
    log->End(root);
  }
}

struct IndexCounts {
  QueryCounters counters;
  uint64_t results = 0;
  uint64_t oracle_postings = 0;
  size_t queries = 0;
};

/// Boolean rung on `index`: every sampled request as a Boolean query,
/// timed with the counters on, then checked with them off.
IndexCounts BooleanRung(TemporalIrIndex* index,
                        const std::vector<Request>& pool, size_t count,
                        const Oracle& oracle, ObjectId id_limit,
                        SpanLog* log, Run* run) {
  IndexCounts counts;
  index->ResetStats();
  index->EnableStats(true);
  std::vector<ObjectId> out;
  Rung(log, "core.index.query", count, [&](size_t r) {
    out.clear();
    index->Query(pool[r].query, &out);
    counts.results += out.size();
  });
  counts.counters = index->Stats().value_or(QueryCounters{});
  counts.queries = count;
  index->EnableStats(false);
  for (size_t r = 0; r < count; ++r) {
    out.clear();
    index->Query(pool[r].query, &out);
    std::sort(out.begin(), out.end());
    if (out != oracle.Boolean(pool[r].query, id_limit)) {
      run->Fail("direct Query disagrees with the oracle on '" + pool[r].line +
                "'");
    }
  }
  return counts;
}

/// Top-k rung on `index`: every sampled request ranked at its own k (10
/// for Boolean workloads).
IndexCounts TopKRung(TemporalIrIndex* index, const std::vector<Request>& pool,
                     size_t count, const Oracle& oracle, ObjectId id_limit,
                     SpanLog* log, Run* run) {
  IndexCounts counts;
  index->ResetStats();
  index->EnableStats(true);
  std::vector<std::vector<ScoredHit>> got(count);
  Rung(log, "core.index.topk", count, [&](size_t r) {
    const uint32_t k = pool[r].k == 0 ? 10 : pool[r].k;
    if (!index->TopKQuery(pool[r].query, k, &got[r]).ok()) got[r].clear();
  });
  counts.counters = index->Stats().value_or(QueryCounters{});
  index->EnableStats(false);
  for (size_t r = 0; r < count; ++r) {
    const uint32_t k = pool[r].k == 0 ? 10 : pool[r].k;
    if (got[r] != oracle.TopK(pool[r].query, k, id_limit)) {
      run->Fail("direct TopKQuery disagrees with the oracle on '" +
                pool[r].line + "'");
    }
    counts.oracle_postings += oracle.OverlappingPostings(pool[r].query);
  }
  counts.queries = count;
  return counts;
}

/// Standalone DurableIndex figures (the durable_ingest workload takes
/// them from its own WAL directory; the in-memory workloads from this
/// probe over a prefix of their corpus).
struct DurableFigures {
  double insert_us = 0.0;        // median standalone Insert
  double insert_p99_us = 0.0;
  double ingest_per_s = 0.0;
  double bytes_per_insert = 0.0;
  double checkpoints = 0.0;
  double records_replayed = 0.0;
  double recover_s = 0.0;
  double checkpoint_load_s = 0.0;
  double disk_bytes_per_object = 0.0;
};

/// Times `count` inserts of `objects[first..]` into `index`; fills the
/// insert and WAL-bytes figures.
void TimeInserts(DurableIndex* index, const std::vector<Object>& objects,
                 size_t first, size_t count, DurableFigures* figures,
                 Run* run) {
  std::vector<double> us;
  const uint64_t bytes_before = index->wal_segment_bytes();
  Timer total;
  for (size_t i = first; i < first + count && i < objects.size(); ++i) {
    const int64_t start = NowNs();
    const Status status = index->Insert(objects[i]);
    us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    if (!status.ok()) run->Fail("standalone Insert: " + status.ToString());
  }
  const double seconds = total.Seconds();
  if (us.empty()) return;
  figures->insert_us = Median(us);
  figures->insert_p99_us = Percentile(us, 99.0);
  figures->ingest_per_s = static_cast<double>(us.size()) / seconds;
  figures->bytes_per_insert =
      static_cast<double>(index->wal_segment_bytes() - bytes_before) /
      static_cast<double>(us.size());
}

/// Sequence number of the newest WAL segment in `dir` (0 if none). Each
/// checkpoint rotates the log, so the difference between two readings is
/// the number of checkpoints in between.
uint64_t NewestSegment(const std::string& dir) {
  uint64_t newest = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    if (irhint::ParseWalSegmentFileName(entry.path().filename().string(),
                                        &seq)) {
      newest = std::max(newest, seq);
    }
  }
  return newest;
}

/// Opens `dir` (timed), loads its checkpoint on its own (timed), and
/// counts the checkpoints since segment `first_segment` was live.
StatusOr<std::unique_ptr<DurableIndex>> Recover(const std::string& dir,
                                                IndexKind kind,
                                                uint64_t first_segment,
                                                DurableFigures* figures) {
  DurableIndexOptions options;
  options.kind = kind;
  options.checkpoint_bytes = 0;
  Timer timer;
  auto opened = DurableIndex::Open(dir, options);
  figures->recover_s = timer.Seconds();
  if (!opened.ok()) return opened;
  const irhint::RecoveryResult& info = (*opened)->recovery_info();
  figures->records_replayed = static_cast<double>(info.records_replayed);
  figures->checkpoints = static_cast<double>(
      info.live_segment_seq - std::min(info.live_segment_seq, first_segment));
  if (!info.snapshot_file.empty()) {
    Timer load;
    auto loaded = irhint::LoadIndexCheckpoint(
        (fs::path(dir) / info.snapshot_file).string());
    figures->checkpoint_load_s = load.Seconds();
    if (!loaded.ok()) return loaded.status();
  }
  return opened;
}

/// Durable probe for in-memory workloads: build a prefix through the WAL,
/// time inserts around one checkpoint, then reopen.
DurableFigures DurableProbe(const Corpus& corpus, const std::string& dir,
                            Run* run) {
  constexpr size_t kPrefix = 20'000;
  DurableFigures figures;
  std::error_code ec;
  fs::remove_all(dir, ec);
  DurableIndexOptions options;
  options.background_checkpoint = false;
  {
    auto opened = DurableIndex::Open(dir, options);
    if (!opened.ok()) {
      run->Fail("probe Open: " + opened.status().ToString());
      return figures;
    }
    DurableIndex* index = opened->get();
    if (!index->Build(corpus.Prefix(kPrefix)).ok()) {
      run->Fail("probe Build failed");
      return figures;
    }
    DurableFigures first;
    TimeInserts(index, corpus.objects(), kPrefix, kStandaloneInserts / 2,
                &first, run);
    if (!index->TriggerCheckpoint().ok()) run->Fail("probe checkpoint failed");
    TimeInserts(index, corpus.objects(), kPrefix + kStandaloneInserts / 2,
                kStandaloneInserts / 2, &figures, run);
    if (!index->Flush().ok()) run->Fail("probe flush failed");
    figures.disk_bytes_per_object =
        static_cast<double>(DirectoryBytes(dir)) /
        static_cast<double>(index->next_object_id());
  }
  {
    DurableFigures recovered;
    auto reopened = Recover(dir, IndexKind::kIrHintPerf, 1, &recovered);
    if (!reopened.ok()) {
      run->Fail("probe recovery: " + reopened.status().ToString());
    } else if ((*reopened)->next_object_id() != kPrefix + kStandaloneInserts) {
      run->Fail("probe recovery lost acknowledged inserts");
    }
    figures.recover_s = recovered.recover_s;
    figures.records_replayed = recovered.records_replayed;
    figures.checkpoints = recovered.checkpoints;
    figures.checkpoint_load_s = recovered.checkpoint_load_s;
  }
  fs::remove_all(dir, ec);
  return figures;
}

// ---------------------------------------------------------------------------
// The run

std::unique_ptr<ServeEngine> CreateEngine(const Spec& spec,
                                          const Corpus& indexed,
                                          const std::string& wal_dir,
                                          Run* run) {
  ServeOptions options;
  options.time_shards = spec.shards;
  options.kind = spec.kind;
  if (spec.durable) {
    options.wal_dir = wal_dir;
    options.durability = irhint::WalDurability::kBatch;
    options.checkpoint_bytes = kDurableCheckpointBytes;
  }
  auto engine = ServeEngine::Create(indexed, options);
  if (!engine.ok()) {
    run->Fail("ServeEngine::Create: " + engine.status().ToString());
    return nullptr;
  }
  return std::move(engine).value();
}

int Main(const Args& args) {
  Run run;
  Spec spec;
  if (!MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string self_test = SelfTest();
  if (!self_test.empty()) run.Fail("answer-check self-test: " + self_test);

  std::error_code ec;
  const fs::path work = args.work_dir;
  fs::remove_all(work, ec);
  fs::create_directories(work, ec);
  const std::string wal_dir = (work / "wal").string();

  // Set-up, several times: corpus generation plus engine creation (for
  // durable_ingest that logs every indexed object through the WAL).
  std::vector<double> setup_s;
  std::vector<double> corpus_s;
  Corpus corpus;
  Corpus indexed;
  std::unique_ptr<ServeEngine> engine;
  for (int rep = 0; rep < kSetupRepeats && run.ok(); ++rep) {
    engine.reset();
    fs::remove_all(wal_dir, ec);
    Timer timer;
    corpus = MakeCorpus(spec.objects + spec.held_out, args.seed);
    indexed = spec.held_out == 0 ? Corpus() : corpus.Prefix(spec.objects);
    corpus_s.push_back(timer.Seconds());
    engine = CreateEngine(spec, spec.held_out == 0 ? corpus : indexed,
                          wal_dir, &run);
    setup_s.push_back(timer.Seconds());
  }
  if (!run.ok()) return run.Print(args);
  const Corpus& base = spec.held_out == 0 ? corpus : indexed;

  const std::string shard_dir = wal_dir + "/shard-0-0";
  const uint64_t first_segment = spec.durable ? NewestSegment(shard_dir) : 0;

  const Oracle oracle(corpus.objects());
  const std::vector<Request> pool = MakePool(spec, corpus, oracle, args.seed);
  WriterState writer;
  writer.limit = spec.held_out > kStandaloneInserts
                     ? spec.held_out - kStandaloneInserts
                     : 0;
  Context ctx{&spec, engine.get(), &corpus, &pool, &writer};

  // Warm-up: queries only, checked, not counted.
  const Phase warm_up =
      RunPhase(ctx, args.seed + 1'000'000, std::min(1.0, args.seconds / 5.0),
               false, false, false, nullptr);
  for (const ClientResult& client : warm_up.clients) {
    if (!client.error.empty()) run.Fail(client.error);
  }

  std::vector<Phase> phases;
  std::vector<Object> probe_inserts;
  if (!args.trace) {
    phases.push_back(RunPhase(ctx, args.seed, args.seconds, false, true,
                              spec.durable, nullptr));
  } else {
    phases.push_back(RunPhase(ctx, args.seed, args.seconds / 2, false, true,
                              spec.durable, nullptr));
    phases.push_back(RunPhase(ctx, args.seed + 500'000, args.seconds / 2, true,
                              true, spec.durable,
                              spec.durable ? nullptr : &probe_inserts));
  }
  double seconds = 0.0;
  for (const Phase& phase : phases) {
    seconds += phase.seconds;
    for (const ClientResult& client : phase.clients) run.Count(client);
  }
  const uint64_t acked = writer.acked.load();
  const ObjectId served = static_cast<ObjectId>(spec.objects + acked);

  if (spec.durable) {
    const std::string reply = Call(engine.get(), "flush");
    if (reply != "OK\n") run.Fail("flush answered " + reply);
  }
  engine->WaitIdle();
  const double mem_per_object =
      static_cast<double>(engine->MemoryUsageBytes()) /
      static_cast<double>(served + probe_inserts.size());

  // Traced run: replay the first requests of the pool at each rung.
  SpanLog ladder(1000);
  const size_t sampled = std::min(kLadderRequests, pool.size());
  uint64_t legs = 0;
  std::vector<size_t> reply_bytes;
  if (args.trace) {
    // Replies are kept and checked after each rung, outside its spans.
    std::vector<std::string> replies(sampled);
    Rung(&ladder, "serve.protocol", sampled, [&](size_t r) {
      replies[r] = Call(engine.get(), pool[r].line);
    });
    for (size_t r = 0; r < sampled; ++r) {
      reply_bytes.push_back(replies[r].size());
      if (!CheckReply(ctx, pool[r], replies[r], acked)) {
        run.Fail("ladder protocol reply wrong for '" + pool[r].line + "'");
      }
    }
    const uint64_t before_engine = engine->Stats().total_submitted;
    std::vector<StatusOr<std::vector<ObjectId>>> ids(
        sampled, Status::Unavailable("not run"));
    std::vector<StatusOr<std::vector<ScoredHit>>> hits(
        sampled, Status::Unavailable("not run"));
    Rung(&ladder, "serve.engine", sampled, [&](size_t r) {
      if (pool[r].k != 0) {
        hits[r] = engine->ExecuteTopK(pool[r].query, pool[r].k);
      } else {
        ids[r] = engine->Execute(pool[r].query);
      }
    });
    legs = engine->Stats().total_submitted - before_engine;
    for (size_t r = 0; r < sampled; ++r) {
      const Request& request = pool[r];
      bool right = false;
      if (request.k != 0) {
        right = hits[r].ok() && *hits[r] == request.hits;
      } else {
        std::vector<ObjectId> want = request.ids;
        for (const ObjectId id : request.held) {
          if (id < served) want.push_back(id);
        }
        right = ids[r].ok() && *ids[r] == want;
      }
      if (!right) run.Fail("ladder Execute wrong for '" + request.line + "'");
    }
  }

  // durable_ingest: close the engine, recover its shard directory, and
  // check that every acknowledged insert survived.
  DurableFigures durable;
  std::unique_ptr<DurableIndex> recovered;
  if (spec.durable) {
    durable.disk_bytes_per_object =
        static_cast<double>(DirectoryBytes(wal_dir)) /
        static_cast<double>(served);
    engine.reset();
    auto opened = Recover(shard_dir, spec.kind, first_segment, &durable);
    if (!opened.ok()) {
      run.Fail("recovery: " + opened.status().ToString());
      return run.Print(args);
    }
    recovered = std::move(opened).value();
    if (recovered->next_object_id() != served) {
      run.Fail("recovered next_object_id " +
               std::to_string(recovered->next_object_id()) + " != " +
               std::to_string(served));
    }
    // Every acknowledged insert, and nothing else, answers a full-domain
    // query for its smallest element id.
    std::vector<ElementId> cover;
    for (ObjectId id = static_cast<ObjectId>(spec.objects); id < served; ++id) {
      cover.push_back(corpus.object(id).elements.front());
    }
    std::sort(cover.begin(), cover.end());
    cover.erase(std::unique(cover.begin(), cover.end()), cover.end());
    std::vector<ObjectId> out;
    for (const ElementId e : cover) {
      out.clear();
      recovered->Query(Query(Interval(0, corpus.domain_end()), {e}), &out);
      std::sort(out.begin(), out.end());
      if (out != oracle.Holders(e, served)) {
        run.Fail("after recovery, element " + std::to_string(e) +
                 " answers " + std::to_string(out.size()) + " ids, expected " +
                 std::to_string(oracle.Holders(e, served).size()));
        break;
      }
    }
  }

  if (!args.trace) {
    std::vector<std::pair<int64_t, double>> samples;
    for (const ClientResult& client : phases.front().clients) {
      for (size_t i = 0; i < client.query_us.size(); ++i) {
        samples.emplace_back(client.query_end_ns[i], client.query_us[i]);
      }
    }
    const WindowedLatency windowed = Windowed(
        samples, phases.front().start_ns, phases.front().end_ns);
    std::fprintf(stderr, "%zu queries in %.2f s; %zu of %zu windows kept\n",
                 samples.size(), seconds, windowed.kept, windowed.windows);
    run.Add("setup_s", "s", Median(setup_s), false);
    run.Add("query_qps", "q/s", windowed.qps, true);
    run.Add("query_p50_us", "us", windowed.p50_us, false);
    run.Add("query_p90_us", "us", windowed.p90_us, false);
    run.Add("mem_bytes_per_object", "B", mem_per_object, false);
  } else {
    // Direct rungs on equal indexes built over the indexed objects.
    const ObjectId indexed_ids = static_cast<ObjectId>(spec.objects);
    Timer build_timer;
    std::unique_ptr<TemporalIrIndex> boolean_index =
        irhint::CreateIndex(IndexKind::kIrHintPerf);
    if (!boolean_index->Build(base).ok()) run.Fail("direct Build failed");
    const double boolean_build_s = build_timer.Seconds();
    build_timer.Reset();
    std::unique_ptr<TemporalIrIndex> scored_index =
        irhint::CreateIndex(IndexKind::kScoredIrHint);
    if (!scored_index->Build(base).ok()) run.Fail("scored Build failed");
    const double scored_build_s = build_timer.Seconds();

    // durable_ingest's Boolean rung is the recovered index the engine
    // served from; in-memory workloads use the bulk-built equal index.
    TemporalIrIndex* boolean_rung =
        spec.durable ? recovered.get() : boolean_index.get();
    const IndexCounts boolean =
        BooleanRung(boolean_rung, pool, sampled, oracle,
                    spec.durable ? served : indexed_ids, &ladder, &run);
    const IndexCounts ranked = TopKRung(scored_index.get(), pool, sampled,
                                        oracle, indexed_ids, &ladder, &run);
    if (spec.durable) {
      // For reference only: the same queries on a bulk-built index of the
      // indexed objects, beside the recovered one above.
      SpanLog scratch;
      const IndexCounts bulk = BooleanRung(boolean_index.get(), pool, sampled,
                                           oracle, indexed_ids, &scratch, &run);
      std::fprintf(stderr,
                   "bulk-built irHINT-perf: %.1f us/query, %.1f divisions, "
                   "%.1f candidates verified per query\n",
                   Median(SpanMicros(scratch.spans(), "core.index.query")),
                   static_cast<double>(bulk.counters.divisions_visited) /
                       static_cast<double>(bulk.queries),
                   static_cast<double>(bulk.counters.candidates_verified) /
                       static_cast<double>(bulk.queries));
    }

    if (!spec.durable) {
      durable = DurableProbe(base, (work / "probe").string(), &run);
    } else {
      TimeInserts(recovered.get(), corpus.objects(), served,
                  kStandaloneInserts, &durable, &run);
      durable.ingest_per_s = static_cast<double>(acked) / seconds;
      std::vector<double> all_inserts;
      for (const Phase& phase : phases) {
        for (const ClientResult& client : phase.clients) {
          all_inserts.insert(all_inserts.end(), client.insert_us.begin(),
                             client.insert_us.end());
        }
      }
      durable.insert_p99_us = Percentile(all_inserts, 99.0);
    }

    // Insert latency under load (traced phase) against the same insert on
    // an idle equal index: the wait behind queued queries.
    std::vector<double> loaded_insert_us;
    for (const ClientResult& client : phases.back().clients) {
      loaded_insert_us.insert(loaded_insert_us.end(), client.insert_us.begin(),
                              client.insert_us.end());
    }
    double idle_insert_us = durable.insert_us;
    if (!spec.durable) {
      TemporalIrIndex* own =
          spec.ranked ? scored_index.get() : boolean_index.get();
      std::vector<double> us;
      for (const Object& object : probe_inserts) {
        const int64_t start = NowNs();
        if (!own->Insert(object).ok()) run.Fail("direct probe Insert failed");
        us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      }
      idle_insert_us = Median(us);
    }

    // Per-layer table from the spans.
    SpanLog all;
    for (const Phase& phase : phases) {
      for (const ClientResult& client : phase.clients) all.Append(client.spans);
    }
    all.Append(ladder);
    const std::vector<Span>& spans = all.spans();
    const std::vector<Span>& rungs = ladder.spans();
    const double protocol_us = Median(SpanMicros(rungs, "serve.protocol"));
    const double engine_us = Median(SpanMicros(rungs, "serve.engine"));
    const double query_index_us = Median(SpanMicros(rungs, "core.index.query"));
    const double topk_index_us = Median(SpanMicros(rungs, "core.index.topk"));
    const double own_index_us = spec.ranked ? topk_index_us : query_index_us;
    const auto per_query = [](uint64_t total, size_t n) {
      return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
    };
    std::vector<double> untraced_us;
    std::vector<double> traced_us;
    for (const ClientResult& c : phases.front().clients) {
      untraced_us.insert(untraced_us.end(), c.query_us.begin(),
                         c.query_us.end());
    }
    for (const ClientResult& c : phases.back().clients) {
      traced_us.insert(traced_us.end(), c.query_us.begin(), c.query_us.end());
    }
    EngineStats delta_before = phases.front().before;
    EngineStats delta_after = phases.back().after;
    double busy = 0.0;
    for (size_t s = 0; s < delta_after.shards.size(); ++s) {
      busy += delta_after.shards[s].busy_seconds -
              delta_before.shards[s].busy_seconds;
    }
    const double executed = static_cast<double>(
        delta_after.total_executed_queries -
        delta_before.total_executed_queries +
        delta_after.total_updates_applied - delta_before.total_updates_applied);
    const double completed = static_cast<double>(
        delta_after.total_completed - delta_before.total_completed);
    const double batches = static_cast<double>(delta_after.total_batches -
                                               delta_before.total_batches);
    const double dedup = static_cast<double>(delta_after.total_dedup_hits -
                                             delta_before.total_dedup_hits);
    double reply_total = 0.0;
    for (const size_t b : reply_bytes) reply_total += static_cast<double>(b);

    run.Add("data.corpus_s", "s", Median(corpus_s), false);
    run.Add("core.index.build_s", "s",
            spec.ranked ? scored_build_s : boolean_build_s, false);
    run.Add("core.index.query_us", "us", query_index_us, false);
    run.Add("core.index.topk_us", "us", topk_index_us, false);
    run.Add("hint.divisions_visited", "count/query",
            per_query(boolean.counters.divisions_visited, boolean.queries),
            false);
    run.Add("ir.postings_scanned", "count/query",
            per_query(boolean.counters.postings_scanned, boolean.queries),
            false);
    run.Add("ir.candidates_verified", "count/query",
            per_query(boolean.counters.candidates_verified, boolean.queries),
            false);
    run.Add("ir.intersections", "count/query",
            per_query(boolean.counters.intersections_performed,
                      boolean.queries),
            false);
    run.Add("ir.results_per_posting", "ratio",
            boolean.counters.postings_scanned == 0
                ? 0.0
                : static_cast<double>(boolean.results) /
                      static_cast<double>(boolean.counters.postings_scanned),
            true);
    run.Add("rank.postings_scored", "count/query",
            per_query(ranked.counters.postings_scored, ranked.queries), false);
    run.Add("rank.blocks_skipped", "count/query",
            per_query(ranked.counters.blocks_skipped, ranked.queries), true);
    run.Add("rank.divisions_skipped", "count/query",
            per_query(ranked.counters.divisions_skipped, ranked.queries),
            true);
    run.Add("rank.scored_ratio", "ratio",
            ranked.oracle_postings == 0
                ? 0.0
                : static_cast<double>(ranked.counters.postings_scored) /
                      static_cast<double>(ranked.oracle_postings),
            false);
    run.Add("serve.protocol.self_us", "us", protocol_us - engine_us, false);
    run.Add("serve.protocol.reply_bytes", "B/query",
            reply_bytes.empty() ? 0.0
                                : reply_total /
                                      static_cast<double>(reply_bytes.size()),
            false);
    run.Add("serve.engine.self_us", "us", engine_us - own_index_us, false);
    run.Add("serve.engine.legs_per_query", "count",
            per_query(legs, sampled), false);
    run.Add("serve.shard.busy_us_per_leg", "us",
            executed == 0.0 ? 0.0 : busy * 1e6 / executed, false);
    run.Add("serve.shard.utilization", "ratio",
            busy / (seconds * static_cast<double>(delta_after.shards.size())),
            false);
    run.Add("serve.shard.batch_size", "count",
            batches == 0.0 ? 0.0 : completed / batches, true);
    run.Add("serve.shard.dedup_ratio", "ratio",
            completed == 0.0 ? 0.0 : dedup / completed, true);
    run.Add("serve.shard.update_wait_us", "us",
            Median(loaded_insert_us) - idle_insert_us, false);
    run.Add("core.durable.insert_us", "us", durable.insert_us, false);
    run.Add("core.durable.insert_p99_us", "us", durable.insert_p99_us, false);
    run.Add("core.durable.ingest_objs_per_s", "obj/s", durable.ingest_per_s,
            true);
    run.Add("core.durable.checkpoints", "count", durable.checkpoints, false);
    run.Add("wal.bytes_per_insert", "B", durable.bytes_per_insert, false);
    run.Add("wal.disk_bytes_per_object", "B", durable.disk_bytes_per_object,
            false);
    run.Add("wal.recover_s", "s", durable.recover_s, false);
    run.Add("wal.records_replayed", "count", durable.records_replayed, false);
    run.Add("wal.replay_s", "s", durable.recover_s - durable.checkpoint_load_s,
            false);
    run.Add("storage.checkpoint_load_s", "s", durable.checkpoint_load_s,
            false);
    run.Add("bench.trace_overhead", "ratio",
            Percentile(traced_us, 50.0) / Percentile(untraced_us, 50.0),
            false);

    if (!args.spans_path.empty() && !WriteSpans(spans, args.spans_path)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   args.spans_path.c_str());
    }
  }

  recovered.reset();
  engine.reset();
  fs::remove_all(work, ec);
  return run.Print(args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir DIR] [--spans FILE] "
                 "[--report FILE]\n");
    return 2;
  }
  return perfbench::Main(args);
}

// serve-skewed: an open loop over loopback TCP against an in-process
// serve::Server in front of a 4-shard ShardedIndex (Build -> Save ->
// Load mmap), result cache on.
//
// One generator thread owns every connection: it sends each request at
// its scheduled instant (Zipf-ranked queries, a fixed ladder of offered
// rates), encodes it itself (wire::AppendRequestFrame or RequestToJson)
// and decodes responses itself (wire::DecodeResponse or
// ParseResponseJson), so the wire layer is timed from outside. Latency
// runs from the scheduled send time to the decoded response, so a
// stall also delays every request queued behind it. The ladder stops
// sending after its first step whose backlog grows, and the phase ends
// once the server has drained.
//
// Every response is compared with a direct ShardedIndex::Execute of
// the same query (QueryResult::SameAnswer). In the traced phase those
// reference executions are also the shard replay: Execute and
// ExecuteQuery on each shard(i), each in its own span.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "alphabet/alphabet.h"
#include "core/query.h"
#include "core/wire.h"
#include "runner/workloads.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/sharded_index.h"

namespace perfbench {
namespace {

namespace wire = spine::core::wire;
using spine::Query;
using spine::QueryResult;

// Result-cache budget. The distinct set's answers need several times
// this, while the hot set (the ranks drawing 80% of requests) fits.
constexpr uint64_t kCacheBytes = 1 << 20;
// Threads: the generator, one server reader thread per connection and
// the engine workers together stay within a 4-CPU budget.
constexpr uint32_t kServeConnections = 2;
constexpr uint32_t kServeEngineThreads = 1;
// Sends to issue before reading again when the generator runs late.
constexpr uint32_t kMaxBurst = 64;
// A step is backlogged when sent-minus-answered grows between its middle
// and its end by more than this many requests, or by more than 1% of
// its offered rate (10 ms of sends).
constexpr double kBacklogSlack = 32;
// Latency recorded for a request that was shed or failed: it misses
// any latency limit.
constexpr double kMissedMs = 1e9;

// When each step of the ladder starts, in seconds from the start of
// the phase; the last entry is when the top step ends.
std::vector<double> StepStarts(double seconds) {
  const size_t rungs = std::size(kServeRates);
  const double step =
      seconds * (1 - kWarmShare - kReferenceShare) / (rungs - 1);
  std::vector<double> starts{seconds * kWarmShare,
                             seconds * (kWarmShare + kReferenceShare)};
  for (size_t k = 1; k < rungs; ++k) starts.push_back(starts.back() + step);
  return starts;
}

std::unique_ptr<spine::shard::ShardedIndex> SetUp(const Inputs& in,
                                                  const PhaseConfig& config,
                                                  PhaseResult* result) {
  const std::string path = config.workdir + "/family.spfm";
  spine::shard::ShardedIndex::Options options;
  options.shards = kServeShards;
  options.build_threads = config.cpu_budget;
  const Clock::time_point t0 = Clock::now();
  auto built = spine::shard::ShardedIndex::Build(spine::Alphabet::Dna(),
                                                 in.corpus, options);
  if (!built.ok()) throw std::runtime_error("build: " + built.status().ToString());
  const Clock::time_point t1 = Clock::now();
  spine::Status status = (*built)->Save(path);
  if (!status.ok()) throw std::runtime_error("save: " + status.ToString());
  const Clock::time_point t2 = Clock::now();
  spine::core::OpenOptions open;
  open.mode = spine::core::OpenMode::kMmap;
  auto loaded = spine::shard::ShardedIndex::Load(path, open);
  if (!loaded.ok()) throw std::runtime_error("open: " + loaded.status().ToString());
  const Clock::time_point t3 = Clock::now();
  // The loaded family borrows its shard tables from the mappings, which
  // MemoryBytes() leaves out; the family as built holds the same tables.
  result->values["bytes_per_char"] =
      static_cast<double>((*built)->MemoryBytes()) /
      static_cast<double>((*built)->size());
  result->samples["setup_s"].push_back(SecondsBetween(t0, t3));
  result->samples["compact.build_s"].push_back(SecondsBetween(t0, t1));
  result->samples["compact.save_s"].push_back(SecondsBetween(t1, t2));
  result->samples["compact.open_s"].push_back(SecondsBetween(t2, t3));
  return std::move(loaded).value();
}

uint64_t EntryBytes(const Query& q, const QueryResult& r) {
  // engine/query_cache.cc's estimate: overhead + key + payload.
  return 96 + q.pattern.size() + 16 + r.hits.size() * sizeof(spine::Hit) +
         r.matching_stats.size() * sizeof(uint32_t);
}

struct Conn {
  spine::serve::Client client;
  bool json = false;
  std::string buffer;            // received, not yet decoded
  std::string out;               // encoded, not yet sent
  std::deque<uint64_t> pending;  // request indices, in send order
};

// Sends as much of conn.out as the socket takes without blocking: a
// generator blocked in send while the server is blocked writing its
// responses back would deadlock. False on a broken connection.
bool Flush(Conn& conn) {
  size_t done = 0;
  while (done < conn.out.size()) {
    const ssize_t n = send(conn.client.fd(), conn.out.data() + done,
                           conn.out.size() - done, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  conn.out.erase(0, done);
  return true;
}

}  // namespace

uint64_t ServeScheduleLength(double seconds) {
  const std::vector<double> starts = StepStarts(seconds);
  uint64_t total = static_cast<uint64_t>(kServeRates[0] * starts[0]);
  for (size_t k = 0; k < std::size(kServeRates); ++k) {
    total += static_cast<uint64_t>(kServeRates[k] * (starts[k + 1] - starts[k]));
  }
  return total;
}

PhaseResult RunServeSkewed(const Inputs& in, const PhaseConfig& config) {
  PhaseResult result;
  result.traced = config.traced;
  std::unique_ptr<spine::shard::ShardedIndex> family;
  for (uint32_t rep = 0; rep < config.setup_reps; ++rep) {
    family = nullptr;  // unmap before the files are rewritten
    family = SetUp(in, config, &result);
  }
  Tracer tracer(config.traced);

  // Reference answers (and, traced, the shard replay) for every
  // distinct query the schedule uses.
  std::vector<QueryResult> expected(in.distinct.size());
  std::vector<uint64_t> rank_requests(in.distinct.size(), 0);
  for (uint32_t rank : in.schedule) ++rank_requests[rank];
  for (uint32_t rank = 0; rank < in.distinct.size(); ++rank) {
    if (rank_requests[rank] == 0) continue;
    const Query& q = in.distinct[rank];
    ScopedSpan replay(&tracer, "replay", rank);
    {
      ScopedSpan span(&tracer, "shard.execute", rank);
      expected[rank] = family->Execute(q);
    }
    if (tracer.enabled()) {
      for (uint32_t s = 0; s < family->shard_count(); ++s) {
        ScopedSpan span(&tracer, "shard.part", rank);
        (void)spine::ExecuteQuery(family->shard(s), q);
      }
    }
  }
  // Cache shape: bytes of every distinct answer vs the hot set.
  {
    std::vector<uint32_t> ranks;
    double all_bytes = 0;
    for (uint32_t rank = 0; rank < in.distinct.size(); ++rank) {
      if (rank_requests[rank] == 0) continue;
      ranks.push_back(rank);
      all_bytes += static_cast<double>(EntryBytes(in.distinct[rank], expected[rank]));
    }
    std::sort(ranks.begin(), ranks.end(), [&](uint32_t a, uint32_t b) {
      return rank_requests[a] != rank_requests[b]
                 ? rank_requests[a] > rank_requests[b]
                 : a < b;
    });
    double hot_bytes = 0;
    uint64_t covered = 0;
    for (uint32_t rank : ranks) {
      if (covered * 5 >= in.schedule.size() * 4) break;
      covered += rank_requests[rank];
      hot_bytes += static_cast<double>(EntryBytes(in.distinct[rank], expected[rank]));
    }
    result.values["cache_bytes"] = static_cast<double>(kCacheBytes);
    result.values["distinct_bytes"] = all_bytes;
    result.values["hot_set_bytes"] = hot_bytes;
    result.values["distinct_used"] = static_cast<double>(ranks.size());
  }

  const uint32_t engine_threads = kServeEngineThreads;
  const uint32_t connections = kServeConnections;
  spine::serve::Options options;
  options.threads = engine_threads;
  options.cache_bytes = kCacheBytes;
  // Admission bounds wide enough that the overloaded top rungs queue
  // requests instead of shedding them: the ladder measures the knee
  // by latency and backlog, and a shed request would be a failure.
  options.queue_cap = 1 << 20;
  options.max_inflight = 1 << 20;
  spine::serve::Server server(*family, options);
  spine::Status status = server.Start();
  if (!status.ok()) throw std::runtime_error("serve: " + status.ToString());

  std::vector<Conn> conns;
  for (uint32_t c = 0; c < connections; ++c) {
    // The first connection speaks JSON lines, the rest binary frames.
    auto client = spine::serve::Client::Connect("127.0.0.1", server.port(),
                                                /*json=*/c == 0);
    if (!client.ok()) throw std::runtime_error("connect: " + client.status().ToString());
    const int one = 1;
    setsockopt(client->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns.push_back(Conn{std::move(client).value(), c == 0, {}, {}});
  }

  // The schedule: warm-up at the lowest rate, then one step per rate.
  const uint64_t total = in.schedule.size();
  const std::vector<double> starts = StepStarts(config.seconds);
  const double warm = starts[0];
  std::vector<double> offset_s(total);
  std::vector<int> rung_of(total);
  {
    uint64_t j = 0;
    const uint64_t warm_n = static_cast<uint64_t>(kServeRates[0] * warm);
    for (uint64_t n = 0; n < warm_n && j < total; ++n, ++j) {
      offset_s[j] = n / kServeRates[0];
      rung_of[j] = -1;
    }
    for (size_t k = 0; k < std::size(kServeRates); ++k) {
      const uint64_t count =
          static_cast<uint64_t>(kServeRates[k] * (starts[k + 1] - starts[k]));
      for (uint64_t n = 0; n < count && j < total; ++n, ++j) {
        offset_s[j] = starts[k] + n / kServeRates[k];
        rung_of[j] = static_cast<int>(k);
      }
    }
  }
  const size_t rungs = std::size(kServeRates);
  std::vector<std::vector<double>> latency(rungs), lag(rungs);
  std::vector<uint64_t> sent(rungs, 0), ok(rungs, 0), shed(rungs, 0);
  std::vector<double> backlog_mid(rungs, -1), backlog_end(rungs, -1);
  // When each step's last response arrived: the achieved rate is its
  // answers over the time from the step's first send to that instant.
  std::vector<Clock::time_point> last_answer(rungs);
  // Answers received before each step began, and when the last answer
  // of the run arrived. The ladder stops sending after its first
  // backlogged step: from that step's start to the end of the drain the
  // server runs saturated, and its answer rate is its capacity.
  std::vector<double> answered_at_start(rungs, -1);
  int first_backlogged = -1;
  uint64_t limit = total;  // requests the generator will send
  Clock::time_point final_answer;
  std::vector<Clock::time_point> encode_start, encode_end;
  if (tracer.enabled()) {
    encode_start.resize(total);
    encode_end.resize(total);
  }
  FailureLog failures;
  uint64_t answered = 0;
  uint64_t next = 0;
  spine::obs::MetricsSnapshot before;
  spine::serve::ServerStats stats_before;
  bool measuring = false;

  const Clock::time_point start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point ladder_start = at(warm);
  const Clock::time_point hard_stop = at(starts.back() + 10.0);

  const auto on_response = [&](Conn& conn, wire::QueryResponse response,
                               Clock::time_point decode_start) {
    const Clock::time_point now = Clock::now();
    if (conn.pending.empty()) {
      failures.Wrong("unsolicited response id " + std::to_string(response.id));
      return;
    }
    const uint64_t j = conn.pending.front();
    conn.pending.pop_front();
    ++answered;
    if (tracer.enabled()) {
      const int64_t root =
          tracer.AddUnder(-1, "request", j, encode_start[j], now);
      tracer.AddUnder(root, "wire.encode", j, encode_start[j], encode_end[j]);
      tracer.AddUnder(root, "server", j, encode_end[j], decode_start);
      tracer.AddUnder(root, "wire.decode", j, decode_start, now);
    }
    const int rung = rung_of[j];
    double ms = MillisBetween(at(offset_s[j]), now);
    if (response.id != j) {
      failures.Wrong("response id " + std::to_string(response.id) +
                     " answered request " + std::to_string(j));
      ms = kMissedMs;
    } else if (response.result.status_code == spine::StatusCode::kOverloaded) {
      failures.Fail("request " + std::to_string(j) + " shed");
      if (rung >= 0) ++shed[rung];
      ms = kMissedMs;
    } else if (!response.result.ok()) {
      failures.Fail("request " + std::to_string(j) + ": " + response.result.error);
      ms = kMissedMs;
    } else if (!response.result.SameAnswer(expected[in.schedule[j]])) {
      failures.Wrong("request " + std::to_string(j) + " (rank " +
                     std::to_string(in.schedule[j]) +
                     ") differs from ShardedIndex::Execute");
      ms = kMissedMs;
    } else if (rung >= 0) {
      ++ok[rung];
    }
    if (rung >= 0) {
      latency[rung].push_back(ms);
      last_answer[rung] = now;
    }
    final_answer = now;
  };

  // Reads whatever the socket holds and hands every complete response
  // to on_response. False on a broken connection.
  const auto drain = [&](Conn& conn) {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = recv(conn.client.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        conn.buffer.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) return false;
    }
    size_t used = 0;
    for (;;) {
      const std::string_view rest = std::string_view(conn.buffer).substr(used);
      const Clock::time_point t0 = Clock::now();
      if (conn.json) {
        const size_t eol = rest.find('\n');
        if (eol == std::string_view::npos) break;
        auto response = wire::ParseResponseJson(rest.substr(0, eol));
        used += eol + 1;
        if (!response.ok()) return false;
        on_response(conn, std::move(response).value(), t0);
      } else {
        wire::Frame frame;
        size_t consumed = 0;
        if (!wire::ExtractFrame(rest, &frame, &consumed).ok()) return false;
        if (consumed == 0) break;
        if (frame.type != wire::FrameType::kResponse) return false;
        auto response = wire::DecodeResponse(frame.payload);
        used += consumed;
        if (!response.ok()) return false;
        on_response(conn, std::move(response).value(), t0);
      }
    }
    conn.buffer.erase(0, used);
    return true;
  };

  std::vector<pollfd> fds(conns.size());
  bool broken = false;
  while (!broken) {
    Clock::time_point now = Clock::now();
    if (!measuring && now >= ladder_start) {
      measuring = true;
      before = spine::obs::Registry::Default().Snapshot();
      stats_before = server.stats();
    }
    // Backlog (sent - answered) at the middle and the end of each step;
    // the first step whose backlog grows ends the ladder.
    for (size_t k = 0; k < rungs; ++k) {
      const double outstanding = static_cast<double>(next - answered);
      if (answered_at_start[k] < 0 && now >= at(starts[k])) {
        answered_at_start[k] = static_cast<double>(answered);
      }
      if (backlog_mid[k] < 0 && now >= at((starts[k] + starts[k + 1]) / 2)) {
        backlog_mid[k] = outstanding;
      }
      if (backlog_end[k] < 0 && now >= at(starts[k + 1])) {
        backlog_end[k] = outstanding;
        if (first_backlogged < 0 && backlog_end[k] - backlog_mid[k] >
                                        std::max(kBacklogSlack, 0.01 * kServeRates[k])) {
          first_backlogged = static_cast<int>(k);
          limit = next;
        }
      }
    }
    for (uint32_t burst = 0;
         next < limit && burst < kMaxBurst && at(offset_s[next]) <= now;
         ++burst) {
      const uint64_t j = next++;
      Conn& conn = conns[j % conns.size()];
      wire::QueryRequest request{j, in.distinct[in.schedule[j]]};
      const Clock::time_point t0 = Clock::now();
      if (conn.json) {
        conn.out += wire::RequestToJson(request);
        conn.out.push_back('\n');
      } else {
        wire::AppendRequestFrame(request, &conn.out);
      }
      const Clock::time_point t1 = Clock::now();
      if (tracer.enabled()) {
        encode_start[j] = t0;
        encode_end[j] = t1;
      }
      conn.pending.push_back(j);
      if (rung_of[j] >= 0) {
        ++sent[rung_of[j]];
        lag[rung_of[j]].push_back(MillisBetween(at(offset_s[j]), t0));
      }
      now = Clock::now();
    }
    // One send per connection for the whole burst.
    for (Conn& conn : conns) {
      if (!Flush(conn)) broken = true;
    }
    if (next == limit && answered == next) break;
    if (now >= hard_stop) break;
    // Sleep until the next send is due or a socket is ready; a late
    // wake-up shows as generator lag.
    const double wait_ms =
        next < limit
            ? std::clamp(MillisBetween(Clock::now(), at(offset_s[next])), 0.0, 20.0)
            : 20.0;
    for (size_t c = 0; c < conns.size(); ++c) {
      const short events = conns[c].out.empty() ? POLLIN : POLLIN | POLLOUT;
      fds[c] = pollfd{conns[c].client.fd(), events, 0};
    }
    timespec ts{0, static_cast<long>(wait_ms * 1e6)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) break;
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & POLLOUT) != 0 && !Flush(conns[c])) broken = true;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents != 0 && !drain(conns[c])) broken = true;
    }
  }
  const spine::obs::MetricsSnapshot after =
      spine::obs::Registry::Default().Snapshot();
  const spine::serve::ServerStats stats_after = server.stats();
  if (!measuring) before = after;
  if (broken) result.Error("a connection broke during the run");
  for (size_t k = 0; k < rungs; ++k) {
    // Requests never answered miss every limit.
    latency[k].resize(sent[k], kMissedMs);
  }
  conns.clear();
  server.Stop();

  result.attempted = next;
  result.checked = answered;
  if (answered < next) {
    result.failed += next - answered;
    result.Error(std::to_string(next - answered) + " requests unanswered");
  }
  uint64_t total_ok = 0;
  for (size_t k = 0; k < rungs; ++k) {
    const std::string r = "rung" + std::to_string(k);
    result.samples["latency_ms." + r] = std::move(latency[k]);
    result.samples["lag_ms." + r] = std::move(lag[k]);
    result.values[r + ".rate"] = kServeRates[k];
    result.values[r + ".step_s"] = starts[k + 1] - starts[k];
    result.values[r + ".answer_s"] =
        SecondsBetween(at(starts[k]), last_answer[k]);
    result.values[r + ".sent"] = static_cast<double>(sent[k]);
    result.values[r + ".ok"] = static_cast<double>(ok[k]);
    result.values[r + ".shed"] = static_cast<double>(shed[k]);
    result.values[r + ".backlog_mid"] = backlog_mid[k];
    result.values[r + ".backlog_end"] = backlog_end[k];
    result.values[r + ".backlogged"] = static_cast<int>(k) == first_backlogged;
    total_ok += ok[k];
  }
  result.values["completed"] = static_cast<double>(total_ok);
  const size_t saturated =
      first_backlogged >= 0 ? static_cast<size_t>(first_backlogged) : rungs - 1;
  result.values["saturated_rung"] = static_cast<double>(saturated);
  result.values["saturated_answers"] =
      static_cast<double>(answered) - answered_at_start[saturated];
  result.values["saturated_s"] =
      SecondsBetween(at(starts[saturated]), final_answer);
  result.values["index_chars"] = static_cast<double>(family->size());
  result.values["serve.queries"] =
      static_cast<double>(stats_after.queries - stats_before.queries);
  result.values["serve.shed"] =
      static_cast<double>(stats_after.shed - stats_before.shed);
  result.values["serve.bytes"] = static_cast<double>(
      (stats_after.bytes_in - stats_before.bytes_in) +
      (stats_after.bytes_out - stats_before.bytes_out));
  result.values["shards"] = family->shard_count();
  result.info["kernel.dispatch"] = KernelDispatchName();
  result.info["threads"] =
      "1 generator + " + std::to_string(connections) +
      " server connection threads + " + std::to_string(engine_threads) +
      " engine worker (+ the server's acceptor and 100 ms watchdog, idle); " +
      std::to_string(connections) + " connections (1 JSON lines, 1 binary)";
  AddRegistryDelta(before, after, &result);
  result.TakeSpans(tracer);
  failures.MergeInto(&result);
  return result;
}

}  // namespace perfbench

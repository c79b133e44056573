// The live onload path on loopback: households' proto::MultipathHttpClient
// -> proto::OnloadProxy (one governed phone proxy with a fsync'd
// QuotaJournal, one ungoverned ADSL proxy) -> proto::OriginServer.
//
// Roles run on three threads, each with its own EpollLoop: origin; both
// proxies; all clients. The orchestrating thread only builds, starts,
// drains and checks the stack, and touches a role's objects only while
// that role's thread is not running.
//
// A run restarts the whole stack several times: each start replays a
// pre-seeded journal (the proxy's restart downtime) and is timed up to the
// first request; the last start then serves a closed loop of transactions.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "http/checksum.hpp"
#include "proto/epoll_loop.hpp"
#include "proto/multipath_client.hpp"
#include "proto/origin_server.hpp"
#include "proto/proxy.hpp"
#include "proto/quota_journal.hpp"
#include "proto/tenant_governor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace perfbench {
namespace {

using namespace gol::proto;
using gol::telemetry::Registry;
using gol::telemetry::TraceRecorder;

constexpr int kConcurrency = 2;      // households with a transaction open
constexpr int kStarts = 9;           // stack starts per run (median set-up)
constexpr double kWarmupS = 1.0;     // served but not measured
constexpr double kStuckAfterS = 30;  // a transaction open this long = stuck
constexpr auto kPollWait = std::chrono::milliseconds(5);
constexpr std::uint32_t kTenantBase = 0x7f010001u;  // 127.1.0.1
// Large enough that no tenant's allowance runs out during a run.
constexpr double kAllowanceBytes = 1e15;
constexpr int kPreseedCharges = 30000;  // journal replayed at every start

struct Workload {
  int items_per_txn = 16;
  bool bulk = false;
  /// Households in the seeded visiting order. live_bulk uses fewer so that
  /// every run revisits each one: an idle client keeps its receive buffers
  /// (README.md), so peak RSS would otherwise grow with throughput.
  int households = 1000;
  /// Source addresses the households spread over; one each by default.
  int addresses = 1000;
};

Workload workloadFor(const Options& opts) {
  Workload w = opts.workload == "live_bulk" ? Workload{4, true, 64, 64}
                                            : Workload{16, false, 1000, 1000};
  if (opts.addresses > 0) w.addresses = std::min(opts.addresses, w.households);
  return w;
}

/// splitmix64: the benchmark's own seeded generator, so inputs do not
/// depend on the standard library's distribution implementations.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  std::size_t below(std::size_t n) { return next() % n; }
};

std::string tenantName(int address) {
  const std::uint32_t a = kTenantBase + static_cast<std::uint32_t>(address);
  std::ostringstream os;
  os << (a >> 24) << '.' << ((a >> 16) & 255) << '.' << ((a >> 8) & 255)
     << '.' << (a & 255);
  return os.str();
}

/// Transactions and the household visiting order, generated from the seed
/// before anything is timed. Transactions are reused cyclically.
struct Inputs {
  std::vector<std::vector<FetchItem>> txns;
  std::vector<int> order;
};

Inputs makeInputs(const Options& opts, const Workload& w) {
  Rng rng{opts.seed * 0x100000001b3ull + (w.bulk ? 2 : 1)};
  std::unordered_map<std::size_t, std::uint64_t> digests;
  const auto item = [&](std::size_t bytes) {
    auto [it, fresh] = digests.try_emplace(bytes, 0);
    if (fresh) it->second = gol::http::fnv1aFiller(bytes);
    return FetchItem{"/obj/" + std::to_string(bytes), bytes, it->second};
  };
  // A small set of sizes, so the origin's per-size digest cache warms up,
  // spread evenly over 768 KiB..1.27 MiB: the seed moves each size by at
  // most 4 KiB, so every seed asks for the same bytes per item on average.
  std::vector<std::size_t> bulk_sizes;
  for (std::size_t k = 0; k < 6; ++k)
    bulk_sizes.push_back((768 + 102 * k) * 1024 + rng.below(4096));

  Inputs in;
  in.txns.resize(w.bulk ? 256 : 2048);
  for (auto& txn : in.txns) {
    for (int i = 0; i < w.items_per_txn; ++i) {
      std::size_t bytes;
      if (w.bulk) {
        bytes = bulk_sizes[rng.below(bulk_sizes.size())];
      } else {  // exp(2 KB), floored at 512 B
        const double x = -2048.0 * std::log(1.0 - rng.uniform());
        bytes = std::max<std::size_t>(512, static_cast<std::size_t>(x));
      }
      txn.push_back(item(bytes));
    }
  }
  in.order.resize(static_cast<std::size_t>(w.households));
  for (int h = 0; h < w.households; ++h) in.order[h] = h;
  for (std::size_t i = in.order.size(); i > 1; --i)
    std::swap(in.order[i - 1], in.order[rng.below(i)]);
  return in;
}

/// Writes the journal every start replays: one allowance per tenant and a
/// seeded history of charges, as a proxy that ran for a while leaves it.
void preseedJournal(const std::string& path, const Options& opts,
                    int addresses) {
  std::filesystem::remove(path);
  QuotaJournalConfig jcfg;
  jcfg.path = path;
  jcfg.days_per_month = 1;
  jcfg.fsync = false;  // not timed; durability is not at stake here
  QuotaJournal journal(jcfg);
  journal.open();
  for (int a = 0; a < addresses; ++a)
    journal.appendAllowance(tenantName(a), kAllowanceBytes);
  Rng rng{opts.seed ^ 0x6a09e667f3bcc909ull};
  for (int i = 0; i < kPreseedCharges; ++i)
    journal.appendCharge(
        tenantName(static_cast<int>(rng.below(
            static_cast<std::size_t>(addresses)))),
        static_cast<double>(1 + rng.below(64 * 1024)));
  journal.flush();
}

enum Phase : int { kWarmup, kMeasure, kMeasured, kDrain, kStop };

/// Start/end snapshot of one role over the measured window, taken on the
/// role's own thread when it first sees the phase change.
struct RoleWindow {
  using Values = std::map<std::string, double>;
  int seen = kWarmup;
  Clock::time_point t0{}, t1{};
  ThreadCpu cpu0, cpu1;
  Values v0, v1;

  template <typename Read>
  void observe(int phase, const Read& read) {
    if (phase >= kMeasure && seen < kMeasure) {
      seen = kMeasure;
      v0 = read();
      cpu0 = ThreadCpu::now();
      t0 = Clock::now();
    }
    if (phase >= kMeasured && seen < kMeasured) {
      seen = kMeasured;
      t1 = Clock::now();
      cpu1 = ThreadCpu::now();
      v1 = read();
    }
  }

  JsonObject json() const {
    JsonObject o;
    o.num("wall_s", std::chrono::duration<double>(t1 - t0).count())
        .num("cpu_s", (cpu1.user_s + cpu1.sys_s) - (cpu0.user_s + cpu0.sys_s))
        .num("sys_s", cpu1.sys_s - cpu0.sys_s);
    for (const auto& [k, v] : v1) {
      const auto it = v0.find(k);
      o.num(k, v - (it == v0.end() ? 0.0 : it->second));
    }
    return o;
  }
};

/// Totals the client thread books per transaction.
struct ClientBooks {
  std::uint64_t txns = 0, items_attempted = 0, items_failed = 0;
  std::uint64_t corrupt = 0, partial = 0, stuck = 0;
  // Measured window only.
  std::uint64_t window_txns = 0, window_items = 0, retries = 0;
  std::uint64_t duplicated = 0, degraded = 0;
  double wasted_bytes = 0, received_bytes = 0;
  std::vector<double> latency_ms;
  std::vector<double> items_by_second;  ///< Items completed per window second.
  double window_s = 0;
};

/// One started stack: journal + governor, origin, two proxies, clients, and
/// their threads. Built and destroyed by the orchestrating thread.
class Stack {
 public:
  Stack(const Options& opts, const Workload& w, const Inputs& in,
        const std::string& journal_path, TraceRecorder* rec, bool serve)
      : opts_(opts), addresses_(w.addresses), in_(in), rec_(rec), serve_(serve),
        journal_(journalConfig(journal_path)), governor_(governorConfig()) {
    {
      gol::telemetry::Span span(rec_, "setup.journal_replay", "setup", 0);
      const auto t0 = Clock::now();
      governor_.restore(journal_.open().state);
      governor_.attachJournal(&journal_);
      replay_ms_ = secondsSince(t0) * 1e3;
    }
    gol::telemetry::Span span(rec_, "setup.start", "setup", 0);
    origin_ = std::make_unique<OriginServer>(origin_loop_);
    ProxyConfig pcfg;
    pcfg.upstream_port = origin_->port();
    pcfg.down_bps = pcfg.up_bps = 1e12;  // never binds on loopback
    pcfg.latency = std::chrono::microseconds(0);
    pcfg.governor = &governor_;
    phone_ = std::make_unique<OnloadProxy>(proxy_loop_, pcfg);
    pcfg.governor = nullptr;
    adsl_ = std::make_unique<OnloadProxy>(proxy_loop_, pcfg);
    const std::vector<Endpoint> endpoints{{"adsl", adsl_->port()},
                                          {"phone0", phone_->port()}};
    for (std::size_t h = 0; h < in_.order.size(); ++h) {
      ClientConfig ccfg;
      ccfg.bind_addr = kTenantBase + static_cast<std::uint32_t>(h % addresses_);
      clients_.push_back(
          std::make_unique<MultipathHttpClient>(client_loop_, endpoints, ccfg));
    }
    if (rec_) {
      origin_loop_.instrument(&origin_reg_);
      proxy_loop_.instrument(&proxy_reg_);
      phone_->instrument(&proxy_reg_);
      adsl_->instrument(&proxy_reg_);
      governor_.instrument(&proxy_reg_);
      client_loop_.instrument(&client_reg_);
    }
    origin_thread_ = std::thread([this] { guarded([this] { originMain(); }); });
    proxy_thread_ = std::thread([this] { guarded([this] { proxyMain(); }); });
    client_thread_ = std::thread([this] { guarded([this] { clientMain(); }); });
  }

  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Blocks until the first request went out; returns its time.
  Clock::time_point firstRequest() {
    while (!first_request_.load()) std::this_thread::yield();
    return first_at_;
  }

  /// Waits for the clients to finish, drains the proxies, stops and joins
  /// every role. Idempotent.
  void stop() {
    if (!client_thread_.joinable()) return;
    client_thread_.join();
    phase_.store(kDrain);
    const auto t0 = Clock::now();
    while (!drained_.load() && secondsSince(t0) < 10)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    phase_.store(kStop);
    proxy_thread_.join();
    origin_thread_.join();
  }

  /// After stop(): does a replay of the journal file equal the governor's
  /// books? Returns the largest per-field difference in bytes, or nothing
  /// when the tenant sets or day counters differ.
  std::optional<double> journalMismatch() const {
    std::ifstream f(journal_.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    const LedgerState replayed = QuotaJournal::replay(bytes, 1).state;
    const LedgerState live = governor_.snapshot();
    if (replayed.size() != live.size()) return std::nullopt;
    double worst = 0;
    for (const auto& [tenant, a] : live) {
      const auto it = replayed.find(tenant);
      if (it == replayed.end() || it->second.day != a.day) return std::nullopt;
      const TenantLedger& b = it->second;
      worst = std::max({worst, std::abs(a.used_today - b.used_today),
                        std::abs(a.used_month - b.used_month),
                        std::abs(a.monthly_allowance - b.monthly_allowance)});
    }
    return worst;
  }

  /// After stop(): what ended a role thread early, or "".
  const std::string& error() const { return error_; }
  bool drained() const { return drained_.load(); }
  double replayMs() const { return replay_ms_; }
  const ClientBooks& books() const { return books_; }
  const std::vector<double>& flushMs() const { return flush_ms_; }
  std::size_t peakBuffered() const {
    return std::max(phone_->peakBufferedBytes(), adsl_->peakBufferedBytes());
  }
  JsonObject roles() const {
    JsonObject o;
    o.object("proxy", proxy_win_.json())
        .object("client", client_win_.json())
        .object("origin", origin_win_.json());
    return o;
  }

 private:
  QuotaJournalConfig journalConfig(const std::string& path) const {
    QuotaJournalConfig c;  // fsync on, default group commit
    c.path = path;
    c.days_per_month = 1;
    return c;
  }
  /// Runs a role's loop. An exception ends the run (recorded for error())
  /// instead of the process; the other roles wind down as on a normal stop.
  template <typename Fn>
  void guarded(const Fn& role) {
    try {
      role();
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (error_.empty()) error_ = e.what();
      }
      failed_.store(true);
      first_request_.store(true);  // never leave firstRequest() waiting
    }
  }

  TenantGovernorConfig governorConfig() const {
    TenantGovernorConfig c;
    c.days_per_month = 1;
    c.default_monthly_allowance_bytes = kAllowanceBytes;
    return c;
  }

  void originMain() {
    const auto read = [this] {
      return RoleWindow::Values{
          {"requests", static_cast<double>(origin_->requestsServed())},
          {"loop_iters", counterValue(origin_reg_, "gol.proto.poll_iterations")}};
    };
    while (phase_.load() < kStop) {
      origin_loop_.poll(kPollWait);
      origin_win_.observe(phase_.load(), read);
    }
  }

  void proxyMain() {
    const auto read = [this] {
      return RoleWindow::Values{
          {"bytes_relayed",
           static_cast<double>(phone_->bytesRelayedDown() +
                               phone_->bytesRelayedUp() +
                               adsl_->bytesRelayedDown() +
                               adsl_->bytesRelayedUp())},
          {"backpressure_pauses",
           static_cast<double>(phone_->backpressurePauses() +
                               adsl_->backpressurePauses())},
          {"journal_flushes", static_cast<double>(journal_.flushes())},
          {"journal_records", static_cast<double>(journal_.appendedRecords())},
          {"admits", static_cast<double>(governor_.admitted())},
          {"accepts", counterValue(proxy_reg_, "gol.proto.proxy_accepts")},
          {"loop_iters", counterValue(proxy_reg_, "gol.proto.poll_iterations")},
          {"events", counterValue(proxy_reg_, "gol.proto.events_dispatched")}};
    };
    // The group-commit heartbeat tools/proxy_host runs beside the journal.
    std::function<void()> heartbeat = [&] {
      const int phase = phase_.load();
      if (phase >= kDrain) return;
      {
        gol::telemetry::Span span(rec_, "journal.flush", "journal", 1);
        const auto t0 = Clock::now();
        journal_.flush();
        if (phase == kMeasure) flush_ms_.push_back(secondsSince(t0) * 1e3);
      }
      proxy_loop_.runAfter(std::chrono::milliseconds(50), heartbeat);
    };
    proxy_loop_.runAfter(std::chrono::milliseconds(50), heartbeat);
    bool drain_begun = false;
    while (phase_.load() < kStop) {
      proxy_loop_.poll(kPollWait);
      const int phase = phase_.load();
      proxy_win_.observe(phase, read);
      if (phase == kDrain && !drain_begun) {
        drain_begun = true;
        phone_->beginDrain();
        adsl_->beginDrain();
      }
      if (drain_begun && !drained_.load() && phone_->drainComplete() &&
          adsl_->drainComplete()) {
        journal_.flush();
        drained_.store(true);
      }
    }
  }

  void clientMain() {
    struct Open {
      int household;
      std::size_t items;
      Clock::time_point started;
      gol::telemetry::SpanId span;
      int slot;
    };
    std::vector<Open> open;
    std::size_t next_household = 0, next_txn = 0;
    Clock::time_point window_start{};
    const auto read = [this] {
      return RoleWindow::Values{
          {"loop_iters", counterValue(client_reg_, "gol.proto.poll_iterations")}};
    };

    const auto startOne = [&](int slot) {
      const int h = in_.order[next_household++ % in_.order.size()];
      const auto& items = in_.txns[next_txn++ % in_.txns.size()];
      const gol::telemetry::SpanId span =
          rec_ ? rec_->begin("txn", "client", 2 + slot) : 0;
      const auto now = Clock::now();
      clients_[static_cast<std::size_t>(h)]->start(items);
      open.push_back(Open{h, items.size(), now, span, slot});
      if (!first_request_.load()) {
        first_at_ = now;
        first_request_.store(true);
      }
    };
    const auto book = [&](const Open& o, const MultipathResult& r,
                          Clock::time_point done_at) {
      ++books_.txns;
      books_.items_attempted += o.items;
      const bool failed = !r.complete || r.failed_items > 0 ||
                          r.outcome == FetchOutcome::kPartialFailure;
      books_.items_failed += failed ? std::max<std::size_t>(r.failed_items, 1)
                                    : 0;
      books_.partial += failed ? 1 : 0;
      books_.corrupt += r.corrupt_payloads;
      if (rec_)
        rec_->end(o.span, {{"household", std::to_string(o.household)},
                           {"tenant", tenantName(o.household % addresses_)},
                           {"outcome", toString(r.outcome)}});
      if (phase_.load() != kMeasure) return;
      ++books_.window_txns;
      books_.window_items += o.items;
      const auto second = static_cast<std::size_t>(
          std::chrono::duration<double>(done_at - window_start).count());
      if (books_.items_by_second.size() <= second)
        books_.items_by_second.resize(second + 1, 0.0);
      books_.items_by_second[second] += static_cast<double>(o.items);
      books_.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(done_at - o.started)
              .count());
      books_.retries += r.retries;
      books_.duplicated += r.duplicated_items;
      books_.degraded += r.outcome == FetchOutcome::kCompletedDegraded;
      books_.wasted_bytes += static_cast<double>(r.wasted_bytes);
      books_.received_bytes += static_cast<double>(r.wasted_bytes);
      for (const auto& [ep, bytes] : r.per_endpoint_bytes)
        books_.received_bytes += static_cast<double>(bytes);
    };

    // A start-up probe issues one transaction per slot and stops there.
    if (!serve_) phase_.store(kMeasured);
    for (int s = 0; s < kConcurrency; ++s) startOne(s);
    while (!open.empty()) {
      client_loop_.poll(kPollWait);
      const auto now = Clock::now();
      for (std::size_t i = 0; i < open.size();) {
        auto& c = *clients_[static_cast<std::size_t>(open[i].household)];
        if (!c.done()) {
          if (std::chrono::duration<double>(now - open[i].started).count() >
              kStuckAfterS) {
            ++books_.stuck;  // never terminated: leave it, stop the run
            open.erase(open.begin() + static_cast<long>(i));
            phase_.store(kMeasured);
            continue;
          }
          ++i;
          continue;
        }
        book(open[i], c.result(), now);
        const int slot = open[i].slot;
        open.erase(open.begin() + static_cast<long>(i));
        if (phase_.load() < kMeasured && !failed_.load()) startOne(slot);
      }
      const int phase = phase_.load();
      if (phase == kWarmup && secondsSince(first_at_) >= kWarmupS) {
        phase_.store(kMeasure);
        window_start = Clock::now();
      } else if (phase == kMeasure && secondsSince(window_start) >= opts_.seconds) {
        books_.window_s = secondsSince(window_start);
        phase_.store(kMeasured);
      }
      client_win_.observe(phase_.load(), read);
    }
  }

  const Options& opts_;
  const int addresses_;
  const Inputs& in_;
  TraceRecorder* rec_;
  const bool serve_;

  QuotaJournal journal_;
  TenantGovernor governor_;
  double replay_ms_ = 0;
  Registry origin_reg_, proxy_reg_, client_reg_;
  EpollLoop origin_loop_, proxy_loop_, client_loop_;
  std::unique_ptr<OriginServer> origin_;
  std::unique_ptr<OnloadProxy> phone_, adsl_;
  std::vector<std::unique_ptr<MultipathHttpClient>> clients_;

  std::atomic<int> phase_{kWarmup};
  std::atomic<bool> first_request_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::string error_;
  Clock::time_point first_at_{};
  RoleWindow origin_win_, proxy_win_, client_win_;
  ClientBooks books_;
  std::vector<double> flush_ms_;

  // Declared last: the threads use every member above.
  std::thread origin_thread_, proxy_thread_, client_thread_;
};

}  // namespace

JsonObject runLive(const Options& opts) {
  ::signal(SIGPIPE, SIG_IGN);
  const Workload w = workloadFor(opts);
  const Inputs in = makeInputs(opts, w);
  std::filesystem::create_directories(opts.work_dir);
  const std::string seed_path = opts.work_dir + "/preseed.wal";
  const std::string live_path = opts.work_dir + "/live.wal";
  preseedJournal(seed_path, opts, w.addresses);
  std::unique_ptr<TraceRecorder> rec;
  if (opts.trace) {
    rec = std::make_unique<TraceRecorder>();
    rec->setTrackName(0, "setup");
    rec->setTrackName(1, "proxy");
    for (int s = 0; s < kConcurrency; ++s)
      rec->setTrackName(2 + s, "client slot " + std::to_string(s));
  }

  const std::size_t fds_before = openFdCount();
  std::vector<JsonObject> starts;
  ClientBooks total;
  double worst_journal_diff = 0;
  bool journal_match = true, all_drained = true;
  JsonObject served;
  for (int k = 0; k < kStarts; ++k) {
    const bool serve = k == kStarts - 1;
    std::filesystem::copy_file(
        seed_path, live_path,
        std::filesystem::copy_options::overwrite_existing);
    const auto t0 = Clock::now();
    Stack stack(opts, w, in, live_path, rec.get(), serve);
    const double setup_s =
        std::chrono::duration<double>(stack.firstRequest() - t0).count();
    stack.stop();
    if (!stack.error().empty())
      throw std::runtime_error("live role failed: " + stack.error());

    starts.push_back(
        JsonObject().num("setup_s", setup_s).num("replay_ms", stack.replayMs()));
    const std::optional<double> diff = stack.journalMismatch();
    journal_match = journal_match && diff.has_value();
    worst_journal_diff = std::max(worst_journal_diff, diff.value_or(0));
    all_drained = all_drained && stack.drained();
    const ClientBooks& b = stack.books();
    total.txns += b.txns;
    total.items_attempted += b.items_attempted;
    total.items_failed += b.items_failed;
    total.corrupt += b.corrupt;
    total.partial += b.partial;
    total.stuck += b.stuck;
    if (!serve) continue;

    served.num("window_s", b.window_s)
        .count("txns", b.window_txns)
        .count("items", b.window_items)
        .array("latency_ms", b.latency_ms)
        .array("items_by_second", b.items_by_second)
        .count("retries", b.retries)
        .count("duplicated_items", b.duplicated)
        .count("degraded_txns", b.degraded)
        .num("wasted_bytes", b.wasted_bytes)
        .num("received_bytes", b.received_bytes)
        .count("peak_buffered_bytes", stack.peakBuffered())
        .array("flush_ms", stack.flushMs())
        .object("roles", stack.roles());
  }
  std::filesystem::remove(live_path);
  std::filesystem::remove(seed_path);
  const std::size_t fds_after = openFdCount();
  if (rec) rec->writeChromeJson(opts.trace_out);

  JsonObject out;
  out.str("workload", opts.workload)
      .count("households", static_cast<std::uint64_t>(w.households))
      .count("addresses", static_cast<std::uint64_t>(w.addresses))
      .count("concurrency", kConcurrency)
      .count("items_per_txn", static_cast<std::uint64_t>(w.items_per_txn))
      .objects("starts", starts)
      .object("served", served)
      .count("txns_total", total.txns)
      .count("items_attempted", total.items_attempted)
      .count("items_failed", total.items_failed)
      .count("corrupt_payloads", total.corrupt)
      .count("partial_failures", total.partial)
      .count("stuck_txns", total.stuck)
      .count("fds_before", fds_before)
      .count("fds_after", fds_after)
      .boolean("journal_tenants_match", journal_match)
      .num("journal_max_diff_bytes", worst_journal_diff)
      .boolean("drained", all_drained);
  return out;
}

}  // namespace perfbench

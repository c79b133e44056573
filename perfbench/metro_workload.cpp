// The simulated-city workloads: core::MetroSimulation on
// sim::ShardedSimulator, timed from outside around its constructor and
// run(). Each iteration builds a fresh city from the same config, so one
// process yields several set-up and run samples and a determinism check
// (every iteration must reproduce the same digest).
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/metro.hpp"
#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace perfbench {
namespace {

// Counters the opt scheduler publishes to the global registry.
const char* const kOptCounters[] = {
    "gol.opt.scratch_solves", "gol.opt.resolves",
    "gol.opt.arc_relaxations", "gol.opt.augmentations",
    "gol.opt.plan_refreshes",
};

gol::core::MetroConfig configFor(const Options& opts) {
  gol::core::MetroConfig cfg;  // browsing defaults: 16 x exp(2 KB), 40 s think
  cfg.seed = opts.seed;
  cfg.neighborhoods_per_area = 4;
  cfg.households_per_neighborhood = 25;
  if (opts.workload == "metro") {
    // 5,000 homes in 50 shards of one tower area each (area-aligned cuts,
    // so the exchange returns early).
    cfg.neighborhoods = 200;
    cfg.shards = 50;
    cfg.horizon_s = 600.0;
    cfg.scheduler = "greedy";
  } else {
    // Same household model under the min-cost-flow scheduler, scaled down:
    // per event it costs ~40x greedy.
    cfg.neighborhoods = 40;
    cfg.shards = 10;
    cfg.horizon_s = 120.0;
    cfg.scheduler = "opt";
  }
  return cfg;
}

}  // namespace

JsonObject runMetro(const Options& opts) {
  const gol::core::MetroConfig cfg = configFor(opts);
  // One core is left to the OS and the benchmark's own processes: a shard
  // pool on every core stalls at a barrier whenever anything else runs
  // (run_s spread 0.28 across ten runs on 4 cores, 0.06 on 3).
  const unsigned cores = std::thread::hardware_concurrency();
  gol::exec::ThreadPool pool(cores > 1 ? cores - 1 : 1);
  std::unique_ptr<gol::telemetry::TraceRecorder> rec;
  if (opts.trace) {
    rec = std::make_unique<gol::telemetry::TraceRecorder>();
    rec->setTrackName(0, opts.workload);
  }
  const auto& global = gol::telemetry::Registry::global();

  std::vector<JsonObject> iterations;
  const auto t_start = Clock::now();
  // At least three iterations, so every median has a middle sample.
  while (iterations.size() < 3 || secondsSince(t_start) < opts.seconds) {
    std::vector<double> before;
    for (const char* name : kOptCounters)
      before.push_back(counterValue(global, name));

    auto t0 = Clock::now();
    std::unique_ptr<gol::core::MetroSimulation> city;
    {
      gol::telemetry::Span span(rec.get(), "metro.construct", "setup", 0);
      city = std::make_unique<gol::core::MetroSimulation>(cfg);
    }
    const double setup_s = secondsSince(t0);

    t0 = Clock::now();
    gol::core::MetroResult res;
    {
      gol::telemetry::Span span(rec.get(), "metro.run", "run", 0);
      res = city->run(pool);
    }
    const double run_s = secondsSince(t0);
    city.reset();

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, res.digest);
    std::vector<double> busy;
    for (const auto& s : res.shards) busy.push_back(s.busy_s);
    JsonObject opt;  // keyed without the "gol.opt." prefix
    for (std::size_t i = 0; i < std::size(kOptCounters); ++i)
      opt.num(std::string(kOptCounters[i]).substr(8),
              counterValue(global, kOptCounters[i]) - before[i]);

    JsonObject it;
    it.num("setup_s", setup_s)
        .num("run_s", run_s)
        .str("digest", digest)
        .count("households", res.households)
        .count("transactions", res.transactions)
        .count("items_ok", res.items_ok)
        .count("items_failed", res.items_failed)
        .num("bytes", res.bytes)
        .num("cell_bytes", res.cell_bytes)
        .count("events", res.events)
        .count("windows", res.windows)
        .array("shard_busy_s", busy)
        .object("opt", opt);
    iterations.push_back(it);
  }

  if (rec) rec->writeChromeJson(opts.trace_out);
  JsonObject out;
  out.str("workload", opts.workload)
      .str("scheduler", cfg.scheduler)
      .count("homes", static_cast<std::uint64_t>(cfg.householdCount()))
      .count("shards", cfg.shards)
      .num("horizon_s", cfg.horizon_s)
      .count("items_per_txn", static_cast<std::uint64_t>(cfg.items_per_txn))
      .count("pool_threads", pool.threadCount())
      .objects("iterations", iterations);
  return out;
}

}  // namespace perfbench

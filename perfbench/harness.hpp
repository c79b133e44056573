// Shared plumbing of the benchmark harness: options, a flat JSON writer for
// the raw measurements run.py turns into metrics, and process probes.
//
// The harness only measures. Every derived number (medians, percentiles,
// shares, per-item ratios) and every pinned-output check is computed by
// run.py from what the harness prints, so that arithmetic is tested in one
// place (test_metrics.py).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace file (traced runs only).
  std::string work_dir;   ///< Scratch directory for journal files.
  /// Live workloads: distinct client source addresses (tenants); 0 = one
  /// per household. 1 reproduces the port-exhaustion defect in README.md.
  int addresses = 0;
};

/// Builds one JSON object. Keys are written in call order; values are
/// numbers, strings, booleans, numeric arrays or nested objects.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& count(const std::string& key, std::uint64_t v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& array(const std::string& key, const std::vector<double>& v);
  JsonObject& object(const std::string& key, const JsonObject& v);
  JsonObject& objects(const std::string& key,
                      const std::vector<JsonObject>& v);
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Value of the unlabelled counter `name` in `registry`; 0 when absent.
double counterValue(const gol::telemetry::Registry& registry,
                    const std::string& name);

/// Process high-water resident set (VmHWM), in kB.
std::uint64_t peakRssKb();
/// Open descriptors of this process.
std::size_t openFdCount();

/// CPU time of the calling thread, split into user and system seconds.
struct ThreadCpu {
  double user_s = 0;
  double sys_s = 0;
  static ThreadCpu now();
};

/// Runs the metro or metro_opt workload; returns the raw JSON object.
JsonObject runMetro(const Options& opts);
/// Runs the live_small or live_bulk workload; returns the raw JSON object.
JsonObject runLive(const Options& opts);

}  // namespace perfbench

// Benchmark harness entry point. run.py builds and invokes it as
//
//   perfbench_harness --workload W --seed N --seconds S [--trace]
//                     [--trace-out FILE] --work-dir DIR [--addresses A]
//
// and reads the raw measurements from the last line of stdout.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + k + "\":";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::count(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::array(const std::string& k,
                              const std::vector<double>& v) {
  key(k);
  body_ += '[';
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
    body_ += buf;
  }
  body_ += ']';
  return *this;
}

JsonObject& JsonObject::object(const std::string& k, const JsonObject& v) {
  key(k);
  body_ += v.text();
  return *this;
}

JsonObject& JsonObject::objects(const std::string& k,
                                const std::vector<JsonObject>& v) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ',';
    body_ += v[i].text();
  }
  body_ += ']';
  return *this;
}

double counterValue(const gol::telemetry::Registry& registry,
                    const std::string& name) {
  const gol::telemetry::Snapshot snap = registry.snapshot();
  const auto* e = snap.find(name);  // points into snap
  return e ? e->value : 0.0;
}

std::uint64_t peakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      std::uint64_t kb = 0;
      is >> kb;
      return kb;
    }
  }
  return 0;
}

std::size_t openFdCount() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

ThreadCpu ThreadCpu::now() {
  struct rusage ru {};
  ::getrusage(RUSAGE_THREAD, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return ThreadCpu{s(ru.ru_utime), s(ru.ru_stime)};
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "metro|metro_opt|live_small|live_bulk --seed N --seconds S "
               "--work-dir DIR [--trace] [--trace-out FILE] "
               "[--addresses A]\n",
               why);
  std::exit(2);
}

perfbench::Options parseArgs(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") o.workload = value();
    else if (flag == "--seed") o.seed = std::stoull(value());
    else if (flag == "--seconds") o.seconds = std::stod(value());
    else if (flag == "--trace") o.trace = true;
    else if (flag == "--trace-out") o.trace_out = value();
    else if (flag == "--work-dir") o.work_dir = value();
    else if (flag == "--addresses") o.addresses = std::stoi(value());
    else usage(("unknown flag " + flag).c_str());
  }
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (o.addresses < 0 || o.addresses > 65000)
    usage("--addresses must be in [1, 65000]");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parseArgs(argc, argv);
  try {
    perfbench::JsonObject raw;
    if (opts.workload == "metro" || opts.workload == "metro_opt")
      raw = perfbench::runMetro(opts);
    else if (opts.workload == "live_small" || opts.workload == "live_bulk")
      raw = perfbench::runLive(opts);
    else
      usage(("unknown workload " + opts.workload).c_str());
    raw.count("peak_rss_kb", perfbench::peakRssKb());
    std::printf("%s\n", raw.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}

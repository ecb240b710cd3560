// bih_perfbench: runs one named workload of the repository benchmark and
// prints every end-to-end metric, checked outputs and a host stamp; with
// --trace 1 it also writes the span dump perfbench/spans.py reduces to the
// per-layer metrics. perfbench/run.py builds and drives it:
//
//   bih_perfbench --workload served_point|history_analytics
//                 --seed N --seconds S [--trace 0|1] [--workdir DIR]
//                 [--dump FILE] [--h H --m M] [--tamper CHECK]
//                 [--source-id ID]
#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "exec/parallel.h"
#include "trace.h"

#ifndef BIH_PERFBENCH_BUILD_TYPE
#define BIH_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "bih_perfbench: %s\nusage: bih_perfbench --workload "
               "served_point|history_analytics --seed N "
               "--seconds S [--trace 0|1] [--workdir DIR] [--dump FILE] "
               "[--h H --m M] [--tamper CHECK] [--source-id ID]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* source_id) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      if (!a->trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--workdir") {
      a->workdir = v;
    } else if (flag == "--dump") {
      a->dump = v;
    } else if (flag == "--h") {
      a->h = std::strtod(v, &end);
    } else if (flag == "--m") {
      a->m = std::strtod(v, &end);
    } else if (flag == "--tamper") {
      a->tamper = v;
    } else if (flag == "--source-id") {
      *source_id = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !(a->seconds <= 0 || a->seconds > 600);
}

// Median latency of a 4 KiB write + fdatasync in the run's directory: the
// device the served_point WAL syncs against. A host stamp, not a program
// metric.
double FsyncProbeUs(const std::string& dir) {
  const std::string path = dir + "/fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return 0.0;
  std::vector<char> block(4096, 'x');
  std::vector<double> us;
  for (int i = 0; i < 32; ++i) {
    const int64_t t0 = NowNs();
    if (::pwrite(fd, block.data(), block.size(), 0) !=
            static_cast<ssize_t>(block.size()) ||
        ::fdatasync(fd) != 0) {
      break;
    }
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  ::close(fd);
  std::filesystem::remove(path);
  return Median(us);
}

// Hardware threads per core of CPU `cpu`, as the kernel reports them (0
// when unknown): SMT siblings share a core's execution units.
int ThreadsPerCore(int cpu) {
  std::ifstream in("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                   "/topology/thread_siblings_list");
  std::string list;
  if (cpu < 0 || !(in >> list)) return 0;
  int n = 0;
  for (size_t pos = 0; pos <= list.size();) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string item = list.substr(pos, comma - pos);
    const size_t dash = item.find('-');
    n += 1;
    if (dash != std::string::npos) {
      n += std::stoi(item.substr(dash + 1)) - std::stoi(item.substr(0, dash));
    }
    pos = comma + 1;
  }
  return n;
}

void PrintNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string source_id = "unknown";
  if (!ParseArgs(argc, argv, &args, &source_id)) return Usage("bad arguments");

  // Same flush policy on every side: real fdatasync. No injected faults,
  // and every scan runs at width 1 (intra-query parallelism is out of
  // scope; bench_join_scaling covers it).
  ::unsetenv("BIH_NO_FSYNC");
  ::unsetenv("BIH_FAULT");
  ::unsetenv("BIH_SCAN_THREADS");
  bih::SetDefaultScanThreads(1);

  const int cpu = PinToOneCpu();
  const bool served = args.workload == "served_point";
  if (!served && args.workload != "history_analytics") {
    return Usage("unknown workload");
  }
  // The served workload indexes into a larger archive; the analytics
  // workload scans four engines per round, so its archive is smaller.
  if (args.h <= 0) args.h = served ? 0.01 : 0.004;
  if (args.m <= 0) args.m = served ? 0.01 : 0.004;
  std::filesystem::create_directories(args.workdir);
  const double fsync_us = FsyncProbeUs(args.workdir);

  if (args.trace) trace::SetEnabled(true);
  Result r;
  if (served) {
    RunServedPoint(args, &r);
  } else {
    RunHistoryAnalytics(args, &r);
  }
  trace::SetEnabled(false);
  std::filesystem::remove_all(args.workdir + "/wal");
  r.Add("ok_ratio",
        r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0,
        "ratio", r.attempted);

  std::printf("host: nproc=%ld threads_per_core=%d pinned_cpu=%d build=%s "
              "source=%s fsync_probe_us=%.1f flush=real-fdatasync seed=%llu "
              "h=%g m=%g\n",
              sysconf(_SC_NPROCESSORS_ONLN), ThreadsPerCore(cpu), cpu,
              BIH_PERFBENCH_BUILD_TYPE,
              source_id.c_str(), fsync_us,
              static_cast<unsigned long long>(args.seed), args.h, args.m);
  std::printf("failures: attempted=%llu failed=%llu",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& [code, n] : r.failed_by_code) {
    std::printf(" %s=%llu", code.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  for (const Metric& m : r.metrics) {
    std::printf("metric %-16s %14.4f %-5s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& f : r.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }

  if (args.trace) {
    r.counters["durability.fsync_probe_us"] = fsync_us;
    r.counters["error_ratio"] =
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0;
    uint64_t other = r.failed;
    for (const char* code : {"ResourceExhausted", "DeadlineExceeded"}) {
      r.counters[std::string("failed.") + code] =
          static_cast<double>(r.failed_by_code[code]);
      other -= r.failed_by_code[code];
    }
    r.counters["failed.other"] = static_cast<double>(other);
    const std::string dump =
        args.dump.empty() ? args.workdir + "/spans.tsv" : args.dump;
    if (!trace::WriteDump(dump, r.counters)) {
      std::fprintf(stderr, "bih_perfbench: cannot write %s\n", dump.c_str());
      return 1;
    }
    std::printf("spans: %s\n", dump.c_str());
  }

  // The machine-readable result: the last line of standard output.
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"fsync_probe_us\":",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  PrintNumber(fsync_us);
  std::printf(",\"metrics\":{");
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\":{\"value\":", i > 0 ? "," : "", m.name.c_str());
    PrintNumber(m.value);
    std::printf(",\"unit\":\"%s\",\"samples\":%llu}", m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

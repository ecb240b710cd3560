#ifndef TPCBIH_PERFBENCH_BENCH_H_
#define TPCBIH_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bih/history.h"
#include "common/status.h"
#include "engine/engine.h"
#include "exec/rows.h"
#include "tpch/dbgen.h"

namespace perfbench {

using bih::Rows;
using bih::Status;
using bih::TemporalEngine;

// Command line of one benchmark run (see main.cc for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the WAL, the fsync probe and the span dump; removed
  // again except for the dump.
  std::string workdir = ".bench_build/run";
  std::string dump;  // span dump path (trace mode)
  // Archive scale; the workloads pick their own defaults.
  double h = 0.0;
  double m = 0.0;
  // Names an output check whose input is corrupted before it runs; the
  // smoke tests use it to prove every check can fail the run.
  std::string tamper;
};

// One measured value with the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

// Everything one run reports. main.cc renders it as the result line.
struct Result {
  bool correct = true;
  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failed_by_code;
  std::vector<Metric> metrics;
  // Per-layer counters that are not spans (written into the span dump).
  std::map<std::string, double> counters;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  // Counts one attempted operation and, when it failed, its Status code.
  void Account(const Status& s);
  void Fail(const std::string& why);
};

// Status code name without the message ("ResourceExhausted").
std::string CodeName(const Status& s);
// Set-up steps cannot fail on a sound archive: exits the run (status 1).
void Require(const Status& st, const char* what);

// Pins the calling thread, and so every thread started after it, to one
// CPU (common.cc says why); returns the CPU or -1. UnpinFromOneCpu() gives
// the calling thread back every CPU it was allowed.
int PinToOneCpu();
void UnpinFromOneCpu();

// The seeded TPC-BiH archive every workload starts from, plus the time
// anchors its queries are parameterized with (as in WorkloadContext).
struct Archive {
  bih::TpchData initial;
  bih::History history;
  int64_t sys_v0 = 0;
  int64_t sys_mid = 0;
  int64_t sys_end = 0;
  int64_t app_mid = 0;
  int64_t hot_custkey = 1;
};

// A loaded engine and the replay latency of each history transaction.
struct Loaded {
  std::unique_ptr<TemporalEngine> engine;
  std::vector<double> txn_us;  // per history transaction, replay latency
};

// Generates the archive (TPC-H version 0 plus the evolved history).
Archive GenerateArchive(double h, double m, uint64_t seed);
// Loads the archive into a fresh engine the way BuildWorkload does: version
// 0, then the history transaction by transaction, then Maintain().
Loaded LoadArchive(const std::string& letter, Archive* archive);

// The set-up repetitions of one run. The first one's engines serve; the
// others run between the measured rounds or sub-windows and are thrown away,
// so a slow spell of the host early in a run moves no set-up figure.
// Report() adds setup_s, the median repetition time, and write_ups,
// write_p50_us and write_p99_us from the history replay latencies (all
// engines a repetition loaded): the median over the repetitions of each
// one's rate and percentiles.
constexpr int kSetups = 11;
struct SetupTimes {
  std::vector<double> seconds;
  std::vector<std::vector<double>> replay_us;

  void Add(double s, std::vector<double> txn_us) {
    seconds.push_back(s);
    replay_us.push_back(std::move(txn_us));
  }
  bool done() const { return seconds.size() >= kSetups; }
  void Report(Result* out) const;
};

// Nearest-rank percentile of `v` (sorted in place); 0 for no samples.
double Percentile(std::vector<double>* v, double p);
double Median(std::vector<double> v);
double PeakRssMb();
double Seconds(int64_t from_ns, int64_t to_ns);
int64_t NowNs();

// Canonical (sorted) rows compared with a relative tolerance on doubles:
// engines emit rows in different orders and accumulate float aggregates in
// that order. Returns an empty string when equal, else the first mismatch.
std::string CompareCanonical(Rows a, Rows b);
// Exact comparison, order included.
std::string CompareExact(const Rows& a, const Rows& b);

// --- Workloads (each fills *out; a failed output check sets correct) ---
void RunServedPoint(const Args& args, Result* out);
void RunHistoryAnalytics(const Args& args, Result* out);

// --- The paper's query classes (suites.cc) ----------------------------
inline const char* const kClasses[] = {"T", "K", "R", "B", "H"};

// One query of a class, as a call on an engine.
struct SuiteQuery {
  int cls;  // index into kClasses
  std::string name;
  std::function<Rows(TemporalEngine&)> run;
};

// Runs every query class on each engine, round by round. The constructor
// runs the warm-up round, whose results the cross-engine check compares.
// Within a measured round a query shorter than about 10 ms runs back to
// back until it has taken that long (the count is fixed at the warm-up, from
// the median of three calls), so short queries are timed with warm caches
// and enough samples; every call must return as many rows as the warm-up.
class SuiteRunner {
 public:
  SuiteRunner(std::vector<TemporalEngine*> engines,
              std::vector<std::string> letters, const Archive& archive,
              const Args& args, Result* out);

  // One measured round of every query on every engine.
  void Round();
  uint64_t rounds() const { return rounds_; }

  // Adds suite_ms.<class>: per engine and query the 10th percentile of its
  // measured calls (WORKLOADS.md says why not the median), summed over the
  // class's queries and the engines. With
  // `report_reads`, also read_p50_us and read_p99_us over one value per
  // engine, query and round (the median of that round's calls, so a
  // query's weight does not depend on its repeat count) and read_qps, the
  // queries per second of a serial client running each query once.
  void Report(bool report_reads) const;

  const std::vector<std::vector<Rows>>& warm() const { return warm_; }
  const std::vector<SuiteQuery>& queries() const { return queries_; }

 private:
  Rows Call(size_t engine, size_t query);

  std::vector<TemporalEngine*> engines_;
  std::vector<std::string> letters_;
  std::vector<SuiteQuery> queries_;
  Result* out_;
  bool tamper_rows_;
  uint64_t rounds_ = 0;
  std::vector<std::vector<Rows>> warm_;       // [engine][query]
  std::vector<std::vector<int>> reps_;        // [engine][query]
  // [engine][query]: every measured call's time.
  std::vector<std::vector<std::vector<double>>> call_ms_;
  std::vector<double> round_us_;  // per engine, query and round
};

}  // namespace perfbench

#endif  // TPCBIH_PERFBENCH_BENCH_H_

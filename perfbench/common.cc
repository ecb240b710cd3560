#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "bench.h"
#include "bih/generator.h"
#include "trace.h"

namespace perfbench {

std::string CodeName(const Status& s) {
  const std::string text = s.ToString();
  return text.substr(0, text.find(':'));
}

void Result::Account(const Status& s) {
  ++attempted;
  if (s.ok()) return;
  ++failed;
  ++failed_by_code[CodeName(s)];
}

void Result::Fail(const std::string& why) {
  correct = false;
  check_failures.push_back(why);
}

void Require(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

namespace {
cpu_set_t allowed_cpus;  // the CPUs the process was allowed at its start
bool have_allowed_cpus = false;
}  // namespace

// Runs the benchmark on one CPU: the calling thread is pinned before any
// other thread starts, and every thread it, the server or the program starts
// later inherits the pin. Closed-loop requests and replies then wake their
// peer thread on the same CPU, so no run depends on where the scheduler
// places threads or on how fast the hypervisor delivers a cross-CPU
// wake-up; and a CPU that nearly always has a runnable thread seldom
// halts. Returns the CPU (the highest of those allowed), or -1 when the
// affinity cannot be set.
int PinToOneCpu() {
  if (!have_allowed_cpus) {
    CPU_ZERO(&allowed_cpus);
    if (sched_getaffinity(0, sizeof(allowed_cpus), &allowed_cpus) != 0) {
      return -1;
    }
    have_allowed_cpus = true;
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_cpus)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void UnpinFromOneCpu() {
  if (have_allowed_cpus) {
    (void)sched_setaffinity(0, sizeof(allowed_cpus), &allowed_cpus);
  }
}

Archive GenerateArchive(double h, double m, uint64_t seed) {
  Archive a;
  {
    trace::ScopedSpan span("tpch.GenerateTpch");
    a.initial = bih::GenerateTpch({h, seed});
  }
  {
    trace::ScopedSpan span("bih.HistoryGenerator::Generate");
    bih::GeneratorConfig cfg;
    cfg.m = m;
    cfg.seed = seed + 1;
    bih::HistoryGenerator gen(a.initial, cfg);
    a.history = gen.Generate();
  }
  a.app_mid = (bih::tpch_dates::kCurrent.AddDays(1).days() +
               bih::tpch_dates::kEnd.days() - 1) /
              2;
  // The customer with the most history operations (the K queries' key),
  // chosen exactly as BuildWorkload chooses it.
  std::map<int64_t, int64_t> ops;
  for (const bih::HistoryTransaction& txn : a.history) {
    for (const bih::Operation& op : txn.ops) {
      if (op.table == "CUSTOMER" && op.kind != bih::Operation::Kind::kInsert) {
        ++ops[op.key[0].AsInt()];
      }
    }
  }
  for (const auto& [k, n] : ops) {
    if (n > ops[a.hot_custkey]) a.hot_custkey = k;
  }
  return a;
}

Loaded LoadArchive(const std::string& letter, Archive* a) {
  trace::ScopedSpan span("workload.LoadEngine");
  Loaded out;
  out.engine = bih::MakeEngine(letter);
  TemporalEngine& e = *out.engine;
  Require(bih::CreateBiHTables(e), "CreateBiHTables");
  Require(bih::LoadInitialData(e, a->initial), "LoadInitialData");
  a->sys_v0 = e.Now().micros();
  // Replay in two halves to stamp the middle of the evolution (sys_mid);
  // the halves are moved out of the archive and back, never copied.
  bih::History& h = a->history;
  const auto mid = h.begin() + static_cast<std::ptrdiff_t>(h.size() / 2);
  bih::History first(std::make_move_iterator(h.begin()),
                     std::make_move_iterator(mid));
  bih::History second(std::make_move_iterator(mid),
                      std::make_move_iterator(h.end()));
  Require(bih::ReplayHistory(e, first, 1, &out.txn_us), "ReplayHistory");
  a->sys_mid = e.Now().micros();
  Require(bih::ReplayHistory(e, second, 1, &out.txn_us), "ReplayHistory");
  a->sys_end = e.Now().micros();
  h.clear();
  std::move(first.begin(), first.end(), std::back_inserter(h));
  std::move(second.begin(), second.end(), std::back_inserter(h));
  e.Maintain();
  return out;
}

void SetupTimes::Report(Result* out) const {
  out->Add("setup_s", Median(seconds), "s", seconds.size());
  std::vector<double> rate, p50, p99;
  uint64_t n = 0;
  for (std::vector<double> us : replay_us) {
    double total_us = 0;
    for (double x : us) total_us += x;
    rate.push_back(total_us > 0 ? us.size() / (total_us * 1e-6) : 0.0);
    p50.push_back(Percentile(&us, 0.50));
    p99.push_back(Percentile(&us, 0.99));
    n += us.size();
  }
  out->Add("write_ups", Median(rate), "1/s", n);
  out->Add("write_p50_us", Median(p50), "us", n);
  out->Add("write_p99_us", Median(p99), "us", n);
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(p * static_cast<double>(v->size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

bool RowLess(const bih::Row& a, const bih::Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::string RowText(const bih::Row& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i > 0) s += ", ";
    s += r[i].ToString();
  }
  return s + ")";
}

std::string CompareRows(const Rows& a, const Rows& b, bool tolerant) {
  if (a.size() != b.size()) {
    return std::to_string(a.size()) + " rows vs " + std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    bool same = a[i].size() == b[i].size();
    for (size_t c = 0; same && c < a[i].size(); ++c) {
      const bih::Value& x = a[i][c];
      const bih::Value& y = b[i][c];
      if (tolerant && x.is_double() && y.is_double()) {
        const double dx = x.AsDouble(), dy = y.AsDouble();
        same = std::fabs(dx - dy) <=
               1e-6 * std::max({1.0, std::fabs(dx), std::fabs(dy)});
      } else {
        same = x.Compare(y) == 0;
      }
    }
    if (!same) {
      return "row " + std::to_string(i) + ": " + RowText(a[i]) + " vs " +
             RowText(b[i]);
    }
  }
  return "";
}

}  // namespace

std::string CompareCanonical(Rows a, Rows b) {
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  return CompareRows(a, b, /*tolerant=*/true);
}

std::string CompareExact(const Rows& a, const Rows& b) {
  return CompareRows(a, b, /*tolerant=*/false);
}

}  // namespace perfbench

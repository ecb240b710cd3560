// The paper's query classes (Section 3.3) with the parameters bih_driver's
// `run --suite` uses: time travel (T), pure key / audit (K), range-timeslice
// (R), bitemporal dimensions (B) and temporal TPC-H (H).
#include <algorithm>

#include "bench.h"
#include "trace.h"
#include "workload/queries.h"
#include "workload/tpch_queries.h"

namespace perfbench {
namespace {

using bih::TemporalScanSpec;

// A query shorter than this runs back to back within a round until it has
// taken about this long, at most kMaxReps times.
constexpr double kRoundMs = 10.0;
constexpr int kMaxReps = 50;

std::vector<SuiteQuery> SuiteQueries(const Archive& a) {
  std::vector<SuiteQuery> q;
  const int64_t sys_mid = a.sys_mid, app_mid = a.app_mid;
  q.push_back({0, "ALL", [](TemporalEngine& e) { return bih::QueryAll(e); }});
  q.push_back({0, "T1", [=](TemporalEngine& e) {
                 return bih::T1(e, TemporalScanSpec::BothAsOf(sys_mid, app_mid));
               }});
  q.push_back({0, "T2", [=](TemporalEngine& e) {
                 return bih::T2(e, TemporalScanSpec::BothAsOf(sys_mid, app_mid));
               }});
  q.push_back({0, "T6app", [=](TemporalEngine& e) {
                 return bih::T6AppPointSysAll(e, app_mid);
               }});
  q.push_back({0, "T6sys", [=](TemporalEngine& e) {
                 return bih::T6SysPointAppAll(e, bih::Timestamp(sys_mid));
               }});
  q.push_back({0, "T7imp", [](TemporalEngine& e) { return bih::T7Implicit(e); }});
  q.push_back({0, "T7exp", [](TemporalEngine& e) { return bih::T7Explicit(e); }});

  TemporalScanSpec full;
  full.system_time = bih::TemporalSelector::All();
  full.app_time = bih::TemporalSelector::All();
  const int64_t hot = a.hot_custkey;
  q.push_back({1, "K1", [=](TemporalEngine& e) { return bih::K1(e, hot, full); }});
  q.push_back({1, "K4", [=](TemporalEngine& e) { return bih::K4(e, hot, full, 3); }});
  q.push_back({1, "K5", [=](TemporalEngine& e) { return bih::K5(e, hot, full); }});
  q.push_back({1, "K6", [=](TemporalEngine& e) {
                 return bih::K6(e, 9900.0, bih::Value(), full);
               }});

  q.push_back({2, "R1", [](TemporalEngine& e) { return bih::R1(e); }});
  q.push_back({2, "R2", [](TemporalEngine& e) { return bih::R2(e); }});
  q.push_back({2, "R3", [](TemporalEngine& e) {
                 return bih::R3(e, bih::TemporalAggKind::kCount, false);
               }});
  q.push_back({2, "R4", [](TemporalEngine& e) { return bih::R4(e, 10); }});
  q.push_back({2, "R5", [](TemporalEngine& e) {
                 return bih::R5(e, 5000.0, 100000.0);
               }});
  q.push_back({2, "R7", [](TemporalEngine& e) { return bih::R7(e, 7.5); }});

  const int64_t pk = 55 % static_cast<int64_t>(a.initial.part.size()) + 1;
  for (int v = 1; v <= 11; ++v) {
    q.push_back({3, "B3." + std::to_string(v), [=](TemporalEngine& e) {
                   return bih::B3(e, v, pk, app_mid, bih::Timestamp(sys_mid));
                 }});
  }
  const int64_t sys_v0 = a.sys_v0;
  for (int n = 1; n <= 22; ++n) {
    q.push_back({4, "Q" + std::to_string(n), [=](TemporalEngine& e) {
                   return bih::TpchQuery(n, e,
                                         TemporalScanSpec::SystemAsOf(sys_v0));
                 }});
  }
  return q;
}

}  // namespace

SuiteRunner::SuiteRunner(std::vector<TemporalEngine*> engines,
                         std::vector<std::string> letters,
                         const Archive& archive, const Args& args, Result* out)
    : engines_(std::move(engines)),
      letters_(std::move(letters)),
      queries_(SuiteQueries(archive)),
      out_(out),
      tamper_rows_(args.tamper == "round_rows"),
      warm_(engines_.size()),
      reps_(engines_.size()),
      call_ms_(engines_.size(),
               std::vector<std::vector<double>>(queries_.size())) {
  // Warm-up round: fills caches and lazy structures. A query faster than
  // kRoundMs runs twice more, and the median of its three times sets how
  // often it repeats per measured round.
  for (size_t e = 0; e < engines_.size(); ++e) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      std::vector<double> ms;
      for (int k = 0; k < 3; ++k) {
        const int64_t s = NowNs();
        Rows rows = Call(e, i);
        ms.push_back(static_cast<double>(NowNs() - s) * 1e-6);
        if (k == 0) warm_[e].push_back(std::move(rows));
        if (ms[0] >= kRoundMs) break;
      }
      reps_[e].push_back(
          std::clamp(static_cast<int>(kRoundMs / Median(ms)), 1, kMaxReps));
    }
  }
}

// One query call, as the Execute span the per-layer tool reads (its
// TemporalEngine::Scan children come from TracingEngine views).
Rows SuiteRunner::Call(size_t e, size_t i) {
  const SuiteQuery& q = queries_[i];
  trace::SetRequest(rounds_, std::string("suite|") + kClasses[q.cls] + "|" +
                                 letters_[e] + "|" + q.name);
  trace::ScopedSpan span("Execute");
  Rows rows = q.run(*engines_[e]);
  span.Count(rows.size());
  out_->Account(Status::OK());
  return rows;
}

void SuiteRunner::Round() {
  ++rounds_;
  for (size_t e = 0; e < engines_.size(); ++e) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      std::vector<double> us;
      for (int r = 0; r < reps_[e][i]; ++r) {
        const int64_t s = NowNs();
        Rows rows = Call(e, i);
        us.push_back(static_cast<double>(NowNs() - s) * 1e-3);
        call_ms_[e][i].push_back(us.back() * 1e-3);
        if (tamper_rows_ && rounds_ == 1 && e == 0 && i == 0 && r == 0) {
          rows.push_back({bih::Value()});
        }
        if (rows.size() != warm_[e][i].size()) {
          out_->Fail("suite " + queries_[i].name + " on " + letters_[e] +
                     " returned " + std::to_string(rows.size()) +
                     " rows in round " + std::to_string(rounds_) + ", " +
                     std::to_string(warm_[e][i].size()) + " in its warm-up");
        }
      }
      round_us_.push_back(Median(std::move(us)));
    }
  }
}

void SuiteRunner::Report(bool report_reads) const {
  std::vector<double> class_ms(std::size(kClasses), 0.0);
  for (size_t e = 0; e < engines_.size(); ++e) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      std::vector<double> ms = call_ms_[e][i];
      class_ms[static_cast<size_t>(queries_[i].cls)] += Percentile(&ms, 0.10);
    }
  }
  for (size_t c = 0; c < class_ms.size(); ++c) {
    out_->Add(std::string("suite_ms.") + kClasses[c], class_ms[c], "ms",
              rounds_);
  }
  if (report_reads) {
    std::vector<double> us = round_us_;
    double total_us = 0;
    for (double x : us) total_us += x;
    const uint64_t n = us.size();
    out_->Add("read_qps", total_us > 0 ? n / (total_us * 1e-6) : 0.0, "1/s", n);
    out_->Add("read_p50_us", Percentile(&us, 0.50), "us", n);
    out_->Add("read_p99_us", Percentile(&us, 0.99), "us", n);
  }
}

}  // namespace perfbench

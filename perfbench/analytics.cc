// history_analytics: in process, one serial client running the paper's query
// classes on all four engines loaded from the same archive with their
// default (untuned) indexes, each engine's results checked against System
// A's.
#include <cstdio>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr uint64_t kMinRounds = 3;
const std::vector<std::string> kLetters = {"A", "B", "C", "D"};

// The archive and the four engines loaded from it.
struct Setup {
  Archive archive;
  std::vector<std::unique_ptr<TemporalEngine>> engines;
};

// One set-up repetition: generate the archive, load it into engines A-D.
Setup SetUpOnce(const Args& args, SetupTimes* times) {
  Setup s;
  const uint64_t rep = times->seconds.size();
  std::vector<double> replay_us;
  const int64_t t0 = NowNs();
  trace::SetRequest(rep, "setup|");
  s.archive = GenerateArchive(args.h, args.m, args.seed);
  for (const std::string& letter : kLetters) {
    trace::SetRequest(rep, "setup|" + letter);
    Loaded l = LoadArchive(letter, &s.archive);
    replay_us.insert(replay_us.end(), l.txn_us.begin(), l.txn_us.end());
    s.engines.push_back(std::move(l.engine));
  }
  times->Add(Seconds(t0, NowNs()), std::move(replay_us));
  return s;
}

}  // namespace

void RunHistoryAnalytics(const Args& args, Result* out) {
  SetupTimes setups;
  const Setup setup = SetUpOnce(args, &setups);
  std::vector<TemporalEngine*> raw;
  for (const auto& e : setup.engines) raw.push_back(e.get());

  // Measured rounds (after the runner's warm-up) until `seconds` have
  // passed; with `spare_setups`, each round is followed by a set-up
  // repetition until all kSetups ran.
  const auto measure = [&](SuiteRunner* suites, double seconds,
                           bool spare_setups) {
    const int64_t t0 = NowNs();
    while (suites->rounds() < kMinRounds || Seconds(t0, NowNs()) < seconds ||
           (spare_setups && !setups.done())) {
      suites->Round();
      if (spare_setups && !setups.done()) (void)SetUpOnce(args, &setups);
    }
  };
  std::unique_ptr<SuiteRunner> run;
  if (!trace::Enabled()) {
    run = std::make_unique<SuiteRunner>(raw, kLetters, setup.archive, args,
                                        out);
    measure(run.get(), args.seconds, true);
    run->Report(/*report_reads=*/true);
  } else {
    // Half the run untraced over the raw engines (the overhead baseline),
    // half traced over TracingEngine views.
    trace::SetEnabled(false);
    Result base;
    SuiteRunner untraced(raw, kLetters, setup.archive, args, &base);
    measure(&untraced, args.seconds / 2, true);
    untraced.Report(false);
    trace::SetEnabled(true);
    std::vector<std::unique_ptr<TracingEngine>> views;
    std::vector<TemporalEngine*> traced;
    for (TemporalEngine* e : raw) {
      views.push_back(std::make_unique<TracingEngine>(e));
      traced.push_back(views.back().get());
    }
    run = std::make_unique<SuiteRunner>(traced, kLetters, setup.archive, args,
                                        out);
    measure(run.get(), args.seconds / 2, false);
    run->Report(true);
    double base_ms = 0, traced_ms = 0;
    for (const Metric& m : base.metrics) base_ms += m.value;
    for (const Metric& m : out->metrics) {
      if (m.name.rfind("suite_ms.", 0) == 0) traced_ms += m.value;
    }
    out->counters["trace.overhead_pct"] =
        base_ms > 0 ? (traced_ms / base_ms - 1.0) * 100.0 : 0.0;
  }
  // The writes are the archive replay itself: every history transaction
  // into every engine, the paper's loading path (Fig. 13 and 16).
  setups.Report(out);

  // Every engine must answer every query exactly as System A does.
  const std::vector<std::vector<Rows>>& warm = run->warm();
  size_t compared = 0;
  for (size_t e = 1; e < warm.size(); ++e) {
    for (size_t q = 0; q < run->queries().size(); ++q) {
      Rows got = warm[e][q];
      if (args.tamper == "engines" && e == 1 && q == 0) {
        got.push_back({bih::Value()});
      }
      const std::string diff = CompareCanonical(warm[0][q], std::move(got));
      ++compared;
      if (!diff.empty()) {
        out->Fail(run->queries()[q].name + ": System " + kLetters[e] +
                  " differs from System A: " + diff);
      }
    }
  }
  std::printf("check: %zu query results compared across engines\n", compared);
  out->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
}

}  // namespace perfbench

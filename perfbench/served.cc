// served_point: a net::Server on loopback in front of a SessionManager over
// System A with the paper's Key+Time index setting (Section 5.1), driven by
// closed-loop clients — each connection sends its next statement only after
// the reply to the previous one arrived. Reads and durable writes run in
// separate phases (WORKLOADS.md says why).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "durability/checkpoint.h"
#include "engine/recovery.h"
#include "exec/optimizer.h"
#include "net/client.h"
#include "net/server.h"
#include "server/session.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "tpch/schema.h"
#include "trace.h"
#include "workload/context.h"

namespace perfbench {
namespace {

using bih::SessionManager;

constexpr size_t kStatements = 4096;
constexpr uint32_t kDeadlineMs = 10000;
// A served phase is measured as this many sub-windows, each with fresh
// connections (fresh client and server threads), and reports medians over
// them, so a short slow spell of the host moves one sub-window, not the
// run. One measured round of the query classes and one spare set-up
// repetition run after each sub-window.
constexpr int kSubWindows = 10;
constexpr double kReadWarmupS = 0.2;
// Durable updates sent for the checks. A fixed, modest count: the virtual
// disk of a small VM rate-limits flushes once a burst budget is spent
// (fdatasync then takes about 4 ms), and a sequence of runs must not drain
// it.
constexpr int kDurableWrites = 1000;
// Warm-up of the in-process replay windows.
constexpr double kShortWarmupS = 0.02;
// Statements whose served rows are compared with in-process execution.
constexpr size_t kCheckedStatements = 64;

struct Stmt {
  std::string sql;
  std::string kind;  // K1, asof or current; spans are tagged "<phase>|kind"
};

struct ServedSetup {
  Archive archive;
  std::unique_ptr<TemporalEngine> engine;
  std::vector<int64_t> cust_keys;   // keys with a currently visible row
  std::vector<int64_t> order_keys;
};

std::vector<int64_t> CurrentKeys(TemporalEngine& e, const std::string& table) {
  bih::ScanRequest req;
  req.table = table;
  req.exec.scan_threads = 1;
  std::vector<int64_t> keys;
  e.Scan(req, [&](const bih::Row& r) {
    keys.push_back(r[0].AsInt());
    return true;
  });
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// One set-up repetition: generate + load + index, then attach a WAL at
// `wal_path` and checkpoint the loaded state (so recovery has the DDL and
// the base rows).
ServedSetup SetUpOnce(const Args& args, const std::string& wal_path,
                      SetupTimes* times) {
  ServedSetup s;
  const std::filesystem::path dir =
      std::filesystem::path(wal_path).parent_path();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  trace::SetRequest(times->seconds.size(), "setup|A");
  const int64_t t0 = NowNs();
  s.archive = GenerateArchive(args.h, args.m, args.seed);
  Loaded l = LoadArchive("A", &s.archive);
  {
    trace::ScopedSpan span("workload.ApplyIndexSetting");
    Require(bih::ApplyIndexSetting(*l.engine, bih::IndexSetting::kKeyTime),
            "ApplyIndexSetting");
  }
  {
    trace::ScopedSpan span("durability.Checkpoint");
    Require(l.engine->EnableWal(wal_path), "EnableWal");
    bih::Checkpointer cp(wal_path);
    bih::CheckpointInfo info;
    Require(cp.Write(l.engine.get(), &info), "Checkpointer::Write");
  }
  times->Add(Seconds(t0, NowNs()), std::move(l.txn_us));
  s.engine = std::move(l.engine);
  return s;
}

// The seeded read mix: a K1-style key-in-time audit, an AS OF point time
// travel on ORDERS and a current-state point lookup, in equal shares. Every
// statement is an index lookup under the Key+Time setting.
std::vector<Stmt> MakeReads(const ServedSetup& s, uint64_t seed) {
  bih::Rng rng(seed * 1000003 + 17);
  std::vector<Stmt> out;
  for (size_t i = 0; i < kStatements; ++i) {
    const auto pick = [&](const std::vector<int64_t>& keys) {
      return keys[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
    };
    switch (rng.UniformInt(0, 2)) {
      case 0:
        out.push_back({"SELECT * FROM CUSTOMER FOR SYSTEM_TIME ALL WHERE "
                       "C_CUSTKEY = " + std::to_string(pick(s.cust_keys)),
                       "K1"});
        break;
      case 1: {
        const int64_t t =
            rng.UniformInt(s.archive.sys_v0, s.archive.sys_end);
        out.push_back({"SELECT O_ORDERKEY, O_CUSTKEY, O_ORDERSTATUS, "
                       "O_TOTALPRICE FROM ORDERS FOR SYSTEM_TIME AS OF " +
                           std::to_string(t) + " WHERE O_ORDERKEY = " +
                           std::to_string(pick(s.order_keys)),
                       "asof"});
        break;
      }
      default:
        out.push_back({"SELECT C_CUSTKEY, C_NAME, C_ACCTBAL FROM CUSTOMER "
                       "WHERE C_CUSTKEY = " + std::to_string(pick(s.cust_keys)),
                       "current"});
        break;
    }
  }
  return out;
}

// One writer's seeded update stream over its own key stripe, and the last
// acknowledged value of every key it wrote — the visibility check's truth.
struct Writer {
  int index = 0;
  bih::Rng rng;
  uint64_t seq = 0;
  std::vector<int64_t> custs, orders;  // this writer's stripe
  std::map<int64_t, double> balance;
  std::map<int64_t, std::string> status;
  std::set<int64_t> uncertain_custs, uncertain_orders;
  uint64_t acked = 0;
  uint64_t zero_affected = 0;

  struct Update {
    std::string sql;
    bool customer = false;
    int64_t key = 0;
    double balance = 0.0;
    std::string status;
  };

  // Alternates a payment (CUSTOMER balance) and an order-status change.
  Update Next() {
    Update u;
    const uint64_t n = seq++;
    u.customer = n % 2 == 0;
    const std::vector<int64_t>& keys = u.customer ? custs : orders;
    u.key = keys[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
    if (u.customer) {
      u.balance = static_cast<double>(index * 10000000 + n) + 0.25;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.2f", u.balance);
      u.sql = "UPDATE CUSTOMER SET C_ACCTBAL = " + std::string(buf) +
              " WHERE C_CUSTKEY = " + std::to_string(u.key);
    } else {
      u.status = std::string(1, "OFP"[n % 3]);
      u.sql = "UPDATE ORDERS SET O_ORDERSTATUS = '" + u.status +
              "' WHERE O_ORDERKEY = " + std::to_string(u.key);
    }
    return u;
  }

  void Acked(const Update& u, const Status& st, int64_t affected) {
    if (!st.ok()) {
      // The outcome of a failed update is unknown: leave its key unchecked.
      (u.customer ? uncertain_custs : uncertain_orders).insert(u.key);
      return;
    }
    ++acked;
    if (affected < 1) ++zero_affected;
    if (u.customer) {
      balance[u.key] = u.balance;
    } else {
      status[u.key] = u.status;
    }
  }
};

// Start/stop of one measured window shared by its closed-loop threads.
struct Window {
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
};

// Operations that began inside the measured window.
struct OpLog {
  std::vector<int64_t> end_ns;
  std::vector<double> lat_us;
  std::vector<Status::Code> code;
  uint64_t reply_bytes = 0;

  void Record(int64_t t0, int64_t t1, const Status& st, size_t bytes) {
    end_ns.push_back(t1);
    lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    code.push_back(st.code());
    reply_bytes += bytes;
  }
};

using Worker = std::function<void(Window*, OpLog*)>;

// Runs the workers for `warmup_s`, then measures for `seconds`. Returns
// one log per worker holding the operations that began after the warm-up
// and completed inside the window, whose length goes to *window_s.
std::vector<OpLog> RunWindow(const std::vector<Worker>& workers,
                             double warmup_s, double seconds,
                             double* window_s) {
  Window win;
  std::vector<OpLog> logs(workers.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < workers.size(); ++i) {
    threads.emplace_back([&, i] { workers[i](&win, &logs[i]); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const int64_t start = NowNs();
  win.measuring.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const int64_t end = NowNs();
  win.stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (OpLog& log : logs) {
    size_t keep = 0;
    while (keep < log.end_ns.size() && log.end_ns[keep] <= end) ++keep;
    log.end_ns.resize(keep);
    log.lat_us.resize(keep);
    log.code.resize(keep);
  }
  *window_s = Seconds(start, end);
  return logs;
}

// The readers' figures over the sub-windows of a phase. Each is reported as the median over the sub-windows, so one
// sub-window caught in a slow spell of the host cannot move it.
struct RoleStats {
  std::vector<double> rate, p50, p99;
  uint64_t ok = 0, ops = 0, reply_bytes = 0;

  // Adds one window; operations are accounted in `account` unless null.
  void Add(const std::vector<OpLog>& logs, double window_s, Result* account) {
    std::vector<double> ok_us;
    for (const OpLog& log : logs) {
      for (size_t k = 0; k < log.lat_us.size(); ++k) {
        const Status st(log.code[k], "");
        if (account != nullptr) account->Account(st);
        ++ops;
        if (st.ok()) ok_us.push_back(log.lat_us[k]);
      }
      reply_bytes += log.reply_bytes;
    }
    ok += ok_us.size();
    rate.push_back(window_s > 0 ? ok_us.size() / window_s : 0.0);
    p50.push_back(Percentile(&ok_us, 0.50));
    p99.push_back(Percentile(&ok_us, 0.99));
  }

  void Report(const std::string& prefix, const char* rate_name,
              Result* out) const {
    std::printf("%s sub-windows:", prefix.c_str());
    for (size_t i = 0; i < rate.size(); ++i) {
      std::printf(" [%.0f/s p50 %.1f p99 %.1f]", rate[i], p50[i], p99[i]);
    }
    std::printf("\n");
    out->Add(rate_name, Median(rate), "1/s", ok);
    out->Add(prefix + "_p50_us", Median(p50), "us", ok);
    out->Add(prefix + "_p99_us", Median(p99), "us", ok);
  }
};

// Runs kSubWindows windows of `seconds` / kSubWindows over fresh workers
// from `make`, and `between` after each.
void MeasurePhase(const std::function<std::vector<Worker>()>& make,
                  double warmup_s, double seconds, Result* account,
                  RoleStats* stats, const std::function<void()>& between) {
  for (int w = 0; w < kSubWindows; ++w) {
    double window_s = 0.0;
    const std::vector<OpLog> logs =
        RunWindow(make(), warmup_s, seconds / kSubWindows, &window_s);
    stats->Add(logs, window_s, account);
    between();
  }
}

Worker ServedReader(uint16_t port, const std::string& tenant,
                    const std::vector<Stmt>& reads, size_t offset) {
  return [=, &reads](Window* win, OpLog* log) {
    bih::net::Client c;
    Status st = c.Connect("127.0.0.1", port, tenant, /*scan_threads=*/1);
    if (!st.ok()) {
      log->Record(NowNs(), NowNs(), st, 0);
      return;
    }
    for (uint64_t i = 0; !win->stop.load(std::memory_order_acquire); ++i) {
      const Stmt& s = reads[(offset + i) % reads.size()];
      const bool measured = win->measuring.load(std::memory_order_acquire);
      if (trace::Enabled()) trace::SetRequest(i, "served|" + s.kind);
      bih::net::QueryReply reply;
      const int64_t t0 = NowNs();
      {
        trace::ScopedSpan span("Client::Query");
        (void)c.Query(s.sql, kDeadlineMs, &reply);
      }
      const int64_t t1 = NowNs();
      if (measured) {
        log->Record(t0, t1, reply.status, reply.raw_payload.size());
      }
      if (!c.connected()) return;
    }
  };
}

// Sends kDurableWrites of `w`'s updates on one connection, closed loop, with
// the WAL attached, group commit on and real fdatasync. Their acknowledged
// values feed the visibility and recovery checks; they are no metric
// (WORKLOADS.md says why).
void RunDurableWrites(uint16_t port, Writer* w, Result* out) {
  bih::net::Client c;
  const Status st = c.Connect("127.0.0.1", port, "tenant-0", /*scan_threads=*/1);
  out->Account(st);
  if (!st.ok()) {
    out->Fail("writer connection: " + st.ToString());
    return;
  }
  const int64_t t0 = NowNs();
  for (int i = 0; i < kDurableWrites && c.connected(); ++i) {
    const Writer::Update u = w->Next();
    bih::net::QueryReply reply;
    (void)c.Query(u.sql, kDeadlineMs, &reply);
    int64_t affected = 0;
    if (reply.status.ok() && !reply.rows.empty() && !reply.rows[0].empty() &&
        reply.rows[0][0].is_int()) {
      affected = reply.rows[0][0].AsInt();
    }
    w->Acked(u, reply.status, affected);
    out->Account(reply.status);
  }
  std::printf("durable writes: %llu acknowledged in %.3f s on 1 connection\n",
              static_cast<unsigned long long>(w->acked), Seconds(t0, NowNs()));
}

// The steps ExecuteSql runs for a SELECT, one span each, over a tracing
// view of the engine so every TemporalEngine::Scan is a child span.
Status TracedSelect(TemporalEngine& eng, const std::string& text,
                    bih::QueryContext* ctx, const bih::ExecOptions& opts,
                    Rows* rows) {
  TracingEngine view(&eng);
  bih::sql::SelectStatement stmt;
  {
    trace::ScopedSpan span("ParseSelect");
    BIH_RETURN_IF_ERROR(bih::sql::ParseSelect(text, &stmt));
  }
  bih::PlanPtr plan;
  std::vector<std::string> columns;
  {
    trace::ScopedSpan span("PlanSelect");
    BIH_RETURN_IF_ERROR(bih::sql::PlanSelect(view, stmt, &plan, &columns));
  }
  {
    trace::ScopedSpan span("OptimizePlan");
    bih::OptimizePlan(&plan, view);
  }
  trace::ScopedSpan span("Execute");
  Status st = bih::Execute(*plan, view, opts, ctx, rows);
  span.Count(rows->size());
  if (!st.ok()) rows->clear();
  return st;
}

Status InProcessSql(SessionManager* session, const std::string& text,
                    bih::sql::SqlResult* res) {
  const bih::ExecOptions opts = session->exec_options();
  return session->ReadTxn(nullptr, [&](TemporalEngine& eng) {
    return bih::sql::ExecuteSql(eng, text, res, nullptr, opts);
  });
}

// In-process replay of the served reads: ReadTxn around the traced steps.
// With `out` set (no writer running beside), the first kCheckedStatements
// results are compared with ExecuteSql's; `tamper` corrupts the first.
Worker ReplayReader(SessionManager* session, const std::vector<Stmt>& reads,
                    size_t offset, const std::string& phase, Result* out,
                    bool tamper = false) {
  return [=, &reads](Window* win, OpLog* log) {
    const bih::ExecOptions opts = session->exec_options();
    for (uint64_t i = 0; !win->stop.load(std::memory_order_acquire); ++i) {
      const Stmt& s = reads[(offset + i) % reads.size()];
      const bool measured = win->measuring.load(std::memory_order_acquire);
      trace::SetRequest(i, phase + "|" + s.kind);
      bih::QueryContext ctx = bih::QueryContext::WithTimeout(
          std::chrono::milliseconds(kDeadlineMs));
      Rows rows;
      const int64_t t0 = NowNs();
      Status st;
      {
        trace::ScopedSpan span("SessionManager::ReadTxn");
        st = session->ReadTxn(&ctx, [&](TemporalEngine& eng) {
          trace::ScopedSpan cb("ReadTxn.callback");
          return TracedSelect(eng, s.sql, &ctx, opts, &rows);
        });
      }
      const int64_t t1 = NowNs();
      if (measured) log->Record(t0, t1, st, 0);
      if (out != nullptr && i < kCheckedStatements && st.ok()) {
        bih::sql::SqlResult ref;
        const Status rs = InProcessSql(session, s.sql, &ref);
        if (tamper && i == 0) rows.push_back({bih::Value(int64_t{-1})});
        const std::string diff = CompareExact(rows, ref.rows);
        if (!rs.ok() || !diff.empty()) {
          // Threads share `out` only through this rare path; serialize it.
          static std::mutex mu;
          std::lock_guard<std::mutex> lock(mu);
          out->Fail("traced replay differs from ExecuteSql for: " + s.sql +
                    " (" + (rs.ok() ? diff : rs.ToString()) + ")");
        }
      }
    }
  };
}

// In-process replay of the served updates: Write around ParseDml and
// ExecuteDml, as the server runs them.
Worker ReplayWriter(SessionManager* session, Writer* w) {
  return [=](Window* win, OpLog* log) {
    for (uint64_t i = 0; !win->stop.load(std::memory_order_acquire); ++i) {
      const Writer::Update u = w->Next();
      const bool measured = win->measuring.load(std::memory_order_acquire);
      trace::SetRequest(i, "mixed|update");
      bih::QueryContext ctx = bih::QueryContext::WithTimeout(
          std::chrono::milliseconds(kDeadlineMs));
      bih::sql::SqlResult res;
      const int64_t t0 = NowNs();
      Status st = ctx.CheckNow();
      if (st.ok()) {
        trace::ScopedSpan span("SessionManager::Write");
        st = session->Write([&](TemporalEngine& eng) {
          trace::ScopedSpan cb("Write.callback");
          bih::sql::DmlStatement stmt;
          {
            trace::ScopedSpan p("ParseDml");
            BIH_RETURN_IF_ERROR(bih::sql::ParseDml(u.sql, &stmt));
          }
          trace::ScopedSpan d("ExecuteDml");
          return bih::sql::ExecuteDml(eng, stmt, &res, &ctx);
        });
      }
      const int64_t t1 = NowNs();
      int64_t affected = 0;
      if (st.ok() && !res.rows.empty() && res.rows[0][0].is_int()) {
        affected = res.rows[0][0].AsInt();
      }
      w->Acked(u, st, affected);
      if (measured) log->Record(t0, t1, st, 0);
    }
  };
}

// Served rows must equal in-process ExecuteSql rows on a sample.
void CheckServedRows(uint16_t port, SessionManager* session,
                     const std::vector<Stmt>& reads, const Args& args,
                     Result* out) {
  bih::net::Client c;
  Status st = c.Connect("127.0.0.1", port, "check", /*scan_threads=*/1);
  if (!st.ok()) {
    out->Fail("check client: " + st.ToString());
    return;
  }
  const size_t stride = reads.size() / kCheckedStatements;
  for (size_t j = 0; j < kCheckedStatements; ++j) {
    const Stmt& s = reads[j * stride];
    bih::net::QueryReply reply;
    (void)c.Query(s.sql, kDeadlineMs, &reply);
    bih::sql::SqlResult ref;
    const Status rs = InProcessSql(session, s.sql, &ref);
    if (!reply.status.ok() || !rs.ok()) {
      out->Fail("check statement failed: " + s.sql + ": served " +
                reply.status.ToString() + ", in-process " + rs.ToString());
      continue;
    }
    if (j == 0 && args.tamper == "served_rows") {
      reply.rows.push_back({bih::Value(int64_t{-1})});
    }
    const std::string diff = CompareExact(reply.rows, ref.rows);
    if (!diff.empty() || reply.columns != ref.columns) {
      out->Fail("served rows differ from in-process rows for: " + s.sql +
                " (" + (diff.empty() ? "columns" : diff) + ")");
    }
  }
}

// Every acknowledged update must be visible in the current state.
void CheckAcksVisible(SessionManager* session, std::vector<Writer>* writers,
                      const Args& args, Result* out) {
  if (args.tamper == "ack_visible" && !(*writers)[0].balance.empty()) {
    (*writers)[0].balance.begin()->second += 1.0;
  }
  uint64_t checked = 0;
  Status st = session->ReadTxn(nullptr, [&](TemporalEngine& eng) {
    const auto visit = [&](const std::string& table, int64_t key, int col,
                           const bih::Value& want) {
      bih::ScanRequest req;
      req.table = table;
      req.temporal.app_time = bih::TemporalSelector::All();
      req.equals = {{0, bih::Value(key)}};
      req.exec.scan_threads = 1;
      size_t rows = 0;
      bool same = true;
      eng.Scan(req, [&](const bih::Row& r) {
        ++rows;
        same = same && r[static_cast<size_t>(col)].Compare(want) == 0;
        return true;
      });
      ++checked;
      if (rows == 0 || !same) {
        out->Fail("acknowledged update of " + table + " key " +
                  std::to_string(key) + " to " + want.ToString() +
                  " is not visible (" + std::to_string(rows) + " rows)");
      }
    };
    for (const Writer& w : *writers) {
      for (const auto& [k, v] : w.balance) {
        if (!w.uncertain_custs.count(k)) {
          visit("CUSTOMER", k, bih::customer::kAcctBal, bih::Value(v));
        }
      }
      for (const auto& [k, v] : w.status) {
        if (!w.uncertain_orders.count(k)) {
          visit("ORDERS", k, bih::orders::kOrderStatus, bih::Value(v));
        }
      }
      if (w.zero_affected > 0) {
        out->Fail("writer " + std::to_string(w.index) + ": " +
                  std::to_string(w.zero_affected) +
                  " acknowledged updates affected no row");
      }
    }
    return Status::OK();
  });
  if (!st.ok()) out->Fail("visibility check: " + st.ToString());
  std::printf("check: %llu acknowledged keys visible\n",
              static_cast<unsigned long long>(checked));
}

Rows AllVersions(TemporalEngine& e, const std::string& table) {
  bih::ScanRequest req;
  req.table = table;
  req.temporal.system_time = bih::TemporalSelector::All();
  req.temporal.app_time = bih::TemporalSelector::All();
  req.exec.scan_threads = 1;
  Rows rows;
  e.Scan(req, [&](const bih::Row& r) {
    rows.push_back(r);
    return true;
  });
  return rows;
}

// RecoverEngine over the run's checkpoint + WAL must reproduce the live
// CUSTOMER and ORDERS version sets. Returns the recovery time.
double CheckRecovery(TemporalEngine& live, const std::string& wal_path,
                     const Args& args, Result* out) {
  std::unique_ptr<TemporalEngine> rec;
  bih::RecoveryReport report;
  const int64_t t0 = NowNs();
  Status st;
  {
    trace::SetRequest(0, "check|recovery");
    trace::ScopedSpan span("RecoverEngine");
    st = bih::RecoverEngine("A", wal_path, &rec, &report);
  }
  const double recovery_s = Seconds(t0, NowNs());
  if (!st.ok()) {
    out->Fail("RecoverEngine: " + st.ToString());
    return recovery_s;
  }
  for (const std::string table : {"CUSTOMER", "ORDERS"}) {
    Rows got = AllVersions(*rec, table);
    if (table == "CUSTOMER" && args.tamper == "recovery" && !got.empty()) {
      got.pop_back();
    }
    const std::string diff = CompareCanonical(AllVersions(live, table), got);
    if (!diff.empty()) {
      out->Fail("recovered " + table + " differs from the live state: " + diff);
    }
  }
  std::printf("check: recovery replayed %llu records in %.3f s\n",
              static_cast<unsigned long long>(report.records_applied),
              recovery_s);
  return recovery_s;
}

}  // namespace

void RunServedPoint(const Args& args, Result* out) {
  const std::string wal_path = args.workdir + "/wal/served.wal";
  const std::string spare_wal = args.workdir + "/wal-spare/served.wal";
  SetupTimes setups;
  ServedSetup s = SetUpOnce(args, wal_path, &setups);
  s.cust_keys = CurrentKeys(*s.engine, "CUSTOMER");
  s.order_keys = CurrentKeys(*s.engine, "ORDERS");
  if (s.cust_keys.size() < 2 || s.order_keys.size() < 2) {
    std::fprintf(stderr, "perfbench: archive too small to serve\n");
    std::exit(1);
  }

  // The paper's query classes on the served engine, in process (suite_ms.*):
  // the warm-up round now, a measured round after each read sub-window of
  // the phase that reports them, while no client is connected.
  std::unique_ptr<TracingEngine> view;
  TemporalEngine* suite_engine = s.engine.get();
  if (trace::Enabled()) {
    view = std::make_unique<TracingEngine>(suite_engine);
    suite_engine = view.get();
  }
  SuiteRunner suites({suite_engine}, {"A"}, s.archive, args, out);

  const std::vector<Stmt> reads = MakeReads(s, args.seed);
  std::vector<Writer> writers(2);
  for (size_t w = 0; w < writers.size(); ++w) {
    writers[w].index = static_cast<int>(w);
    writers[w].rng.Seed(args.seed * 7919 + w);
    for (size_t i = w; i < s.cust_keys.size(); i += writers.size()) {
      writers[w].custs.push_back(s.cust_keys[i]);
    }
    for (size_t i = w; i < s.order_keys.size(); i += writers.size()) {
      writers[w].orders.push_back(s.order_keys[i]);
    }
  }

  bih::WalWriter* wal = s.engine->wal();
  const uint64_t syncs0 = wal->syncs();
  const uint64_t bytes0 = wal->bytes_written();
  bih::SessionConfig cfg;
  cfg.scan_threads = 1;
  SessionManager session(s.engine.get(), cfg);
  bih::net::Server server(&session, bih::net::ServerConfig{});
  Require(server.Start(), "net::Server::Start");
  const uint16_t port = server.port();

  const auto served_readers = [&] {
    return std::vector<Worker>{
        ServedReader(port, "tenant-0", reads, 0),
        ServedReader(port, "tenant-1", reads, kStatements / 2)};
  };
  const auto suite_round = [&] { suites.Round(); };
  // The spare set-up repetitions run between the untraced sub-windows, with
  // the suite rounds unless those belong to the traced phase.
  const auto spare_setup = [&] {
    if (!setups.done()) (void)SetUpOnce(args, spare_wal, &setups);
  };

  // End-to-end numbers come from untraced phases: the reads for
  // --seconds, then the durable writes the output checks use. A traced run
  // shortens the read phase to a third and spends the rest on a traced
  // served read phase (with the suite rounds) and, after the writes, on the
  // traced in-process replay of the same statements in the same shape.
  const bool traced = trace::Enabled();
  const double phase = traced ? args.seconds / 3 : args.seconds;
  trace::SetEnabled(false);
  RoleStats read_stats;
  MeasurePhase(served_readers, kReadWarmupS, phase, out, &read_stats, [&] {
    if (!traced) suite_round();
    spare_setup();
  });
  while (!setups.done()) spare_setup();
  std::filesystem::remove_all(std::filesystem::path(spare_wal).parent_path());
  // The writes, as on history_analytics, are the archive replay: the
  // served durable UPDATEs below were not steady enough to bound.
  setups.Report(out);
  read_stats.Report("read", "read_qps", out);

  if (traced) {
    trace::SetEnabled(true);
    RoleStats traced_reads;
    MeasurePhase(served_readers, kReadWarmupS, phase, nullptr, &traced_reads,
                 suite_round);
    const double base_p50 = Median(read_stats.p50);
    out->counters["trace.overhead_pct"] =
        base_p50 > 0 ? (Median(traced_reads.p50) / base_p50 - 1.0) * 100.0
                     : 0.0;
    out->counters["net.reply_bytes_per_op"] =
        traced_reads.ops > 0 ? static_cast<double>(traced_reads.reply_bytes) /
                                   traced_reads.ops
                             : 0.0;
  }
  suites.Report(/*report_reads=*/false);

  // The writes come after every suite round, whose row counts must not
  // change. One writer connection: with two, both serialize on the
  // all-shard Write() barrier and the group-commit hand-off. The traced
  // replay runs both writers beside the readers.
  RunDurableWrites(port, &writers[0], out);
  if (traced) {
    // In-process replay: the reads alone (tag "replay"; the wire and SQL
    // figures), then the reads beside the writers (tag "mixed"; the rw_mu_
    // wait, the write path and durability). Every replayed statement
    // records five to seven spans; alone, an in-process read takes a few
    // microseconds, so these windows give each role thousands of samples
    // and stay under the per-thread span cap.
    const bool tamper = args.tamper == "replay_rows";
    double replay_s = 0.0;
    (void)RunWindow({ReplayReader(&session, reads, 0, "replay", out, tamper),
                     ReplayReader(&session, reads, kStatements / 2, "replay",
                                  out)},
                    kShortWarmupS, 0.1, &replay_s);
    // The mixed replay measures how readers and writers that run at the
    // same time wait for each other, so its threads get every CPU.
    UnpinFromOneCpu();
    (void)RunWindow({ReplayReader(&session, reads, 0, "mixed", nullptr),
                     ReplayReader(&session, reads, kStatements / 2, "mixed",
                                  nullptr),
                     ReplayWriter(&session, &writers[0]),
                     ReplayWriter(&session, &writers[1])},
                    kShortWarmupS, 0.25, &replay_s);
    (void)PinToOneCpu();
  }

  CheckServedRows(port, &session, reads, args, out);
  CheckAcksVisible(&session, &writers, args, out);

  const SessionManager::ServerStats stats = session.GetStats();
  out->counters["server.reads_shed"] = static_cast<double>(stats.reads_shed);
  out->counters["server.reads_deadline"] =
      static_cast<double>(stats.reads_deadline);
  const bih::GroupCommit::Stats gc = session.GetGroupCommitStats();
  uint64_t acked = 0;
  for (const Writer& w : writers) acked += w.acked;
  out->counters["durability.syncs_per_ack"] =
      gc.acks > 0 ? static_cast<double>(wal->syncs() - syncs0) / gc.acks : 0;
  out->counters["durability.max_group"] = static_cast<double>(gc.max_group);
  out->counters["durability.wal_bytes_per_update"] =
      acked > 0 ? static_cast<double>(wal->bytes_written() - bytes0) / acked
                : 0;
  server.Drain();

  out->counters["durability.recovery_s"] =
      CheckRecovery(*s.engine, wal_path, args, out);
  out->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
}

}  // namespace perfbench

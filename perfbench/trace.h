#ifndef TPCBIH_PERFBENCH_TRACE_H_
#define TPCBIH_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

using bih::Status;

// Spans recorded around the calls the benchmark makes into each layer's
// public functions. Nothing inside src/ is instrumented: a span covers the
// whole call as the caller sees it. Spans stay in per-thread memory and are
// written out once, after every worker thread has been joined.
//
// Each span holds a name, start and end (steady clock, ns), its id, the id
// of the span open on the same thread when it began (its parent), the
// request id and phase tag the thread was working on, and up to three
// counters measured at the same boundary.
namespace trace {

// Off by default; when off a ScopedSpan costs one relaxed load.
void SetEnabled(bool on);
bool Enabled();

// The request the calling thread is about to issue, and the phase tag
// ("served|K1", "suite|H|B|Q21", ...) every span it records carries.
void SetRequest(uint64_t req, const std::string& tag);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Count(uint64_t a, uint64_t b = 0, uint64_t c = 0) {
    a_ = a;
    b_ = b;
    c_ = c;
  }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
  uint64_t a_ = 0, b_ = 0, c_ = 0;
};

// Writes every recorded span plus `counters` as tab-separated lines:
//   S name id parent req tag start_ns end_ns a b c
//   C name value
// perfbench/spans.py turns the file into the per-layer metrics.
bool WriteDump(const std::string& path,
               const std::map<std::string, double>& counters);

}  // namespace trace

// A read-only view of an engine that records a TemporalEngine::Scan span
// (rows examined, rows output, index used) around every scan. Planning,
// optimizing and executing through the view runs exactly the engine's own
// scan code; mutations are refused.
class TracingEngine final : public bih::TemporalEngine {
 public:
  explicit TracingEngine(TemporalEngine* inner);

  std::string name() const override { return inner_->name(); }
  bool native_app_time() const override { return inner_->native_app_time(); }
  Status CreateIndex(const bih::IndexSpec&) override;
  Status DropIndexes(const std::string&) override;
  const bih::TableDef& GetTableDef(const std::string& t) const override {
    return inner_->GetTableDef(t);
  }
  bih::Schema ScanSchema(const std::string& t) const override {
    return inner_->ScanSchema(t);
  }
  bool HasTable(const std::string& t) const override {
    return inner_->HasTable(t);
  }
  std::vector<std::string> ListTables() const override {
    return inner_->ListTables();
  }
  bih::TableStats GetTableStats(const std::string& t) const override {
    return inner_->GetTableStats(t);
  }
  void Scan(const bih::ScanRequest& req, const bih::RowCallback& cb) override;

 protected:
  Status DoCreateTable(const bih::TableDef&) override;
  Status DoInsert(const std::string&, bih::Row) override;
  Status DoUpdateCurrent(const std::string&, const std::vector<bih::Value>&,
                         const std::vector<bih::ColumnAssignment>&) override;
  Status DoUpdateSequenced(const std::string&, const std::vector<bih::Value>&,
                           int, const bih::Period&,
                           const std::vector<bih::ColumnAssignment>&) override;
  Status DoUpdateOverwrite(const std::string&, const std::vector<bih::Value>&,
                           int, const bih::Period&,
                           const std::vector<bih::ColumnAssignment>&) override;
  Status DoDeleteCurrent(const std::string&,
                         const std::vector<bih::Value>&) override;
  Status DoDeleteSequenced(const std::string&, const std::vector<bih::Value>&,
                           int, const bih::Period&) override;
  Status DoInstallVersion(const std::string&, const bih::Row&) override;

 private:
  TemporalEngine* inner_;  // not owned
};

}  // namespace perfbench

#endif  // TPCBIH_PERFBENCH_TRACE_H_

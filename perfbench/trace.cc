#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace trace {
namespace {

struct SpanRec {
  const char* name;
  uint64_t id, parent, req;
  uint32_t tag;
  int64_t start_ns, end_ns;
  uint64_t a, b, c;
};

// Spans beyond this many per thread are dropped (and counted), so a long
// traced window cannot exhaust memory.
constexpr size_t kMaxSpansPerThread = 500000;

struct ThreadBuf {
  uint64_t index = 0;
  uint64_t next_seq = 1;
  std::vector<uint64_t> open;
  std::vector<SpanRec> spans;
  uint64_t dropped = 0;
  uint64_t req = 0;
  uint32_t tag = 0;
  std::vector<std::string> tags{""};
  std::unordered_map<std::string, uint32_t> tag_ids{{"", 0}};
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
// Buffers outlive their threads: the dump happens after every join.
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf* Buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_bufs.back().get();
    t_buf->index = g_bufs.size();
  }
  return t_buf;
}

int64_t Ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetEnabled(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_on.load(std::memory_order_relaxed); }

void SetRequest(uint64_t req, const std::string& tag) {
  if (!Enabled()) return;
  ThreadBuf* b = Buf();
  b->req = req;
  auto it = b->tag_ids.find(tag);
  if (it == b->tag_ids.end()) {
    it = b->tag_ids.emplace(tag, static_cast<uint32_t>(b->tags.size())).first;
    b->tags.push_back(tag);
  }
  b->tag = it->second;
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!Enabled()) return;
  ThreadBuf* b = Buf();
  id_ = (b->index << 40) | b->next_seq++;
  parent_ = b->open.empty() ? 0 : b->open.back();
  b->open.push_back(id_);
  start_ns_ = Ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const int64_t end = Ns();
  ThreadBuf* b = Buf();
  b->open.pop_back();
  if (b->spans.size() >= kMaxSpansPerThread) {
    ++b->dropped;
    return;
  }
  b->spans.push_back(
      SpanRec{name_, id_, parent_, b->req, b->tag, start_ns_, end, a_, b_, c_});
}

bool WriteDump(const std::string& path,
               const std::map<std::string, double>& counters) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_bufs) {
    dropped += b->dropped;
    for (const SpanRec& s : b->spans) {
      std::fprintf(f, "S\t%s\t%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%llu\t%llu\t%llu\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.req),
                   b->tags[s.tag].c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.a),
                   static_cast<unsigned long long>(s.b),
                   static_cast<unsigned long long>(s.c));
    }
  }
  for (const auto& [name, value] : counters) {
    std::fprintf(f, "C\t%s\t%.9g\n", name.c_str(), value);
  }
  std::fprintf(f, "C\ttrace.spans_dropped\t%llu\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

}  // namespace trace

TracingEngine::TracingEngine(TemporalEngine* inner) : inner_(inner) {
  // Queries read Now() (T7 explicit, R2); it must be the served engine's.
  clock_.Reset(inner->Now());
}

void TracingEngine::Scan(const bih::ScanRequest& req,
                         const bih::RowCallback& cb) {
  bih::ExecStats local;
  bih::ScanRequest r = req;
  if (r.stats == nullptr) r.stats = &local;
  trace::ScopedSpan span("TemporalEngine::Scan");
  inner_->Scan(r, cb);
  span.Count(r.stats->rows_examined, r.stats->rows_output,
             r.stats->used_index ? 1 : 0);
  // Callers that read last_stats() (the plan executor) must see this scan.
  if (req.stats == nullptr) PublishStats(local);
}

namespace {
Status ReadOnly() {
  return Status::Unimplemented("perfbench TracingEngine is a read-only view");
}
}  // namespace

Status TracingEngine::CreateIndex(const bih::IndexSpec&) { return ReadOnly(); }
Status TracingEngine::DropIndexes(const std::string&) { return ReadOnly(); }
Status TracingEngine::DoCreateTable(const bih::TableDef&) { return ReadOnly(); }
Status TracingEngine::DoInsert(const std::string&, bih::Row) {
  return ReadOnly();
}
Status TracingEngine::DoUpdateCurrent(
    const std::string&, const std::vector<bih::Value>&,
    const std::vector<bih::ColumnAssignment>&) {
  return ReadOnly();
}
Status TracingEngine::DoUpdateSequenced(
    const std::string&, const std::vector<bih::Value>&, int,
    const bih::Period&, const std::vector<bih::ColumnAssignment>&) {
  return ReadOnly();
}
Status TracingEngine::DoUpdateOverwrite(
    const std::string&, const std::vector<bih::Value>&, int,
    const bih::Period&, const std::vector<bih::ColumnAssignment>&) {
  return ReadOnly();
}
Status TracingEngine::DoDeleteCurrent(const std::string&,
                                      const std::vector<bih::Value>&) {
  return ReadOnly();
}
Status TracingEngine::DoDeleteSequenced(const std::string&,
                                        const std::vector<bih::Value>&, int,
                                        const bih::Period&) {
  return ReadOnly();
}
Status TracingEngine::DoInstallVersion(const std::string&, const bih::Row&) {
  return ReadOnly();
}

}  // namespace perfbench

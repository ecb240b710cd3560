#include <chrono>
#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "exec/expr.h"
#include "exec/parallel.h"
#include "exec/plan.h"
#include "tpch/schema.h"
#include "workload/context.h"

namespace bih {
namespace {

Row R(std::initializer_list<Value> vals) { return Row(vals); }

// The Values-only trees below never touch the engine; one instance serves
// every test as the Execute() anchor.
Rows RunTree(PlanPtr plan, const ExecOptions& opts = {}) {
  static TemporalEngine* engine = MakeEngine("A").release();
  return RunPlan(*plan, *engine, nullptr, opts);
}

ScanScheduler& Pool() {
  static ScanScheduler* pool = new ScanScheduler(3);
  return *pool;
}

TEST(ExprTest, ArithmeticIntAndDouble) {
  Row row{Value(int64_t{6}), Value(7.0)};
  EXPECT_EQ(13, Add(Col(0), Col(1))->Eval(row).AsDouble());
  EXPECT_EQ(42.0, Mul(Col(0), Col(1))->Eval(row).AsDouble());
  EXPECT_EQ(12, Add(Col(0), Col(0))->Eval(row).AsInt());
  EXPECT_DOUBLE_EQ(6.0 / 7.0, Div(Col(0), Col(1))->Eval(row).AsDouble());
}

TEST(ExprTest, DivisionByZeroIsNull) {
  Row row{Value(1.0), Value(0.0)};
  EXPECT_TRUE(Div(Col(0), Col(1))->Eval(row).is_null());
}

TEST(ExprTest, Comparisons) {
  Row row{Value(int64_t{5}), Value(int64_t{7})};
  EXPECT_EQ(1, Lt(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(0, Gt(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(1, Ne(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(1, Le(Col(0), Col(0))->Eval(row).AsInt());
}

TEST(ExprTest, NullPropagationInFilters) {
  Row row{Value::Null(), Value(int64_t{1})};
  EXPECT_TRUE(Eq(Col(0), Col(1))->Eval(row).is_null());
  EXPECT_FALSE(Eq(Col(0), Col(1))->Test(row));  // NULL -> filtered out
  EXPECT_TRUE(IsNull(Col(0))->Test(row));
  EXPECT_FALSE(IsNull(Col(1))->Test(row));
}

TEST(ExprTest, BooleanShortCircuit) {
  Row row{Value(int64_t{1}), Value(int64_t{0})};
  EXPECT_EQ(1, Or(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(0, And(Col(0), Col(1))->Eval(row).AsInt());
  EXPECT_EQ(1, Not(Col(1))->Eval(row).AsInt());
}

TEST(ExprTest, StringPredicates) {
  Row row{Value("PROMO BRUSHED STEEL")};
  EXPECT_TRUE(StartsWith(Col(0), Lit("PROMO"))->Test(row));
  EXPECT_FALSE(StartsWith(Col(0), Lit("STEEL"))->Test(row));
  EXPECT_TRUE(Contains(Col(0), Lit("BRUSHED"))->Test(row));
  EXPECT_FALSE(Contains(Col(0), Lit("POLISHED"))->Test(row));
}

TEST(ExprTest, BetweenAndYear) {
  Row row{Value(Date::FromYMD(1994, 5, 3))};
  EXPECT_EQ(1994, YearOf(Col(0))->Eval(row).AsInt());
  EXPECT_TRUE(Between(Col(0), Lit(Value(Date::FromYMD(1994, 1, 1))),
                      Lit(Value(Date::FromYMD(1994, 12, 31))))
                  ->Test(row));
}

TEST(PlanTest, FilterAndProject) {
  Rows in{R({Value(int64_t{1}), Value(2.0)}), R({Value(int64_t{5}), Value(3.0)})};
  Rows f = RunTree(FilterPlan(ValuesPlan(in), Gt(Col(0), Lit(int64_t{2}))));
  ASSERT_EQ(1u, f.size());
  Rows p = RunTree(ProjectPlan(ValuesPlan(f), {Mul(Col(1), Lit(2.0))}));
  EXPECT_DOUBLE_EQ(6.0, p[0][0].AsDouble());
}

TEST(PlanTest, HashJoinInner) {
  Rows left{R({Value(int64_t{1}), Value("a")}), R({Value(int64_t{2}), Value("b")}),
            R({Value(int64_t{3}), Value("c")})};
  Rows right{R({Value(int64_t{2}), Value(20.0)}),
             R({Value(int64_t{2}), Value(21.0)}),
             R({Value(int64_t{3}), Value(30.0)})};
  Rows out = RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right),
                              {0}, {0}, 2));
  ASSERT_EQ(3u, out.size());
  for (const Row& r : out) {
    EXPECT_EQ(0, r[0].Compare(r[2]));
    EXPECT_EQ(4u, r.size());
  }
}

TEST(PlanTest, HashJoinLeftOuterPadsNulls) {
  Rows left{R({Value(int64_t{1})}), R({Value(int64_t{2})})};
  Rows right{R({Value(int64_t{2}), Value("x")})};
  Rows out = RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right), {0}, {0},
                              2, JoinType::kLeftOuter));
  ASSERT_EQ(2u, out.size());
  const Row& unmatched = out[0][0].AsInt() == 1 ? out[0] : out[1];
  EXPECT_TRUE(unmatched[1].is_null());
  EXPECT_TRUE(unmatched[2].is_null());
}

TEST(PlanTest, HashJoinResidualPredicate) {
  Rows left{R({Value(int64_t{1}), Value(int64_t{10})})};
  Rows right{R({Value(int64_t{1}), Value(int64_t{5})}),
             R({Value(int64_t{1}), Value(int64_t{20})})};
  Rows out = RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right), {0}, {0},
                              2, JoinType::kInner, Lt(Col(1), Col(3))));
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(20, out[0][3].AsInt());
}

TEST(PlanTest, NullKeysNeverJoin) {
  Rows left{R({Value::Null(), Value(int64_t{1})})};
  Rows right{R({Value::Null(), Value(int64_t{2})})};
  EXPECT_TRUE(RunTree(HashJoinPlan(ValuesPlan(left), ValuesPlan(right),
                               {0}, {0}, 2))
                  .empty());
}

TEST(PlanTest, AggregateKinds) {
  Rows in{R({Value("g"), Value(1.0)}), R({Value("g"), Value(3.0)}),
          R({Value("h"), Value(5.0)}), R({Value("g"), Value(3.0)})};
  Rows out = RunTree(SortPlan(
      AggregatePlan(ValuesPlan(in), {0},
                    {{AggKind::kSum, Col(1)},
                     {AggKind::kAvg, Col(1)},
                     {AggKind::kMin, Col(1)},
                     {AggKind::kMax, Col(1)},
                     {AggKind::kCount, nullptr},
                     {AggKind::kCountDistinct, Col(1)}}),
      {SortSpec{Col(0), true}}));
  ASSERT_EQ(2u, out.size());
  EXPECT_DOUBLE_EQ(7.0, out[0][1].AsDouble());
  EXPECT_DOUBLE_EQ(7.0 / 3.0, out[0][2].AsDouble());
  EXPECT_DOUBLE_EQ(1.0, out[0][3].AsDouble());
  EXPECT_DOUBLE_EQ(3.0, out[0][4].AsDouble());
  EXPECT_EQ(3, out[0][5].AsInt());
  EXPECT_EQ(2, out[0][6].AsInt());
}

TEST(PlanTest, GlobalAggregateOnEmptyInput) {
  Rows out = RunTree(AggregatePlan(ValuesPlan({}), {},
                               {{AggKind::kCount, nullptr},
                                {AggKind::kSum, Col(0)}}));
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(0, out[0][0].AsInt());
  EXPECT_TRUE(out[0][1].is_null());  // SUM over nothing is NULL
}

TEST(PlanTest, AggregateSkipsNulls) {
  Rows in{R({Value(1.0)}), R({Value::Null()})};
  Rows out = RunTree(AggregatePlan(ValuesPlan(in), {},
                               {{AggKind::kCount, Col(0)},
                                {AggKind::kAvg, Col(0)}}));
  EXPECT_EQ(1, out[0][0].AsInt());
  EXPECT_DOUBLE_EQ(1.0, out[0][1].AsDouble());
}

TEST(PlanTest, SortMultiKeyAndStability) {
  Rows in{R({Value(int64_t{1}), Value("b")}), R({Value(int64_t{2}), Value("a")}),
          R({Value(int64_t{1}), Value("a")})};
  Rows out = RunTree(SortPlan(ValuesPlan(in), {SortSpec{Col(0), true},
                                           SortSpec{Col(1), false}}));
  EXPECT_EQ("b", out[0][1].AsString());
  EXPECT_EQ("a", out[1][1].AsString());
  EXPECT_EQ(2, out[2][0].AsInt());
}

TEST(PlanTest, LimitAndDistinct) {
  Rows in{R({Value(int64_t{1})}), R({Value(int64_t{1})}), R({Value(int64_t{2})})};
  EXPECT_EQ(2u, RunTree(LimitPlan(ValuesPlan(in), 2)).size());
  EXPECT_EQ(2u, RunTree(DistinctPlan(ValuesPlan(in))).size());
  EXPECT_EQ(3u, RunTree(LimitPlan(ValuesPlan(in), 99)).size());
}

TEST(PlanTest, CountDistinctComparesValues) {
  // Values that print alike stay distinct: doubles closer than the
  // four-digit text form, and an int beside the string of its digits.
  Rows in{R({Value(0.00001)}), R({Value(0.00002)}), R({Value(0.00001)}),
          R({Value(int64_t{5})}), R({Value("5")}), R({Value(int64_t{5})})};
  std::vector<AggSpec> aggs{{AggKind::kCountDistinct, Col(0)}};
  Rows out = RunTree(AggregatePlan(ValuesPlan(in), {}, aggs));
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(4, out[0][0].AsInt());

  // The per-morsel partials dedupe the same way, across morsels too.
  ExecOptions opts;
  opts.scan_threads = 4;
  opts.morsel_size = 2;
  opts.scheduler = &Pool();
  Rows parallel = RunTree(AggregatePlan(ValuesPlan(in), {}, aggs), opts);
  ASSERT_EQ(1u, parallel.size());
  EXPECT_EQ(4, parallel[0][0].AsInt());
}

TEST(PlanTest, FormatRowsTruncates) {
  Rows in;
  for (int i = 0; i < 30; ++i) in.push_back(R({Value(int64_t{i})}));
  std::string s = FormatRows(in, {"n"}, 5);
  EXPECT_NE(std::string::npos, s.find("25 more"));
}

// ---- Streamed pipelines -------------------------------------------------
//
// Scan, Values, Filter, Project and a hash join's probe side pass rows
// straight to their consumer. The goldens below pin every node's counters
// (and each Scan's engine counters) to the values a fully materializing
// executor reports, and every plan runs twice: a reused tree must reset
// them.

WorkloadContext& Loaded(const std::string& letter) {
  static std::map<std::string, WorkloadContext>* cache =
      new std::map<std::string, WorkloadContext>();
  auto it = cache->find(letter);
  if (it == cache->end()) {
    WorkloadConfig cfg;
    cfg.engine_letter = letter;
    cfg.h = 0.001;
    cfg.m = 0.001;
    cfg.seed = 7;
    it = cache->emplace(letter, BuildWorkload(cfg)).first;
  }
  return it->second;
}

PlanPtr FullScan(const char* table) {
  ScanRequest req;
  req.table = table;
  req.temporal.system_time = TemporalSelector::All();
  req.temporal.app_time = TemporalSelector::All();
  return ScanPlan(std::move(req));
}

// Preorder "Kind:rows_output", each Scan with its engine counters.
std::string NodeStats(const PlanNode& n) {
  std::string s = std::string(n.KindName()) + ":" +
                  std::to_string(n.stats.rows_output);
  if (n.kind == PlanNode::Kind::kScan) {
    const ExecStats& e = n.stats.scan;
    s += "[examined=" + std::to_string(e.rows_examined) +
         " out=" + std::to_string(e.rows_output) +
         " parts=" + std::to_string(e.partitions_touched) +
         " index=" + (e.used_index ? e.index_name : "-") +
         " history=" + (e.touched_history ? "1" : "0") + "]";
  }
  for (const PlanPtr& c : n.children) s += " " + NodeStats(*c);
  return s;
}

// Row count plus an order-sensitive digest of the rows' text.
std::string RowsDigest(const Rows& rows) {
  uint64_t h = 1469598103934665603ULL;
  for (const Row& r : rows) {
    for (const Value& v : r) {
      for (char ch : v.ToString() + "|") {
        h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
      }
    }
  }
  return std::to_string(rows.size()) + "/" + std::to_string(h);
}

struct StreamCase {
  const char* name;
  PlanPtr (*build)();
  // Golden NodeStats on engines A and B (they differ only in partitions
  // touched).
  const char* stats_a;
  const char* stats_b;
  const char* rows;  // golden RowsDigest, the same on both
};

PlanPtr FilterScan() {
  return FilterPlan(FullScan("ORDERS"),
                    Gt(Col(orders::kTotalPrice), Lit(150000.0)));
}

PlanPtr ProjectFilterScan() {
  return ProjectPlan(
      FilterPlan(FullScan("CUSTOMER"),
                 Eq(Col(customer::kMktSegment), Lit("BUILDING"))),
      {Col(customer::kCustKey), Mul(Col(customer::kAcctBal), Lit(2.0))});
}

PlanPtr AggregateFilterScan() {
  return AggregatePlan(
      FilterPlan(FullScan("LINEITEM"), Lt(Col(lineitem::kQuantity), Lit(25.0))),
      {lineitem::kReturnFlag},
      {{AggKind::kSum, Col(lineitem::kQuantity)},
       {AggKind::kCount, nullptr},
       {AggKind::kCountDistinct, Col(lineitem::kSuppKey)}});
}

PlanPtr HashJoinStreamedProbe() {
  // Probe side Filter(Scan ORDERS) streams; CUSTOMER is the build side.
  return HashJoinPlan(
      FilterPlan(FullScan("ORDERS"), Eq(Col(orders::kOrderStatus), Lit("F"))),
      FullScan("CUSTOMER"), {orders::kCustKey}, {customer::kCustKey}, 11);
}

const StreamCase kStreamCases[] = {
    {"Filter(Scan)", FilterScan,
     "Filter:509 Scan:2275[examined=2275 out=2275 parts=2 index=- history=1]",
     "Filter:509 Scan:2275[examined=2275 out=2275 parts=3 index=- history=1]",
     "509/13280117946852298032"},
    {"Project(Filter(Scan))", ProjectFilterScan,
     "Project:115 Filter:115 "
     "Scan:651[examined=651 out=651 parts=2 index=- history=1]",
     "Project:115 Filter:115 "
     "Scan:651[examined=651 out=651 parts=3 index=- history=1]",
     "115/5635633011665157624"},
    {"Aggregate(Filter(Scan))", AggregateFilterScan,
     "Aggregate:3 Filter:3801 "
     "Scan:7826[examined=7826 out=7826 parts=2 index=- history=1]",
     "Aggregate:3 Filter:3801 "
     "Scan:7826[examined=7826 out=7826 parts=3 index=- history=1]",
     "3/10080971133219937627"},
    {"HashJoin(Filter(Scan),Scan)", HashJoinStreamedProbe,
     "HashJoin:4696 Filter:1152 "
     "Scan:2275[examined=2275 out=2275 parts=2 index=- history=1] "
     "Scan:651[examined=651 out=651 parts=2 index=- history=1]",
     "HashJoin:4696 Filter:1152 "
     "Scan:2275[examined=2275 out=2275 parts=3 index=- history=1] "
     "Scan:651[examined=651 out=651 parts=3 index=- history=1]",
     "4696/4367868258803235809"},
};

TEST(StreamedPlanTest, CountersMatchGoldensOnEveryRun) {
  for (const char* letter : {"A", "B"}) {
    TemporalEngine& eng = Loaded(letter).eng();
    for (const StreamCase& c : kStreamCases) {
      SCOPED_TRACE(std::string(letter) + " " + c.name);
      PlanPtr plan = c.build();
      ExecOptions serial;
      serial.scan_threads = 1;
      for (int run = 0; run < 2; ++run) {
        Rows out;
        ASSERT_TRUE(Execute(*plan, eng, serial, nullptr, &out).ok());
        EXPECT_EQ(letter[0] == 'A' ? c.stats_a : c.stats_b, NodeStats(*plan))
            << "run " << run;
        EXPECT_EQ(c.rows, RowsDigest(out)) << "run " << run;
      }
    }
  }
}

// Forwards to a loaded engine and, once `trip_table`'s scan has delivered
// `trip_row` rows, runs `trip` — mid-stream, inside the scan callback.
class TrippingEngine final : public TemporalEngine {
 public:
  TrippingEngine(TemporalEngine* inner, std::string trip_table,
                 uint64_t trip_row, std::function<void(QueryContext*)> trip)
      : inner_(inner),
        trip_table_(std::move(trip_table)),
        trip_row_(trip_row),
        trip_(std::move(trip)) {}

  uint64_t delivered() const { return delivered_; }

  std::string name() const override { return inner_->name(); }
  bool native_app_time() const override { return inner_->native_app_time(); }
  Status CreateIndex(const IndexSpec&) override { return Refuse(); }
  Status DropIndexes(const std::string&) override { return Refuse(); }
  const TableDef& GetTableDef(const std::string& t) const override {
    return inner_->GetTableDef(t);
  }
  Schema ScanSchema(const std::string& t) const override {
    return inner_->ScanSchema(t);
  }
  bool HasTable(const std::string& t) const override {
    return inner_->HasTable(t);
  }
  std::vector<std::string> ListTables() const override {
    return inner_->ListTables();
  }
  TableStats GetTableStats(const std::string& t) const override {
    return inner_->GetTableStats(t);
  }
  void Scan(const ScanRequest& req, const RowCallback& cb) override {
    if (req.table != trip_table_) {
      inner_->Scan(req, cb);
      return;
    }
    inner_->Scan(req, [&](const Row& row) {
      if (++delivered_ == trip_row_) trip_(req.ctx);
      return cb(row);
    });
  }

 protected:
  Status DoCreateTable(const TableDef&) override { return Refuse(); }
  Status DoInsert(const std::string&, Row) override { return Refuse(); }
  Status DoUpdateCurrent(const std::string&, const std::vector<Value>&,
                         const std::vector<ColumnAssignment>&) override {
    return Refuse();
  }
  Status DoUpdateSequenced(const std::string&, const std::vector<Value>&, int,
                           const Period&,
                           const std::vector<ColumnAssignment>&) override {
    return Refuse();
  }
  Status DoUpdateOverwrite(const std::string&, const std::vector<Value>&, int,
                           const Period&,
                           const std::vector<ColumnAssignment>&) override {
    return Refuse();
  }
  Status DoDeleteCurrent(const std::string&,
                         const std::vector<Value>&) override {
    return Refuse();
  }
  Status DoDeleteSequenced(const std::string&, const std::vector<Value>&, int,
                           const Period&) override {
    return Refuse();
  }
  Status DoInstallVersion(const std::string&, const Row&) override {
    return Refuse();
  }

 private:
  static Status Refuse() { return Status::Unimplemented("read-only view"); }

  TemporalEngine* inner_;
  std::string trip_table_;
  uint64_t trip_row_;
  std::function<void(QueryContext*)> trip_;
  uint64_t delivered_ = 0;
};

void ExpectPoolIdle() {
  for (int spin = 0; spin < 2000; ++spin) {
    if (Pool().idle_workers() == Pool().num_workers()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(Pool().num_workers(), Pool().idle_workers());
}

// Streamed consumers of a LINEITEM scan: an aggregate over a filter, and a
// hash join probing with it.
PlanPtr TripPlan(bool join) {
  PlanPtr li =
      FilterPlan(FullScan("LINEITEM"), Gt(Col(lineitem::kQuantity), Lit(0.0)));
  if (!join) {
    return AggregatePlan(std::move(li), {lineitem::kReturnFlag},
                         {{AggKind::kCount, nullptr}});
  }
  return HashJoinPlan(std::move(li), FullScan("ORDERS"), {lineitem::kOrderKey},
                      {orders::kOrderKey}, 14);
}

void RunTripped(std::function<void(QueryContext*)> trip,
                QueryContext::Clock::duration budget, Status::Code want) {
  TemporalEngine& inner = Loaded("A").eng();
  const uint64_t total = inner.GetTableStats("LINEITEM").current_rows +
                         inner.GetTableStats("LINEITEM").history_rows;
  for (bool join : {false, true}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(join ? "join" : "aggregate") +
                   " threads=" + std::to_string(threads));
      TrippingEngine eng(&inner, "LINEITEM", 200, trip);
      QueryContext ctx(QueryContext::Clock::now() + budget);
      ExecOptions opts;
      opts.scan_threads = threads;
      opts.morsel_size = 64;
      opts.scheduler = &Pool();
      PlanPtr plan = TripPlan(join);
      Rows out;
      Status st = Execute(*plan, eng, opts, &ctx, &out);
      EXPECT_EQ(want, st.code()) << st.ToString();
      EXPECT_GE(eng.delivered(), 200u);
      EXPECT_LT(eng.delivered(), total);  // stopped mid-stream
      ExpectPoolIdle();
    }
  }
}

TEST(StreamedPlanTest, CancelMidStreamStopsTheQuery) {
  RunTripped([](QueryContext* ctx) { ctx->Cancel(); }, std::chrono::hours(1),
             Status::Code::kCancelled);
}

TEST(StreamedPlanTest, DeadlineMidStreamStopsTheQuery) {
  RunTripped(
      [](QueryContext*) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
      },
      std::chrono::milliseconds(300), Status::Code::kDeadlineExceeded);
}

}  // namespace
}  // namespace bih

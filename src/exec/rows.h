#ifndef TPCBIH_EXEC_ROWS_H_
#define TPCBIH_EXEC_ROWS_H_

#include <string>
#include <vector>

#include "common/value.h"

namespace bih {

// A materialized result set: a query's output, and the input of the plan
// nodes that need all of it at once (sort, the hash-join build side, merge
// join, the parallel aggregate). Scans, filters, projections and hash-join
// probes stream rows between nodes instead (see plan.h).
using Rows = std::vector<Row>;

// Pretty-prints rows for the examples and the driver (column names
// optional).
std::string FormatRows(const Rows& rows, const std::vector<std::string>& names,
                       size_t max_rows = 20);

}  // namespace bih

#endif  // TPCBIH_EXEC_ROWS_H_

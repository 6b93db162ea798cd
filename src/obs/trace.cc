#include "obs/trace.h"

#include <utility>

#include "common/logging.h"
#include "common/str_util.h"

namespace prost::obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery: return "query";
    case SpanKind::kScan: return "scan";
    case SpanKind::kJoin: return "join";
    case SpanKind::kExchange: return "exchange";
    case SpanKind::kFilter: return "filter";
    case SpanKind::kProject: return "project";
    case SpanKind::kDistinct: return "distinct";
    case SpanKind::kOrderBy: return "order_by";
    case SpanKind::kAggregate: return "aggregate";
    case SpanKind::kLimit: return "limit";
  }
  return "unknown";
}

int32_t QueryProfile::OpenSpan(SpanKind kind, std::string label,
                               double accounted_now) {
  int32_t id = static_cast<int32_t>(spans_.size());
  Span span;
  span.kind = kind;
  span.label = std::move(label);
  if (!stack_.empty()) {
    OpenFrame& parent = stack_.back();
    // The parent stops being the innermost span: bank its segment.
    spans_[static_cast<size_t>(parent.id)].charge_millis +=
        accounted_now - parent.segment_start;
    spans_[static_cast<size_t>(parent.id)].children.push_back(id);
    span.parent = parent.id;
  }
  spans_.push_back(std::move(span));
  stack_.push_back({id, accounted_now});
  return id;
}

void QueryProfile::CloseSpan(int32_t id, double accounted_now) {
  if (stack_.empty() || stack_.back().id != id) {
    PROST_WARN("CloseSpan(%d) does not match the innermost open span", id);
    return;
  }
  Span& span = spans_[static_cast<size_t>(id)];
  span.charge_millis += accounted_now - stack_.back().segment_start;
  span.total_charge_millis = span.charge_millis;
  for (int32_t child : span.children) {
    span.total_charge_millis +=
        spans_[static_cast<size_t>(child)].total_charge_millis;
  }
  stack_.pop_back();
  // The parent becomes innermost again; restart its segment here so
  // every accounted unit lands in exactly one span.
  if (!stack_.empty()) stack_.back().segment_start = accounted_now;
}

void QueryProfile::Finish(double simulated_millis,
                          const cluster::ExecutionCounters& counters) {
  if (!stack_.empty()) {
    PROST_WARN("Finish with %zu span(s) still open", stack_.size());
  }
  simulated_millis_ = simulated_millis;
  counters_ = counters;
  finished_ = true;
}

double QueryProfile::TotalChargedMillis() const {
  double total = 0;
  for (const Span& span : spans_) total += span.charge_millis;
  return total;
}

OperatorSpan::OperatorSpan(QueryProfile* profile,
                           const cluster::CostModel& cost, SpanKind kind,
                           std::string label) {
  if (profile == nullptr) return;
  profile_ = profile;
  cost_ = &cost;
  open_counters_ = cost.counters();
  id_ = profile->OpenSpan(kind, std::move(label), cost.AccountedMillis());
}

void OperatorSpan::SetDetail(std::string detail) {
  if (active()) Mutable().detail = std::move(detail);
}

void OperatorSpan::Close() {
  if (!active()) return;
  Span& span = Mutable();
  const cluster::ExecutionCounters& now = cost_->counters();
  span.bytes_scanned = now.bytes_scanned - open_counters_.bytes_scanned;
  span.bytes_shuffled = now.bytes_shuffled - open_counters_.bytes_shuffled;
  span.bytes_broadcast = now.bytes_broadcast - open_counters_.bytes_broadcast;
  span.wall_millis = timer_.StopMillis();
  profile_->CloseSpan(id_, cost_->AccountedMillis());
  profile_ = nullptr;
}

}  // namespace prost::obs

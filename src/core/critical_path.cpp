#include "core/critical_path.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>

namespace byzcast::core {

namespace {

/// Boundary times of one replica's pipeline for one message, rebuilt from
/// its chain spans. -1: stage not observed.
struct ChainTimes {
  Time wire_sent = -1;
  Time wire_enqueued = -1;
  Time svc_start = -1;
  Time admitted = -1;
  Time proposed = -1;
  Time write_quorum = -1;
  Time decided = -1;
  Time execute_end = -1;
  Time a_deliver = -1;
};

Time percentile(std::vector<Time>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

PercentileStats stats_of(std::vector<Time> v) {
  PercentileStats s;
  s.n = v.size();
  std::sort(v.begin(), v.end());
  s.p50 = percentile(v, 0.50);
  s.p99 = percentile(v, 0.99);
  return s;
}

}  // namespace

CriticalPathAnalyzer::CriticalPathAnalyzer(const SpanLog& log, Options opts) {
  std::vector<MessageId> ids = log.traced_messages();
  std::sort(ids.begin(), ids.end());
  for (const MessageId& id : ids) analyze(id, log.of(id), opts);
}

void CriticalPathAnalyzer::analyze(const MessageId& id,
                                   const std::vector<Span>& spans,
                                   Options opts) {
  MessageBreakdown out;
  out.id = id;

  // Rebuild per-(group, replica) chains, the relay edges, and the client's
  // end-to-end interval.
  std::map<GroupId, std::map<ProcessId, ChainTimes>> chains;
  std::map<GroupId, GroupId> parent_of;  // child -> parent, from kRelay
  bool have_e2e = false;
  Time submit = 0, completion = 0;
  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kEndToEnd:
        // One client owns the id; a duplicate stamp would be a harness bug.
        have_e2e = true;
        submit = s.begin;
        completion = s.end;
        out.dst_count = static_cast<std::size_t>(s.detail);
        break;
      case SpanKind::kRelay:
        parent_of.emplace(GroupId{static_cast<std::int32_t>(s.detail)},
                          s.group);
        break;
      default: {
        ChainTimes& c = chains[s.group][s.where];
        switch (s.kind) {
          case SpanKind::kNetTransit:
            c.wire_sent = s.begin;
            c.wire_enqueued = s.end;
            break;
          case SpanKind::kMailboxWait:
            c.wire_enqueued = s.begin;
            c.svc_start = s.end;
            break;
          case SpanKind::kCpuService:
            c.svc_start = s.begin;
            c.admitted = s.end;
            break;
          case SpanKind::kConsensusQueue:
            c.admitted = s.begin;
            c.proposed = s.end;
            break;
          case SpanKind::kWriteQuorum:
            c.proposed = s.begin;
            c.write_quorum = s.end;
            break;
          case SpanKind::kAcceptQuorum:
            c.write_quorum = s.begin;
            c.decided = s.end;
            break;
          case SpanKind::kExecute:
            c.decided = s.begin;
            c.execute_end = s.end;
            break;
          case SpanKind::kADeliver:
            c.a_deliver = s.begin;
            break;
          default:
            break;  // kOrderWait etc.: informational, not a chain boundary
        }
        break;
      }
    }
  }
  out.is_global = out.dst_count > 1;

  // Representative replica per group: the (f+1)-th earliest a-delivery
  // (falling back to execution end) — the copy that completes a client's
  // reply quorum. Ties break by replica id, so the choice is deterministic.
  struct Rep {
    ProcessId replica;
    Time ordered = -1;    // execute_end: when this replica genuinely ordered
    Time delivered = -1;  // a_deliver, if a destination
  };
  std::map<GroupId, Rep> rep;
  for (const auto& [g, by_replica] : chains) {
    std::vector<std::pair<Time, ProcessId>> ranked;
    for (const auto& [r, c] : by_replica) {
      const Time key = c.a_deliver >= 0 ? c.a_deliver : c.execute_end;
      if (key >= 0) ranked.emplace_back(key, r);
    }
    if (ranked.empty()) continue;
    std::sort(ranked.begin(), ranked.end());
    const std::size_t idx =
        std::min(static_cast<std::size_t>(opts.f), ranked.size() - 1);
    const ProcessId r = ranked[idx].second;
    const ChainTimes& c = by_replica.at(r);
    rep[g] = Rep{r, c.execute_end, c.a_deliver};
  }

  // Critical destination: the group whose representative a-delivery is
  // latest (its reply quorum completes the client's wait).
  GroupId critical;
  Time critical_time = -1;
  for (const auto& [g, r] : rep) {
    if (r.delivered > critical_time) {
      critical_time = r.delivered;
      critical = g;
    }
  }
  if (!have_e2e || !critical.valid()) {
    // Truncated trace (message lost, log capacity hit, or still in flight
    // at shutdown): report it, but without a decomposition.
    messages_.push_back(std::move(out));
    return;
  }
  out.complete = true;
  out.submitted = submit;
  out.end_to_end = completion - submit;
  out.critical_dst = critical;

  // Walk relay edges from the critical destination up to the entry group.
  std::vector<GroupId> path{critical};
  while (path.size() < 64) {  // cycle guard: Byzantine relays could lie
    const auto it = parent_of.find(path.back());
    if (it == parent_of.end()) break;
    if (std::find(path.begin(), path.end(), it->second) != path.end()) break;
    path.push_back(it->second);
  }
  std::reverse(path.begin(), path.end());  // entry group first

  // The clamped boundary chain. Each boundary closes an interval attributed
  // to one component; clamping keeps the chain monotone inside
  // [submit, completion] so the components telescope to end_to_end exactly.
  Time cursor = submit;
  const auto account = [&](Time boundary, Time Components::*component,
                           Components& hop) {
    if (boundary < 0) return;  // unobserved: merge into the next interval
    const Time next = std::clamp(boundary, cursor, completion);
    hop.*component += next - cursor;
    out.totals.*component += next - cursor;
    cursor = next;
  };

  GroupId prev_group;
  Time prev_ordered = -1;
  for (const GroupId g : path) {
    const auto rit = rep.find(g);
    if (rit == rep.end()) continue;  // no chain at this hop survived
    const ChainTimes& c = chains.at(g).at(rit->second.replica);
    out.hops.push_back(HopBreakdown{g, rit->second.replica, {}});
    Components& hop = out.hops.back().components;
    account(c.wire_sent, &Components::cpu, hop);       // sender processing
    account(c.wire_enqueued, &Components::network, hop);
    account(c.svc_start, &Components::queueing, hop);  // mailbox wait
    account(c.admitted, &Components::cpu, hop);        // service/admission
    account(c.proposed, &Components::queueing, hop);   // batching wait
    account(c.write_quorum, &Components::quorum_wait, hop);
    account(c.decided, &Components::quorum_wait, hop);
    account(c.execute_end, &Components::cpu, hop);
    if (prev_ordered >= 0 && c.execute_end >= 0) {
      edge_samples_[{prev_group, g}].push_back(
          std::max<Time>(0, c.execute_end - prev_ordered));
    }
    if (c.execute_end >= 0) {
      prev_group = g;
      prev_ordered = c.execute_end;
    }
  }
  // Whatever remains is the reply path: transit of the replies plus the
  // client's f+1-matching wait across all destination groups.
  if (!out.hops.empty()) {
    account(completion, &Components::quorum_wait, out.hops.back().components);
  } else {
    Components sink;
    account(completion, &Components::quorum_wait, sink);
  }

  messages_.push_back(std::move(out));
}

ClassAggregate CriticalPathAnalyzer::aggregate(bool global) const {
  ClassAggregate agg;
  std::vector<Time> e2e, queueing, cpu, network, quorum;
  for (const auto& m : messages_) {
    if (!m.complete || m.is_global != global) continue;
    e2e.push_back(m.end_to_end);
    queueing.push_back(m.totals.queueing);
    cpu.push_back(m.totals.cpu);
    network.push_back(m.totals.network);
    quorum.push_back(m.totals.quorum_wait);
  }
  agg.n = e2e.size();
  agg.end_to_end = stats_of(std::move(e2e));
  agg.queueing = stats_of(std::move(queueing));
  agg.cpu = stats_of(std::move(cpu));
  agg.network = stats_of(std::move(network));
  agg.quorum_wait = stats_of(std::move(quorum));
  return agg;
}

std::map<std::pair<GroupId, GroupId>, PercentileStats>
CriticalPathAnalyzer::edge_latency() const {
  std::map<std::pair<GroupId, GroupId>, PercentileStats> out;
  for (const auto& [edge, samples] : edge_samples_) {
    out.emplace(edge, stats_of(samples));
  }
  return out;
}

namespace {

void json_components(std::ostream& out, const Components& c) {
  out << "{\"queueing_ns\":" << c.queueing << ",\"cpu_ns\":" << c.cpu
      << ",\"network_ns\":" << c.network << ",\"quorum_wait_ns\":"
      << c.quorum_wait << "}";
}

void json_pcts(std::ostream& out, const PercentileStats& s) {
  out << "{\"n\":" << s.n << ",\"p50_ns\":" << s.p50 << ",\"p99_ns\":"
      << s.p99 << "}";
}

void json_aggregate(std::ostream& out, const ClassAggregate& a) {
  const std::pair<const char*, const PercentileStats*> fields[] = {
      {"end_to_end", &a.end_to_end}, {"queueing", &a.queueing},
      {"cpu", &a.cpu}, {"network", &a.network},
      {"quorum_wait", &a.quorum_wait}};
  out << "{\"n\":" << a.n;
  for (const auto& [name, stats] : fields) {
    out << ",\"" << name << "\":";
    json_pcts(out, *stats);
  }
  out << "}";
}

}  // namespace

void write_hops_json(std::ostream& out, const std::vector<HopBreakdown>& hops) {
  out << "[";
  bool first = true;
  for (const auto& h : hops) {
    if (!first) out << ",";
    first = false;
    out << "{\"group\":" << h.group.value << ",\"replica\":"
        << h.replica.value << ",\"components\":";
    json_components(out, h.components);
    out << "}";
  }
  out << "]";
}

void write_spans_v1(std::ostream& out, const CriticalPathAnalyzer& analyzer,
                    int f, std::size_t spans_recorded,
                    std::uint64_t spans_dropped,
                    const std::optional<MonitorCounts>& monitors) {
  out << "{\"schema\":\"byzcast-spans-v1\"";
  out << ",\"f\":" << f;
  out << ",\"spans_recorded\":" << spans_recorded;
  out << ",\"spans_dropped\":" << spans_dropped;

  out << ",\"messages\":[";
  bool first = true;
  for (const auto& m : analyzer.messages()) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":\"" << to_string(m.id) << "\",\"complete\":"
        << (m.complete ? "true" : "false") << ",\"dst_count\":" << m.dst_count
        << ",\"global\":" << (m.is_global ? "true" : "false")
        << ",\"submitted_ns\":" << m.submitted << ",\"end_to_end_ns\":"
        << m.end_to_end;
    if (m.complete) {
      out << ",\"critical_dst\":" << m.critical_dst.value << ",\"totals\":";
      json_components(out, m.totals);
      out << ",\"hops\":";
      write_hops_json(out, m.hops);
    }
    out << "}";
  }
  out << "]";

  out << ",\"aggregates\":{\"local\":";
  json_aggregate(out, analyzer.aggregate(/*global=*/false));
  out << ",\"global\":";
  json_aggregate(out, analyzer.aggregate(/*global=*/true));
  out << "}";

  out << ",\"edges\":[";
  first = true;
  for (const auto& [edge, stats] : analyzer.edge_latency()) {
    if (!first) out << ",";
    first = false;
    out << "{\"parent\":" << edge.first.value << ",\"child\":"
        << edge.second.value << ",\"stats\":";
    json_pcts(out, stats);
    out << "}";
  }
  out << "]";

  out << ",\"monitor\":";
  if (!monitors) {
    out << "null";
    return;
  }
  out << "{\"violations_total\":" << monitors->total;
  for (std::size_t i = 0; i < std::size(kMonitorNames); ++i) {
    out << ",\"" << kMonitorNames[i] << "\":" << monitors->by_monitor[i];
  }
  out << "}";
}

}  // namespace byzcast::core
